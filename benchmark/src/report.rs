//! The one line a run prints: `correct`, `attempted`, `failed` and every
//! declared metric of the run's mode — no more, no fewer.

use crate::json::Value;
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::workloads::Outcome;

/// The metrics a run in this mode must print.
pub fn declared(trace: bool) -> &'static [MetricSpec] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Renders the result line, in declared order. Fails if the run produced a
/// name that is not declared for its mode, produced one twice, left an
/// end-to-end metric out, or measured something that is not a finite
/// number. A per-layer metric the workload did not measure prints as 0:
/// the workload does not exercise that layer.
pub fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let declared = declared(trace);
    for (i, (name, _)) in outcome.metrics.iter().enumerate() {
        if !declared.iter().any(|m| m.name == *name) {
            return Err(format!("metric {name} is not declared for trace={trace}"));
        }
        if outcome.metrics[..i].iter().any(|(n, _)| n == name) {
            return Err(format!("metric {name} reported twice"));
        }
    }
    let mut metrics = Vec::new();
    for spec in declared {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == spec.name)
            .map(|(_, v)| *v);
        let value = match value {
            Some(v) => v,
            None if trace => 0.0,
            None => return Err(format!("declared metric {} was not measured", spec.name)),
        };
        if !value.is_finite() {
            return Err(format!("metric {} is not a finite number", spec.name));
        }
        metrics.push((
            spec.name,
            Value::obj([
                ("value", Value::Num(value)),
                ("unit", Value::str(spec.unit)),
            ]),
        ));
    }
    Ok(Value::obj([
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ])
    .render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, Params};

    fn outcome(metrics: Vec<(&'static str, f64)>) -> Outcome {
        Outcome {
            attempted: 10,
            failed: 0,
            metrics,
            summary: Value::Null,
        }
    }

    #[test]
    fn refuses_undeclared_missing_and_duplicate_names() {
        let full: Vec<_> = END_TO_END.iter().map(|m| (m.name, 1.5)).collect();
        assert!(result_line(&outcome(full.clone()), false).is_ok());
        let mut extra = full.clone();
        extra.push(("made.up", 1.0));
        assert!(result_line(&outcome(extra), false).is_err());
        assert!(result_line(&outcome(full[1..].to_vec()), false).is_err());
        let mut twice = full.clone();
        twice.push(full[0]);
        assert!(result_line(&outcome(twice), false).is_err());
        let mut nan = full;
        nan[0].1 = f64::NAN;
        assert!(result_line(&outcome(nan), false).is_err());
    }

    /// Every workload, both modes, in smoke size: the line parses, is
    /// correct, and holds exactly the names `BENCHMARK.json` declares.
    #[test]
    fn every_workload_prints_exactly_the_declared_metrics() {
        for workload in crate::spec::workload_names() {
            for trace in [false, true] {
                let p = Params {
                    seed: 3,
                    seconds: 0.05,
                    trace,
                    check: true,
                };
                let outcome = workloads::run(workload, &p).expect("workload runs");
                assert_eq!(outcome.failed, 0, "{workload} trace={trace}");
                let line = result_line(&outcome, trace)
                    .unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
                let parsed = crate::json::parse(&line).expect("result line is JSON");
                assert_eq!(parsed.get("correct").and_then(Value::as_bool), Some(true));
                let names: Vec<&str> = parsed
                    .get("metrics")
                    .and_then(Value::as_obj)
                    .expect("metrics object")
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                let want: Vec<&str> = declared(trace).iter().map(|m| m.name).collect();
                assert_eq!(names, want, "{workload} trace={trace}");
            }
        }
    }
}
