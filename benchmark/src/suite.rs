//! The subcommands: one workload in this process, the whole suite with one
//! child process per workload (so peak memory is per workload), `repeat`
//! (do two sets of runs of the same code agree?) and `compare` (two result
//! files, row by row).

use std::collections::BTreeMap;
use std::process::Command;

use crate::json::{self, Value};
use crate::spec::{self, Better};
use crate::stats::{median, quartiles, spread};
use crate::workloads::{self, Params};
use crate::{report, trace, Args};

/// `run --workload W`: the contract's single run. Prints the result line
/// last; a traced run also writes `benchmark/out/trace-W.json`.
pub fn run_one(args: &Args) -> Result<bool, String> {
    let workload = args.workload.as_deref().expect("checked by the caller");
    let p = Params {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        check: args.check,
    };
    let outcome = workloads::run(workload, &p)?;
    let line = report::result_line(&outcome, p.trace)?;
    if p.trace {
        trace::write_file(workload, p.seed, outcome.summary)
            .map_err(|e| format!("cannot write the trace file: {e}"))?;
    }
    println!("{line}");
    Ok(true)
}

/// One finished run, as kept in result files.
#[derive(Debug, Clone)]
struct Record {
    workload: String,
    trace: bool,
    set: usize,
    correct: bool,
    attempted: f64,
    failed: f64,
    /// name → (value, unit), in printed order.
    metrics: Vec<(String, f64, String)>,
}

impl Record {
    /// From the line a single run prints.
    fn from_line(workload: &str, trace: bool, set: usize, line: &str) -> Result<Record, String> {
        let v = json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?;
        Record::from_value(workload, trace, set, &v)
    }

    fn from_value(workload: &str, trace: bool, set: usize, v: &Value) -> Result<Record, String> {
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| format!("{workload}: result lacks {k}"))
        };
        let metrics = field("metrics")?
            .as_obj()
            .ok_or("metrics is not an object")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64);
                let unit = m.get("unit").and_then(Value::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                    _ => Err(format!("{workload}: metric {name} lacks value or unit")),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(Record {
            workload: workload.to_string(),
            trace,
            set,
            correct: field("correct")?.as_bool().unwrap_or(false),
            attempted: field("attempted")?.as_f64().unwrap_or(0.0),
            failed: field("failed")?.as_f64().unwrap_or(0.0),
            metrics,
        })
    }

    fn to_json(&self) -> Value {
        Value::obj([
            ("workload", Value::str(&self.workload)),
            ("trace", Value::Num(f64::from(u8::from(self.trace)))),
            ("set", Value::Num(self.set as f64)),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted)),
            ("failed", Value::Num(self.failed)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|(n, v, u)| {
                    (
                        n.clone(),
                        Value::obj([("value", Value::Num(*v)), ("unit", Value::str(u))]),
                    )
                })),
            ),
        ])
    }

    fn from_json(v: &Value) -> Result<Record, String> {
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run lacks workload")?;
        let trace = v.get("trace").and_then(Value::as_f64) == Some(1.0);
        let set = v.get("set").and_then(Value::as_f64).unwrap_or(0.0) as usize;
        Record::from_value(workload, trace, set, v)
    }
}

/// Runs one workload in a child process of this same executable.
fn child(args: &Args, workload: &str, trace: bool, set: usize) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.check {
        command.arg("--check");
    }
    // `output` waits for the child to end and collects what it printed.
    let output = command
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace={}) exited with {}: {}",
            u8::from(trace),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    Record::from_line(workload, trace, set, line)
}

fn write_results(args: &Args, records: &[Record]) -> Result<(), String> {
    let Some(path) = &args.out else {
        return Ok(());
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Value::obj([
        ("nproc", Value::Num(nproc as f64)),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("check", Value::Bool(args.check)),
        (
            "runs",
            Value::Arr(records.iter().map(Record::to_json).collect()),
        ),
    ]);
    std::fs::write(path, doc.render_pretty()).map_err(|e| format!("cannot write {path}: {e}"))
}

fn read_results(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("runs")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?
        .iter()
        .map(Record::from_json)
        .collect()
}

/// `run` without `--workload`: every workload, each in its own process.
pub fn run_suite(args: &Args) -> Result<bool, String> {
    let mut records = Vec::new();
    for workload in spec::workload_names() {
        records.push(child(args, workload, false, 0)?);
        if args.trace {
            records.push(child(args, workload, true, 0)?);
        }
    }
    println!("{:<12} {:<32} {:>16} unit", "workload", "metric", "value");
    for r in &records {
        for (name, value, unit) in &r.metrics {
            println!("{:<12} {:<32} {:>16.4} {}", r.workload, name, value, unit);
        }
        println!(
            "{:<12} {:<32} {:>16} of {} attempted{}",
            r.workload,
            "failed",
            r.failed,
            r.attempted,
            if r.correct { "" } else { "  <-- WRONG ANSWERS" }
        );
    }
    write_results(args, &records)?;
    Ok(records.iter().all(|r| r.correct))
}

/// Every value of one metric on one workload in one mode.
struct Row {
    workload: String,
    metric: String,
    trace: bool,
    /// (set, value) per run.
    values: Vec<(usize, f64)>,
}

impl Row {
    fn of_set(&self, set: usize) -> Vec<f64> {
        let of_set = self.values.iter().filter(|(s, _)| *s == set);
        of_set.map(|(_, v)| *v).collect()
    }

    fn all(&self) -> Vec<f64> {
        self.values.iter().map(|(_, v)| *v).collect()
    }
}

/// One row per (workload, metric, mode), in first-seen order.
fn group(records: &[Record]) -> Vec<Row> {
    let mut index: BTreeMap<(&str, &str, bool), usize> = BTreeMap::new();
    let mut rows: Vec<Row> = Vec::new();
    for r in records {
        for (name, value, _) in &r.metrics {
            let at = *index
                .entry((&r.workload, name, r.trace))
                .or_insert_with(|| {
                    rows.push(Row {
                        workload: r.workload.clone(),
                        metric: name.clone(),
                        trace: r.trace,
                        values: Vec::new(),
                    });
                    rows.len() - 1
                });
            rows[at].values.push((r.set, *value));
        }
    }
    rows
}

fn quartile_text(values: &[f64]) -> String {
    if values.len() < 2 {
        return format!("{:.4}", median(values));
    }
    let [q1, q2, q3] = quartiles(values);
    format!("{q2:.4} [{q1:.4}, {q3:.4}]")
}

/// `repeat`: the whole suite `sets × runs` times on one seed. Fails if two
/// sets' medians of an end-to-end metric differ by more than its bound, an
/// exact counter differs between any two runs, or an answer was wrong.
pub fn repeat(args: &Args) -> Result<bool, String> {
    if args.sets < 2 || args.runs < 1 {
        return Err("repeat needs --sets >= 2 and --runs >= 1".into());
    }
    let mut records = Vec::new();
    for set in 0..args.sets {
        for run in 0..args.runs {
            for workload in spec::workload_names() {
                eprintln!("set {set} run {run}: {workload}");
                records.push(child(args, workload, false, set)?);
                records.push(child(args, workload, true, set)?);
            }
        }
    }
    write_results(args, &records)?;
    let mut ok = records.iter().all(|r| r.correct);
    println!(
        "{:<12} {:<32} {:<34} {:<34} {:>8} {:>6}  verdict",
        "workload", "metric", "set 0 median [q1, q3]", "set 1 median [q1, q3]", "gap", "bound"
    );
    for row in group(&records) {
        let Some((metric, end_to_end)) = spec::find_metric(&row.metric) else {
            return Err(format!("result names an undeclared metric {}", row.metric));
        };
        let medians: Vec<f64> = (0..args.sets).map(|s| median(&row.of_set(s))).collect();
        let base = medians[0].abs().max(f64::MIN_POSITIVE);
        let gap = medians
            .iter()
            .map(|m| (m - medians[0]).abs() / base)
            .fold(0.0, f64::max);
        let verdict = if end_to_end {
            if gap > metric.bound {
                ok = false;
                "GAP EXCEEDS BOUND"
            } else {
                "ok"
            }
        } else if metric.exact {
            if row.all().iter().all(|v| *v == row.values[0].1) {
                "exact"
            } else {
                ok = false;
                "COUNTER DIFFERS"
            }
        } else {
            "-"
        };
        let bound = if end_to_end {
            format!("{:.2}", metric.bound)
        } else {
            String::new()
        };
        println!(
            "{:<12} {:<32} {:<34} {:<34} {:>8.4} {:>6}  {}",
            row.workload,
            row.metric,
            quartile_text(&row.of_set(0)),
            quartile_text(&row.of_set(1)),
            gap,
            bound,
            verdict
        );
    }
    Ok(ok)
}

/// `compare A.json B.json`: per (metric, workload) both medians, the ratio
/// with its base named, and what the benchmark's bound makes of it.
pub fn compare(args: &Args) -> Result<bool, String> {
    let [a_path, b_path] = args.files.as_slice() else {
        return Err("compare takes two result files: compare A.json B.json".into());
    };
    let a = group(&read_results(a_path)?);
    let b = group(&read_results(b_path)?);
    println!(
        "{:<12} {:<32} {:>14} {:>14} {:>10} {:>6}  verdict   (A = {a_path}, B = {b_path})",
        "workload", "metric", "A median", "B median", "B / A", "bound"
    );
    for row in &a {
        let same = |other: &&Row| {
            (&other.workload, &other.metric, other.trace) == (&row.workload, &row.metric, row.trace)
        };
        let (Some(other), Some((metric, end_to_end))) =
            (b.iter().find(same), spec::find_metric(&row.metric))
        else {
            continue;
        };
        let (a_values, b_values) = (row.all(), other.all());
        let (ma, mb) = (median(&a_values), median(&b_values));
        let noise = [&a_values, &b_values]
            .iter()
            .filter(|v| v.len() >= 2)
            .map(|v| spread(v))
            .fold(0.0, f64::max);
        let worse_by = match metric.better {
            Better::Lower => (mb - ma) / ma.abs(),
            Better::Higher => (ma - mb) / ma.abs(),
        };
        let verdict = if end_to_end {
            if noise > metric.bound {
                "unresolved (spread wider than the bound)"
            } else if worse_by > metric.bound {
                "worse"
            } else if -worse_by > noise && -worse_by > 0.0 {
                "better"
            } else {
                "within bound"
            }
        } else if metric.exact {
            if a_values.iter().chain(&b_values).all(|v| *v == a_values[0]) {
                "equal"
            } else {
                "differs"
            }
        } else {
            "-"
        };
        let bound = if end_to_end {
            format!("{:.2}", metric.bound)
        } else {
            String::new()
        };
        println!(
            "{:<12} {:<32} {:>14.4} {:>14.4} {:>10} {:>6}  {}",
            row.workload,
            row.metric,
            ma,
            mb,
            // A layer a workload does not exercise reads 0 on both sides.
            if ma == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", mb / ma)
            },
            bound,
            verdict
        );
    }
    Ok(true)
}
