//! Every workload and metric the benchmark declares, by name. `BENCHMARK.json`
//! at the repository root is `spec` printed (`… -- spec`); a unit test keeps
//! the two equal, and `report::emit` refuses a result that prints a name
//! not listed here or omits one that is.

use crate::json::Value;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

pub const PATHS: &[&str] = &["benchmark"];

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "ingest_cold",
        why: "XML or .scj bytes to three first answers on a brand-new session: xml, accel and lazy index build do the work, steady-state kernels almost none",
    },
    WorkloadSpec {
        name: "point_warm",
        why: "12 selective queries on a warm session: planner, plan cache, tag fragments, on-list joins and twig fusion do the work, scan kernels little",
    },
    WorkloadSpec {
        name: "scan_warm",
        why: "queries that read most of the plane or return huge results: core scan kernels and memory bandwidth do the work, the index almost none",
    },
    WorkloadSpec {
        name: "skew_warm",
        why: "Zipf-skewed and statistics-defeating documents under auto and adaptive: the only place twig matching, calibration and re-planning pay",
    },
    WorkloadSpec {
        name: "batch_pool",
        why: "run_many over 16 queries as one batch per engine: the lane executor, shared passes and multi-context kernels do the work",
    },
    WorkloadSpec {
        name: "serve_wire",
        why: "the point mix through an in-process server on loopback, 2 closed-loop connections: framing, admission window, batcher and conn loop dominate",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may worsen before it counts as a regression.
    pub bound: f64,
    /// Per-layer only: a count that must repeat exactly between runs of the
    /// same code on the same seed (`repeat` fails when one differs).
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Measured with tracing off, on every workload. Each bound is about three
/// times the widest interquartile spread any workload showed over ten seeds
/// (RESULTS.md has the measurements).
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_qps", "1/s", Higher, 0.15),
    e2e("geomean_query_us", "us", Lower, 0.15),
    e2e("pass_p95_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Measured in the separate traced run. Layers are crate names; a value of
/// 0 means the workload does not exercise that layer.
pub const PER_LAYER: &[MetricSpec] = &[
    // harness: the in-run yardstick and what tracing itself costs
    layer("ref.scan_ms", "ms", Lower),
    layer("ref.memcpy_gb_s", "GB/s", Higher),
    layer("ref.memcpy_drift", "ratio", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    exact("trace.spans_per_pass", "count", Lower),
    // where the measured pass spent its time, by layer (self time shares)
    layer("share.xml", "ratio", Lower),
    layer("share.accel", "ratio", Lower),
    layer("share.xpath_core", "ratio", Lower),
    layer("share.server", "ratio", Lower),
    layer("share.harness", "ratio", Lower),
    layer("core.kernel_share_est", "ratio", Lower),
    // xml
    layer("xml.pull_parse_mb_s", "MB/s", Higher),
    layer("xml.events_per_s", "1/s", Higher),
    // accel
    layer("accel.encode_mb_s", "MB/s", Higher),
    layer("accel.ingest_mb_s", "MB/s", Higher),
    layer("accel.persist_encode_mb_s", "MB/s", Higher),
    layer("accel.persist_decode_mb_s", "MB/s", Higher),
    layer("accel.validate_ms", "ms", Lower),
    exact("accel.live_bytes_per_node", "B", Lower),
    exact("accel.scj_bytes_per_xml_byte", "ratio", Lower),
    // core: index build and crack
    layer("core.docstats_build_ms", "ms", Lower),
    layer("core.tagindex_build_ms", "ms", Lower),
    layer("core.tagindex_lazy_first_us", "us", Lower),
    exact("core.crack_scan_work", "count", Lower),
    exact("core.fragments_built", "count", Lower),
    exact("core.bitmaps_built", "count", Lower),
    exact("core.index_live_bytes_per_node", "B", Lower),
    // baselines
    layer("baselines.sql_build_ms", "ms", Lower),
    // core: kernels called directly, priced against the in-run memcpy
    layer("core.desc_root_ns_per_node", "ns", Lower),
    layer("core.desc_root_frac_memcpy", "ratio", Higher),
    layer("core.desc_skip_ns_per_touched", "ns", Lower),
    layer("core.anc_ns_per_touched", "ns", Lower),
    layer("core.following_ns_per_node", "ns", Lower),
    layer("core.preceding_ns_per_node", "ns", Lower),
    layer("core.on_list_desc_ns_per_entry", "ns", Lower),
    layer("core.on_list_anc_ns_per_entry", "ns", Lower),
    layer("core.twig_ns_per_seek", "ns", Lower),
    exact("core.bound_ratio", "ratio", Lower),
    // core: counters of one pass over the mix
    exact("core.touched", "count", Lower),
    exact("core.seeks", "count", Lower),
    exact("core.duplicates", "count", Lower),
    exact("core.touched_per_result", "ratio", Lower),
    // xpath
    layer("xpath.parse_us", "us", Lower),
    layer("xpath.plan_us", "us", Lower),
    layer("xpath.prepare_us", "us", Lower),
    layer("xpath.fixed_overhead_us", "us", Lower),
    layer("xpath.first_run_over_steady", "ratio", Lower),
    exact("xpath.replans", "count", Lower),
    exact("xpath.twig_steps", "count", Lower),
    layer("alloc.count_per_query", "count", Lower),
    layer("alloc.bytes_per_query", "B", Lower),
    // xpath batch + core pool
    layer("xpath.batch_speedup", "ratio", Higher),
    exact("xpath.batch_share_ratio", "ratio", Lower),
    layer("core.pool_speedup", "ratio", Higher),
    // server
    layer("server.wire_p50_ms", "ms", Lower),
    layer("server.wire_overhead_us", "us", Lower),
    layer("server.avg_batch", "count", Higher),
    exact("server.busy_rejections", "count", Lower),
    layer("server.rate_met_qps", "1/s", Higher),
    layer("server.gen_late_p95_ms", "ms", Lower),
    layer("server.frame_encode_ns_per_id", "ns", Lower),
    layer("server.frame_decode_ns_per_id", "ns", Lower),
    layer("server.render_ns_per_node", "ns", Lower),
];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

pub fn find_metric(name: &str) -> Option<(&'static MetricSpec, bool)> {
    END_TO_END
        .iter()
        .map(|m| (m, true))
        .chain(PER_LAYER.iter().map(|m| (m, false)))
        .find(|(m, _)| m.name == name)
}

/// The name grammar of `BENCHMARK.json`: starts with a letter or digit, at
/// most 64 of letters, digits, `_`, `.`, `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// `BENCHMARK.json` as a value.
pub fn benchmark_json() -> Value {
    let strs = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::str(*s)).collect());
    Value::obj([
        ("command", strs(COMMAND)),
        ("paths", strs(PATHS)),
        ("run_seconds", Value::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_follow_the_grammar_and_are_used_once() {
        let mut seen = BTreeSet::new();
        for name in END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("µs"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn limits_of_the_contract_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32);
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn committed_benchmark_json_is_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        // `assert!`, not `assert_eq!`: a mismatch should not print both files.
        assert!(
            crate::json::parse(&text).expect("BENCHMARK.json parses") == benchmark_json(),
            "BENCHMARK.json differs from src/spec.rs; regenerate it with \
             `cargo run --manifest-path benchmark/Cargo.toml -- spec > BENCHMARK.json`"
        );
    }
}
