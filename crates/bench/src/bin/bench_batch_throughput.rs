//! `bench_batch_throughput` — the perf-trajectory recorder for batch
//! execution (`Session::run_many`, whose hinted plane scans split into
//! morsels on a wider pool).
//!
//! Runs the vertical and mixed batch workloads through
//! `Session::run_many` at pool widths 1, 2, and 4 and writes
//! `BENCH_batch_throughput.json` (machine-readable: one record per
//! workload × engine × width with wall time, throughput, speedup over
//! width 1, and the touched-node total — which must be *identical*
//! across widths, asserted here, since morsels change who reads a
//! position, never whether it is read).
//!
//! ```text
//! cargo run -p staircase-bench --release --bin bench_batch_throughput
//!     [--smoke]      3 repetitions instead of 120 (CI keep-alive mode)
//!     [--scale S]    xmlgen scale factor (default 0.4, ≈ 20k nodes)
//!     [--out PATH]   output path (default BENCH_batch_throughput.json)
//! ```
//!
//! CI runs `--smoke` on every push and uploads the JSON as an artifact,
//! so the throughput trajectory accumulates run over run.

use std::fmt::Write as _;
use std::time::Instant;

use staircase_bench::{Workload, BATCH_MIXED, BATCH_VERTICAL};
use staircase_xpath::{Engine, Query, Session};

const WIDTHS: [usize; 3] = [1, 2, 4];

struct Record {
    workload: &'static str,
    engine: &'static str,
    width: usize,
    best_ms: f64,
    queries_per_sec: f64,
    speedup_vs_width1: f64,
    touched: u64,
}

fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let mut smoke = false;
    let mut scale = 0.4f64;
    let mut out_path = "BENCH_batch_throughput.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale takes a number");
            }
            "--out" => out_path = args.next().expect("--out takes a path"),
            other => panic!("unknown flag {other}"),
        }
    }
    let reps = if smoke { 3 } else { 120 };

    // One session per width over the same generated document.
    let workloads: Vec<Workload> = WIDTHS
        .iter()
        .map(|&w| Workload::generate_with_threads(scale, w))
        .collect();
    for w in &workloads {
        w.session().warm();
    }
    let nodes = workloads[0].doc().len();
    eprintln!(
        "document: scale {scale}, {nodes} nodes, height {}; reps {reps}",
        workloads[0].doc().height()
    );

    let engines: [(&str, Engine); 3] = [
        ("staircase", Engine::default()),
        (
            "fragmented",
            Engine::staircase().fragmented(true).build().unwrap(),
        ),
        ("auto", Engine::auto()),
    ];
    let cases: [(&str, &[&str]); 2] = [("vertical", &BATCH_VERTICAL), ("mixed", &BATCH_MIXED)];

    let mut records: Vec<Record> = Vec::new();
    for (workload_name, exprs) in cases {
        for (engine_name, engine) in engines {
            let mut base_ms = 0.0f64;
            let mut base_touched = 0u64;
            for (wi, w) in workloads.iter().enumerate() {
                let session: &Session = w.session();
                let queries: Vec<Query> = exprs
                    .iter()
                    .map(|e| session.prepare(e).expect("workload query parses"))
                    .collect();
                let refs: Vec<&Query> = queries.iter().collect();
                let secs = best_secs(reps, || {
                    std::hint::black_box(session.run_many(&refs, engine));
                });
                let touched: u64 = session
                    .run_many(&refs, engine)
                    .iter()
                    .map(|o| o.stats().total_touched())
                    .sum();
                if wi == 0 {
                    base_ms = secs * 1e3;
                    base_touched = touched;
                } else {
                    assert_eq!(
                        touched, base_touched,
                        "{workload_name}/{engine_name}: touched totals must not depend on width"
                    );
                }
                records.push(Record {
                    workload: workload_name,
                    engine: engine_name,
                    width: WIDTHS[wi],
                    best_ms: secs * 1e3,
                    queries_per_sec: exprs.len() as f64 / secs,
                    speedup_vs_width1: base_ms / (secs * 1e3),
                    touched,
                });
                eprintln!(
                    "{workload_name:>8}/{engine_name:<10} width {:>2}: {:>8.3} ms  ({:.2}x vs width 1, touched {touched})",
                    WIDTHS[wi],
                    secs * 1e3,
                    base_ms / (secs * 1e3),
                );
            }
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"batch_throughput\",");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"doc_nodes\": {nodes},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"engine\": \"{}\", \"width\": {}, \
             \"best_ms\": {:.4}, \"queries_per_sec\": {:.1}, \
             \"speedup_vs_width1\": {:.3}, \"touched_nodes\": {}}}",
            r.workload,
            r.engine,
            r.width,
            r.best_ms,
            r.queries_per_sec,
            r.speedup_vs_width1,
            r.touched
        );
        json.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write bench json");
    eprintln!("wrote {out_path}");
}
