//! `bench_twig` — worst-case-optimal twig matching vs step-at-a-time.
//!
//! Two workloads over the same query shapes:
//!
//! * **skewed** — the adversarial rare-under-common documents from
//!   `staircase_xmlgen::generate_skewed` (`--skew` sets the Zipf
//!   exponent): a huge `a[b]` frontier of which only a planted sliver
//!   leads to the rare `c[d]` tail. Step-at-a-time plans materialize
//!   the whole frontier; the fused `StepOp::Twig` leapfrog runs its
//!   pivot cursor over the tiny `c` fragment instead.
//! * **uniform** — the XMark-like generator at comparable size, where
//!   step-at-a-time is already near-optimal and `Engine::auto` must
//!   *decline* twig fusion rather than regress.
//!
//! Per workload × engine (fragmented step-at-a-time, forced twig,
//! auto) the harness records wall time (best of `--iters`), result
//! cardinality, nodes touched, leapfrog seeks, and the **peak
//! intermediate** (largest per-step context), and asserts all engines
//! agree on the result before writing `BENCH_twig.json`.
//!
//! ```text
//! cargo run -p staircase-bench --release --bin bench_twig --
//!     [--skew Z]      Zipf exponent for the skewed documents (1.2)
//!     [--scale S]     document scale, ≈ 50k nodes per unit (4.0)
//!     [--iters N]     timed runs per engine, best kept (5)
//!     [--seed U]      skewed-generator seed (default 0x5EED)
//!     [--out PATH]    output path (BENCH_twig.json)
//!     [--smoke]       small doc, 2 iters (CI keep-alive)
//! ```
//!
//! CI runs `--smoke` on every push and uploads the JSON as an
//! artifact, alongside the other BENCH JSONs.

use std::fmt::Write as _;
use std::time::Instant;

use staircase_bench::cli::Args;
use staircase_xmlgen::{generate, generate_skewed, SkewConfig, XmarkConfig};
use staircase_xpath::{Engine, Session, StepOp};

const USAGE: &str =
    "usage: bench_twig [--skew Z] [--scale S] [--iters N] [--seed U] [--out PATH] [--smoke]";

struct Config {
    skew: f64,
    scale: f64,
    iters: usize,
    seed: u64,
    out_path: String,
}

/// One engine's measurements on one query.
struct Measurement {
    engine: &'static str,
    ms: f64,
    rows: usize,
    touched: u64,
    seeks: u64,
    peak_intermediate: usize,
    fused_steps: usize,
}

fn engines() -> Vec<(&'static str, Engine)> {
    vec![
        (
            "step",
            Engine::staircase()
                .fragmented(true)
                .build()
                .expect("fragmented step engine is valid"),
        ),
        ("twig", Engine::twig()),
        ("auto", Engine::auto()),
    ]
}

fn measure(session: &Session, expr: &str, cfg: &Config) -> Vec<Measurement> {
    let query = session.prepare(expr).expect("benchmark query parses");
    let mut out = Vec::new();
    for (name, engine) in engines() {
        let fused_steps = query
            .explain(engine)
            .branches()
            .iter()
            .flat_map(|b| b.steps())
            .filter(|s| matches!(s.operator(), StepOp::Twig(_)))
            .count();
        let mut best_ms = f64::INFINITY;
        let mut kept = None;
        for _ in 0..cfg.iters {
            let started = Instant::now();
            let result = query.run(engine);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            if ms < best_ms {
                best_ms = ms;
                kept = Some(result);
            }
        }
        let result = kept.expect("at least one iteration ran");
        let stats = result.stats();
        out.push(Measurement {
            engine: name,
            ms: best_ms,
            rows: result.len(),
            touched: stats.total_touched(),
            seeks: stats.total_seeks(),
            peak_intermediate: stats.steps.iter().map(|s| s.result_size).max().unwrap_or(0),
            fused_steps,
        });
    }
    // The whole point is that only the access pattern changes.
    for pair in out.windows(2) {
        assert_eq!(
            pair[0].rows, pair[1].rows,
            "{expr}: {} and {} disagree on cardinality",
            pair[0].engine, pair[1].engine
        );
    }
    out
}

fn by<'m>(ms: &'m [Measurement], engine: &str) -> &'m Measurement {
    ms.iter()
        .find(|m| m.engine == engine)
        .expect("engine measured")
}

fn write_queries(json: &mut String, results: &[(&str, Vec<Measurement>)]) {
    json.push_str("  \"queries\": [\n");
    for (qi, (expr, ms)) in results.iter().enumerate() {
        let _ = writeln!(json, "    {{\"query\": \"{expr}\", \"engines\": [");
        for (ei, m) in ms.iter().enumerate() {
            let _ = write!(
                json,
                "      {{\"engine\": \"{}\", \"ms\": {:.3}, \"rows\": {}, \
                 \"touched\": {}, \"seeks\": {}, \"peak_intermediate\": {}, \
                 \"fused_steps\": {}}}",
                m.engine, m.ms, m.rows, m.touched, m.seeks, m.peak_intermediate, m.fused_steps
            );
            json.push_str(if ei + 1 < ms.len() { ",\n" } else { "\n" });
        }
        json.push_str("    ]}");
        json.push_str(if qi + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]");
}

fn main() {
    let mut cfg = Config {
        skew: 1.2,
        scale: 4.0,
        iters: 5,
        seed: 0x5EED,
        out_path: "BENCH_twig.json".to_string(),
    };
    let mut smoke = false;
    let mut args = Args::new(USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--skew" => cfg.skew = args.value("--skew"),
            "--scale" => cfg.scale = args.value("--scale"),
            "--iters" => cfg.iters = args.value("--iters"),
            "--seed" => cfg.seed = args.value("--seed"),
            "--out" => cfg.out_path = args.value("--out"),
            "--smoke" => smoke = true,
            other => args.refuse(&format!("unknown flag {other}")),
        }
    }
    if smoke {
        cfg.scale = cfg.scale.min(0.5);
        cfg.iters = cfg.iters.min(2);
    }
    if cfg.iters == 0 {
        args.refuse("--iters must be positive");
    }

    // The adversarial query family the skewed generator is built for;
    // both descendant-chain and child-edge predicates so the leapfrog's
    // two edge kinds are exercised.
    let twig_queries = [
        "/descendant::a[descendant::b]/descendant::c[descendant::d]",
        "/descendant::a[child::b]/descendant::c[child::d]",
    ];
    // Uniform-workload shapes over the XMark vocabulary, twig-eligible
    // so `Engine::auto` has a real fuse-or-not decision to get right.
    let uniform_queries = [
        "/descendant::open_auction[descendant::bidder]/descendant::increase",
        "/descendant::person[child::profile]/descendant::education",
    ];

    let skewed = Session::new(generate_skewed(
        SkewConfig::new(cfg.scale, cfg.skew).with_seed(cfg.seed),
    ));
    skewed.warm();
    eprintln!(
        "skewed document: scale {}, zipf {}, {} nodes",
        cfg.scale,
        cfg.skew,
        skewed.doc().len()
    );
    let skew_results: Vec<(&str, Vec<Measurement>)> = twig_queries
        .iter()
        .map(|q| (*q, measure(&skewed, q, &cfg)))
        .collect();
    for (q, ms) in &skew_results {
        for m in ms {
            eprintln!(
                "  skew {:>4} {q}: {:.3} ms, {} rows, touched {}, seeks {}, peak {}",
                m.engine, m.ms, m.rows, m.touched, m.seeks, m.peak_intermediate
            );
        }
    }

    let uniform = Session::new(generate(XmarkConfig::new(cfg.scale)));
    uniform.warm();
    eprintln!(
        "uniform document: scale {}, {} nodes",
        cfg.scale,
        uniform.doc().len()
    );
    let uniform_results: Vec<(&str, Vec<Measurement>)> = uniform_queries
        .iter()
        .map(|q| (*q, measure(&uniform, q, &cfg)))
        .collect();
    for (q, ms) in &uniform_results {
        for m in ms {
            eprintln!(
                "  unif {:>4} {q}: {:.3} ms, {} rows, touched {}, seeks {}, peak {}",
                m.engine, m.ms, m.rows, m.touched, m.seeks, m.peak_intermediate
            );
        }
    }

    // Headline ratios: the skewed win (worst query's speedup, so the
    // claim holds across the family) and auto's worst uniform ratio.
    let speedup_skew = skew_results
        .iter()
        .map(|(_, ms)| by(ms, "step").ms / by(ms, "twig").ms.max(1e-9))
        .fold(f64::INFINITY, f64::min);
    let peak_shrink = skew_results
        .iter()
        .map(|(_, ms)| {
            by(ms, "step").peak_intermediate as f64
                / (by(ms, "twig").peak_intermediate.max(1)) as f64
        })
        .fold(f64::INFINITY, f64::min);
    let auto_uniform_ratio = uniform_results
        .iter()
        .map(|(_, ms)| by(ms, "auto").ms / by(ms, "step").ms.max(1e-9))
        .fold(0.0, f64::max);
    eprintln!(
        "skewed twig speedup ≥ {speedup_skew:.1}×, peak-intermediate shrink ≥ {peak_shrink:.1}×, \
         auto/step uniform ratio ≤ {auto_uniform_ratio:.3}"
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"twig\",");
    let _ = writeln!(json, "  \"zipf\": {},", cfg.skew);
    let _ = writeln!(json, "  \"scale\": {},", cfg.scale);
    let _ = writeln!(json, "  \"iters\": {},", cfg.iters);
    let _ = writeln!(json, "  \"skewed_nodes\": {},", skewed.doc().len());
    let _ = writeln!(json, "  \"uniform_nodes\": {},", uniform.doc().len());
    let _ = writeln!(json, "  \"speedup_skew\": {:.2},", speedup_skew);
    let _ = writeln!(json, "  \"peak_intermediate_shrink\": {:.2},", peak_shrink);
    let _ = writeln!(json, "  \"auto_uniform_ratio\": {:.3},", auto_uniform_ratio);
    json.push_str("  \"skewed\": {\n  ");
    write_queries(&mut json, &skew_results);
    json.push_str("\n  },\n  \"uniform\": {\n  ");
    write_queries(&mut json, &uniform_results);
    json.push_str("\n  }\n}\n");
    std::fs::write(&cfg.out_path, json).expect("write bench json");
    eprintln!("wrote {}", cfg.out_path);
}
