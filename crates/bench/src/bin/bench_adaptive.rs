//! `bench_adaptive` — mid-query re-planning.
//!
//! Two measurements around `auto`'s re-planning feedback loop:
//!
//! * **misleading** — the misleading-statistics documents from
//!   `staircase_xmlgen::generate_misleading`: every global statistic is
//!   honest, yet `//a/descendant::b`'s true frontier is ~three orders
//!   of magnitude above the Equation-1 estimate and heavily nested.
//!   `Engine::auto` plans the card-scaled SQL plan as cheap, observes
//!   the real frontier at the step boundary, and switches to the
//!   pruning staircase join (asserted: at least one replan). Recorded
//!   ratio: auto vs the best fixed engine (the oracle gap).
//! * **uniform** — the XMark-like generator, where the estimates are
//!   right and re-planning must stay out of the way (asserted: auto
//!   never replans).
//!
//! All engines are asserted node-count-identical per query before
//! `BENCH_adaptive.json` is written.
//!
//! ```text
//! cargo run -p staircase-bench --release --bin bench_adaptive --
//!     [--scale S]     document scale, ≈ 50k nodes per unit (10.0)
//!     [--iters N]     timed runs per engine, best kept (5)
//!     [--seed U]      misleading-generator seed (default 0x1517)
//!     [--out PATH]    output path (BENCH_adaptive.json)
//!     [--smoke]       small doc, 2 iters (CI keep-alive)
//! ```
//!
//! CI runs `--smoke` on every push and uploads the JSON as an
//! artifact, alongside the other BENCH JSONs.

use std::fmt::Write as _;
use std::time::Instant;

use staircase_xmlgen::{generate, generate_misleading, MisleadConfig, XmarkConfig};
use staircase_xpath::{Engine, Session};

/// The query family the misleading generator is built for: the `b`
/// frontier explodes after step 2, and step 3 is where the static and
/// observed cost rankings disagree.
const MISLEAD_QUERY: &str = "/descendant::a/descendant::b/descendant::node()";

struct Config {
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
    replans: usize,
}

fn engines() -> Vec<(&'static str, Engine)> {
    vec![
        ("auto", Engine::auto()),
        (
            "staircase",
            Engine::staircase()
                .build()
                .expect("plain staircase engine is valid"),
        ),
        (
            "fragmented",
            Engine::staircase()
                .fragmented(true)
                .build()
                .expect("fragmented step engine is valid"),
        ),
    ]
}

fn measure(session: &Session, expr: &str, cfg: &Config) -> Vec<Measurement> {
    let query = session.prepare(expr).expect("benchmark query parses");
    let mut out = Vec::new();
    for (name, engine) in engines() {
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
            replans: stats.steps.iter().filter(|s| s.replanned).count(),
        });
    }
    // Re-planning may only change the access pattern, never the answer.
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

/// The oracle: the best fixed (non-auto) engine's time.
fn oracle_ms(ms: &[Measurement]) -> f64 {
    ms.iter()
        .filter(|m| m.engine != "auto")
        .map(|m| m.ms)
        .fold(f64::INFINITY, f64::min)
}

fn write_queries(json: &mut String, results: &[(&str, Vec<Measurement>)]) {
    json.push_str("  \"queries\": [\n");
    for (qi, (expr, ms)) in results.iter().enumerate() {
        let _ = writeln!(json, "    {{\"query\": \"{expr}\", \"engines\": [");
        for (ei, m) in ms.iter().enumerate() {
            let _ = write!(
                json,
                "      {{\"engine\": \"{}\", \"ms\": {:.3}, \"rows\": {}, \
                 \"touched\": {}, \"seeks\": {}, \"replans\": {}}}",
                m.engine, m.ms, m.rows, m.touched, m.seeks, m.replans
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
        scale: 10.0,
        iters: 5,
        seed: 0x1517,
        out_path: "BENCH_adaptive.json".to_string(),
    };
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut next = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} takes a value"))
        };
        match a.as_str() {
            "--scale" => cfg.scale = next("--scale").parse().expect("number"),
            "--iters" => cfg.iters = next("--iters").parse().expect("number"),
            "--seed" => cfg.seed = next("--seed").parse().expect("number"),
            "--out" => cfg.out_path = next("--out"),
            "--smoke" => smoke = true,
            other => panic!("unknown flag {other}"),
        }
    }
    if smoke {
        // Scale 4 keeps the smoke document's `b` frontier deep enough
        // that the replan is a large saving, not a rounding error.
        cfg.scale = cfg.scale.min(4.0);
        cfg.iters = cfg.iters.min(2);
    }
    assert!(cfg.iters > 0, "--iters must be positive");

    let mislead = Session::new(generate_misleading(
        MisleadConfig::new(cfg.scale).with_seed(cfg.seed),
    ));
    mislead.warm();
    eprintln!(
        "misleading document: scale {}, {} nodes, height {}",
        cfg.scale,
        mislead.doc().len(),
        mislead.doc().height()
    );
    let mislead_results = vec![(MISLEAD_QUERY, measure(&mislead, MISLEAD_QUERY, &cfg))];
    for (q, ms) in &mislead_results {
        for m in ms {
            eprintln!(
                "  mislead {:>10} {q}: {:.3} ms, {} rows, touched {}, seeks {}, replans {}",
                m.engine, m.ms, m.rows, m.touched, m.seeks, m.replans
            );
        }
    }

    // Uniform XMark: estimates are accurate, the plan is right, and
    // re-planning's only job is to stay out of the way.
    let uniform_queries = [
        "/descendant::open_auction/descendant::bidder/descendant::increase",
        "/descendant::person/child::profile",
    ];
    let uniform = Session::new(generate(XmarkConfig::new(cfg.scale.min(4.0))));
    uniform.warm();
    eprintln!(
        "uniform document: scale {}, {} nodes",
        cfg.scale.min(4.0),
        uniform.doc().len()
    );
    let uniform_results: Vec<(&str, Vec<Measurement>)> = uniform_queries
        .iter()
        .map(|q| (*q, measure(&uniform, q, &cfg)))
        .collect();
    for (q, ms) in &uniform_results {
        for m in ms {
            eprintln!(
                "  uniform {:>10} {q}: {:.3} ms, {} rows, replans {}",
                m.engine, m.ms, m.rows, m.replans
            );
        }
    }

    // Headline ratio and the two replan assertions.
    let mislead_ms = &mislead_results[0].1;
    let auto_over_oracle = by(mislead_ms, "auto").ms / oracle_ms(mislead_ms).max(1e-9);
    let mislead_replans = by(mislead_ms, "auto").replans;
    assert!(
        mislead_replans > 0,
        "the misleading workload must trigger at least one replan"
    );
    let uniform_replans: usize = uniform_results
        .iter()
        .map(|(_, ms)| by(ms, "auto").replans)
        .sum();
    assert_eq!(uniform_replans, 0, "well-estimated queries must not replan");
    eprintln!("auto/oracle ≤ {auto_over_oracle:.2}, misleading replans {mislead_replans}");

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"adaptive\",");
    let _ = writeln!(json, "  \"scale\": {},", cfg.scale);
    let _ = writeln!(json, "  \"iters\": {},", cfg.iters);
    let _ = writeln!(json, "  \"mislead_nodes\": {},", mislead.doc().len());
    let _ = writeln!(json, "  \"uniform_nodes\": {},", uniform.doc().len());
    let _ = writeln!(json, "  \"auto_over_oracle\": {:.3},", auto_over_oracle);
    let _ = writeln!(json, "  \"mislead_replans\": {},", mislead_replans);
    let _ = writeln!(json, "  \"uniform_replans\": {},", uniform_replans);
    json.push_str("  \"misleading\": {\n  ");
    write_queries(&mut json, &mislead_results);
    json.push_str("\n  },\n  \"uniform\": {\n  ");
    write_queries(&mut json, &uniform_results);
    json.push_str("\n  }\n}\n");
    std::fs::write(&cfg.out_path, json).expect("write bench json");
    eprintln!("wrote {}", cfg.out_path);
}
