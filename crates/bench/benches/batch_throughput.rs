//! Batched vs. sequential multi-query execution.
//!
//! Why batches exist: a server answering N queries over one document
//! should not pay for the same step N times. Two workloads on a
//! ~10k-node xmlgen document, each run two ways:
//!
//! * `sequential`: `queries.iter().map(|q| q.run(engine))` — every query
//!   pays for every step;
//! * `run_many`:   `session.run_many(&queries, engine)` — a step several
//!   queries ask (the same path prefix, the same join under different
//!   predicates, a nested `following`/`preceding` region) is computed
//!   once and shared through the batch's memo.
//!
//! The `vertical` workload is the paper's Q1/Q2 plus six probes; the
//! `mixed` workload adds predicates, fragment (on-list) joins and
//! horizontal axes.
//!
//! Besides the timings, the bench prints measured speedups and
//! touched-node totals: the batch saves exactly the touched counts of
//! the steps it shares. A plane scan over a context an earlier query
//! scanned under another node test is no shared step — it runs again
//! and reports what it touched.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use staircase_bench::{Workload, BATCH_MIXED as MIXED, BATCH_VERTICAL as VERTICAL};
use staircase_core::Variant;
use staircase_xpath::{Engine, Query, Session};

/// Interleaved best-of-N speedup measurement, robust against CPU
/// frequency drift between the two loops; prints the shared-step
/// accounting behind the speedup.
fn report_speedup(label: &str, session: &Session, queries: &[Query<'_>], engine: Engine) -> f64 {
    let refs: Vec<&Query> = queries.iter().collect();
    let reps = if criterion::is_test_mode() { 1 } else { 200 };
    let (mut seq, mut many) = (f64::MAX, f64::MAX);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(queries.iter().map(|q| q.run(engine)).collect::<Vec<_>>());
        seq = seq.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(session.run_many(&refs, engine));
        many = many.min(t.elapsed().as_secs_f64());
    }
    let seq_touched: u64 = queries
        .iter()
        .map(|q| q.run(engine).stats().total_touched())
        .sum();
    let batch_touched: u64 = session
        .run_many(&refs, engine)
        .iter()
        .map(|o| o.stats().total_touched())
        .sum();
    println!(
        "{label}: run_many speedup {:.2}x  (sequential {:.3} ms, batched {:.3} ms); \
         nodes touched {} -> {} ({:.1}% of sequential)",
        seq / many,
        seq * 1e3,
        many * 1e3,
        seq_touched,
        batch_touched,
        100.0 * batch_touched as f64 / seq_touched.max(1) as f64,
    );
    seq / many
}

fn bench(c: &mut Criterion) {
    // Scale 0.2 ≈ 10k nodes (printed below for the record).
    let w = Workload::generate(0.2);
    let session = w.session();
    println!(
        "document: scale {}, {} nodes, height {}",
        w.scale,
        w.doc().len(),
        w.doc().height()
    );

    // Vertical workload: the multi-context staircase join.
    let queries: Vec<Query> = VERTICAL
        .iter()
        .map(|q| session.prepare(q).expect("vertical query parses"))
        .collect();
    let refs: Vec<&Query> = queries.iter().collect();
    for variant in [Variant::Skipping, Variant::EstimationSkipping] {
        let engine = Engine::staircase().variant(variant).build().unwrap();
        let mut g = c.benchmark_group(format!("batch_throughput_{variant:?}"));
        g.sample_size(30);
        g.throughput(Throughput::Elements((queries.len() * w.doc().len()) as u64));
        g.bench_function("sequential", |b| {
            b.iter(|| queries.iter().map(|q| q.run(engine)).collect::<Vec<_>>())
        });
        g.bench_function("run_many", |b| b.iter(|| session.run_many(&refs, engine)));
        g.finish();
        report_speedup(&format!("vertical/{variant:?}"), session, &queries, engine);
    }

    // Mixed workload: predicates, fragment joins, horizontal axes.
    let mixed: Vec<Query> = MIXED
        .iter()
        .map(|q| session.prepare(q).expect("mixed query parses"))
        .collect();
    let mixed_refs: Vec<&Query> = mixed.iter().collect();
    for (ename, engine) in [
        (
            "fragmented",
            Engine::staircase().fragmented(true).build().unwrap(),
        ),
        (
            "pushdown",
            Engine::staircase().pushdown(true).build().unwrap(),
        ),
        ("auto", Engine::auto()),
    ] {
        session.warm();
        let mut g = c.benchmark_group(format!("batch_throughput_mixed_{ename}"));
        g.sample_size(30);
        g.throughput(Throughput::Elements((mixed.len() * w.doc().len()) as u64));
        g.bench_function("sequential", |b| {
            b.iter(|| mixed.iter().map(|q| q.run(engine)).collect::<Vec<_>>())
        });
        g.bench_function("run_many", |b| {
            b.iter(|| session.run_many(&mixed_refs, engine))
        });
        g.finish();
        report_speedup(&format!("mixed/{ename}"), session, &mixed, engine);
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
