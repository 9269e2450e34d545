//! §6 future-work experiment: tag-name fragmentation (Q1 over per-tag
//! fragments vs the full plane).

use criterion::{criterion_group, criterion_main, Criterion};
use staircase_bench::{Workload, QUERY_Q1};
use staircase_xpath::Engine;

fn bench(c: &mut Criterion) {
    let w = Workload::generate(2.0);

    let mut g = c.benchmark_group("fragmentation_q1");
    g.sample_size(10);
    let query = w.session().prepare(QUERY_Q1).expect("Q1 parses");
    // Fragments are "document loading time" work: build them before the
    // measured region so the bench times the join, not TagIndex::build.
    w.session().tag_index();
    let pushdown = Engine::staircase()
        .pushdown(true)
        .build()
        .expect("valid engine config");
    let fragmented = Engine::staircase()
        .fragmented(true)
        .build()
        .expect("valid engine config");
    g.bench_function("full_plane", |b| b.iter(|| query.run(Engine::default())));
    g.bench_function("query_time_pushdown", |b| b.iter(|| query.run(pushdown)));
    g.bench_function("prebuilt_tag_fragments", |b| {
        b.iter(|| query.run(fragmented))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
