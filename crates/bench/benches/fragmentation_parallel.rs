//! §6 future-work experiments: tag-name fragmentation (Q1 over per-tag
//! fragments vs the full plane) and the partitioned parallel join, as
//! the morsel-split kernels a session's `[par]` steps run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use staircase_bench::{Workload, QUERY_Q1};
use staircase_core::{ancestor_pooled, descendant_pooled, ScanTest, Scratch, Variant, WorkerPool};
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

    let mut g = c.benchmark_group("parallel_partitions");
    g.sample_size(10);
    let profiles = w.profiles();
    let increases = w.increases();
    let node = ScanTest::node(w.doc());
    let mut scratch = Scratch::new();
    for threads in [1usize, 2, 4] {
        let pool = WorkerPool::new(threads);
        let pool = Some(&pool);
        g.bench_with_input(
            BenchmarkId::new("q1_descendant", threads),
            &threads,
            |b, _| {
                let d = Variant::EstimationSkipping;
                b.iter(|| descendant_pooled(w.doc(), &profiles, d, &node, pool, &mut scratch))
            },
        );
        g.bench_with_input(
            BenchmarkId::new("q2_ancestor", threads),
            &threads,
            |b, _| {
                let s = Variant::Skipping;
                b.iter(|| ancestor_pooled(w.doc(), &increases, s, &node, pool, &mut scratch))
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
