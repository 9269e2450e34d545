//! Partitioned parallel staircase join (§3.2/§6): measure how the second
//! axis steps of Q1 and Q2 scale with worker threads, through the
//! morsel-split kernels a session runs its `[par]` steps with.
//!
//! ```sh
//! cargo run --release -p staircase-suite --example parallel_scaling [scale]
//! ```

use staircase_suite::prelude::*;

fn median_ms<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut xs: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10.0);
    eprintln!("generating scale-{scale} document …");
    let session = Session::new(generate(XmarkConfig::new(scale)));
    let doc = session.doc();
    // The session's tag fragments are built once and shared.
    let tags = session.tag_index();
    let profiles: Context = tags
        .fragment_by_name(doc, "profile")
        .iter()
        .copied()
        .collect();
    let increases: Context = tags
        .fragment_by_name(doc, "increase")
        .iter()
        .copied()
        .collect();
    println!(
        "{} nodes; {} profile steps (Q1 desc), {} increase steps (Q2 anc)\n",
        doc.len(),
        profiles.len(),
        increases.len()
    );

    // Verify once that a four-way split is result-identical.
    let d = Variant::EstimationSkipping;
    let node = ScanTest::node(doc);
    let mut scratch = Scratch::new();
    let four = WorkerPool::new(4);
    let split = descendant_pooled(doc, &profiles, d, &node, Some(&four), &mut scratch);
    assert_eq!(
        split.0,
        descendant(doc, &profiles, d).0,
        "a morsel split must be exact"
    );

    println!("{:>8} {:>16} {:>16}", "threads", "Q1 desc ms", "Q2 anc ms");
    let baseline_q1 = median_ms(3, || {
        descendant(doc, &profiles, Variant::EstimationSkipping)
    });
    let baseline_q2 = median_ms(3, || ancestor(doc, &increases, Variant::Skipping));
    println!("{:>8} {baseline_q1:>16.2} {baseline_q2:>16.2}", "serial");
    for threads in [1usize, 2, 4, 8] {
        let pool = WorkerPool::new(threads);
        let pool = Some(&pool);
        let q1 = median_ms(3, || {
            descendant_pooled(doc, &profiles, d, &node, pool, &mut scratch)
        });
        let q2 = median_ms(3, || {
            ancestor_pooled(
                doc,
                &increases,
                Variant::Skipping,
                &node,
                pool,
                &mut scratch,
            )
        });
        println!("{threads:>8} {q1:>16.2} {q2:>16.2}");
    }
    println!("\n(partitions are disjoint pre-ranges of the plane — Figure 8 — so no");
    println!("merge or sort is needed after the workers finish)");
}
