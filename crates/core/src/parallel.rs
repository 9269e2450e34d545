//! Partitioned parallel staircase join.
//!
//! §3.2 observes that the pruned context "naturally leads to a parallel
//! XPath execution strategy": each staircase step owns a disjoint pre-range
//! partition of the plane (Figure 8), so partitions can be evaluated
//! independently and concatenated — results stay duplicate-free and in
//! document order with no merge step. §6 proposes the same idea as a
//! fragmentation strategy for documents beyond 1 GB.
//!
//! Since the pooled-executor refactor these joins run their chunks on a
//! [`WorkerPool`] — the session layer passes its persistent pool through
//! [`descendant_parallel_tested`] / [`ancestor_parallel_tested`], so no
//! threads are spawned per call. The original [`descendant_parallel`] /
//! [`ancestor_parallel`] entry points remain for standalone use: the
//! `node()` test on a transient pool of the requested width.

use staircase_accel::{Context, Doc, Pre};

use crate::anc::ancestor_partitions;
use crate::desc::descendant_partitions;
use crate::mask::ScanTest;
use crate::pool::WorkerPool;
use crate::prune::{prune_ancestor, prune_descendant};
use crate::stats::StepStats;
use crate::Variant;

/// Parallel `descendant` staircase join over `chunks` partition chunks,
/// executed by a transient pool of the same width.
///
/// Equivalent to [`crate::descendant`] (asserted by tests); the pruned
/// staircase is split into contiguous chunks of steps, one worker per
/// chunk. Workers write into private result buffers that are concatenated
/// in step order. Prefer [`descendant_parallel_on`] when a persistent
/// pool is at hand.
pub fn descendant_parallel(
    doc: &Doc,
    context: &Context,
    variant: Variant,
    threads: usize,
) -> (Context, StepStats) {
    descendant_parallel_on(doc, context, variant, threads, &WorkerPool::new(threads))
}

/// [`descendant_parallel`] on a caller-provided persistent [`WorkerPool`]
/// (the session's), splitting the staircase into `chunks` contiguous
/// step chunks. No threads are spawned; the pool's executors (its
/// workers plus the calling thread) drain the chunks.
pub fn descendant_parallel_on(
    doc: &Doc,
    context: &Context,
    variant: Variant,
    chunks: usize,
    pool: &WorkerPool,
) -> (Context, StepStats) {
    descendant_parallel_tested(doc, context, variant, chunks, pool, &ScanTest::node(doc))
}

/// [`descendant_parallel_on`] with the step's node test riding every
/// chunk's scan (see [`crate::descendant_tested`]).
pub fn descendant_parallel_tested(
    doc: &Doc,
    context: &Context,
    variant: Variant,
    chunks: usize,
    pool: &WorkerPool,
    test: &ScanTest<'_>,
) -> (Context, StepStats) {
    let pruned = prune_descendant(doc, context);
    let steps = pruned.as_slice();
    let n = doc.len() as Pre;
    chunked_join(context.len(), steps, chunks, pool, |lo, hi, out, st| {
        // This chunk's final partition ends where the next chunk's
        // first step begins (or at the end of the plane).
        let end = steps.get(hi).copied().unwrap_or(n);
        descendant_partitions(doc, &steps[lo..hi], end, variant, test, out, st)
    })
}

/// Parallel `ancestor` staircase join over `threads` partition chunks on
/// a transient pool; prefer [`ancestor_parallel_on`] when a persistent
/// pool is at hand.
pub fn ancestor_parallel(
    doc: &Doc,
    context: &Context,
    variant: Variant,
    threads: usize,
) -> (Context, StepStats) {
    ancestor_parallel_on(doc, context, variant, threads, &WorkerPool::new(threads))
}

/// [`ancestor_parallel`] on a caller-provided persistent [`WorkerPool`].
pub fn ancestor_parallel_on(
    doc: &Doc,
    context: &Context,
    variant: Variant,
    chunks: usize,
    pool: &WorkerPool,
) -> (Context, StepStats) {
    ancestor_parallel_tested(doc, context, variant, chunks, pool, &ScanTest::node(doc))
}

/// [`ancestor_parallel_on`] with the step's node test riding every
/// chunk's scan (see [`crate::ancestor_tested`]).
pub fn ancestor_parallel_tested(
    doc: &Doc,
    context: &Context,
    variant: Variant,
    chunks: usize,
    pool: &WorkerPool,
    test: &ScanTest<'_>,
) -> (Context, StepStats) {
    let pruned = prune_ancestor(doc, context);
    let steps = pruned.as_slice();
    chunked_join(context.len(), steps, chunks, pool, |lo, hi, out, st| {
        // This chunk's first partition starts right after the previous
        // chunk's last step (or at pre 0).
        let start = if lo == 0 { 0 } else { steps[lo - 1] + 1 };
        ancestor_partitions(doc, &steps[lo..hi], start, variant, test, out, st)
    })
}

/// Runs `join(lo, hi, out, stats)` over at most `chunks` contiguous
/// chunks `steps[lo..hi]` of the pruned staircase on `pool` and
/// concatenates the private result buffers in step order.
fn chunked_join(
    context_in: usize,
    steps: &[Pre],
    chunks: usize,
    pool: &WorkerPool,
    join: impl Fn(usize, usize, &mut Vec<Pre>, &mut StepStats) + Sync,
) -> (Context, StepStats) {
    let mut stats = StepStats {
        context_in,
        context_out: steps.len(),
        ..Default::default()
    };
    let join = &join;
    let outputs: Vec<(Vec<Pre>, StepStats)> = pool.run(
        chunk_bounds(steps.len(), chunks)
            .into_iter()
            .map(|(lo, hi)| {
                move || {
                    let mut out = Vec::new();
                    let mut st = StepStats::default();
                    join(lo, hi, &mut out, &mut st);
                    (out, st)
                }
            })
            .collect(),
    );

    let mut result = Vec::with_capacity(outputs.iter().map(|(v, _)| v.len()).sum());
    for (part, st) in &outputs {
        result.extend_from_slice(part);
        stats.merge(st);
    }
    stats.result_size = result.len();
    (Context::from_sorted(result), stats)
}

/// Splits `len` steps into at most `threads` contiguous, non-empty chunks.
fn chunk_bounds(len: usize, threads: usize) -> Vec<(usize, usize)> {
    let workers = threads.max(1).min(len.max(1));
    if len == 0 {
        return Vec::new();
    }
    let base = len / workers;
    let extra = len % workers;
    let mut bounds = Vec::with_capacity(workers);
    let mut lo = 0;
    for w in 0..workers {
        let size = base + usize::from(w < extra);
        bounds.push((lo, lo + size));
        lo += size;
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{random_context, random_doc};
    use crate::{ancestor, descendant};

    #[test]
    fn chunk_bounds_cover_everything() {
        for len in [0usize, 1, 2, 5, 16, 17, 100] {
            for threads in [1usize, 2, 3, 8, 64] {
                let chunks = chunk_bounds(len, threads);
                if len == 0 {
                    assert!(chunks.is_empty());
                    continue;
                }
                assert_eq!(chunks.first().unwrap().0, 0);
                assert_eq!(chunks.last().unwrap().1, len);
                assert!(
                    chunks.iter().all(|&(lo, hi)| lo < hi),
                    "empty chunk: {len}/{threads}"
                );
                assert!(chunks.windows(2).all(|w| w[0].1 == w[1].0));
            }
        }
    }

    #[test]
    fn parallel_descendant_equals_serial() {
        for seed in 0..12 {
            let doc = random_doc(seed, 700);
            let ctx = random_context(&doc, seed ^ 0xD00D, 50);
            let (serial, sstats) = descendant(&doc, &ctx, Variant::EstimationSkipping);
            for threads in [1, 2, 3, 7] {
                let (par, pstats) =
                    descendant_parallel(&doc, &ctx, Variant::EstimationSkipping, threads);
                assert_eq!(serial, par, "seed {seed}, threads {threads}");
                assert_eq!(sstats.result_size, pstats.result_size);
                assert_eq!(sstats.partitions, pstats.partitions);
            }
        }
    }

    #[test]
    fn parallel_ancestor_equals_serial() {
        for seed in 0..12 {
            let doc = random_doc(seed, 700);
            let ctx = random_context(&doc, seed ^ 0xE77E, 50);
            let (serial, _) = ancestor(&doc, &ctx, Variant::Skipping);
            for threads in [1, 2, 3, 7] {
                let (par, _) = ancestor_parallel(&doc, &ctx, Variant::Skipping, threads);
                assert_eq!(serial, par, "seed {seed}, threads {threads}");
            }
        }
    }

    #[test]
    fn parallel_access_counts_match_serial() {
        // Partitioning the staircase must not change which nodes the join
        // touches — only who touches them.
        let doc = random_doc(42, 1500);
        let ctx = random_context(&doc, 0x1234, 80);
        let (_, serial) = descendant(&doc, &ctx, Variant::Skipping);
        let (_, par) = descendant_parallel(&doc, &ctx, Variant::Skipping, 4);
        assert_eq!(serial.nodes_scanned, par.nodes_scanned);
        assert_eq!(serial.nodes_skipped, par.nodes_skipped);
        assert_eq!(serial.nodes_copied, par.nodes_copied);
    }

    #[test]
    fn shared_pool_serves_both_joins() {
        // The session path: one persistent pool, many joins, no spawning
        // per call.
        let pool = WorkerPool::new(4);
        let doc = random_doc(9, 900);
        let ctx = random_context(&doc, 0xFADE, 60);
        let (serial_d, _) = descendant(&doc, &ctx, Variant::EstimationSkipping);
        let (serial_a, _) = ancestor(&doc, &ctx, Variant::Skipping);
        for chunks in [2, 4, 8] {
            let (par_d, _) =
                descendant_parallel_on(&doc, &ctx, Variant::EstimationSkipping, chunks, &pool);
            assert_eq!(serial_d, par_d, "chunks {chunks}");
            let (par_a, _) = ancestor_parallel_on(&doc, &ctx, Variant::Skipping, chunks, &pool);
            assert_eq!(serial_a, par_a, "chunks {chunks}");
        }
    }

    #[test]
    fn empty_context_parallel() {
        let doc = random_doc(1, 100);
        let (r, _) = descendant_parallel(&doc, &Context::empty(), Variant::Basic, 4);
        assert!(r.is_empty());
        let (r, _) = ancestor_parallel(&doc, &Context::empty(), Variant::Basic, 4);
        assert!(r.is_empty());
    }

    #[test]
    fn more_threads_than_steps() {
        let doc = random_doc(9, 300);
        let ctx = Context::singleton(doc.root());
        let (serial, _) = descendant(&doc, &ctx, Variant::EstimationSkipping);
        let (par, _) = descendant_parallel(&doc, &ctx, Variant::EstimationSkipping, 16);
        assert_eq!(serial, par);
    }
}
