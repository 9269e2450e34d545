//! Morsel splits of the single-context plane scans.
//!
//! §3.2's Figure-8 argument — pruned staircase steps own **disjoint
//! pre-range partitions**, so partitions evaluate independently and
//! their results concatenate in document order with no merge sort — is
//! exactly what a morsel-driven executor (Leis et al., SIGMOD 2014)
//! needs: each morsel is a contiguous chunk of the pruned staircase, a
//! worker from the caller's [`WorkerPool`] walks it with the ordinary
//! sequential partition loops, and the coordinator glues the per-worker
//! result vectors back together.
//!
//! [`descendant_pooled`] and [`ancestor_pooled`] are the entries: one
//! context, its node test, an optional pool and the caller's
//! [`Scratch`]. No pool, a width-1 pool, or too little work to amortize
//! a handoff ([`morsel_count`]) runs the sequential partition loop: the
//! degenerate case *is* the sequential kernel. Two splitting strategies
//! cover every partition shape:
//!
//! * **Cuts of the pre range** ([`descendant_windows`]): the common hot
//!   case — a root context — has a *single* partition covering the
//!   whole plane, which chunking by steps cannot split. For the
//!   descendant direction the touched interval of a partition is known
//!   in closed form before scanning: descendants of `c` are the
//!   contiguous run `(c, c + |subtree(c)|]`, so the scan touches
//!   `(c, m]` where `m = c + |subtree(c)| + 1` is the provable first
//!   miss (the node whose postorder rank first exceeds `post(c)`). A cut
//!   anywhere inside that interval splits the pre range into windows
//!   that [`descendant_partitions`] runs independently — including the
//!   skip bookkeeping, which can only fire in the window containing `m`.
//! * **By steps** ([`span_chunks`]): contiguous runs of whole
//!   partitions, weighted by their pre-range span so workers get equal
//!   *work*, not equal step counts. The ancestor direction has no closed
//!   touched-interval (its skip is an under-estimating jump chain), so
//!   it splits this way only — which is where its work lives anyway:
//!   ancestor steps arrive with many boundaries, not one.
//!
//! Every morsel reproduces the sequential kernel's per-position
//! behaviour bit for bit, so per-worker [`StepStats`] **sum to exactly
//! the sequential counters** (asserted by the tests below and by
//! `tests/bounds.rs`) and results are node- and order-identical.
//!
//! Only the plane scans are split. The range joins over a tag fragment
//! (`descendant_on_list` and friends) have no morsel form: a join
//! brackets a slice with two gallops and copies it — the 19 802-entry
//! fragment of an XMark root step takes ≈ 2 µs, less than one handoff
//! to a pooled worker — and its skipping lives in cursor state: a chunk
//! of the context would reopen nodes nested in the previous chunk's last
//! one (wrong on an unpruned context), and a chunk of either input would
//! not count the sequential join's gallops.

use std::ops::Range;

use staircase_accel::{Context, Doc, Pre};

use crate::anc::ancestor_partitions;
use crate::batch::Scratch;
use crate::desc::descendant_partitions;
use crate::mask::ScanTest;
use crate::pool::WorkerPool;
use crate::prune::{prune_ancestor_into, prune_descendant_into};
use crate::stats::StepStats;
use crate::Variant;

/// Minimum touched-work (nodes or list entries) a morsel must carry for
/// the handoff to a pooled worker to amortize. Batches below twice this
/// stay sequential.
pub(crate) const MIN_MORSEL_WORK: u64 = 2048;

/// How many morsels `work` units of touched-work justify on a pool of
/// `width` executors; `None` means "stay sequential".
pub(crate) fn morsel_count(work: u64, width: usize) -> Option<usize> {
    let by_work = usize::try_from(work / MIN_MORSEL_WORK).unwrap_or(usize::MAX);
    let k = by_work.min(width);
    (k >= 2).then_some(k)
}

/// Evaluates `context/descendant::test` — [`crate::descendant_tested`]
/// — with the pruned boundary list and the result drawn from `scratch`,
/// split into morsels on `pool` when it is wider than one and the work
/// amortizes the handoff; `None` runs the sequential partition loop.
/// Results and statistics are the same either way.
pub fn descendant_pooled(
    doc: &Doc,
    context: &Context,
    variant: Variant,
    test: &ScanTest<'_>,
    pool: Option<&WorkerPool>,
    scratch: &mut Scratch,
) -> (Context, StepStats) {
    pooled(
        doc,
        context,
        scratch,
        prune_descendant_into,
        |steps, result, stats, scratch| {
            descendant_lane(doc, steps, variant, test, result, stats, pool, scratch)
        },
    )
}

/// Evaluates `context/ancestor::test` — [`crate::ancestor_tested`] — on
/// `pool` and `scratch` (see [`descendant_pooled`]).
pub fn ancestor_pooled(
    doc: &Doc,
    context: &Context,
    variant: Variant,
    test: &ScanTest<'_>,
    pool: Option<&WorkerPool>,
    scratch: &mut Scratch,
) -> (Context, StepStats) {
    pooled(
        doc,
        context,
        scratch,
        prune_ancestor_into,
        |steps, result, stats, scratch| {
            ancestor_lane(doc, steps, variant, test, result, stats, pool, scratch)
        },
    )
}

/// Prunes `context` into a pooled boundary list and runs `scan` over it
/// into a pooled result, with the counters of the single-context joins.
fn pooled(
    doc: &Doc,
    context: &Context,
    scratch: &mut Scratch,
    prune: impl Fn(&Doc, &Context, &mut Vec<Pre>),
    scan: impl FnOnce(&[Pre], &mut Vec<Pre>, &mut StepStats, &mut Scratch),
) -> (Context, StepStats) {
    let mut steps = scratch.take();
    prune(doc, context, &mut steps);
    let mut stats = StepStats {
        context_in: context.len(),
        context_out: steps.len(),
        ..Default::default()
    };
    let mut result = scratch.take();
    scan(&steps, &mut result, &mut stats, scratch);
    scratch.put(steps);
    stats.result_size = result.len();
    (Context::from_sorted(result), stats)
}

// ── Descendant: cuts of the pre range ──────────────────────────────────

/// The touched interval `[c + 1, to)` of every partition, in plane order.
/// For the skipping variants it ends at the provable first miss
/// `m = c + |subtree(c)| + 1` (inclusive, capped by the partition);
/// [`Variant::Basic`] touches the whole partition.
fn touched_intervals<'a>(
    doc: &'a Doc,
    steps: &'a [Pre],
    variant: Variant,
) -> impl Iterator<Item = (Pre, Pre)> + 'a {
    let n = doc.len() as Pre;
    steps.iter().enumerate().map(move |(i, &c)| {
        let part_end = steps.get(i + 1).copied().unwrap_or(n);
        let to = match variant {
            Variant::Basic => part_end,
            _ => (c + 1 + doc.subtree_size(c))
                .saturating_add(1)
                .min(part_end),
        };
        (c + 1, to)
    })
}

/// Cuts `[0, n)` into at most `k` windows of roughly equal touched-work
/// (`work` in total). Every cut lies inside a touched interval, never in
/// a Z-region, so exactly one window reaches a partition's first miss
/// and charges the skipped rest of the partition.
fn descendant_windows(
    intervals: impl Iterator<Item = (Pre, Pre)>,
    work: u64,
    k: usize,
    n: Pre,
) -> Vec<Range<Pre>> {
    let target = work.div_ceil(k as u64).max(1);
    let mut cuts = vec![0];
    let mut cur_work = 0u64;
    for (mut from, to) in intervals {
        while cur_work + u64::from(to - from) > target && cuts.len() < k {
            from += (target - cur_work) as Pre;
            cuts.push(from);
            cur_work = 0;
        }
        cur_work += u64::from(to - from);
    }
    cuts.push(n);
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Runs a pruned descendant step as windows of the pre range on `pool`,
/// or as the window `[0, n)` when there is no pool wider than one or the
/// work does not amortize the handoff. Either way every piece is the one
/// partition loop, [`descendant_partitions`].
#[allow(clippy::too_many_arguments)]
fn descendant_lane(
    doc: &Doc,
    steps: &[Pre],
    variant: Variant,
    test: &ScanTest<'_>,
    result: &mut Vec<Pre>,
    stats: &mut StepStats,
    pool: Option<&WorkerPool>,
    scratch: &mut Scratch,
) {
    let n = doc.len() as Pre;
    let planned = pool.filter(|p| p.width() > 1).and_then(|pool| {
        let work = touched_intervals(doc, steps, variant)
            .map(|(from, to)| u64::from(to - from))
            .sum();
        Some((pool, morsel_count(work, pool.width())?, work))
    });
    let Some((pool, k, work)) = planned else {
        return descendant_partitions(doc, steps, n, 0..n, variant, test, result, stats);
    };
    let windows = descendant_windows(touched_intervals(doc, steps, variant), work, k, n);
    let buffers: Vec<Vec<Pre>> = windows.iter().map(|_| scratch.take()).collect();
    let outs = pool.run(
        windows
            .into_iter()
            .zip(buffers)
            .map(|(window, mut buf)| {
                // The partitions the window meets: the one open at its
                // start (if any) through the last one opening inside it.
                let first = steps
                    .partition_point(|&c| c < window.start)
                    .saturating_sub(1);
                let last = steps.partition_point(|&c| c < window.end);
                let end = steps.get(last).copied().unwrap_or(n);
                let piece = &steps[first..last];
                move || {
                    let mut st = StepStats::default();
                    descendant_partitions(
                        doc, piece, end, window, variant, test, &mut buf, &mut st,
                    );
                    (buf, st)
                }
            })
            .collect(),
    );
    collect_morsels(outs, result, stats, scratch);
}

// ── Ancestor: whole-partition chunks ────────────────────────────────────

/// Splits `steps` into at most `k` contiguous chunks of roughly equal
/// pre-range *span* (partition `i` spans `[prevᵢ, stepᵢ)`), so workers
/// inherit equal scan ranges rather than equal step counts.
fn span_chunks(steps: &[Pre], k: usize) -> Vec<(usize, usize)> {
    let total = u64::from(steps.last().copied().unwrap_or(0));
    let target = total.div_ceil(k as u64).max(1);
    let mut chunks = Vec::with_capacity(k);
    let mut lo = 0usize;
    let mut span_start = 0u64;
    for (i, &c) in steps.iter().enumerate() {
        let span = u64::from(c) - span_start;
        let last = i + 1 == steps.len();
        if last || (span >= target && chunks.len() + 1 < k) {
            chunks.push((lo, i + 1));
            lo = i + 1;
            span_start = u64::from(c);
        }
    }
    chunks
}

/// Runs a pruned ancestor step as whole-partition chunks on `pool`, or
/// sequentially (see [`descendant_lane`]).
#[allow(clippy::too_many_arguments)]
fn ancestor_lane(
    doc: &Doc,
    steps: &[Pre],
    variant: Variant,
    test: &ScanTest<'_>,
    result: &mut Vec<Pre>,
    stats: &mut StepStats,
    pool: Option<&WorkerPool>,
    scratch: &mut Scratch,
) {
    let span = u64::from(steps.last().copied().unwrap_or(0));
    let planned = pool.and_then(|pool| {
        let k = morsel_count(span, pool.width())?.min(steps.len());
        (k >= 2).then_some((pool, k))
    });
    let Some((pool, k)) = planned else {
        return ancestor_partitions(doc, steps, 0, variant, test, result, stats);
    };
    let chunks = span_chunks(steps, k);
    let buffers: Vec<Vec<Pre>> = chunks.iter().map(|_| scratch.take()).collect();
    let outs = pool.run(
        chunks
            .into_iter()
            .zip(buffers)
            .map(|((lo, hi), mut buf)| {
                let chunk = &steps[lo..hi];
                let start = if lo == 0 { 0 } else { steps[lo - 1] + 1 };
                move || {
                    let mut st = StepStats::default();
                    ancestor_partitions(doc, chunk, start, variant, test, &mut buf, &mut st);
                    (buf, st)
                }
            })
            .collect(),
    );
    collect_morsels(outs, result, stats, scratch);
}

/// Concatenates morsel outputs in plane order into the result, summing the
/// per-worker counters (each partition is counted by exactly one piece).
fn collect_morsels(
    outs: Vec<(Vec<Pre>, StepStats)>,
    result: &mut Vec<Pre>,
    stats: &mut StepStats,
    scratch: &mut Scratch,
) {
    result.reserve(outs.iter().map(|(b, _)| b.len()).sum());
    for (buf, st) in outs {
        result.extend_from_slice(&buf);
        scratch.put(buf);
        stats.merge(&st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{random_context, random_doc};

    const ALL: [Variant; 3] = [
        Variant::Basic,
        Variant::Skipping,
        Variant::EstimationSkipping,
    ];

    type Pooled = fn(
        &Doc,
        &Context,
        Variant,
        &ScanTest<'_>,
        Option<&WorkerPool>,
        &mut Scratch,
    ) -> (Context, StepStats);

    /// Both plane joins of `ctx`, split on `pool` and sequential: the
    /// same nodes and the same counters.
    fn assert_split_is_sequential(label: &str, doc: &Doc, ctx: &Context, pool: &WorkerPool) {
        let test = ScanTest::node(doc);
        let joins: [(&str, Pooled); 2] = [("desc", descendant_pooled), ("anc", ancestor_pooled)];
        for variant in ALL {
            for (axis, join) in joins {
                let mut s1 = Scratch::new();
                let mut s2 = Scratch::new();
                let par = join(doc, ctx, variant, &test, Some(pool), &mut s1);
                let seq = join(doc, ctx, variant, &test, None, &mut s2);
                assert_eq!(par.0, seq.0, "{label} {axis} {variant:?}: results differ");
                assert_eq!(par.1, seq.1, "{label} {axis} {variant:?}: stats differ");
            }
        }
    }

    #[test]
    fn parallel_plane_joins_match_sequential_exactly() {
        for width in [2, 4] {
            let pool = WorkerPool::new(width);
            for seed in 0..8 {
                // Big enough that the morsel gate opens.
                let doc = random_doc(seed, 9000);
                let root = Context::singleton(doc.root());
                let ctx = random_context(&doc, seed ^ 0xD15C, 40);
                for case in [&root, &ctx] {
                    let label = format!("seed {seed} width {width}");
                    assert_split_is_sequential(&label, &doc, case, &pool);
                }
            }
        }
    }

    #[test]
    fn distinct_lanes_each_split_on_the_pool() {
        // Five distinct contexts, each opening the morsel gate (one of
        // its nodes heads a large subtree): every pooled join matches
        // the sequential one node for node and counter for counter.
        let pool = WorkerPool::new(4);
        let doc = random_doc(3, 9000);
        let heads = doc
            .pres()
            .filter(|&p| p > 0 && u64::from(doc.subtree_size(p)) >= 2 * MIN_MORSEL_WORK);
        let ctxs: Vec<Context> = heads
            .zip(0..5)
            .map(|(head, i)| {
                let mut pres = random_context(&doc, 0xBA7C4 ^ i, 20).as_slice().to_vec();
                pres.push(head);
                Context::from_unsorted(pres)
            })
            .collect();
        assert_eq!(ctxs.len(), 5);
        for (i, ctx) in ctxs.iter().enumerate() {
            // Both gates open for every context (see the two `_lane` kernels).
            let anc = crate::prune_ancestor(&doc, ctx);
            let span = u64::from(anc.as_slice().last().copied().unwrap_or(0));
            assert!(morsel_count(span, pool.width()).is_some_and(|k| k.min(anc.len()) >= 2));
            let desc = crate::prune_descendant(&doc, ctx);
            for variant in ALL {
                let work = touched_intervals(&doc, desc.as_slice(), variant)
                    .map(|(f, t)| u64::from(t - f))
                    .sum();
                assert!(morsel_count(work, pool.width()).is_some(), "{variant:?}");
            }
            assert_split_is_sequential(&format!("context {i}"), &doc, ctx, &pool);
        }
    }

    #[test]
    fn single_partition_splits_across_workers() {
        // A root context is one partition; the closed-form touched
        // interval lets the morsel planner cut inside it.
        let doc = random_doc(11, 12000);
        let root = Context::singleton(doc.root());
        let pool = WorkerPool::new(4);
        let mut scratch = Scratch::new();
        let pruned = crate::prune_descendant(&doc, &root);
        let intervals: Vec<(Pre, Pre)> =
            touched_intervals(&doc, pruned.as_slice(), Variant::EstimationSkipping).collect();
        assert_eq!(intervals.len(), 1, "root context prunes to one partition");
        let work: u64 = intervals.iter().map(|&(f, t)| u64::from(t - f)).sum();
        let k = morsel_count(work, pool.width()).expect("the gate opens");
        let windows = descendant_windows(intervals.into_iter(), work, k, doc.len() as Pre);
        assert_eq!(windows.len(), k, "the one partition is cut {k} ways");
        let par = descendant_pooled(
            &doc,
            &root,
            Variant::EstimationSkipping,
            &ScanTest::node(&doc),
            Some(&pool),
            &mut scratch,
        );
        let (seq, seq_stats) = crate::descendant(&doc, &root, Variant::EstimationSkipping);
        assert_eq!(par.0, seq);
        assert_eq!(par.1, seq_stats);
    }

    #[test]
    fn windows_tile_the_plane() {
        let intervals = [(1, 40), (41, 45), (60, 200)];
        let work = 39 + 4 + 140;
        for k in [2, 3, 4, 7] {
            let windows = descendant_windows(intervals.into_iter(), work, k, 300);
            assert!(windows.len() <= k);
            assert_eq!(windows.first().unwrap().start, 0);
            assert_eq!(windows.last().unwrap().end, 300);
            assert!(windows.windows(2).all(|w| w[0].end == w[1].start));
            assert!(windows.iter().all(|w| w.start < w.end));
            // Every cut lies inside a touched interval.
            for w in &windows[1..] {
                assert!(intervals.iter().any(|&(f, t)| f <= w.start && w.start < t));
            }
        }
    }

    #[test]
    fn tiny_batches_stay_sequential() {
        let pool = WorkerPool::new(4);
        let doc = random_doc(1, 200); // far below the morsel gate
        let ctx = Context::singleton(doc.root());
        assert_split_is_sequential("tiny", &doc, &ctx, &pool);
    }

    #[test]
    fn span_chunks_cover_all_steps() {
        let steps: Vec<Pre> = vec![5, 6, 7, 1000, 1001, 5000, 9000];
        for k in [2, 3, 4] {
            let chunks = span_chunks(&steps, k);
            assert!(chunks.len() <= k);
            assert_eq!(chunks.first().unwrap().0, 0);
            assert_eq!(chunks.last().unwrap().1, steps.len());
            assert!(chunks.windows(2).all(|w| w[0].1 == w[1].0));
            assert!(chunks.iter().all(|&(lo, hi)| lo < hi));
        }
    }

    #[test]
    fn empty_contexts_short_circuit() {
        let pool = WorkerPool::new(4);
        let doc = random_doc(2, 5000);
        let empty = Context::empty();
        let test = ScanTest::node(&doc);
        let mut scratch = Scratch::new();
        let par = descendant_pooled(
            &doc,
            &empty,
            Variant::Basic,
            &test,
            Some(&pool),
            &mut scratch,
        );
        assert!(par.0.is_empty());
        let par = ancestor_pooled(
            &doc,
            &empty,
            Variant::Basic,
            &test,
            Some(&pool),
            &mut scratch,
        );
        assert!(par.0.is_empty());
    }
}
