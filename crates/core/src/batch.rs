//! Multi-context ("lane") staircase joins: K queries, one call.
//!
//! A server answering many queries over one document asks the same
//! kernels the same questions many times. Since the lane-native refactor
//! every scan shape has a multi-context form, so multi-query execution
//! is the *native* form upstairs (`staircase-xpath` evaluates a single
//! query as the K = 1 batch):
//!
//! * [`descendant_many`] / [`ancestor_many`] dedup identical
//!   `(context, test)` lanes, prune each distinct context once, and run
//!   the single-context partition loop of [`crate::descendant_tested`] /
//!   [`crate::ancestor_tested`] once per distinct lane — split into
//!   morsels when a pool is at hand (`crate::morsel`);
//! * [`descendant_on_list_many`] / [`ancestor_on_list_many`] /
//!   [`child_on_list_many`] (this module) resolve the fragment once for
//!   the group, join identical contexts once, and run every distinct
//!   context through the single-context loop of [`crate::list`];
//! * [`crate::following_many`] / [`crate::preceding_many`] serve the
//!   horizontal axes' nested suffix/prefix regions from one filtered
//!   scan;
//! * [`crate::has_descendant_in_many`] and friends batch the semijoin
//!   predicate probes over one shared node list.
//!
//! Results are bit-identical to the sequential operators. The returned
//! [`StepStats`] of a vertical lane equal its statistics alone: only a
//! query identical to an earlier one (same context, and for the plane
//! scans the same test) or a further test over a context already open
//! reports **zero incremental touches** — it shares the earlier pass
//! outright (one `memcpy` for a duplicate). The horizontal scans keep
//! their nested-region sharing: a suffix or prefix several lanes need
//! is read once, attributed to the first lane that needed it, so their
//! per-query `nodes_touched()` values sum to the physical reads.
//!
//! [`Scratch`] is the companion buffer pool: it is threaded through
//! every multi-context operator and lives as long as its owner (the
//! session, upstairs, keeps one per shard of its
//! [`crate::ScratchPool`]), so repeated batches and rounds reuse result
//! and context allocations instead of paying `Vec::new()` plus regrowth
//! per step — a steady-state executor stops allocating (asserted by the
//! pool-reuse tests below).
//!
//! The plane scans take an optional [`WorkerPool`]: with a pool wider
//! than one and enough work, each distinct lane is split into disjoint
//! pre-range morsels executed on it (`crate::morsel`), with identical
//! results and statistics; `None` is the sequential scan.

use staircase_accel::{Context, Doc, Pre};

use crate::list::{ancestor_range_join, child_range_join, descendant_range_join, on_list};
use crate::mask::ScanTest;
use crate::morsel::{ancestor_lane, descendant_lane};
use crate::pool::WorkerPool;
use crate::prune::{prune_ancestor_into, prune_descendant_into};
use crate::stats::StepStats;
use crate::Variant;

/// A pool of `Vec<Pre>` buffers recycled across batch joins and steps.
///
/// Every result vector and pruned-context list a batch join needs is
/// [taken](Scratch::take) from the pool and — once its contents are no
/// longer needed — [put back](Scratch::put). A long-lived evaluator
/// reaches a steady state where no step allocates.
///
/// The pool is bounded two ways so a long-lived owner (the session
/// keeps one for its whole lifetime) cannot pin worst-case-query memory
/// forever: at most `MAX_POOLED` (64) buffers, and at most
/// `POOLED_ENTRY_BUDGET` (2²⁰) entries of total retained capacity —
/// returning a buffer that would bust the budget drops its allocation
/// instead.
#[derive(Debug, Default)]
pub struct Scratch {
    pool: Vec<Vec<Pre>>,
    /// Sum of the pooled buffers' capacities, in entries.
    pooled_capacity: usize,
}

/// Upper bound on pooled buffers.
const MAX_POOLED: usize = 64;

/// Upper bound on the pool's total retained capacity, in entries
/// (4 MiB of `Pre`s): generous enough to recycle every buffer of a
/// typical batch between rounds, small enough that one
/// document-spanning query does not fix a long-lived session's resident
/// memory at its high-water mark.
const POOLED_ENTRY_BUDGET: usize = 1 << 20;

impl Scratch {
    /// An empty pool.
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// Hands out a cleared buffer, reusing a pooled allocation when one
    /// is available.
    pub fn take(&mut self) -> Vec<Pre> {
        match self.pool.pop() {
            Some(buf) => {
                self.pooled_capacity -= buf.capacity();
                buf
            }
            None => Vec::new(),
        }
    }

    /// Returns a buffer to the pool (its contents are discarded); kept
    /// only while the pool stays under its size and capacity bounds.
    pub fn put(&mut self, mut buf: Vec<Pre>) {
        buf.clear();
        if self.pool.len() < MAX_POOLED
            && buf.capacity() > 0
            && self.pooled_capacity + buf.capacity() <= POOLED_ENTRY_BUDGET
        {
            self.pooled_capacity += buf.capacity();
            self.pool.push(buf);
        }
    }

    /// Recycles a no-longer-needed node sequence's allocation.
    pub fn recycle(&mut self, ctx: Context) {
        self.put(ctx.into_vec());
    }

    /// How many buffers are currently pooled (for tests and metrics).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

/// One lane of a multi-context plane scan: a context and the node test
/// that rides the scan for it. A bare `&Context` is the `node()` lane,
/// so `descendant_many(doc, &[&a, &b], …)` reads as before; the lane
/// executor upstairs passes `(&Context, ScanTest)` pairs.
pub trait ScanLane<'d> {
    /// The lane's context.
    fn context(&self) -> &Context;
    /// The lane's node test over `doc`.
    fn test(&self, doc: &'d Doc) -> ScanTest<'d>;
}

impl<'d> ScanLane<'d> for &Context {
    fn context(&self) -> &Context {
        self
    }
    fn test(&self, doc: &'d Doc) -> ScanTest<'d> {
        ScanTest::node(doc)
    }
}

impl<'d> ScanLane<'d> for (&Context, ScanTest<'d>) {
    fn context(&self) -> &Context {
        self.0
    }
    fn test(&self, _: &'d Doc) -> ScanTest<'d> {
        self.1
    }
}

/// `rep[i]` = first index `j` for which `same(j, i)` — the dedup
/// criterion shared by [`dedup_pass`] (identical contexts) and
/// [`shared_pass`] (identical context *and* test).
fn representatives(k: usize, same: impl Fn(usize, usize) -> bool) -> Vec<usize> {
    let mut rep: Vec<usize> = (0..k).collect();
    for i in 0..k {
        for j in 0..i {
            if rep[j] == j && same(j, i) {
                rep[i] = j;
                break;
            }
        }
    }
    rep
}

/// Dedups identical contexts, runs `eval` over the unique ones, and maps
/// the results back to the callers' order: duplicates clone their
/// representative's result and report **zero incremental touches** (the
/// shared pass is attributed to the first caller that needed it).
///
/// The dedup backbone of the range joins over a tag fragment
/// ([`descendant_on_list_many`] and friends) and the semijoin probes
/// ([`crate::has_descendant_in_many`] and friends), which are the same
/// loops. The plane joins ([`shared_pass`]) and the suffix/prefix
/// sharing of [`crate::following_many`] / [`crate::preceding_many`]
/// handle duplicates themselves and only share the [`representatives`]
/// criterion.
pub(crate) fn dedup_pass(
    contexts: &[&Context],
    mut eval: impl FnMut(&Context) -> (Context, StepStats),
) -> Vec<(Context, StepStats)> {
    let k = contexts.len();
    let rep = representatives(k, |j, i| contexts[j].as_slice() == contexts[i].as_slice());
    let mut out: Vec<Option<(Context, StepStats)>> = (0..k).map(|_| None).collect();
    for i in 0..k {
        if rep[i] == i {
            out[i] = Some(eval(contexts[i]));
        }
    }
    for i in 0..k {
        if rep[i] != i {
            // Shared with an earlier identical context: copy the result,
            // report zero incremental touches.
            let (ctx, st) = out[rep[i]]
                .as_ref()
                .expect("representatives evaluated before duplicates resolve");
            out[i] = Some((ctx.clone(), shared_stats(st, st.result_size)));
        }
    }
    out.into_iter()
        .map(|o| o.expect("every context resolved to an evaluation or a duplicate"))
        .collect()
}

/// Evaluates `lanes[k]`'s `descendant` step for every `k` — the
/// `descendant::node()` step for a bare context, the lane's own node test
/// for a `(context, test)` pair.
///
/// Equivalent, query by query, to K calls of
/// [`crate::descendant_tested`], statistics included (asserted by
/// tests); see the module docs above for what sharing reports. Each
/// distinct lane is split into morsels on `pool` when it is wider than
/// one and the work amortizes the handoff; `None` runs it sequentially.
pub fn descendant_many<'d, L: ScanLane<'d>>(
    doc: &'d Doc,
    lanes: &[L],
    variant: Variant,
    pool: Option<&WorkerPool>,
    scratch: &mut Scratch,
) -> Vec<(Context, StepStats)> {
    shared_pass(
        doc,
        lanes,
        scratch,
        prune_descendant_into,
        |steps, test, result, stats, scratch| {
            descendant_lane(doc, steps, variant, test, result, stats, pool, scratch)
        },
    )
}

/// Evaluates `lanes[k]`'s `ancestor` step for every `k`; the multi-query
/// twin of [`crate::ancestor_tested`] (`pool` as for [`descendant_many`]).
pub fn ancestor_many<'d, L: ScanLane<'d>>(
    doc: &'d Doc,
    lanes: &[L],
    variant: Variant,
    pool: Option<&WorkerPool>,
    scratch: &mut Scratch,
) -> Vec<(Context, StepStats)> {
    shared_pass(
        doc,
        lanes,
        scratch,
        prune_ancestor_into,
        |steps, test, result, stats, scratch| {
            ancestor_lane(doc, steps, variant, test, result, stats, pool, scratch)
        },
    )
}

/// Evaluates `contexts[k]/descendant::tag` for every `k` directly on one
/// shared tag fragment (`list`, pre-sorted): the multi-context form of
/// [`crate::descendant_on_list`].
///
/// Identical contexts are joined once (duplicates report zero
/// incremental touches) and every distinct context runs the
/// single-context loop, its result drawn from `scratch`.
pub fn descendant_on_list_many(
    doc: &Doc,
    list: &[Pre],
    contexts: &[&Context],
    scratch: &mut Scratch,
) -> Vec<(Context, StepStats)> {
    on_list_many(contexts, scratch, |ctx, result, stats| {
        descendant_range_join(doc, list, ctx, result, stats)
    })
}

/// Evaluates `contexts[k]/ancestor::tag` for every `k` on one shared tag
/// fragment; the multi-context form of [`crate::ancestor_on_list`] (see
/// [`descendant_on_list_many`]).
pub fn ancestor_on_list_many(
    doc: &Doc,
    list: &[Pre],
    contexts: &[&Context],
    scratch: &mut Scratch,
) -> Vec<(Context, StepStats)> {
    on_list_many(contexts, scratch, |ctx, result, stats| {
        ancestor_range_join(doc, list, ctx, result, stats)
    })
}

/// Evaluates `contexts[k]/child::tag` for every `k` on one shared tag
/// fragment; the multi-context form of [`crate::child_on_list`] (see
/// [`descendant_on_list_many`]).
pub fn child_on_list_many(
    doc: &Doc,
    list: &[Pre],
    contexts: &[&Context],
    scratch: &mut Scratch,
) -> Vec<(Context, StepStats)> {
    on_list_many(contexts, scratch, |ctx, result, stats| {
        child_range_join::<false>(doc, list, ctx, result, stats)
    })
}

/// The K-context form of the range joins: `join` once per distinct
/// context, into a pooled buffer, with the counters of the
/// single-context entry points.
fn on_list_many(
    contexts: &[&Context],
    scratch: &mut Scratch,
    join: impl Fn(&[Pre], &mut Vec<Pre>, &mut StepStats),
) -> Vec<(Context, StepStats)> {
    dedup_pass(contexts, |ctx| on_list(ctx, scratch.take(), &join))
}

/// One unique context's pruned steps, and the result of every distinct
/// node test asked of it.
struct Lane<'d> {
    /// Pruned staircase steps (partition boundaries), from the pool.
    steps: Vec<Pre>,
    /// The node test of the query that opened the lane.
    test: ScanTest<'d>,
    /// This lane's result, from the pool.
    result: Vec<Pre>,
    /// Further node tests other queries ask of the same context, each
    /// with its own result: the pruning is shared, only the writes differ.
    also: Vec<(ScanTest<'d>, Vec<Pre>)>,
    /// The statistics of the lane's pass.
    stats: StepStats,
}

/// What a query that shares another's pass reports: the shape of the
/// step, its own result size, zero incremental touches.
fn shared_stats(paid: &StepStats, result_size: usize) -> StepStats {
    StepStats {
        context_in: paid.context_in,
        context_out: paid.context_out,
        partitions: paid.partitions,
        result_size,
        ..Default::default()
    }
}

/// Dedups identical (context, test) queries, prunes each unique context
/// into one lane — further tests over the same context ride that lane —
/// runs the single-context loop `run(steps, test, result, stats,
/// scratch)` once per test of every lane, and maps results back to the
/// callers' order.
///
/// The counters of a plane scan are arithmetic over its ranges whatever
/// a test keeps, so every run over a lane reads the same positions: the
/// lane's owner reports them, and a further test over the same context
/// reports zero.
fn shared_pass<'d, L: ScanLane<'d>>(
    doc: &'d Doc,
    input: &[L],
    scratch: &mut Scratch,
    prune: impl Fn(&Doc, &Context, &mut Vec<Pre>),
    mut run: impl FnMut(&[Pre], &ScanTest<'d>, &mut Vec<Pre>, &mut StepStats, &mut Scratch),
) -> Vec<(Context, StepStats)> {
    let k = input.len();
    let same_context =
        |j: usize, i: usize| input[j].context().as_slice() == input[i].context().as_slice();
    let rep = representatives(k, |j, i| {
        same_context(j, i) && input[j].test(doc) == input[i].test(doc)
    });

    // One lane per unique context. place[i] = (lane, test slot) of a
    // unique query: slot 0 is the lane's own result, slot s > 0 is
    // `also[s - 1]`. owner[l] = the query that opened lane l.
    let mut place = vec![(usize::MAX, 0usize); k];
    let mut owner: Vec<usize> = Vec::new();
    let mut lanes: Vec<Lane<'d>> = Vec::new();
    for i in 0..k {
        if rep[i] != i {
            continue;
        }
        if let Some(l) = owner.iter().position(|&j| same_context(j, i)) {
            lanes[l].also.push((input[i].test(doc), scratch.take()));
            place[i] = (l, lanes[l].also.len());
            continue;
        }
        let mut steps = scratch.take();
        prune(doc, input[i].context(), &mut steps);
        place[i] = (lanes.len(), 0);
        owner.push(i);
        lanes.push(Lane {
            test: input[i].test(doc),
            result: scratch.take(),
            also: Vec::new(),
            stats: StepStats {
                context_in: input[i].context().len(),
                context_out: steps.len(),
                ..Default::default()
            },
            steps,
        });
    }

    for lane in &mut lanes {
        run(
            &lane.steps,
            &lane.test,
            &mut lane.result,
            &mut lane.stats,
            scratch,
        );
        for (test, result) in &mut lane.also {
            run(
                &lane.steps,
                test,
                result,
                &mut StepStats::default(),
                scratch,
            );
        }
    }

    // Results leave the pool as Contexts (their allocations come back via
    // `Scratch::recycle` once the caller is done with them): unique
    // queries move theirs out of the lane, the lane's owner reports the
    // pass, and everyone else — a further test over the same context, an
    // identical query — reports zero incremental touches.
    let mut out: Vec<Option<(Context, StepStats)>> = (0..k).map(|_| None).collect();
    for i in 0..k {
        if rep[i] != i {
            continue;
        }
        let (l, slot) = place[i];
        let lane = &mut lanes[l];
        let result = match slot {
            0 => std::mem::take(&mut lane.result),
            s => std::mem::take(&mut lane.also[s - 1].1),
        };
        let stats = match slot {
            0 => StepStats {
                result_size: result.len(),
                ..lane.stats
            },
            _ => shared_stats(&lane.stats, result.len()),
        };
        out[i] = Some((Context::from_sorted(result), stats));
    }
    for i in 0..k {
        if rep[i] != i {
            let (ctx, st) = out[rep[i]]
                .as_ref()
                .expect("representatives resolve before their duplicates");
            out[i] = Some((ctx.clone(), shared_stats(st, st.result_size)));
        }
    }
    for lane in lanes {
        scratch.put(lane.steps);
    }
    out.into_iter()
        .map(|o| o.expect("every query resolved to a lane or a duplicate"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{figure1, random_context, random_doc};
    use crate::{ancestor, descendant};

    const ALL: [Variant; 3] = [
        Variant::Basic,
        Variant::Skipping,
        Variant::EstimationSkipping,
    ];

    fn contexts_for(doc: &Doc, seed: u64, k: usize) -> Vec<Context> {
        (0..k)
            .map(|i| random_context(doc, seed ^ (i as u64).wrapping_mul(0x9E37), 20))
            .collect()
    }

    #[test]
    fn descendant_many_matches_sequential_per_query() {
        for seed in 0..15 {
            let doc = random_doc(seed, 400);
            let ctxs = contexts_for(&doc, seed ^ 0xBA7C4, 6);
            let refs: Vec<&Context> = ctxs.iter().collect();
            for variant in ALL {
                let mut scratch = Scratch::new();
                let batch = descendant_many(&doc, &refs, variant, None, &mut scratch);
                for (i, (got, stats)) in batch.iter().enumerate() {
                    let (want, wstats) = descendant(&doc, &ctxs[i], variant);
                    assert_eq!(got, &want, "seed {seed}, query {i}, {variant:?}");
                    assert_eq!(stats, &wstats, "seed {seed}, query {i}, {variant:?}");
                }
            }
        }
    }

    #[test]
    fn ancestor_many_matches_sequential_per_query() {
        for seed in 0..15 {
            let doc = random_doc(seed, 400);
            let ctxs = contexts_for(&doc, seed ^ 0xA2C57, 6);
            let refs: Vec<&Context> = ctxs.iter().collect();
            for variant in ALL {
                let mut scratch = Scratch::new();
                let batch = ancestor_many(&doc, &refs, variant, None, &mut scratch);
                for (i, (got, stats)) in batch.iter().enumerate() {
                    let (want, wstats) = ancestor(&doc, &ctxs[i], variant);
                    assert_eq!(got, &want, "seed {seed}, query {i}, {variant:?}");
                    assert_eq!(stats, &wstats, "seed {seed}, query {i}, {variant:?}");
                }
            }
        }
    }

    #[test]
    fn batch_never_touches_more_than_sequential() {
        for seed in 0..10 {
            let doc = random_doc(seed, 600);
            let ctxs = contexts_for(&doc, seed ^ 0x70C4ED, 8);
            let refs: Vec<&Context> = ctxs.iter().collect();
            for variant in ALL {
                let mut scratch = Scratch::new();
                let batch: u64 = descendant_many(&doc, &refs, variant, None, &mut scratch)
                    .iter()
                    .map(|(_, s)| s.nodes_touched())
                    .sum();
                let sequential: u64 = ctxs
                    .iter()
                    .map(|c| descendant(&doc, c, variant).1.nodes_touched())
                    .sum();
                assert_eq!(batch, sequential, "seed {seed}, {variant:?}");
            }
        }
    }

    #[test]
    fn identical_contexts_share_one_pass() {
        let doc = random_doc(7, 2000);
        let root = Context::singleton(doc.root());
        let refs: Vec<&Context> = (0..8).map(|_| &root).collect();
        let mut scratch = Scratch::new();
        let batch = descendant_many(&doc, &refs, Variant::EstimationSkipping, None, &mut scratch);
        let (expected, seq_stats) = descendant(&doc, &root, Variant::EstimationSkipping);
        let total: u64 = batch.iter().map(|(_, s)| s.nodes_touched()).sum();
        // One physical pass serves all eight queries.
        assert_eq!(total, seq_stats.nodes_touched());
        assert!(total < 8 * seq_stats.nodes_touched());
        for (got, stats) in &batch {
            assert_eq!(got, &expected);
            assert_eq!(stats.result_size, expected.len());
        }
        // Exactly one lane did the work.
        assert_eq!(
            batch.iter().filter(|(_, s)| s.nodes_touched() > 0).count(),
            1
        );
    }

    #[test]
    fn empty_and_mixed_contexts() {
        let doc = figure1();
        let empty = Context::empty();
        let leaf = Context::singleton(2); // c: a leaf
        let refs: Vec<&Context> = vec![&empty, &leaf, &empty];
        let mut scratch = Scratch::new();
        for variant in ALL {
            let d = descendant_many(&doc, &refs, variant, None, &mut scratch);
            assert!(d[0].0.is_empty());
            assert_eq!(d[1].0, descendant(&doc, &leaf, variant).0);
            assert!(d[2].0.is_empty());
            let a = ancestor_many(&doc, &refs, variant, None, &mut scratch);
            assert!(a[0].0.is_empty());
            assert_eq!(a[1].0, ancestor(&doc, &leaf, variant).0);
        }
        let none: Vec<&Context> = Vec::new();
        assert!(descendant_many(&doc, &none, Variant::Basic, None, &mut scratch).is_empty());
    }

    #[test]
    fn pool_drops_buffers_beyond_the_capacity_budget() {
        let mut scratch = Scratch::new();
        // One over-budget buffer: dropped, not retained for the owner's
        // lifetime.
        scratch.put(Vec::with_capacity(POOLED_ENTRY_BUDGET + 1));
        assert_eq!(scratch.pooled(), 0, "over-budget buffer dropped");
        // Ordinary buffers still pool, and take() releases their share
        // of the budget again.
        scratch.put(Vec::with_capacity(1024));
        assert_eq!(scratch.pooled(), 1);
        let buf = scratch.take();
        assert_eq!(buf.capacity(), 1024);
        scratch.put(buf);
        assert_eq!(scratch.pooled(), 1);
    }

    #[test]
    fn fragment_many_matches_sequential_per_query() {
        use crate::{ancestor_on_list, descendant_on_list, TagIndex};
        for seed in 0..15 {
            let doc = random_doc(seed, 400);
            let idx = TagIndex::build(&doc);
            let ctxs = contexts_for(&doc, seed ^ 0x11F7, 6);
            let refs: Vec<&Context> = ctxs.iter().collect();
            for tag in ["p", "q", "r"] {
                let list = idx.fragment_by_name(&doc, tag);
                let mut scratch = Scratch::new();
                let batch = descendant_on_list_many(&doc, list, &refs, &mut scratch);
                for (i, (got, stats)) in batch.iter().enumerate() {
                    let (want, wstats) = descendant_on_list(&doc, list, &ctxs[i]);
                    assert_eq!(got, &want, "desc {tag} seed {seed} query {i}");
                    assert_eq!(stats.result_size, wstats.result_size);
                    assert_eq!(stats.context_in, wstats.context_in);
                    assert_eq!(stats.context_out, wstats.context_out);
                }
                let batch = ancestor_on_list_many(&doc, list, &refs, &mut scratch);
                for (i, (got, stats)) in batch.iter().enumerate() {
                    let (want, wstats) = ancestor_on_list(&doc, list, &ctxs[i]);
                    assert_eq!(got, &want, "anc {tag} seed {seed} query {i}");
                    assert_eq!(stats.result_size, wstats.result_size);
                }
            }
        }
    }

    #[test]
    fn fragment_many_never_touches_more_than_sequential() {
        use crate::{ancestor_on_list, descendant_on_list, TagIndex};
        for seed in 0..10 {
            let doc = random_doc(seed, 600);
            let idx = TagIndex::build(&doc);
            let list = idx.fragment_by_name(&doc, "p");
            let ctxs = contexts_for(&doc, seed ^ 0x5EED, 8);
            let refs: Vec<&Context> = ctxs.iter().collect();
            let mut scratch = Scratch::new();
            let d_batch: u64 = descendant_on_list_many(&doc, list, &refs, &mut scratch)
                .iter()
                .map(|(_, s)| s.nodes_touched())
                .sum();
            let d_seq: u64 = ctxs
                .iter()
                .map(|c| descendant_on_list(&doc, list, c).1.nodes_touched())
                .sum();
            assert!(d_batch <= d_seq, "seed {seed}: desc {d_batch} > {d_seq}");
            let a_batch: u64 = ancestor_on_list_many(&doc, list, &refs, &mut scratch)
                .iter()
                .map(|(_, s)| s.nodes_touched())
                .sum();
            let a_seq: u64 = ctxs
                .iter()
                .map(|c| ancestor_on_list(&doc, list, c).1.nodes_touched())
                .sum();
            assert!(a_batch <= a_seq, "seed {seed}: anc {a_batch} > {a_seq}");
        }
    }

    #[test]
    fn fragment_many_identical_contexts_share_one_cursor() {
        use crate::{descendant_on_list, TagIndex};
        let doc = random_doc(9, 1500);
        let idx = TagIndex::build(&doc);
        let list = idx.fragment_by_name(&doc, "q");
        let root = Context::singleton(doc.root());
        let refs: Vec<&Context> = (0..6).map(|_| &root).collect();
        let mut scratch = Scratch::new();
        let batch = descendant_on_list_many(&doc, list, &refs, &mut scratch);
        let (want, wstats) = descendant_on_list(&doc, list, &root);
        let total: u64 = batch.iter().map(|(_, s)| s.nodes_touched()).sum();
        assert_eq!(total, wstats.nodes_touched());
        for (got, _) in &batch {
            assert_eq!(got, &want);
        }
    }

    #[test]
    fn horiz_many_matches_sequential_per_query() {
        use crate::{following, following_many, preceding, preceding_many};
        for seed in 0..15 {
            let doc = random_doc(seed, 400);
            let ctxs = contexts_for(&doc, seed ^ 0xF011, 6);
            let refs: Vec<&Context> = ctxs.iter().collect();
            let mut scratch = Scratch::new();
            let f_batch = following_many(&doc, &refs, None, &mut scratch);
            let p_batch = preceding_many(&doc, &refs, None, &mut scratch);
            let mut f_total = 0u64;
            let mut p_total = 0u64;
            let mut f_seq = 0u64;
            let mut p_seq = 0u64;
            for (i, ctx) in ctxs.iter().enumerate() {
                let (f_want, fs) = following(&doc, ctx);
                let (p_want, ps) = preceding(&doc, ctx);
                assert_eq!(f_batch[i].0, f_want, "following seed {seed} query {i}");
                assert_eq!(p_batch[i].0, p_want, "preceding seed {seed} query {i}");
                assert_eq!(f_batch[i].1.result_size, fs.result_size);
                assert_eq!(p_batch[i].1.result_size, ps.result_size);
                f_total += f_batch[i].1.nodes_touched();
                p_total += p_batch[i].1.nodes_touched();
                f_seq += fs.nodes_touched();
                p_seq += ps.nodes_touched();
            }
            // One physical pass each: batched totals never exceed the
            // sequential sums.
            assert!(
                f_total <= f_seq,
                "seed {seed}: following {f_total} > {f_seq}"
            );
            assert!(
                p_total <= p_seq,
                "seed {seed}: preceding {p_total} > {p_seq}"
            );
        }
    }

    #[test]
    fn horiz_many_single_lane_matches_sequential_stats() {
        use crate::{following, following_many, preceding, preceding_many};
        let doc = random_doc(4, 800);
        let deepest = doc.pres().max_by_key(|&p| doc.level(p)).unwrap();
        let ctx = Context::singleton(deepest);
        let mut scratch = Scratch::new();
        let f = following_many(&doc, &[&ctx], None, &mut scratch);
        let (fw, fs) = following(&doc, &ctx);
        assert_eq!(f[0].0, fw);
        assert_eq!(f[0].1, fs);
        let p = preceding_many(&doc, &[&ctx], None, &mut scratch);
        let (pw, ps) = preceding(&doc, &ctx);
        assert_eq!(p[0].0, pw);
        assert_eq!(p[0].1.nodes_touched(), ps.nodes_touched());
        assert_eq!(p[0].1.result_size, ps.result_size);
    }

    #[test]
    fn exists_many_matches_sequential_and_dedups() {
        use crate::{
            has_ancestor_in, has_ancestor_in_many, has_child_in, has_child_in_many,
            has_descendant_in, has_descendant_in_many, TagIndex,
        };
        let doc = random_doc(12, 500);
        let idx = TagIndex::build(&doc);
        let list = idx.fragment_by_name(&doc, "p");
        let a = random_context(&doc, 0xA11CE, 30);
        let b = random_context(&doc, 0xB0B, 30);
        let refs: Vec<&Context> = vec![&a, &b, &a, &a];
        let d = has_descendant_in_many(&doc, &refs, list);
        let an = has_ancestor_in_many(&doc, &refs, list);
        let ch = has_child_in_many(&doc, &refs, list);
        for (i, ctx) in [&a, &b, &a, &a].into_iter().enumerate() {
            assert_eq!(d[i].0, has_descendant_in(&doc, ctx, list).0, "query {i}");
            assert_eq!(an[i].0, has_ancestor_in(&doc, ctx, list).0, "query {i}");
            assert_eq!(ch[i].0, has_child_in(&doc, ctx, list).0, "query {i}");
        }
        // Duplicate candidate sets are probed once: incremental touches
        // land on the first occurrence only.
        assert_eq!(d[2].1.nodes_touched(), 0);
        assert_eq!(d[3].1.nodes_touched(), 0);
        assert_eq!(
            d[0].1.nodes_touched(),
            has_descendant_in(&doc, &a, list).1.nodes_touched()
        );
    }

    #[test]
    fn many_forms_reuse_the_scratch_pool() {
        use crate::{following_many, preceding_many, TagIndex};
        let doc = random_doc(21, 600);
        let idx = TagIndex::build(&doc);
        let list = idx.fragment_by_name(&doc, "r");
        let ctxs = contexts_for(&doc, 0xCAFE, 4);
        let refs: Vec<&Context> = ctxs.iter().collect();

        let mut scratch = Scratch::new();
        // Warm the pool once: every result the caller recycles and every
        // internal buffer comes back to the pool.
        for _ in 0..2 {
            for (c, _) in descendant_on_list_many(&doc, list, &refs, &mut scratch) {
                scratch.recycle(c);
            }
            for (c, _) in following_many(&doc, &refs, None, &mut scratch) {
                scratch.recycle(c);
            }
            for (c, _) in preceding_many(&doc, &refs, None, &mut scratch) {
                scratch.recycle(c);
            }
        }
        let steady = scratch.pooled();
        assert!(steady > 0, "pool must hold recycled buffers");
        // Steady state: another round allocates nothing new — the pool
        // level is unchanged after take/put cycles.
        for _ in 0..3 {
            for (c, _) in descendant_on_list_many(&doc, list, &refs, &mut scratch) {
                scratch.recycle(c);
            }
            for (c, _) in following_many(&doc, &refs, None, &mut scratch) {
                scratch.recycle(c);
            }
            for (c, _) in preceding_many(&doc, &refs, None, &mut scratch) {
                scratch.recycle(c);
            }
            assert_eq!(scratch.pooled(), steady, "steady-state pool level");
        }
    }

    #[test]
    fn scratch_reuses_buffers() {
        let mut scratch = Scratch::new();
        let mut buf = scratch.take();
        buf.extend([1, 2, 3]);
        let cap = buf.capacity();
        scratch.put(buf);
        assert_eq!(scratch.pooled(), 1);
        let again = scratch.take();
        assert!(again.is_empty());
        assert_eq!(again.capacity(), cap, "allocation reused");
        scratch.recycle(Context::from_sorted(vec![4, 5]));
        assert_eq!(scratch.pooled(), 1);

        // Joins drain and refill the pool rather than allocating afresh.
        let doc = random_doc(11, 300);
        let ctx = random_context(&doc, 0x5C2A7C4, 10);
        let refs: Vec<&Context> = vec![&ctx];
        let out = descendant_many(&doc, &refs, Variant::EstimationSkipping, None, &mut scratch);
        assert!(scratch.pooled() >= 1, "pruned-step buffer returned");
        for (c, _) in out {
            scratch.recycle(c);
        }
        assert!(scratch.pooled() >= 2, "result buffer recycled");
    }
}
