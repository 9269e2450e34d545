//! Multi-context ("lane") staircase joins: K queries, one pass.
//!
//! A server answering many queries over one document repeats the same
//! sequential scan once per query. But a pruned context is just a
//! sorted list of partition boundaries (§3.1), and sorted boundary
//! lists *merge*: exactly the observation that lets Leapfrog Triejoin
//! drive many sorted cursors through one coordinated pass (Veldhuizen,
//! ICDT 2013). Since the lane-native refactor every remaining scan
//! shape has a multi-context form, so multi-query execution is the
//! *native* form upstairs (`staircase-xpath` evaluates a single query
//! as the K = 1 batch):
//!
//! * [`descendant_many`] / [`ancestor_many`] interleave K contexts'
//!   staircase boundaries into one event list and produce all K result
//!   vectors from a **single left-to-right scan** of the `post`/`kind`
//!   columns;
//! * [`descendant_on_list_many`] / [`ancestor_on_list_many`] /
//!   [`child_on_list_many`] (this module) share what a range join has
//!   to share: the fragment is resolved once for the group and
//!   identical contexts are joined once. A range join brackets slices
//!   of the list and copies them without reading an entry, so — unlike
//!   the plane scans — there is no per-entry read for a merged cursor
//!   to save, and every distinct context runs the single-context loop
//!   of [`crate::list`];
//! * [`crate::following_many`] / [`crate::preceding_many`] serve the
//!   horizontal axes' nested suffix/prefix regions from one filtered
//!   scan;
//! * [`crate::has_descendant_in_many`] and friends batch the semijoin
//!   predicate probes over one shared node list.
//!
//! Per query, the visited positions, pushes, and skip decisions are
//! exactly those of the sequential operator — results are bit-identical
//! — but a position shared by several lanes is *read once*. The
//! returned [`StepStats`] therefore count **incremental** cost: each
//! read is attributed to the first lane that needed it, so the
//! per-query `nodes_touched()` values sum to the physical reads. For
//! overlapping contexts (the common case — e.g. every query starting at
//! the document root) that sum is strictly below the sum of K
//! sequential runs. Queries whose context is *identical* to an earlier
//! query's are recognised up front and share the earlier result
//! outright (one `memcpy`, zero touches).
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
//! than one and enough work, a single-context batch is split into
//! disjoint pre-range morsels executed on it (`crate::morsel`), with
//! identical results and statistics; `None` is the sequential scan.

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
/// The dedup backbone for the multi-context operators with nothing to
/// merge — the range joins over a tag fragment
/// ([`descendant_on_list_many`] and friends) and the semijoin probes
/// ([`crate::has_descendant_in_many`] and friends), which are the same
/// loops. The operators with merged scans ([`shared_pass`] for the plane
/// joins, the suffix/prefix sharing of [`crate::following_many`] /
/// [`crate::preceding_many`]) handle duplicates inside those scans and
/// only share the [`representatives`] criterion.
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

/// Evaluates `lanes[k]`'s `descendant` step for every `k` with **one**
/// scan of the plane — `descendant::node()` for a bare context, the
/// lane's own node test for a `(context, test)` pair.
///
/// Equivalent, query by query, to K calls of
/// [`crate::descendant_tested`] (asserted by tests); see the module docs
/// above for the shared-cost statistics contract. A single-context batch
/// is split into morsels on `pool` when it is wider than one and the
/// work amortizes the handoff; `None` runs it sequentially.
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
        |doc, lanes, scratch| match lanes {
            // One unique context (e.g. every query starts at the root):
            // the sequential join's tight loops are strictly faster than
            // the merged scan, and the single pass serves everyone.
            [lane] => lane.once_per_test(|steps, test, result, stats| {
                descendant_lane(doc, steps, variant, test, result, stats, pool, scratch)
            }),
            // Several contexts keep the merged scan: its sharing *is*
            // the optimisation.
            _ => descendant_scan(doc, lanes, variant),
        },
    )
}

/// Evaluates `lanes[k]`'s `ancestor` step for every `k` with **one**
/// scan of the plane; the multi-query twin of [`crate::ancestor_tested`]
/// (`pool` as for [`descendant_many`]).
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
        |doc, lanes, scratch| match lanes {
            [lane] => lane.once_per_test(|steps, test, result, stats| {
                ancestor_lane(doc, steps, variant, test, result, stats, pool, scratch)
            }),
            _ => ancestor_scan(doc, lanes, variant),
        },
    )
}

/// Evaluates `contexts[k]/descendant::tag` for every `k` directly on one
/// shared tag fragment (`list`, pre-sorted): the multi-context form of
/// [`crate::descendant_on_list`].
///
/// A range join reads no list entry — it brackets slices and copies
/// them — so there is no per-entry read for lanes to share and no merged
/// scan: identical contexts are joined once (duplicates
/// report zero incremental touches) and every distinct context runs the
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

/// One unique context's slice of the shared scan, and the result of
/// every distinct node test asked of it.
pub(crate) struct Lane<'d> {
    /// Pruned staircase steps (partition boundaries), from the pool.
    steps: Vec<Pre>,
    /// Index of the next boundary not yet passed.
    next: usize,
    /// Pre rank of the currently open step (descendant scan).
    cur: Pre,
    /// Staircase boundary of the current partition (a postorder rank).
    bound: u32,
    /// Last position of the current copy phase, inclusive (descendant
    /// estimation skipping); positions `≤ cur` mean "no copy phase".
    copy_end: Pre,
    /// Descendant scan: `false` once skipping proved the rest of the
    /// partition empty. Ancestor scan: positions below `wake` are inside
    /// a jumped-over subtree block.
    awake: bool,
    /// First position the ancestor scan may inspect again after a jump.
    wake: Pre,
    /// `true` while a partition is open (descendant scan).
    open: bool,
    /// The node test riding the scan for `result`.
    test: ScanTest<'d>,
    /// This lane's result, from the pool.
    result: Vec<Pre>,
    /// Further node tests other queries ask of the same context, each
    /// with its own result: the scan is shared, only the writes differ.
    also: Vec<(ScanTest<'d>, Vec<Pre>)>,
    /// This lane's (incremental) statistics.
    stats: StepStats,
}

impl<'d> Lane<'d> {
    /// Hands a position the scan found in the lane's region to every
    /// node test riding it.
    #[inline]
    fn offer(&mut self, v: Pre) {
        if self.test.keeps(v) {
            self.result.push(v);
        }
        for (test, result) in &mut self.also {
            if test.keeps(v) {
                result.push(v);
            }
        }
    }

    /// Runs the single-context loop `run(steps, test, result, stats)`
    /// once per node test riding this lane. The counters are arithmetic
    /// over the ranges whatever a test keeps, so every run reads the
    /// same positions; the pass is charged once, to the lane.
    pub(crate) fn once_per_test(
        &mut self,
        mut run: impl FnMut(&[Pre], &ScanTest<'d>, &mut Vec<Pre>, &mut StepStats),
    ) {
        run(&self.steps, &self.test, &mut self.result, &mut self.stats);
        for (test, result) in &mut self.also {
            run(&self.steps, test, result, &mut StepStats::default());
        }
    }
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
/// runs `scan` over the lanes, and maps results back to the callers'
/// order.
pub(crate) fn shared_pass<'d, L: ScanLane<'d>>(
    doc: &'d Doc,
    input: &[L],
    scratch: &mut Scratch,
    prune: impl Fn(&Doc, &Context, &mut Vec<Pre>),
    scan: impl FnOnce(&'d Doc, &mut [Lane<'d>], &mut Scratch),
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
            next: 0,
            cur: Pre::MAX,
            bound: 0,
            copy_end: 0,
            awake: false,
            wake: 0,
            open: false,
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

    scan(doc, &mut lanes, scratch);

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

/// Merges every lane's pruned steps into one interleaved boundary list:
/// `(pre, lane)` pairs in plane order.
fn merged_boundaries(lanes: &[Lane<'_>]) -> Vec<(Pre, u32)> {
    let total: usize = lanes.iter().map(|l| l.steps.len()).sum();
    let mut events = Vec::with_capacity(total);
    for (i, lane) in lanes.iter().enumerate() {
        events.extend(lane.steps.iter().map(|&c| (c, i as u32)));
    }
    events.sort_unstable();
    events
}

/// The merged descendant scan: left to right over the plane, opening
/// each lane's partitions at its own boundaries, copying/scanning/
/// sleeping per lane exactly as the sequential join would. An active
/// list keeps per-position work proportional to the lanes that actually
/// need the position; regions nobody needs are leapfrogged.
pub(crate) fn descendant_scan(doc: &Doc, lanes: &mut [Lane<'_>], variant: Variant) {
    let post = doc.post_column();
    let n = doc.len() as Pre;

    // Pre-size results from the Equation-1 guaranteed-descendant
    // counts, capped by what each lane's test can keep at all.
    for lane in lanes.iter_mut() {
        let region = crate::desc::guaranteed_result_estimate(post, &lane.steps, n);
        lane.result.reserve(lane.test.reserve_for(region));
        for (test, result) in &mut lane.also {
            result.reserve(test.reserve_for(region));
        }
    }

    let events = merged_boundaries(lanes);
    let mut ei = 0usize;
    let mut active: Vec<u32> = Vec::with_capacity(lanes.len());
    // Governed merged scans stop cooperatively at position granularity;
    // a trip abandons the whole pass (every lane's partial result is
    // discarded by the caller).
    let mut gov = crate::governor::Ticker::ambient();
    let Some(&(mut v, _)) = events.first() else {
        return; // every context pruned to nothing
    };
    while v < n {
        // Phase 1: boundaries at v open a fresh partition for their lane.
        while ei < events.len() && events[ei].0 == v {
            let li = events[ei].1;
            ei += 1;
            let lane = &mut lanes[li as usize];
            lane.stats.partitions += 1;
            lane.cur = v;
            lane.bound = post[v as usize];
            lane.next += 1;
            let part_end = lane.steps.get(lane.next).copied().unwrap_or(n);
            lane.copy_end = match variant {
                Variant::EstimationSkipping => lane.bound.min(part_end.saturating_sub(1)),
                _ => v,
            };
            if !(lane.open && lane.awake) {
                lane.open = true;
                lane.awake = true;
                active.push(li);
            }
        }
        if active.is_empty() {
            // Nobody needs the region ahead: leapfrog to the next
            // boundary event (every sleeping lane wakes at its own).
            match events.get(ei) {
                Some(&(next_v, _)) => {
                    debug_assert!(next_v > v);
                    v = next_v;
                    continue;
                }
                None => break,
            }
        }
        if gov.tick(1) {
            return;
        }
        // Phase 2: every active lane whose partition was open before v
        // inspects position v. The position is physically read at most
        // once; the read is attributed to the first lane that needed it.
        let mut touch: Option<(u32, bool)> = None;
        let mut ai = 0usize;
        while ai < active.len() {
            let li = active[ai];
            let lane = &mut lanes[li as usize];
            if lane.cur == v {
                ai += 1; // opened at v; its scan starts at v + 1
                continue;
            }
            if v <= lane.copy_end {
                // Copy phase: a guaranteed descendant, no comparison.
                if touch.is_none() {
                    touch = Some((li, true));
                }
                lane.offer(v);
                ai += 1;
            } else {
                if touch.is_none() {
                    touch = Some((li, false));
                }
                if post[v as usize] < lane.bound {
                    lane.offer(v);
                    ai += 1;
                } else if variant != Variant::Basic {
                    // First miss: the rest of this lane's partition is a
                    // provably empty Z-region. Sleep until the lane's own
                    // next boundary (where phase 1 reopens it).
                    let part_end = lane.steps.get(lane.next).copied().unwrap_or(n);
                    lane.stats.nodes_skipped += u64::from(part_end - v - 1);
                    lane.awake = false;
                    active.swap_remove(ai);
                } else {
                    ai += 1;
                }
            }
        }
        match touch {
            Some((li, true)) => lanes[li as usize].stats.nodes_copied += 1,
            Some((li, false)) => lanes[li as usize].stats.nodes_scanned += 1,
            None => {}
        }
        v += 1;
    }
}

/// The merged ancestor scan: partitions *end* at each lane's boundaries;
/// subtree jumps (§3.3 / Equation 1) move a lane from the active to the
/// sleeping list until its wake position.
pub(crate) fn ancestor_scan(doc: &Doc, lanes: &mut [Lane<'_>], variant: Variant) {
    let post = doc.post_column();

    let events = merged_boundaries(lanes);
    let mut ei = 0usize;
    let mut active: Vec<u32> = Vec::with_capacity(lanes.len());
    let mut sleeping: Vec<u32> = Vec::new();
    let mut gov = crate::governor::Ticker::ambient();
    for (i, lane) in lanes.iter_mut().enumerate() {
        if !lane.steps.is_empty() {
            lane.stats.partitions = lane.steps.len();
            lane.bound = post[lane.steps[0] as usize];
            active.push(i as u32);
        }
    }

    let mut v: Pre = 0;
    // Earliest wake position among sleepers: the sleeping list is only
    // scanned when someone can actually rejoin.
    let mut min_wake: Pre = Pre::MAX;
    loop {
        // Sleepers whose jumped-over block ends here rejoin the scan
        // (jumps never overshoot the lane's own boundary, so a sleeping
        // lane is always back before its partition closes).
        if min_wake <= v {
            min_wake = Pre::MAX;
            let mut si = 0usize;
            while si < sleeping.len() {
                let li = sleeping[si];
                let wake = lanes[li as usize].wake;
                if wake <= v {
                    active.push(li);
                    sleeping.swap_remove(si);
                } else {
                    min_wake = min_wake.min(wake);
                    si += 1;
                }
            }
        }
        // Boundaries at v close their lane's partition; v itself is a
        // context node (never a candidate — pruning left no step that is
        // an ancestor of another).
        while ei < events.len() && events[ei].0 == v {
            let li = events[ei].1;
            ei += 1;
            let lane = &mut lanes[li as usize];
            lane.next += 1;
            lane.cur = v; // do not scan the boundary position itself
            match lane.steps.get(lane.next) {
                Some(&c2) => lane.bound = post[c2 as usize],
                None => {
                    // Last partition closed: the lane is done.
                    if let Some(pos) = active.iter().position(|&a| a == li) {
                        active.swap_remove(pos);
                    }
                }
            }
        }
        if active.is_empty() {
            if sleeping.is_empty() {
                break; // every lane finished
            }
            // Leapfrog to the earliest wake position (always ahead, and
            // always at or before that lane's next boundary event).
            debug_assert!(min_wake > v);
            v = min_wake;
            continue;
        }
        if gov.tick(1) {
            return;
        }
        // Scan position v for every active lane; one physical read,
        // attributed to the first lane that needed it.
        let post_v = post[v as usize];
        let mut touch: Option<u32> = None;
        let mut ai = 0usize;
        while ai < active.len() {
            let li = active[ai];
            let lane = &mut lanes[li as usize];
            if lane.cur == v {
                ai += 1; // this lane's boundary: next partition starts at v + 1
                continue;
            }
            if touch.is_none() {
                touch = Some(li);
            }
            if post_v > lane.bound {
                lane.offer(v);
                ai += 1;
            } else if variant != Variant::Basic {
                // v (and its whole subtree) precedes c: jump the
                // guaranteed block, underestimating by ≤ h (§3.3).
                let c = lane.steps[lane.next];
                let jump = post_v.saturating_sub(v).min(c - v - 1);
                lane.stats.nodes_skipped += u64::from(jump);
                if jump > 0 {
                    lane.wake = v + 1 + jump;
                    min_wake = min_wake.min(lane.wake);
                    sleeping.push(li);
                    active.swap_remove(ai);
                } else {
                    ai += 1;
                }
            } else {
                ai += 1;
            }
        }
        if let Some(li) = touch {
            lanes[li as usize].stats.nodes_scanned += 1;
        }
        v += 1;
    }
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
                    assert_eq!(stats.result_size, wstats.result_size);
                    assert_eq!(stats.context_in, wstats.context_in);
                    assert_eq!(stats.context_out, wstats.context_out);
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
                    assert_eq!(stats.result_size, wstats.result_size);
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
                assert!(
                    batch <= sequential,
                    "seed {seed}, {variant:?}: batch {batch} > sequential {sequential}"
                );
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
    fn overlapping_contexts_touch_strictly_less() {
        // Distinct contexts sharing most of their regions: nested chains.
        let doc = figure1();
        let a = Context::from_unsorted(vec![0]); // root: covers everything
        let b = Context::from_unsorted(vec![0, 4]); // prunes to root too? no: 4 inside 0 → pruned to [0]
        let c = Context::from_unsorted(vec![1, 4]); // b, e — disjoint from each other, inside root's region
        let refs: Vec<&Context> = vec![&a, &b, &c];
        let mut scratch = Scratch::new();
        for variant in ALL {
            let batch = descendant_many(&doc, &refs, variant, None, &mut scratch);
            let batch_total: u64 = batch.iter().map(|(_, s)| s.nodes_touched()).sum();
            let seq_total: u64 = [&a, &b, &c]
                .iter()
                .map(|ctx| descendant(&doc, ctx, variant).1.nodes_touched())
                .sum();
            assert!(
                batch_total < seq_total,
                "{variant:?}: {batch_total} !< {seq_total}"
            );
            for (i, ctx) in refs.iter().enumerate() {
                assert_eq!(batch[i].0, descendant(&doc, ctx, variant).0, "{variant:?}");
            }
        }
    }

    #[test]
    fn ancestor_many_shares_deep_chains() {
        // Deep contexts in the same subtree share long ancestor prefixes.
        let doc = random_doc(3, 2000);
        let max_level = doc.pres().map(|p| doc.level(p)).max().unwrap();
        let deep: Vec<Pre> = doc.pres().filter(|&p| doc.level(p) == max_level).collect();
        let ctxs: Vec<Context> = deep.iter().map(|&p| Context::singleton(p)).collect();
        let refs: Vec<&Context> = ctxs.iter().collect();
        let mut scratch = Scratch::new();
        let batch = ancestor_many(&doc, &refs, Variant::Skipping, None, &mut scratch);
        let mut seq_total = 0u64;
        for (i, ctx) in ctxs.iter().enumerate() {
            let (want, st) = ancestor(&doc, ctx, Variant::Skipping);
            assert_eq!(batch[i].0, want, "query {i}");
            seq_total += st.nodes_touched();
        }
        let batch_total: u64 = batch.iter().map(|(_, s)| s.nodes_touched()).sum();
        if ctxs.len() > 1 {
            assert!(
                batch_total < seq_total,
                "batch {batch_total} !< sequential {seq_total}"
            );
        }
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
