//! [`Scratch`]: the buffer pool a long-lived evaluator threads through
//! the kernels, and [`ScratchPool`], the shards of it a shared owner
//! hands to concurrent callers.
//!
//! Every pooled single-context join — the plane scans
//! [`crate::descendant_pooled`], [`crate::ancestor_pooled`],
//! [`crate::following_pooled`], [`crate::preceding_pooled`] and the range
//! joins over a tag fragment ([`crate::descendant_on_list_pooled`] and
//! friends) — draws its pruned boundary list and its result from a
//! `Scratch`, and the caller recycles a step's input once the next step
//! has consumed it. A `Scratch` lives as long as its owner (the session,
//! upstairs, keeps one per shard of its [`ScratchPool`]), so repeated
//! steps and queries reuse result and context allocations instead of
//! paying `Vec::new()` plus regrowth per step — a steady-state executor
//! stops allocating (asserted by the pool-reuse tests below).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use staircase_accel::{Context, Pre};

/// A pool of `Vec<Pre>` buffers recycled across joins and steps.
///
/// Every result vector and pruned-context list a pooled join needs is
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
/// typical batch between steps, small enough that one
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

/// A sharded set of [`Scratch`] buffer pools: one shard per query the
/// owner expects to run concurrently (the session's concurrent server
/// connections share it).
///
/// A single `Mutex<Scratch>` would have to fall back to a **throwaway**
/// pool whenever the lock was contended — every concurrent query paying
/// full allocation. With shards, a `try_lock` sweep almost always finds
/// a free pool, so contended queries reuse warm buffers too; the
/// allocate-fresh escape hatch survives only for more concurrent
/// callers than shards, where blocking would serialise them.
#[derive(Debug)]
pub struct ScratchPool {
    shards: Vec<Mutex<Scratch>>,
    /// Rotates the sweep's starting shard so concurrent callers spread
    /// out instead of convoying on shard 0.
    next: AtomicUsize,
}

impl ScratchPool {
    /// A pool of `shards` independent scratch buffers (at least one).
    pub fn new(shards: usize) -> ScratchPool {
        ScratchPool {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Scratch::new()))
                .collect(),
            next: AtomicUsize::new(0),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Runs `f` with an uncontended shard's scratch pool. Only when every
    /// shard is busy — more concurrent executors than shards — does `f`
    /// get a throwaway pool (correctness never depends on which one).
    pub fn with<R>(&self, f: impl FnOnce(&mut Scratch) -> R) -> R {
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        for i in 0..self.shards.len() {
            let shard = &self.shards[(start + i) % self.shards.len()];
            match shard.try_lock() {
                Ok(mut scratch) => return f(&mut scratch),
                Err(std::sync::TryLockError::Poisoned(e)) => return f(&mut e.into_inner()),
                Err(std::sync::TryLockError::WouldBlock) => continue,
            }
        }
        f(&mut Scratch::new())
    }

    /// Total buffers currently pooled across all shards (tests/metrics).
    pub fn pooled_total(&self) -> usize {
        self.shards
            .iter()
            .map(|s| match s.try_lock() {
                Ok(scratch) => scratch.pooled(),
                Err(_) => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{figure1, random_context, random_doc};
    use crate::{
        ancestor, ancestor_on_list, ancestor_on_list_pooled, ancestor_pooled, child_on_list,
        child_on_list_pooled, descendant, descendant_on_list, descendant_on_list_pooled,
        descendant_pooled, following, following_pooled, preceding, preceding_pooled, ScanTest,
        StepStats, TagIndex, Variant,
    };
    use staircase_accel::Doc;
    use std::ops::Range;

    const ALL: [Variant; 3] = [
        Variant::Basic,
        Variant::Skipping,
        Variant::EstimationSkipping,
    ];

    type Runs = Vec<(Context, StepStats)>;

    /// `joins(doc, ctx, Some(scratch))` — pooled — agrees with
    /// `joins(doc, ctx, None)` — plain — node for node and counter for
    /// counter, on six random contexts of each document: one scratch
    /// pool throughout, every result recycled into it.
    fn agree(seeds: Range<u64>, size: usize, joins: impl Fn(&Doc, &Context, Pool) -> Runs) {
        for seed in seeds {
            let doc = random_doc(seed, size);
            let mut scratch = Scratch::new();
            for i in 0..6 {
                let ctx = random_context(&doc, seed ^ (i as u64).wrapping_mul(0x9E37), 20);
                let want = joins(&doc, &ctx, None);
                for (j, got) in joins(&doc, &ctx, Some(&mut scratch))
                    .into_iter()
                    .enumerate()
                {
                    assert_eq!(got, want[j], "seed {seed}, context {i}, join {j}");
                    scratch.recycle(got.0);
                }
            }
        }
    }

    type Pool<'s> = Option<&'s mut Scratch>;

    fn list(doc: &Doc) -> Vec<Pre> {
        TagIndex::build(doc).fragment_by_name(doc, "p").to_vec()
    }

    /// Every variant of a vertical plane join: on `scratch` when there is
    /// one, plain otherwise.
    fn vertical(doc: &Doc, c: &Context, desc: bool, s: Pool) -> Runs {
        let test = ScanTest::node(doc);
        let Some(s) = s else {
            return ALL
                .map(|v| [ancestor, descendant][usize::from(desc)](doc, c, v))
                .into();
        };
        let pooled = [ancestor_pooled, descendant_pooled][usize::from(desc)];
        ALL.map(|v| pooled(doc, c, v, &test, s)).into()
    }

    #[test]
    fn descendant_many_matches_sequential_per_query() {
        agree(0..15, 400, |d, c, s| vertical(d, c, true, s));
    }

    #[test]
    fn ancestor_many_matches_sequential_per_query() {
        agree(0..15, 400, |d, c, s| vertical(d, c, false, s));
    }

    #[test]
    fn batch_never_touches_more_than_sequential() {
        // On large documents: a warm scratch pool changes where a result
        // lives, never which positions are read.
        for desc in [true, false] {
            agree(0..4, 9000, |d, c, s| vertical(d, c, desc, s));
        }
    }

    #[test]
    fn empty_and_mixed_contexts() {
        let doc = figure1();
        let test = ScanTest::node(&doc);
        let mut scratch = Scratch::new();
        for variant in ALL {
            for ctx in [Context::empty(), Context::singleton(2)] {
                let d = descendant_pooled(&doc, &ctx, variant, &test, &mut scratch);
                assert_eq!(d.0, descendant(&doc, &ctx, variant).0);
                let a = ancestor_pooled(&doc, &ctx, variant, &test, &mut scratch);
                assert_eq!(a.0, ancestor(&doc, &ctx, variant).0);
            }
        }
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
        agree(0..15, 400, |doc, ctx, s| {
            let list = list(doc);
            let Some(s) = s else {
                return [descendant_on_list, ancestor_on_list, child_on_list]
                    .map(|join| join(doc, &list, ctx))
                    .into();
            };
            [
                descendant_on_list_pooled,
                ancestor_on_list_pooled,
                child_on_list_pooled,
            ]
            .map(|join| join(doc, &list, ctx, s))
            .into()
        });
    }

    #[test]
    fn fragment_many_never_touches_more_than_sequential() {
        // A warm scratch pool changes where a result lives, never what
        // the join reads.
        agree(0..10, 600, |doc, ctx, s| match s {
            Some(s) => vec![descendant_on_list_pooled(doc, &list(doc), ctx, s)],
            None => vec![descendant_on_list(doc, &list(doc), ctx)],
        });
    }

    #[test]
    fn horiz_many_matches_sequential_per_query() {
        agree(0..15, 400, |doc, ctx, s| {
            let test = ScanTest::node(doc);
            match s {
                Some(s) => vec![
                    following_pooled(doc, ctx, &test, s),
                    preceding_pooled(doc, ctx, &test, s),
                ],
                None => vec![following(doc, ctx), preceding(doc, ctx)],
            }
        });
    }

    #[test]
    fn horiz_many_single_lane_matches_sequential_stats() {
        let doc = random_doc(4, 800);
        let deepest = doc.pres().max_by_key(|&p| doc.level(p)).unwrap();
        let ctx = Context::singleton(deepest);
        let test = ScanTest::node(&doc);
        let mut scratch = Scratch::new();
        let f = following_pooled(&doc, &ctx, &test, &mut scratch);
        assert_eq!(f, following(&doc, &ctx));
        let p = preceding_pooled(&doc, &ctx, &test, &mut scratch);
        assert_eq!(p, preceding(&doc, &ctx));
    }

    #[test]
    fn exists_many_matches_sequential_and_dedups() {
        use crate::{has_ancestor_in, has_child_in, has_descendant_in};
        use staircase_accel::Axis;
        let doc = random_doc(12, 500);
        let list = list(&doc);
        for seed in [0xA11CE, 0xB0B] {
            let ctx = random_context(&doc, seed, 30);
            let brute = |axis: Axis| -> Vec<Pre> {
                let hit = |c| list.iter().any(|&p| axis.contains(&doc, c, p));
                ctx.iter().filter(|&c| hit(c)).collect()
            };
            let d = has_descendant_in(&doc, &ctx, &list).0;
            assert_eq!(d.as_slice(), &brute(Axis::Descendant)[..]);
            let a = has_ancestor_in(&doc, &ctx, &list).0;
            assert_eq!(a.as_slice(), &brute(Axis::Ancestor)[..]);
            let c = has_child_in(&doc, &ctx, &list).0;
            assert_eq!(c.as_slice(), &brute(Axis::Child)[..]);
        }
    }

    #[test]
    fn many_forms_reuse_the_scratch_pool() {
        let doc = random_doc(21, 600);
        let list = list(&doc);
        let test = ScanTest::node(&doc);
        let ctxs: Vec<Context> = (0..4)
            .map(|i| random_context(&doc, 0xCAFE ^ i, 20))
            .collect();
        let mut scratch = Scratch::new();
        let round = |scratch: &mut Scratch| {
            for ctx in &ctxs {
                let outs = [
                    descendant_on_list_pooled(&doc, &list, ctx, scratch).0,
                    following_pooled(&doc, ctx, &test, scratch).0,
                    preceding_pooled(&doc, ctx, &test, scratch).0,
                    descendant_pooled(&doc, ctx, Variant::Skipping, &test, scratch).0,
                ];
                for c in outs {
                    scratch.recycle(c);
                }
            }
        };
        // Warm the pool once: every result the caller recycles and every
        // internal buffer comes back to the pool.
        round(&mut scratch);
        round(&mut scratch);
        let steady = scratch.pooled();
        assert!(steady > 0, "pool must hold recycled buffers");
        // Steady state: another round allocates nothing new — the pool
        // level is unchanged after take/put cycles.
        for _ in 0..3 {
            round(&mut scratch);
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
        let test = ScanTest::node(&doc);
        let out = descendant_pooled(&doc, &ctx, Variant::Skipping, &test, &mut scratch);
        assert!(scratch.pooled() >= 1, "pruned-step buffer returned");
        scratch.recycle(out.0);
        assert!(scratch.pooled() >= 2, "result buffer recycled");
    }

    #[test]
    fn scratch_shards_hand_out_distinct_pools() {
        let pool = ScratchPool::new(3);
        assert_eq!(pool.shards(), 3);
        // Warm one shard, then hold it while a second caller sweeps to a
        // different shard instead of allocating a throwaway pool.
        pool.with(|s| {
            let mut buf = s.take();
            buf.reserve(64);
            s.put(buf);
        });
        assert_eq!(pool.pooled_total(), 1);
        pool.with(|held| {
            let buf = held.take(); // keep the warm shard busy
            pool.with(|other| {
                // Different shard: the warm buffer is not here.
                let fresh = other.take();
                assert_eq!(fresh.capacity(), 0);
                other.put({
                    let mut b = fresh;
                    b.reserve(16);
                    b
                });
            });
            held.put(buf);
        });
        assert_eq!(pool.pooled_total(), 2);
    }

    #[test]
    fn scratch_pool_clamps_to_one_shard() {
        let pool = ScratchPool::new(0);
        assert_eq!(pool.shards(), 1);
        assert_eq!(pool.with(|_| 42), 42);
    }

    #[test]
    fn concurrent_queries_reuse_shards_without_allocating() {
        use crate::testutil::{random_context, random_doc};
        use crate::{descendant_pooled, ScanTest, Variant};

        let doc = random_doc(5, 800);
        let pool = ScratchPool::new(8);
        let one_batch = |scratch: &mut Scratch, seed: u64| {
            let ctx = random_context(&doc, 0xAB ^ seed, 15);
            let test = ScanTest::node(&doc);
            let (c, _) = descendant_pooled(&doc, &ctx, Variant::EstimationSkipping, &test, scratch);
            scratch.recycle(c);
        };
        // Warm every shard deterministically: sequential calls rotate
        // the sweep's starting shard through all of them.
        for seed in 0..pool.shards() as u64 {
            pool.with(|scratch| one_batch(scratch, seed));
        }
        let steady = pool.pooled_total();
        assert!(steady > 0, "warm shards must hold recycled buffers");

        // Steady state under contention: four concurrent queries per
        // round, every one sweeping out a warm shard — no throwaway
        // pools, no new allocations, no dropped buffers.
        for _ in 0..5 {
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    let pool = &pool;
                    let one_batch = &one_batch;
                    scope.spawn(move || {
                        pool.with(|scratch| one_batch(scratch, t));
                    });
                }
            });
            assert_eq!(
                pool.pooled_total(),
                steady,
                "steady-state shard pools neither grow nor shrink"
            );
        }
    }
}
