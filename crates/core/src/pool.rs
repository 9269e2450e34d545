//! The persistent worker pool behind every parallel staircase operator.
//!
//! §3.2 observes that the pruned context's disjoint pre-range partitions
//! "naturally lead to a parallel XPath execution strategy"; morsel-driven
//! schedulers (Leis et al., SIGMOD 2014) turn that observation into an
//! execution backbone: a fixed set of workers, built **once**, pulling
//! small self-contained work items from a shared queue. [`WorkerPool`]
//! is that backbone for this repository — the session layer builds one
//! per document session and reuses it for every query and batch, so no
//! call pays a `std::thread::scope` spawn/join.
//!
//! Design points:
//!
//! * **Width `w` means `w` executors**: the pool spawns `w − 1` threads
//!   and the *calling* thread participates in draining the queue while it
//!   waits, so `WorkerPool::new(1)` spawns nothing and [`WorkerPool::run`]
//!   degenerates to a plain sequential loop — a width-1 session is the
//!   pre-pool executor, not a pool with handoff overhead.
//! * **Borrow-friendly jobs**: `run` accepts closures borrowing the
//!   caller's stack (documents, pruned steps, scratch buffers). It does not
//!   return until every job has finished, which is what makes the
//!   lifetime erasure underneath sound.
//! * **Nesting**: a job may itself call `run` on the same pool (a job
//!   fanning a kernel out into morsels). The nested caller drains
//!   the shared queue while waiting, so progress is always possible and
//!   the pool cannot deadlock on its own tasks.
//! * **Panics propagate — or are caught**: a panicking job poisons
//!   nothing; [`WorkerPool::run`] re-raises the first payload on the
//!   calling thread after the whole batch has drained, while
//!   [`WorkerPool::run_caught`] returns per-job
//!   [`std::thread::Result`]s so a caller can fail one job's query and
//!   keep the rest.
//! * **Governance propagates**: both entry points capture the
//!   submitting thread's ambient [`crate::governor::Budget`] and
//!   install it around every job, so governed kernels keep ticking
//!   inside workers.
//!
//! [`ScratchPool`] is the companion buffer-pool shard set: one
//! [`Scratch`] per slot, handed out by a `try_lock` sweep so concurrent
//! batches stop fighting over (or worse, bypassing) a single
//! session-wide pool.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::batch::Scratch;

/// A type-erased work item; lifetime-erased by [`WorkerPool::run`],
/// which guarantees the job finishes before the borrowed data can die.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool's owner and its worker threads.
struct Shared {
    /// Pending jobs plus the shutdown flag, under **one** mutex — the
    /// flag must be checked under the same lock the condvar waits on,
    /// or `Drop`'s notification could slip between a worker's check and
    /// its wait (a lost wakeup that would hang the join).
    queue: Mutex<PoolState>,
    /// Signalled when a job is pushed or the pool shuts down.
    work: Condvar,
}

/// The queue-mutex payload: pending jobs and the shutdown flag.
struct PoolState {
    /// Pending jobs; workers and waiting callers pop from the front.
    jobs: VecDeque<Job>,
    /// Set once by `Drop`; workers exit when the queue drains.
    shutdown: bool,
}

/// Completion tracking for one `run` batch.
struct Batch {
    /// Jobs not yet finished.
    remaining: Mutex<usize>,
    /// Signalled when `remaining` reaches zero.
    done: Condvar,
}

/// A persistent pool of worker threads executing borrowed closures.
///
/// Built once (the session layer owns one per document session) and
/// reused across queries; see the module docs above for the design.
///
/// ```
/// use staircase_core::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let data = [1u64, 2, 3, 4, 5, 6, 7, 8];
/// let sums = pool.run(
///     data.chunks(2)
///         .map(|c| move || c.iter().sum::<u64>())
///         .collect(),
/// );
/// assert_eq!(sums, [3, 7, 11, 15]);
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    width: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("width", &self.width)
            .finish()
    }
}

impl WorkerPool {
    /// Builds a pool of `width` executors: `width − 1` persistent worker
    /// threads plus the calling thread of every [`WorkerPool::run`].
    /// A width of 0 is treated as 1 (purely sequential, no threads).
    pub fn new(width: usize) -> WorkerPool {
        let width = width.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(PoolState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let handles = (1..width)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            width,
        }
    }

    /// Number of executors (worker threads + the participating caller).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Runs every job to completion and returns their results in input
    /// order. Jobs may borrow from the caller's stack: `run` blocks until
    /// the whole batch has finished. Jobs run concurrently on up to
    /// [`WorkerPool::width`] executors (the caller included); with width
    /// 1 — or a batch of one — this is a plain sequential loop.
    ///
    /// # Panics
    ///
    /// Re-raises the first (in input order) panic any job of the batch
    /// raised, after all jobs have drained. Callers that must survive a
    /// panicking job use [`WorkerPool::run_caught`] instead.
    pub fn run<'env, T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let mut out = Vec::with_capacity(jobs.len());
        for result in self.run_caught(jobs) {
            match result {
                Ok(value) => out.push(value),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    }

    /// Like [`WorkerPool::run`], but panic-isolating: each job's outcome
    /// comes back as a [`std::thread::Result`], a panicking job
    /// surrendering its payload in place instead of unwinding through
    /// the caller. The whole batch always drains — one bad job cannot
    /// starve the others — and the pool stays fully reusable afterwards.
    ///
    /// Every job additionally inherits the *submitting* thread's ambient
    /// [`crate::governor::Budget`] (if any): the budget is captured here
    /// and installed around the job body wherever it runs, so governed
    /// kernels keep ticking inside pool workers.
    pub fn run_caught<'env, T, F>(&self, jobs: Vec<F>) -> Vec<std::thread::Result<T>>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let ambient = crate::governor::current();
        let govern = |job: F| {
            let ambient = ambient.clone();
            move || {
                crate::faults::fail_point("core::pool::task");
                let _guard = ambient.map(crate::governor::enter);
                job()
            }
        };
        if self.width == 1 || jobs.len() <= 1 {
            // Sequential fast path: still catching, still governed, so
            // the isolation contract does not depend on pool width.
            return jobs
                .into_iter()
                .map(|job| std::panic::catch_unwind(AssertUnwindSafe(govern(job))))
                .collect();
        }

        let n = jobs.len();
        let mut slots: Vec<Option<std::thread::Result<T>>> = (0..n).map(|_| None).collect();
        let batch = Arc::new(Batch {
            remaining: Mutex::new(n),
            done: Condvar::new(),
        });

        {
            // Wrap each job to write its slot and tick the batch. The
            // slot pointers are disjoint and outlive the batch (we wait
            // below), so handing them across threads is sound.
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            for (slot, job) in slots.iter_mut().zip(jobs) {
                let slot = SlotPtr(slot as *mut Option<std::thread::Result<T>>);
                let batch = Arc::clone(&batch);
                let job = govern(job);
                let task: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                    let slot = slot;
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(job));
                    // SAFETY: each wrapped job owns a distinct slot of
                    // `slots`, which `run_caught` keeps alive until the
                    // batch completes below.
                    unsafe { *slot.0 = Some(outcome) };
                    let mut remaining = batch.remaining.lock().unwrap_or_else(|e| e.into_inner());
                    *remaining -= 1;
                    if *remaining == 0 {
                        batch.done.notify_all();
                    }
                });
                // SAFETY: `run_caught` does not return before `remaining`
                // hits zero, i.e. before every queued task has finished
                // running — nothing the closure borrows can be dropped
                // while the erased lifetime is live.
                let task: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(task) };
                queue.jobs.push_back(task);
            }
            // The caller takes one task itself; wake at most enough
            // workers to cover the rest (a full notify_all would stampede
            // idle workers at every small batch).
            for _ in 0..(n - 1).min(self.width - 1) {
                self.shared.work.notify_one();
            }
        }

        // Participate: drain the queue alongside the workers, then wait
        // for the stragglers other executors are still running.
        loop {
            let task = {
                let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                queue.jobs.pop_front()
            };
            match task {
                Some(task) => task(),
                None => break,
            }
        }
        let mut remaining = batch.remaining.lock().unwrap_or_else(|e| e.into_inner());
        while *remaining > 0 {
            remaining = batch
                .done
                .wait(remaining)
                .unwrap_or_else(|e| e.into_inner());
        }
        drop(remaining);

        slots
            .into_iter()
            .map(|slot| slot.expect("every completed job wrote its slot"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Set the flag under the queue mutex: any worker that read
        // shutdown = false is then provably inside `wait` (it held the
        // lock from check to wait), so the notification cannot be lost.
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .shutdown = true;
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            // A worker that panicked already surfaced the payload through
            // its batch; nothing useful is left to propagate here.
            let _ = handle.join();
        }
    }
}

/// A raw slot pointer smuggled into a worker; sound because every slot is
/// distinct and outlives its task (see [`WorkerPool::run`]).
struct SlotPtr<T>(*mut Option<T>);
// SAFETY: the pointee is only ever written by the one task that owns the
// pointer, while `run` keeps the slot vector alive and un-aliased.
unsafe impl<T: Send> Send for SlotPtr<T> {}

/// The worker thread body: pop-and-run until shutdown. The shutdown
/// check happens under the queue mutex the condvar waits on, so the
/// check-then-wait window is closed to `Drop`'s notification.
fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(task) = queue.jobs.pop_front() {
                    break Some(task);
                }
                if queue.shutdown {
                    break None;
                }
                queue = shared.work.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        match task {
            Some(task) => task(),
            None => return,
        }
    }
}

// ── Sharded scratch ─────────────────────────────────────────────────────

/// A sharded set of [`Scratch`] buffer pools: one shard per executor the
/// owner expects to run concurrently.
///
/// The session layer used to keep a single `Mutex<Scratch>` and fall
/// back to a **throwaway** pool whenever the lock was contended — every
/// concurrent query paid full allocation. With shards, a `try_lock`
/// sweep almost always finds a free pool (the owner sizes the shard
/// count from its worker-pool width), so contended queries reuse warm
/// buffers too; the allocate-fresh escape hatch survives only for
/// oversubscription beyond the shard count, where blocking could
/// deadlock a nested executor.
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
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_order() {
        for width in [1, 2, 3, 8] {
            let pool = WorkerPool::new(width);
            let jobs: Vec<_> = (0..37u64).map(|i| move || i * i).collect();
            let out = pool.run(jobs);
            assert_eq!(out, (0..37u64).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn width_one_spawns_no_threads() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.width(), 1);
        assert!(pool.handles.is_empty());
        // Zero is clamped, not rejected.
        assert_eq!(WorkerPool::new(0).width(), 1);
    }

    #[test]
    fn jobs_borrow_the_callers_stack() {
        let pool = WorkerPool::new(4);
        let data: Vec<u64> = (0..1000).collect();
        let sums = pool.run(
            data.chunks(100)
                .map(|chunk| move || chunk.iter().sum::<u64>())
                .collect(),
        );
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn pool_is_reused_across_batches() {
        let pool = WorkerPool::new(3);
        let hits = AtomicU64::new(0);
        for _ in 0..50 {
            pool.run(
                (0..5)
                    .map(|_| {
                        || {
                            hits.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                    .collect(),
            );
        }
        assert_eq!(hits.load(Ordering::Relaxed), 250);
    }

    #[test]
    fn nested_runs_make_progress() {
        let pool = WorkerPool::new(2);
        let totals = pool.run(
            (0..4u64)
                .map(|i| {
                    let pool = &pool;
                    move || {
                        pool.run((0..3u64).map(|j| move || i * 10 + j).collect())
                            .into_iter()
                            .sum::<u64>()
                    }
                })
                .collect(),
        );
        assert_eq!(totals, vec![3, 33, 63, 93]);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = WorkerPool::new(3);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run::<u64, _>(
                (0..6u64)
                    .map(|i| {
                        move || {
                            assert!(i != 3, "job three fails");
                            i
                        }
                    })
                    .collect(),
            )
        }));
        assert!(outcome.is_err(), "the job's panic must reach the caller");
        // The pool survives a panicked batch.
        assert_eq!(pool.run(vec![|| 7u64]), vec![7]);
    }

    #[test]
    fn run_caught_isolates_panics_per_job() {
        for width in [1, 3] {
            let pool = WorkerPool::new(width);
            let results = pool.run_caught(
                (0..6u64)
                    .map(|i| {
                        move || {
                            assert!(i != 3, "job three fails");
                            i * 2
                        }
                    })
                    .collect(),
            );
            assert_eq!(results.len(), 6);
            for (i, r) in results.iter().enumerate() {
                if i == 3 {
                    assert!(r.is_err(), "width {width}: job 3 must fail alone");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i as u64 * 2, "width {width}");
                }
            }
            // The pool stays reusable.
            assert_eq!(pool.run(vec![|| 9u64]), vec![9]);
        }
    }

    #[test]
    fn jobs_inherit_the_submitters_ambient_budget() {
        use crate::governor::{self, Budget};
        for width in [1, 4] {
            let pool = WorkerPool::new(width);
            let budget = Arc::new(Budget::new());
            let _guard = governor::enter(Arc::clone(&budget));
            let seen = pool.run(
                (0..8)
                    .map(|_| {
                        let want = Arc::clone(&budget);
                        move || governor::current().is_some_and(|b| Arc::ptr_eq(&b, &want))
                    })
                    .collect(),
            );
            assert!(
                seen.iter().all(|&ok| ok),
                "width {width}: every job must see the submitter's budget"
            );
        }
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        let pool = WorkerPool::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let pool = &pool;
                scope.spawn(move || {
                    let out = pool.run((0..8u64).map(|i| move || t * 100 + i).collect());
                    assert_eq!(out.len(), 8);
                    assert_eq!(out[7], t * 100 + 7);
                });
            }
        });
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
            let (c, _) = descendant_pooled(
                &doc,
                &ctx,
                Variant::EstimationSkipping,
                &test,
                None,
                scratch,
            );
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
