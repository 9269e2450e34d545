//! The query governor: deadlines, cost budgets, and cooperative
//! cancellation for long staircase scans.
//!
//! The staircase join's whole design is long pruned passes over the
//! pre/post plane — exactly the shape that, on an adversarial or
//! mis-estimated query, turns into a runaway scan holding a server's
//! connection thread (and its admission slot) hostage. A [`Budget`] is
//! the antidote: a cheap, shareable token carrying an optional
//! wall-clock deadline, an optional touched-nodes cost ceiling, and an
//! atomic cancel flag. Kernels check it **cooperatively at amortized
//! boundaries** — partition and chunk boundaries in the plane scans,
//! list entries in the list joins, seeks in the twig matcher — through
//! a per-call [`Ticker`].
//!
//! # What a tick costs
//!
//! * **Ungoverned** (no budget installed): [`Ticker::tick`] is one
//!   branch on the ticker's empty budget slot.
//! * **Governed, between grains**: an inline countdown. The ticker
//!   keeps `left`, the units it may still take before the next full
//!   check, and a tick of `n` is `n < left`, one relaxed load of the
//!   budget's latched trip and a subtraction — no call, no clock, no
//!   write to shared memory. [`Budget::cancel`] latches a trip too, so
//!   a cancel, or a trip another thread latched, is seen on the very
//!   next tick.
//! * **Once per [`TICK_GRAIN`] units**, or once a trip is latched: the
//!   out-of-line slow path charges the accumulated units to the shared
//!   touched counter and runs the full [`Budget::check`], which reads
//!   the clock once. A governed scan therefore observes a deadline or
//!   cost trip within [`TICK_GRAIN`] touched nodes (plus one mask-kernel
//!   chunk, [`SCAN_CHUNK`]).
//!
//! A dropped ticker flushes its sub-grain remainder into the budget
//! unchecked, so [`Budget::touched`] is exact after every kernel call.
//!
//! # Threading model
//!
//! The kernels keep their public signatures: a budget is installed as
//! the thread's *ambient* budget with [`enter`] (an RAII guard restores
//! the previous one, so nesting and recursion are safe), and each
//! kernel invocation picks it up with [`Ticker::ambient`]. Every kernel
//! runs on the thread that called it, so the budget the executor
//! installed is the one its kernels tick.
//!
//! A budget is deliberately *advisory inside* a kernel: once
//! [`Ticker::tick`] reports a trip the kernel abandons its scan and
//! returns whatever partial state it has — the **caller** (the
//! executor upstairs) is responsible for discarding the partial result
//! and surfacing the typed error. Trips latch: the first cause wins and
//! every later check reports it, so a deadline that fires mid-pass is
//! still the answer at the next step boundary.
//!
//! One charging discipline: the budget is installed ambiently around
//! the query it governs, and the **kernels** charge it as they scan
//! (that is what makes mid-pass trips prompt). The executor only checks
//! it between steps.
//!
//! # Interrupts
//!
//! A budget may carry an interrupt ([`Budget::with_interrupt`]): a hook
//! for a stop only its owner can see (the server's reads the socket for
//! a `CANCEL` or a hang-up). Only the full [`Budget::check`] polls it,
//! last, so it runs once per [`TICK_GRAIN`] units and at step
//! boundaries, never on a sub-grain tick or in an ungoverned run. `true`
//! latches [`Trip::Cancelled`].

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a governed execution stopped early. Carried by the latched trip
/// state of a [`Budget`]; the query layer maps it onto its typed
/// errors (`DeadlineExceeded` / `BudgetExhausted` / `Cancelled`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trip {
    /// The wall-clock deadline passed.
    Deadline,
    /// The touched-nodes cost ceiling was exceeded.
    Cost,
    /// [`Budget::cancel`] was called.
    Cancelled,
}

impl Trip {
    fn as_u8(self) -> u8 {
        match self {
            Trip::Deadline => 1,
            Trip::Cost => 2,
            Trip::Cancelled => 3,
        }
    }

    fn from_u8(v: u8) -> Option<Trip> {
        match v {
            1 => Some(Trip::Deadline),
            2 => Some(Trip::Cost),
            3 => Some(Trip::Cancelled),
            _ => None,
        }
    }
}

impl std::fmt::Display for Trip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trip::Deadline => write!(f, "deadline exceeded"),
            Trip::Cost => write!(f, "cost budget exhausted"),
            Trip::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// A shareable execution budget: wall-clock deadline + touched-nodes
/// ceiling + cancel flag, with a latched trip state.
///
/// Cheap to share (`Arc<Budget>`) and cheap to check; see the module
/// docs for the cooperative-checking contract. An unconstrained budget
/// ([`Budget::new`]) never trips on its own but can still be
/// [cancelled](Budget::cancel).
///
/// ```
/// use staircase_core::governor::{Budget, Trip};
/// use std::sync::Arc;
///
/// let b = Arc::new(Budget::new().with_max_touched(100));
/// assert_eq!(b.charge(64), None);
/// assert_eq!(b.charge(64), Some(Trip::Cost));
/// // Trips latch: later checks keep reporting the first cause.
/// b.cancel();
/// assert_eq!(b.check(), Some(Trip::Cost));
/// ```
#[derive(Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    max_touched: Option<u64>,
    interrupt: Option<Interrupt>,
    touched: AtomicU64,
    /// Latched first trip (0 = none, else `Trip::as_u8`): the one word
    /// a sub-grain [`Ticker::tick`] reads.
    tripped: AtomicU8,
}

/// The hook of [`Budget::with_interrupt`].
struct Interrupt(Box<dyn Fn() -> bool + Send + Sync>);

impl std::fmt::Debug for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Interrupt")
    }
}

impl Budget {
    /// An unconstrained budget: no deadline, no cost ceiling. Useful as
    /// a pure cancellation token.
    pub fn new() -> Budget {
        Budget::default()
    }

    /// Caps execution at the wall-clock instant `deadline`.
    pub fn with_deadline(mut self, deadline: Instant) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Caps execution `timeout` from now.
    pub fn with_deadline_in(self, timeout: Duration) -> Budget {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Caps the units the kernels charge at `max`; the query trips
    /// once it has charged more.
    ///
    /// A unit is what a kernel [ticks](Ticker::tick), which is **not**
    /// [`crate::StepStats::nodes_touched`]: one per context node a join
    /// opens (a plane-scan partition, a fragment join's context entry),
    /// one per list entry or plane position a loop visits, one per
    /// position a comparison-free range copy writes, and one per seek
    /// of the twig matcher. A step with no
    /// join — the structural `child`, `parent`, `attribute` and sibling
    /// hops of the fixed engines — charges nothing. On a document of 200
    /// `bidder`s, each over three `x` and one `increase`,
    /// `/descendant::bidder/child::increase` under the plain staircase
    /// join charges 1 201 (one partition, 1 200 copied positions; the
    /// structural `child` hop charges none) while `--stats` reports
    /// 1 200 + 800 touched; under `auto` it charges 601 (1 + 200 for the
    /// fragment slice, 200 context nodes + 200 list entries for the
    /// on-list `child` join) while `--stats` reports 200 + 200.
    pub fn with_max_touched(mut self, max: u64) -> Budget {
        self.max_touched = Some(max);
        self
    }

    /// Polls `interrupt` at every full [`Budget::check`] that finds no
    /// other trip; `true` latches [`Trip::Cancelled`]. See *Interrupts*
    /// in the module docs.
    pub fn with_interrupt(
        mut self,
        interrupt: impl Fn() -> bool + Send + Sync + 'static,
    ) -> Budget {
        self.interrupt = Some(Interrupt(Box::new(interrupt)));
        self
    }

    /// Requests cooperative cancellation: latches [`Trip::Cancelled`]
    /// unless a trip is latched already, so the next check (on whatever
    /// thread is running the work) stops.
    pub fn cancel(&self) {
        self.latch(Trip::Cancelled);
    }

    /// Is the latched trip a cancellation?
    pub fn is_cancelled(&self) -> bool {
        self.trip() == Some(Trip::Cancelled)
    }

    /// Total nodes charged so far.
    pub fn touched(&self) -> u64 {
        self.touched.load(Ordering::Relaxed)
    }

    /// Adds `n` touched nodes **without** checking limits — the
    /// [`Ticker`]'s drop-flush, so partial tick grains still count.
    pub fn add_touched(&self, n: u64) {
        if n > 0 {
            self.touched.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Charges `n` touched nodes and runs a full check.
    pub fn charge(&self, n: u64) -> Option<Trip> {
        self.add_touched(n);
        self.check()
    }

    /// The full cooperative check: latched trip, then deadline (one
    /// clock read), then cost ceiling, then the interrupt. The first
    /// failing condition latches and is returned; `None` means keep
    /// going.
    pub fn check(&self) -> Option<Trip> {
        if let Some(t) = self.trip() {
            return Some(t);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(self.latch(Trip::Deadline));
            }
        }
        if let Some(max) = self.max_touched {
            if self.touched.load(Ordering::Relaxed) > max {
                return Some(self.latch(Trip::Cost));
            }
        }
        if self.interrupt.as_ref().is_some_and(|hook| (hook.0)()) {
            return Some(self.latch(Trip::Cancelled));
        }
        None
    }

    /// The latched trip state, if any — the clock-free check: no new
    /// conditions are evaluated.
    pub fn trip(&self) -> Option<Trip> {
        Trip::from_u8(self.tripped.load(Ordering::Relaxed))
    }

    /// Latches `t` as the trip cause unless one is already latched;
    /// returns the winning cause either way.
    fn latch(&self, t: Trip) -> Trip {
        let _ = self
            .tripped
            .compare_exchange(0, t.as_u8(), Ordering::Relaxed, Ordering::Relaxed);
        self.trip().unwrap_or(t)
    }
}

thread_local! {
    /// The thread's ambient budget; see [`enter`].
    static AMBIENT: RefCell<Option<Arc<Budget>>> = const { RefCell::new(None) };
}

/// Installs `budget` as this thread's ambient budget for the guard's
/// lifetime; the previous ambient budget (if any) is restored on drop,
/// so scopes nest and survive panics.
#[must_use = "the budget is uninstalled when the guard drops"]
pub fn enter(budget: Arc<Budget>) -> AmbientGuard {
    AMBIENT.with(|cell| AmbientGuard {
        prev: cell.replace(Some(budget)),
    })
}

/// The budget installed on this thread by the innermost live [`enter`]
/// guard, if any.
pub fn current() -> Option<Arc<Budget>> {
    AMBIENT.with(|cell| cell.borrow().clone())
}

/// RAII guard of [`enter`]: restores the previously ambient budget.
#[derive(Debug)]
pub struct AmbientGuard {
    prev: Option<Arc<Budget>>,
}

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        AMBIENT.with(|cell| {
            *cell.borrow_mut() = self.prev.take();
        });
    }
}

/// How many touched nodes a [`Ticker`] accumulates before paying a full
/// budget check (one clock read). Small enough that a 50 ms deadline is
/// honored with single-digit-millisecond overshoot on any realistic
/// scan rate, large enough to amortize to noise.
pub const TICK_GRAIN: u64 = 4096;

/// How many positions a governed mask-kernel range is chunked into per
/// check. The 64-lane bitmask kernels take whole ranges; under a budget
/// the partition loops split those ranges at this stride and tick
/// between chunks, so even a document-spanning single partition cannot
/// overshoot a deadline by more than one chunk.
pub const SCAN_CHUNK: u32 = 8192;

/// A kernel's per-invocation view of the ambient budget: counts touch
/// charges down to the next full check, every [`TICK_GRAIN`] units.
///
/// With no ambient budget installed, [`Ticker::tick`] is one branch —
/// the ungoverned fast path. On drop, any sub-grain remainder is
/// flushed into the budget's touched counter (unchecked), so accounting
/// stays exact.
#[derive(Debug)]
pub struct Ticker {
    budget: Option<Arc<Budget>>,
    /// Units left before the next full check: [`TICK_GRAIN`] minus the
    /// units not yet charged to the budget, so always in
    /// `1..=TICK_GRAIN`.
    left: u64,
}

impl Ticker {
    /// A ticker against this thread's ambient budget ([`current`]);
    /// inert when none is installed.
    pub fn ambient() -> Ticker {
        Ticker::for_budget(current())
    }

    /// A ticker against an explicit budget (`None` = inert).
    pub fn for_budget(budget: Option<Arc<Budget>>) -> Ticker {
        Ticker {
            budget,
            left: TICK_GRAIN,
        }
    }

    /// Is there a budget to enforce? Kernels use this to decide whether
    /// big mask-kernel ranges need chunking ([`SCAN_CHUNK`]).
    pub fn active(&self) -> bool {
        self.budget.is_some()
    }

    /// Charges `n` touched units and reports whether the budget has
    /// tripped. Between grains this is the inline countdown (see the
    /// module docs); the tick that completes a [`TICK_GRAIN`], or any
    /// tick after a trip latched, takes the full check. `true` means
    /// *stop now*: abandon the scan and return — the caller discards the
    /// partial result.
    #[inline]
    pub fn tick(&mut self, n: u64) -> bool {
        match &self.budget {
            None => false,
            Some(budget) if n < self.left && budget.tripped.load(Ordering::Relaxed) == 0 => {
                self.left -= n;
                false
            }
            Some(_) => self.tick_slow(n),
        }
    }

    /// [`Ticker::tick`] when the grain rolls over or a trip latched: a
    /// rollover charges every uncharged unit and runs the full check
    /// (one clock read); otherwise the units stay counted down and the
    /// latched trip stops the scan. Out of line, so a kernel's loop
    /// carries only the countdown.
    #[cold]
    #[inline(never)]
    fn tick_slow(&mut self, n: u64) -> bool {
        let Some(budget) = &self.budget else {
            return false;
        };
        let pending = (TICK_GRAIN - self.left).saturating_add(n);
        if pending >= TICK_GRAIN {
            self.left = TICK_GRAIN;
            budget.charge(pending).is_some()
        } else {
            self.left -= n;
            budget.trip().is_some()
        }
    }

    /// Runs `select` over `[lo, hi)`, a range whose counter is
    /// *arithmetic*: `charge` grows by `hi − lo` whatever `select` keeps.
    /// Every comparison-free run of every plane scan goes through here
    /// (the Equation-1 subtree copy, `following`'s suffix, the gaps
    /// between `preceding`'s ancestors, the Basic variant's partition
    /// windows).
    /// Ungoverned, `select` sees the whole range at once; under a budget
    /// it sees [`SCAN_CHUNK`]-sized pieces with a tick after each, so a
    /// trip cannot hide behind one plane-sized range. `true` means *stop
    /// now*, as for [`Ticker::tick`].
    #[inline]
    pub fn charged_run(
        &mut self,
        lo: u32,
        hi: u32,
        charge: &mut u64,
        mut select: impl FnMut(u32, u32),
    ) -> bool {
        if lo >= hi {
            return false;
        }
        *charge += u64::from(hi - lo);
        if self.budget.is_none() {
            select(lo, hi);
            return false;
        }
        let mut v = lo;
        while v < hi {
            let end = hi.min(v.saturating_add(SCAN_CHUNK));
            select(v, end);
            if self.tick(u64::from(end - v)) {
                return true;
            }
            v = end;
        }
        false
    }

    /// Has the underlying budget tripped (latched)?
    pub fn tripped(&self) -> bool {
        self.budget.as_ref().is_some_and(|b| b.trip().is_some())
    }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        if let Some(budget) = &self.budget {
            budget.add_touched(TICK_GRAIN - self.left);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;

    use super::*;

    #[test]
    fn unconstrained_budget_never_trips() {
        let b = Budget::new();
        assert_eq!(b.check(), None);
        assert_eq!(b.charge(1 << 40), None);
        assert_eq!(b.trip(), None);
    }

    #[test]
    fn cost_ceiling_trips_and_latches() {
        let b = Budget::new().with_max_touched(100);
        assert_eq!(b.charge(100), None, "at the ceiling is still fine");
        assert_eq!(b.charge(1), Some(Trip::Cost));
        assert_eq!(b.touched(), 101);
        // Latched: cancel after the fact does not change the cause.
        b.cancel();
        assert_eq!(b.check(), Some(Trip::Cost));
        assert_eq!(b.trip(), Some(Trip::Cost));
    }

    #[test]
    fn expired_deadline_trips_immediately() {
        let b = Budget::new().with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(b.check(), Some(Trip::Deadline));
        let b = Budget::new().with_deadline_in(Duration::from_secs(3600));
        assert_eq!(b.check(), None);
    }

    #[test]
    fn cancellation_is_cross_thread_visible() {
        let b = Arc::new(Budget::new());
        assert_eq!(b.trip(), None);
        let b2 = Arc::clone(&b);
        std::thread::spawn(move || b2.cancel()).join().unwrap();
        assert!(b.is_cancelled());
        assert_eq!(b.trip(), Some(Trip::Cancelled));
    }

    #[test]
    fn ambient_scopes_nest_and_restore() {
        assert!(current().is_none());
        let outer = Arc::new(Budget::new().with_max_touched(1));
        let inner = Arc::new(Budget::new().with_max_touched(2));
        {
            let _g1 = enter(Arc::clone(&outer));
            assert!(Arc::ptr_eq(&current().unwrap(), &outer));
            {
                let _g2 = enter(Arc::clone(&inner));
                assert!(Arc::ptr_eq(&current().unwrap(), &inner));
            }
            assert!(Arc::ptr_eq(&current().unwrap(), &outer));
        }
        assert!(current().is_none());
    }

    #[test]
    fn ticker_amortizes_charges_and_flushes_on_drop() {
        let b = Arc::new(Budget::new());
        {
            let _g = enter(Arc::clone(&b));
            let mut t = Ticker::ambient();
            assert!(t.active());
            // Sub-grain ticks don't hit the shared counter yet...
            for _ in 0..10 {
                assert!(!t.tick(100));
            }
            assert_eq!(b.touched(), 0);
            // ...until the grain rolls over.
            assert!(!t.tick(TICK_GRAIN));
            assert!(b.touched() >= TICK_GRAIN);
            // The remainder flushes when the ticker drops.
        }
        assert_eq!(b.touched(), 1000 + TICK_GRAIN);
    }

    #[test]
    fn ticker_reports_trips_promptly() {
        let b = Arc::new(Budget::new().with_max_touched(TICK_GRAIN));
        let _g = enter(Arc::clone(&b));
        let mut t = Ticker::ambient();
        let mut stopped_at = None;
        for i in 0..10 {
            if t.tick(TICK_GRAIN) {
                stopped_at = Some(i);
                break;
            }
        }
        // The ceiling is one grain: the second full-grain tick trips.
        assert_eq!(stopped_at, Some(1));
        assert_eq!(b.trip(), Some(Trip::Cost));
        // Cancellation is seen on the very next (sub-grain) tick.
        let c = Arc::new(Budget::new());
        let mut t = Ticker::for_budget(Some(Arc::clone(&c)));
        assert!(!t.tick(1));
        c.cancel();
        assert!(t.tick(1));
    }

    #[test]
    fn a_trip_latched_through_one_ticker_stops_another_at_its_next_tick() {
        let b = Arc::new(Budget::new().with_max_touched(TICK_GRAIN));
        let mut first = Ticker::for_budget(Some(Arc::clone(&b)));
        let mut second = Ticker::for_budget(Some(Arc::clone(&b)));
        assert!(!second.tick(1));
        // Two whole grains over the ceiling: the first ticker latches Cost.
        assert!(!first.tick(TICK_GRAIN));
        assert!(first.tick(TICK_GRAIN));
        // The second is mid-grain, far from a full check, and stops anyway.
        assert!(second.tick(1));
        assert!(second.tripped());
        assert_eq!(b.trip(), Some(Trip::Cost));
    }

    #[test]
    fn drop_flushes_the_exact_remainder_across_grain_rollovers() {
        let b = Arc::new(Budget::new());
        let ticks = [1, TICK_GRAIN - 1, TICK_GRAIN + 1, 3];
        {
            let mut t = Ticker::for_budget(Some(Arc::clone(&b)));
            for n in ticks {
                assert!(!t.tick(n));
            }
            // The first two close one grain, the third is one on its own:
            // only the last three units are still uncharged.
            assert_eq!(b.touched(), ticks.iter().sum::<u64>() - 3);
        }
        assert_eq!(b.touched(), ticks.iter().sum::<u64>());
    }

    /// A budget whose interrupt counts its polls and answers `fire`.
    fn interruptible() -> (Budget, Arc<AtomicU64>, Arc<AtomicBool>) {
        let (polls, fire) = (
            Arc::new(AtomicU64::new(0)),
            Arc::new(AtomicBool::new(false)),
        );
        let (p, f) = (Arc::clone(&polls), Arc::clone(&fire));
        let budget = Budget::new().with_interrupt(move || {
            p.fetch_add(1, Ordering::Relaxed);
            f.load(Ordering::Relaxed)
        });
        (budget, polls, fire)
    }

    #[test]
    fn the_interrupt_is_polled_only_by_the_full_check() {
        let (budget, polls, _) = interruptible();
        let b = Arc::new(budget);
        // Ungoverned: a budget exists but is not installed.
        let mut inert = Ticker::ambient();
        assert!(!inert.tick(10 * TICK_GRAIN));
        drop(inert);
        assert_eq!(polls.load(Ordering::Relaxed), 0);
        let mut t = Ticker::for_budget(Some(Arc::clone(&b)));
        for _ in 0..TICK_GRAIN - 1 {
            assert!(!t.tick(1));
        }
        assert_eq!(
            polls.load(Ordering::Relaxed),
            0,
            "no poll on a sub-grain tick"
        );
        assert!(!t.tick(1));
        assert_eq!(
            polls.load(Ordering::Relaxed),
            1,
            "the grain's full check polls"
        );
        assert_eq!(b.trip(), None);
        assert_eq!(
            polls.load(Ordering::Relaxed),
            1,
            "reading the latched trip never polls"
        );
        assert_eq!(b.check(), None);
        assert_eq!(polls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn a_firing_interrupt_latches_cancelled_at_the_next_full_check() {
        let (budget, polls, fire) = interruptible();
        let b = Arc::new(budget);
        let mut t = Ticker::for_budget(Some(Arc::clone(&b)));
        assert!(!t.tick(1));
        fire.store(true, Ordering::Relaxed);
        // Sub-grain ticks do not see it...
        assert!(!t.tick(1));
        assert_eq!(b.trip(), None);
        // ...the full check does, and latches it.
        assert!(t.tick(TICK_GRAIN));
        assert_eq!(b.trip(), Some(Trip::Cancelled));
        fire.store(false, Ordering::Relaxed);
        let seen = polls.load(Ordering::Relaxed);
        assert_eq!(b.check(), Some(Trip::Cancelled));
        assert_eq!(
            polls.load(Ordering::Relaxed),
            seen,
            "a latched budget polls no more"
        );
    }

    #[test]
    fn an_already_latched_trip_keeps_its_cause_over_the_interrupt() {
        let (budget, polls, fire) = interruptible();
        let b = budget.with_max_touched(10);
        fire.store(true, Ordering::Relaxed);
        assert_eq!(b.charge(11), Some(Trip::Cost), "cost is checked first");
        assert_eq!(b.check(), Some(Trip::Cost));
        assert_eq!(polls.load(Ordering::Relaxed), 0);
        let (budget, _, fire) = interruptible();
        let b = budget.with_deadline(Instant::now() - Duration::from_millis(1));
        fire.store(true, Ordering::Relaxed);
        assert_eq!(b.check(), Some(Trip::Deadline));
        assert_eq!(b.check(), Some(Trip::Deadline));
    }

    #[test]
    fn inert_ticker_is_free_and_never_stops() {
        let mut t = Ticker::ambient();
        assert!(!t.active());
        assert!(!t.tick(u64::MAX / 2));
        assert!(!t.tripped());
    }
}
