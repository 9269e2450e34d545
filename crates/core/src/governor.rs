//! The query governor: deadlines, cost budgets, and cooperative
//! cancellation for long staircase scans.
//!
//! The staircase join's whole design is long pruned passes over the
//! pre/post plane — exactly the shape that, on an adversarial or
//! mis-estimated query, turns into a runaway scan holding a server's
//! connection thread hostage. A [`Budget`] is the antidote: a cheap,
//! shareable token carrying an optional wall-clock deadline, an optional
//! touched-nodes ceiling, and a latched trip that [`Budget::cancel`]
//! sets. Kernels check it **cooperatively** through a per-call
//! [`Ticker`]: a [tick](Ticker::tick) charges the nodes a kernel adds to
//! its [`crate::StepStats`] `touched`, in the call that adds them, and a
//! [poll](Ticker::poll) — at a partition, a context node opened, a twig
//! seek — charges nothing but counts toward the next clock check, so a
//! loop that touches nothing still stops.
//!
//! # What a tick costs
//!
//! * **Ungoverned** (no budget installed): one branch on the ticker's
//!   empty budget slot.
//! * **Governed, between grains**: an inline countdown. The ticker keeps
//!   `left`, the units (ticked or polled) it may still take before the
//!   next full check; a tick of `n` is `n < left`, one relaxed load of
//!   the latched trip and a subtraction — no call, no clock, no write to
//!   shared memory. A poll is a tick of one that is also counted as
//!   uncharged. A cancel, or a trip another thread latched, is seen on
//!   the very next tick or poll.
//! * **Once per [`TICK_GRAIN`] units**, or once a trip is latched: the
//!   out-of-line slow path charges the ticked units to the shared
//!   touched counter and runs the full [`Budget::check`], which reads
//!   the clock once. A governed scan therefore sees a deadline or cost
//!   trip within [`TICK_GRAIN`] ticked nodes or polls (plus one
//!   mask-kernel chunk, [`SCAN_CHUNK`]).
//!
//! A dropped ticker flushes its uncharged ticks into the budget, so
//! after every kernel call [`Budget::touched`] has grown by exactly the
//! kernel's `nodes_scanned + nodes_copied`.
//!
//! # Threading model
//!
//! A budget is installed as the thread's *ambient* budget with [`enter`]
//! (an RAII guard restores the previous one, so scopes nest), and each
//! kernel call picks it up with [`Ticker::ambient`] on the thread that
//! runs it. A budget is *advisory inside* a kernel: once a tick reports
//! a trip the kernel abandons its scan, and the **caller** (the executor
//! upstairs) discards the partial result and surfaces the typed error.
//! Trips latch: the first cause wins, so a deadline that fires mid-pass
//! is still the answer at the next step boundary. The executor checks
//! the budget between steps, and charges it itself only for a step that
//! runs no kernel (a structural hop, a naive or SQL step, a selection
//! scan).
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
#[repr(u8)]
pub enum Trip {
    /// The wall-clock deadline passed.
    Deadline = 1,
    /// The touched-nodes cost ceiling was exceeded.
    Cost = 2,
    /// [`Budget::cancel`] was called.
    Cancelled = 3,
}

/// Each latched trip state, indexed by its `u8` (0 = none).
const TRIPS: [Option<Trip>; 4] = [
    None,
    Some(Trip::Deadline),
    Some(Trip::Cost),
    Some(Trip::Cancelled),
];

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
/// Cheap to share (`Arc<Budget>`) and to check (see the module docs).
/// An unconstrained budget ([`Budget::new`]) never trips on its own but
/// can still be [cancelled](Budget::cancel).
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
    /// Latched first trip (0 = none, else the [`Trip`] as `u8`): the one word
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

    /// Caps the nodes the query touches at `max`; it trips once it has
    /// touched more. A unit is one node of a step's `touched` or `pred
    /// touched` in `--stats`: what the kernels add to
    /// [`crate::StepStats::nodes_scanned`] and
    /// [`crate::StepStats::nodes_copied`], and what a structural, naive
    /// or SQL step reports.
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
    /// [`Ticker`]'s drop-flush, so partial tick grains still count, and
    /// the charge of a step that runs no kernel.
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
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(self.latch(Trip::Deadline));
        }
        if self.max_touched.is_some_and(|max| self.touched() > max) {
            return Some(self.latch(Trip::Cost));
        }
        if self.interrupt.as_ref().is_some_and(|hook| (hook.0)()) {
            return Some(self.latch(Trip::Cancelled));
        }
        None
    }

    /// The latched trip state, if any — the clock-free check: no new
    /// conditions are evaluated.
    pub fn trip(&self) -> Option<Trip> {
        TRIPS[usize::from(self.tripped.load(Ordering::Relaxed))]
    }

    /// Latches `t` as the trip cause unless one is already latched;
    /// returns the winning cause either way.
    fn latch(&self, t: Trip) -> Trip {
        let _ = self
            .tripped
            .compare_exchange(0, t as u8, Ordering::Relaxed, Ordering::Relaxed);
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

/// How many units (ticked nodes and polls) a [`Ticker`] counts before
/// paying a full budget check (one clock read). Small enough that a 50 ms deadline is
/// honored with single-digit-millisecond overshoot on any realistic
/// scan rate, large enough to amortize to noise.
pub const TICK_GRAIN: u64 = 4096;

/// How many positions a governed mask-kernel range is chunked into per
/// check. The 64-lane bitmask kernels take whole ranges; under a budget
/// the partition loops split those ranges at this stride and tick
/// between chunks, so even a document-spanning single partition cannot
/// overshoot a deadline by more than one chunk.
pub const SCAN_CHUNK: u32 = 8192;

/// A kernel's per-invocation view of the ambient budget: counts ticks
/// and polls down to the next full check, every [`TICK_GRAIN`] units.
///
/// With no ambient budget installed, [`Ticker::tick`] is one branch —
/// the ungoverned fast path. On drop, the ticked units not yet charged
/// are flushed into the budget's touched counter (unchecked), so
/// accounting stays exact.
#[derive(Debug)]
pub struct Ticker {
    budget: Option<Arc<Budget>>,
    /// Units left before the next full check: [`TICK_GRAIN`] minus the
    /// units counted since the last one, so always in `1..=TICK_GRAIN`.
    left: u64,
    /// How many of the units counted since the last full check were
    /// polls, which charge nothing.
    polled: u64,
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
            polled: 0,
        }
    }

    /// Charges `n` touched units and reports whether the budget has
    /// tripped. Between grains this is the inline countdown (see the
    /// module docs); the tick that completes a [`TICK_GRAIN`], or any
    /// tick after a trip latched, takes the full check. `true` means
    /// *stop now*: abandon the scan and return — the caller discards the
    /// partial result.
    #[inline]
    pub fn tick(&mut self, n: u64) -> bool {
        self.count(n, 0)
    }

    /// Charges nothing, but counts one unit toward the next full check
    /// and reports a trip as [`Ticker::tick`] does: the check a loop
    /// makes where it touches no node (a partition, a context node
    /// opened, a seek), so that a deadline or a cancel still stops it
    /// within [`TICK_GRAIN`] polls.
    #[inline]
    pub fn poll(&mut self) -> bool {
        self.count(1, 1)
    }

    /// Counts `n` units down, `polls` of them uncharged.
    #[inline(always)]
    fn count(&mut self, n: u64, polls: u64) -> bool {
        match &self.budget {
            None => false,
            Some(budget) if n < self.left && budget.tripped.load(Ordering::Relaxed) == 0 => {
                self.left -= n;
                self.polled += polls;
                false
            }
            Some(_) => self.count_slow(n, polls),
        }
    }

    /// [`Ticker::count`] when the grain rolls over or a trip latched: a
    /// rollover charges every uncharged ticked unit and runs the full
    /// check (one clock read); otherwise the units stay counted down and
    /// the latched trip stops the scan. Out of line, so a kernel's loop
    /// carries only the countdown.
    #[cold]
    #[inline(never)]
    fn count_slow(&mut self, n: u64, polls: u64) -> bool {
        let Some(budget) = &self.budget else {
            return false;
        };
        let counted = (TICK_GRAIN - self.left).saturating_add(n);
        if counted >= TICK_GRAIN {
            let ticked = counted - self.polled - polls;
            (self.left, self.polled) = (TICK_GRAIN, 0);
            budget.charge(ticked).is_some()
        } else {
            self.left -= n;
            self.polled += polls;
            budget.trip().is_some()
        }
    }

    /// Runs `select` over `[lo, hi)`, a comparison-free run whose
    /// counter is *arithmetic*: `charge` grows by `hi − lo` whatever
    /// `select` keeps (the Equation-1 subtree copy, `following`'s suffix,
    /// the gaps between `preceding`'s ancestors, a list slice copy).
    /// Ungoverned, `select` sees the whole range at once; under a budget
    /// [`SCAN_CHUNK`]-sized pieces with a tick after each, so a trip
    /// cannot hide behind one plane-sized range. `true` means *stop now*.
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
}

impl Drop for Ticker {
    fn drop(&mut self) {
        if let Some(budget) = &self.budget {
            budget.add_touched(TICK_GRAIN - self.left - self.polled);
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
        assert_eq!(b.trip(), Some(Trip::Cost));
    }

    #[test]
    fn a_poll_charges_nothing_yet_sees_a_deadline_or_cancel_within_a_grain() {
        let b = Arc::new(Budget::new().with_deadline(Instant::now() - Duration::from_millis(1)));
        let mut t = Ticker::for_budget(Some(Arc::clone(&b)));
        // The grain's last poll runs the full check, which reads the clock.
        assert_eq!((1..=TICK_GRAIN).find(|_| t.poll()), Some(TICK_GRAIN));
        assert_eq!((b.trip(), b.touched()), (Some(Trip::Deadline), 0));
        let c = Arc::new(Budget::new());
        {
            let mut t = Ticker::for_budget(Some(Arc::clone(&c)));
            assert!((0..3 * TICK_GRAIN).all(|_| !t.poll()) && !t.tick(5));
            c.cancel();
            assert!(t.poll(), "a latched cancel stops the next poll");
        }
        assert_eq!(c.touched(), 5, "only the tick is charged");
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
        assert!(!t.tick(u64::MAX / 2));
        assert!(!t.poll());
    }
}
