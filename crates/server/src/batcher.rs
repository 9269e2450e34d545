//! The admission-window batcher: the piece that turns concurrent
//! independent clients into `Session::run_many` batches.
//!
//! Connection threads `submit` parse-checked requests into a
//! **bounded** admission queue; one batcher thread (`run`) drains it
//! in rounds. A round begins when the queue becomes
//! non-empty, waits until the admission window (measured from
//! the round's *first* enqueue) expires, `max_batch` queries have
//! accumulated, or every open connection has asked — whichever comes
//! first — then drains up to `max_batch` of them and executes each
//! engine's group as **one** `Session::run_many` call, which computes a
//! step several of the queries ask once. The window deliberately trades
//! a bounded few milliseconds of latency for that throughput multiple;
//! `window = 0` disables batching outright — every query runs as a
//! batch of one, even under backlog — which is the load generator's
//! baseline mode.
//!
//! **The window is work-conserving.** It is held only while holding can
//! still grow the batch. A connection has at most one admitted query at
//! a time: frames pipelined behind an in-flight query are stashed by
//! the connection thread, never submitted, and rounds are only formed
//! between passes, so no connection has a query executing while the
//! batcher waits. Once the queue is as long as the
//! [`connections_open`](Metrics::connections_open) gauge, everyone who
//! *can* ask *has* asked and the rest of the window would be pure
//! waiting — the round closes at once, never smaller than it would
//! have been. Whenever some connection is idle, `window`, `max_batch`
//! and `window = 0` mean what they always did. (If connections ever
//! multiplex several queries, the gauge must become outstanding
//! capacity — the number of queries that could still arrive — or the
//! early close will cut batches short.) Submissions that come from no
//! counted connection (the gauge reads zero) get the plain window.
//!
//! Backpressure is the queue bound: while `queue_depth` queries are
//! already admitted (they stay queued until drained, so in-window
//! requests count), further submissions fail fast with
//! [`SubmitError::Busy`] and the connection answers a typed
//! `SERVER_BUSY` frame instead of queueing without bound. On shutdown
//! the batcher refuses new work ([`SubmitError::ShuttingDown`]) but
//! drains everything already admitted — an accepted query is always
//! answered.
//!
//! Two per-query refinements on top of the round discipline:
//!
//! * **Deadline-aware admission**: every pending query carries its
//!   governor [`Budget`]; one whose deadline expired (or that was
//!   cancelled) while it sat in the queue is answered with the typed
//!   error at drain time and never takes a batch slot.
//! * **Per-client fairness**: when a drain has to leave work queued
//!   (more than `max_batch` pending), the batch is filled round-robin
//!   across the submitting connections rather than strictly FIFO, so
//!   one client flooding the queue cannot starve the others — each
//!   client's own queries still run in its submission order.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use staircase_xpath::{faults, Budget, Engine, Error, Query, QueryOutput, Session, Trip};

use crate::conn::ReplyTo;
use crate::metrics::Metrics;
use crate::shutdown::Shutdown;

/// One admitted query, waiting for its round.
pub(crate) struct Pending {
    /// The expression text (parse-checked by the connection thread, so
    /// re-preparing in the batcher cannot fail in the normal course).
    pub expr: String,
    /// The engine its group will run on.
    pub engine: Engine,
    /// The submitting connection's event channel, for the one answer.
    pub reply: ReplyTo,
    /// Enqueue time: the admission window is measured from the round's
    /// oldest entry.
    pub at: Instant,
    /// The query's governor budget — deadline, cost ceiling,
    /// cancellation — shared with the connection thread (which flips
    /// the cancel flag on a `CANCEL` frame or hangup).
    pub budget: Arc<Budget>,
    /// The submitting connection's id, for the fair drain.
    pub client: u64,
}

/// Maps a budget trip to the typed query-path error.
pub(crate) fn trip_to_error(trip: Trip) -> Error {
    match trip {
        Trip::Deadline => Error::DeadlineExceeded,
        Trip::Cost => Error::BudgetExhausted,
        Trip::Cancelled => Error::Cancelled,
    }
}

/// What a connection gets back: the output plus the size of the batch
/// it rode in, or the (parse) error that kept it out of one.
pub(crate) type Reply = Result<(QueryOutput, usize), Error>;

/// One engine's slice of a drained batch: the prepared queries, reply
/// handles, and budgets riding the same batch.
type EngineGroup<'s> = (Engine, Vec<(Query<'s>, ReplyTo, Arc<Budget>)>);

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at `queue_depth` — backpressure.
    Busy,
    /// The server is draining for shutdown.
    ShuttingDown,
}

/// The bounded admission queue plus the window/batch policy.
pub(crate) struct Batcher {
    queue: Mutex<VecDeque<Pending>>,
    wake: Condvar,
    depth: usize,
    window: Duration,
    max_batch: usize,
    shutdown: Shutdown,
    metrics: Arc<Metrics>,
}

impl Batcher {
    pub(crate) fn new(
        depth: usize,
        window: Duration,
        max_batch: usize,
        shutdown: Shutdown,
        metrics: Arc<Metrics>,
    ) -> Batcher {
        Batcher {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            depth: depth.max(1),
            window,
            max_batch: max_batch.max(1),
            shutdown,
            metrics,
        }
    }

    /// Admits one query, or refuses it fast (a refused query is owed
    /// no reply event).
    pub(crate) fn submit(&self, pending: Pending) -> Result<(), SubmitError> {
        if self.shutdown.is_triggered() {
            pending.reply.disarm();
            return Err(SubmitError::ShuttingDown);
        }
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() >= self.depth {
            drop(q);
            pending.reply.disarm();
            self.metrics.busy_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Busy);
        }
        q.push_back(pending);
        drop(q);
        self.wake.notify_all();
        Ok(())
    }

    /// Wakes the batcher thread (used by shutdown, which otherwise
    /// could leave it parked on an empty queue). Passing through the
    /// queue lock orders the wake-up after a batcher that has seen
    /// shutdown untriggered and is about to wait, so it is not lost.
    pub(crate) fn wake_all(&self) {
        drop(self.queue.lock().unwrap_or_else(|e| e.into_inner()));
        self.wake.notify_all();
    }

    /// Counts one more open connection until the returned guard drops.
    pub(crate) fn connection_opened(self: &Arc<Self>) -> OpenConnection {
        self.metrics.connections_open.fetch_add(1, Ordering::SeqCst);
        OpenConnection(Arc::clone(self))
    }

    /// The batcher thread's body: rounds of wait → drain → execute,
    /// until shutdown finds the queue empty.
    pub(crate) fn run(&self, session: &Session) {
        loop {
            let batch = match self.next_batch() {
                Some(batch) => batch,
                None => return,
            };
            self.execute(session, batch);
        }
    }

    /// Blocks for the next round's batch; `None` means shutdown with an
    /// empty queue — time to exit.
    fn next_batch(&self) -> Option<Vec<Pending>> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if q.is_empty() {
                if self.shutdown.is_triggered() {
                    return None;
                }
                q = self.wake.wait(q).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            // A round is open. Hold the admission window — unless it is
            // already full, the window is zero, every open connection
            // has asked (nobody is left who could join), or shutdown
            // wants the queue drained now. Measured from the *oldest*
            // entry (the fair drain can reorder the deque, so the front
            // is not necessarily the oldest).
            let open = self.metrics.connections_open.load(Ordering::SeqCst) as usize;
            let everyone_asked = open > 0 && q.len() >= open;
            if !self.shutdown.is_triggered() && q.len() < self.max_batch && !everyone_asked {
                let oldest = q.iter().map(|p| p.at).min().expect("non-empty");
                let deadline = oldest + self.window;
                let now = Instant::now();
                if now < deadline {
                    let (guard, _) = self
                        .wake
                        .wait_timeout(q, deadline - now)
                        .unwrap_or_else(|e| e.into_inner());
                    q = guard;
                    continue;
                }
            }
            // A zero window disables batching outright: one query per
            // pass, even under backlog. Without this, a saturated
            // queue would still drain as batches and the
            // "no batching" baseline would quietly batch anyway.
            let take = if self.window.is_zero() {
                1
            } else {
                q.len().min(self.max_batch)
            };
            return Some(drain_fair(&mut q, take));
        }
    }

    /// Executes one drained batch: group by engine, one governed
    /// `Session::execute` call per group, replies in
    /// admission order within each group. Queries whose budget already
    /// tripped in the queue (expired deadline, cancel) are answered
    /// immediately and never take a batch slot.
    fn execute(&self, session: &Session, batch: Vec<Pending>) {
        // Prepare everything first; parse failures (impossible for
        // connection-checked submissions, but `submit` is also a
        // library entry point) answer immediately and drop out of the
        // groups.
        let mut groups: Vec<EngineGroup<'_>> = Vec::new();
        for pending in batch {
            let Pending {
                expr,
                engine,
                reply,
                budget,
                ..
            } = pending;
            // Deadline-aware admission: dead-on-arrival queries are
            // answered with the typed error, not executed.
            if let Some(trip) = budget.check() {
                reply.send(Err(trip_to_error(trip)));
                continue;
            }
            match session.prepare(&expr) {
                Ok(query) => match groups.iter_mut().find(|(e, _)| *e == engine) {
                    Some((_, lanes)) => lanes.push((query, reply, budget)),
                    None => groups.push((engine, vec![(query, reply, budget)])),
                },
                Err(err) => reply.send(Err(err)),
            }
        }
        for (engine, lanes) in groups {
            let size = lanes.len();
            // The governed run isolates lane panics per query; this
            // catch covers the batcher's own surroundings (and the
            // `server::execute` fail point), so one poisoned pass
            // cannot take the batcher thread — and the server — down.
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                faults::fail_point("server::execute");
                let jobs: Vec<(&Query<'_>, Option<Arc<Budget>>)> = lanes
                    .iter()
                    .map(|(q, _, b)| (q, Some(Arc::clone(b))))
                    .collect();
                session.execute(&jobs, engine, None)
            }));
            self.metrics.record_batch(size);
            match outcome {
                Ok(outputs) => {
                    for ((_, reply, _), output) in lanes.into_iter().zip(outputs) {
                        reply.send(output.map(|o| (o, size)));
                    }
                }
                Err(_) => {
                    for (_, reply, _) in lanes {
                        reply.send(Err(Error::Internal("batch execution panicked".to_string())));
                    }
                }
            }
        }
    }
}

/// One open connection, counted in
/// [`connections_open`](Metrics::connections_open) for as long as this
/// lives — dropped when the connection thread ends, a panic included.
pub(crate) struct OpenConnection(Arc<Batcher>);

impl Drop for OpenConnection {
    fn drop(&mut self) {
        let batcher = &self.0;
        batcher
            .metrics
            .connections_open
            .fetch_sub(1, Ordering::SeqCst);
        // One asker fewer may complete an open round. Passing through
        // the queue lock orders this after a batcher that has read the
        // old gauge and is about to wait, so the wake-up is not lost.
        drop(batcher.queue.lock().unwrap_or_else(|e| e.into_inner()));
        batcher.wake.notify_all();
    }
}

/// Drains up to `take` entries, round-robin across client ids when the
/// queue holds more than `take` — so one flooding client cannot starve
/// the rest of a saturated round. Each client's own FIFO order is
/// preserved, both in the batch and among the entries left behind.
fn drain_fair(q: &mut VecDeque<Pending>, take: usize) -> Vec<Pending> {
    if q.len() <= take {
        return q.drain(..).collect();
    }
    // Bucket by client in first-appearance order.
    let mut ids: Vec<u64> = Vec::new();
    let mut buckets: Vec<VecDeque<Pending>> = Vec::new();
    for p in q.drain(..) {
        match ids.iter().position(|&c| c == p.client) {
            Some(i) => buckets[i].push_back(p),
            None => {
                ids.push(p.client);
                buckets.push(VecDeque::from([p]));
            }
        }
    }
    let mut batch = Vec::with_capacity(take);
    while batch.len() < take {
        for b in buckets.iter_mut() {
            if batch.len() >= take {
                break;
            }
            if let Some(p) = b.pop_front() {
                batch.push(p);
            }
        }
    }
    for b in buckets.iter_mut() {
        q.extend(b.drain(..));
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::Event;
    use std::sync::mpsc::{channel, Receiver};

    fn batcher(depth: usize, window: Duration, max_batch: usize) -> (Arc<Batcher>, Shutdown) {
        let shutdown = Shutdown::new();
        let b = Arc::new(Batcher::new(
            depth,
            window,
            max_batch,
            shutdown.clone(),
            Arc::new(Metrics::default()),
        ));
        (b, shutdown)
    }

    fn pending(expr: &str) -> (Pending, Receiver<Event>) {
        pending_for(expr, 0)
    }

    fn pending_for(expr: &str, client: u64) -> (Pending, Receiver<Event>) {
        pending_on(expr, client, Engine::default())
    }

    fn pending_on(expr: &str, client: u64, engine: Engine) -> (Pending, Receiver<Event>) {
        let (tx, rx) = channel();
        (
            Pending {
                expr: expr.to_string(),
                engine,
                reply: ReplyTo::new(tx),
                at: Instant::now(),
                budget: Arc::new(Budget::new()),
                client,
            },
            rx,
        )
    }

    /// The one reply a submitted query is owed, within `wait`.
    fn reply_within(rx: &Receiver<Event>, wait: Duration) -> Option<Reply> {
        match rx.recv_timeout(wait) {
            Ok(Event::Reply(reply)) => Some(reply),
            Ok(_) => panic!("a query is answered with a reply event"),
            Err(_) => None,
        }
    }

    fn reply(rx: &Receiver<Event>) -> Reply {
        reply_within(rx, Duration::from_secs(5)).expect("answered within five seconds")
    }

    fn spawn_runner(b: &Arc<Batcher>, session: Session) -> std::thread::JoinHandle<()> {
        let b = Arc::clone(b);
        std::thread::spawn(move || b.run(&session))
    }

    #[test]
    fn queue_depth_is_backpressure() {
        let (b, _shutdown) = batcher(2, Duration::from_secs(60), 64);
        let (p1, _rx1) = pending("//a");
        let (p2, _rx2) = pending("//b");
        let (p3, _rx3) = pending("//c");
        assert!(b.submit(p1).is_ok());
        assert!(b.submit(p2).is_ok());
        assert_eq!(b.submit(p3), Err(SubmitError::Busy));
        assert_eq!(
            b.metrics
                .busy_rejections
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn shutdown_refuses_new_work_but_drains_admitted_work() {
        let session = Session::parse_xml("<a><b/><b/></a>").expect("fixture");
        let (b, shutdown) = batcher(8, Duration::from_secs(60), 64);
        let (p1, rx1) = pending("//b");
        b.submit(p1).unwrap();
        shutdown.trigger();
        let (p2, _rx2) = pending("//b");
        assert_eq!(b.submit(p2), Err(SubmitError::ShuttingDown));
        // The admitted query is still answered — the huge window is
        // skipped once shutdown is triggered — and run() returns.
        let runner = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                b.run(&session);
            })
        };
        let (out, size) = reply(&rx1).expect("parses");
        assert_eq!((out.len(), size), (2, 1));
        runner.join().expect("batcher exits");
    }

    #[test]
    fn full_batches_skip_the_window() {
        let session = Session::parse_xml("<a><b/><b/></a>").expect("fixture");
        // Window of a minute, max_batch 2: the second submission must
        // trigger the drain, not the clock.
        let (b, shutdown) = batcher(8, Duration::from_secs(60), 2);
        let runner = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                let session = session;
                b.run(&session);
            })
        };
        let (p1, rx1) = pending("//b");
        let (p2, rx2) = pending("descendant::b");
        b.submit(p1).unwrap();
        b.submit(p2).unwrap();
        for rx in [rx1, rx2] {
            let (out, size) = reply(&rx).expect("parses");
            assert_eq!(out.len(), 2);
            assert_eq!(size, 2, "both queries ride one batch");
        }
        assert_eq!(
            b.metrics
                .max_batch
                .load(std::sync::atomic::Ordering::Relaxed),
            2
        );
        shutdown.trigger();
        b.wake_all();
        runner.join().expect("batcher exits");
    }

    #[test]
    fn a_round_closes_once_every_open_connection_has_asked() {
        let session = Session::parse_xml("<a><b/><b/></a>").expect("fixture");
        // Window of a minute, max_batch far away: only the gauge can
        // close the round.
        let (b, shutdown) = batcher(8, Duration::from_secs(60), 64);
        let _open = [b.connection_opened(), b.connection_opened()];
        let runner = spawn_runner(&b, session);
        let (p1, rx1) = pending_for("//b", 1);
        b.submit(p1).unwrap();
        assert!(
            reply_within(&rx1, Duration::from_millis(100)).is_none(),
            "one of two connections is still idle: the window is held"
        );
        let (p2, rx2) = pending_for("descendant::b", 2);
        b.submit(p2).unwrap();
        for rx in [rx1, rx2] {
            let (out, size) = reply(&rx).expect("parses");
            assert_eq!((out.len(), size), (2, 2), "both lanes share one pass");
        }
        shutdown.trigger();
        b.wake_all();
        runner.join().expect("batcher exits");
    }

    #[test]
    fn a_connection_leaving_completes_the_round() {
        let session = Session::parse_xml("<a><b/><b/></a>").expect("fixture");
        let (b, shutdown) = batcher(8, Duration::from_secs(60), 64);
        let _asker = b.connection_opened();
        let idler = b.connection_opened();
        let runner = spawn_runner(&b, session);
        let (p1, rx1) = pending_for("//b", 1);
        b.submit(p1).unwrap();
        assert!(reply_within(&rx1, Duration::from_millis(100)).is_none());
        drop(idler);
        let (out, size) = reply(&rx1).expect("parses");
        assert_eq!((out.len(), size), (2, 1));
        assert_eq!(b.metrics.connections_open.load(Ordering::SeqCst), 1);
        shutdown.trigger();
        b.wake_all();
        runner.join().expect("batcher exits");
    }

    #[test]
    fn a_dropped_query_reports_itself_lost() {
        let (p, rx) = pending("//b");
        drop(p);
        assert!(matches!(rx.try_recv(), Ok(Event::Lost)));
        // A refused one owes nothing.
        let (b, shutdown) = batcher(8, Duration::ZERO, 64);
        shutdown.trigger();
        let (p, rx) = pending("//b");
        assert_eq!(b.submit(p), Err(SubmitError::ShuttingDown));
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn zero_window_never_batches_even_under_backlog() {
        let session = Session::parse_xml("<a><b/><b/></a>").expect("fixture");
        let (b, shutdown) = batcher(8, Duration::ZERO, 64);
        // Two queries already queued before the batcher thread starts:
        // the window-0 drain must still take them one at a time.
        let (p1, rx1) = pending("//b");
        let (p2, rx2) = pending("//b");
        b.submit(p1).unwrap();
        b.submit(p2).unwrap();
        let runner = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                let session = session;
                b.run(&session);
            })
        };
        for rx in [rx1, rx2] {
            let (out, size) = reply(&rx).expect("parses");
            assert_eq!(out.len(), 2);
            assert_eq!(size, 1, "pass-through means single-lane passes");
        }
        shutdown.trigger();
        b.wake_all();
        runner.join().expect("batcher exits");
    }

    #[test]
    fn mixed_engines_split_into_per_engine_passes() {
        let session = Session::parse_xml("<a><b/><b/></a>").expect("fixture");
        let (b, shutdown) = batcher(8, Duration::from_millis(20), 64);
        let runner = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                let session = session;
                b.run(&session);
            })
        };
        let (p1, rx1) = pending_on("//b", 0, Engine::default());
        let (p2, rx2) = pending_on("//b", 0, Engine::auto());
        b.submit(p1).unwrap();
        b.submit(p2).unwrap();
        for rx in [rx1, rx2] {
            let (out, size) = reply(&rx).expect("parses");
            assert_eq!(out.len(), 2);
            assert_eq!(size, 1, "different engines cannot share a pass");
        }
        shutdown.trigger();
        b.wake_all();
        runner.join().expect("batcher exits");
    }

    #[test]
    fn expired_queries_are_answered_at_drain_without_a_batch_slot() {
        let session = Session::parse_xml("<a><b/><b/></a>").expect("fixture");
        let (b, _shutdown) = batcher(8, Duration::from_secs(60), 64);
        // One query already dead (cancelled in the queue), one live.
        let (dead, rx_dead) = pending("//b");
        dead.budget.cancel();
        let (live, rx_live) = pending("//b");
        b.execute(&session, vec![dead, live]);
        assert!(matches!(reply(&rx_dead), Err(Error::Cancelled)));
        let (out, size) = reply(&rx_live).expect("runs");
        assert_eq!(out.len(), 2);
        assert_eq!(size, 1, "the dead query took no batch slot");
    }

    #[test]
    fn saturated_drains_are_fair_across_clients() {
        // Client 1 floods five queries before client 2's one; a drain
        // of two must still include client 2.
        let mut q: VecDeque<Pending> = VecDeque::new();
        for i in 0..5 {
            let (p, _rx) = pending_for(&format!("//a{i}"), 1);
            q.push_back(p);
            std::mem::forget(_rx);
        }
        let (p, _rx) = pending_for("//z", 2);
        q.push_back(p);
        std::mem::forget(_rx);
        let batch = drain_fair(&mut q, 2);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].client, 1);
        assert_eq!(batch[0].expr, "//a0", "per-client FIFO holds");
        assert_eq!(batch[1].client, 2, "the flooded-out client gets a slot");
        assert_eq!(q.len(), 4, "the rest stays queued");
        assert!(q.iter().all(|p| p.client == 1));
        assert_eq!(
            q.iter().map(|p| p.expr.as_str()).collect::<Vec<_>>(),
            ["//a1", "//a2", "//a3", "//a4"],
            "leftovers keep client 1's order"
        );
    }

    #[test]
    fn small_drains_stay_strict_fifo() {
        let mut q: VecDeque<Pending> = VecDeque::new();
        for (expr, client) in [("//a", 1), ("//b", 2), ("//c", 1)] {
            let (p, _rx) = pending_for(expr, client);
            q.push_back(p);
            std::mem::forget(_rx);
        }
        // take >= len: everything drains in submission order.
        let batch = drain_fair(&mut q, 8);
        assert_eq!(
            batch.iter().map(|p| p.expr.as_str()).collect::<Vec<_>>(),
            ["//a", "//b", "//c"]
        );
        assert!(q.is_empty());
    }
}
