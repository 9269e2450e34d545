//! Per-connection protocol loop: one thread executes, the reader
//! cancels.
//!
//! Each accepted connection gets a thread running [`serve`] and, under
//! it, a **reader thread** on a clone of the socket. The reader turns
//! bytes into frames and hands them over one channel; the connection
//! thread serves them in order, and serving a `QUERY` means executing it
//! right there, against the shared [`Session`], and streaming the answer
//! out. There is no queue between a query's arrival and its execution
//! and no thread hand-off besides the reader's.
//!
//! The reader keeps reading while a query runs, because two things must
//! reach a running query: a `CANCEL` frame and the peer hanging up (EOF
//! or a dead stream). The connection thread is busy executing and could
//! not receive either, so the reader acts on them itself: the running
//! query's governor [`Budget`] sits in a slot of the connection's
//! [`Flow`], and the reader cancels it directly. A `CANCEL` that lands
//! after its query was delivered but before it started is held in the
//! slot and cancels the query as it starts. `CANCEL` frames never reach
//! the connection thread. Any other frame that arrives early waits in
//! the channel and is served after the in-flight answer; the reader
//! reads at most one frame ahead of the one being served, so a
//! pipelining client is held back by TCP, not buffered without bound.
//!
//! Nothing on the request path waits on a clock. The one tick left
//! ([`TICK`]) lives inside the reader, where it bounds how soon an
//! *idle* connection notices the shutdown flag and its read deadline —
//! idle *or* dribbling-a-partial-frame connections are closed with a
//! typed `TIMEOUT` error. The deadline counts from the moment the
//! connection last finished serving a frame and is paused while one is
//! being served, so a long query never times its own connection out.
//!
//! Admission is a counting semaphore: at most
//! [`queue_depth`](ServerConfig::queue_depth) queries execute at once,
//! server-wide; a query past the bound is answered `SERVER_BUSY`, and one
//! that arrives after shutdown was triggered `SHUTTING_DOWN`. Every
//! admitted query runs under a governor `Budget` whose deadline is the
//! smaller of the client's optional per-query deadline and the server's
//! execution timeout. Governed failures — deadline, budget, cancel, or a
//! caught internal panic — answer typed `ERROR` frames and the
//! connection stays open. Only errors that lose the frame boundary (or
//! the peer) close it.
//!
//! An answer leaves in as few writes as it has 64 KiB blocks: frames
//! are encoded straight into a reusable per-connection buffer that is
//! flushed at the terminal frame.

use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown as SocketShutdown, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use staircase_xpath::{faults, Budget, Error, QueryOutput, Session};

use crate::metrics::Metrics;
use crate::protocol::{
    begin_frame, code, done_payload, end_frame, error_payload, flags, frame, parse_query_payload,
    push_frame, push_ids, write_line, Frame, HEADER_LEN,
};
use crate::shutdown::Shutdown;
use crate::ServerConfig;

/// How often the reader's blocked read wakes to check the shutdown flag
/// and the idle deadline. Off the request path: a connection thread
/// never waits on it.
const TICK: Duration = Duration::from_millis(50);

/// Rendered chunks are closed at this payload size.
const RENDER_CHUNK_BYTES: usize = 32 * 1024;

/// The output buffer is written out once it holds this much, and at
/// every terminal frame.
const FLUSH_BYTES: usize = 64 * 1024;

/// How many delivered-but-unserved frames stop the reader: the one
/// being served plus one waiting behind it.
const READ_AHEAD: usize = 2;

/// Everything a connection thread needs, shared by all of them.
pub(crate) struct ConnShared {
    pub session: Arc<Session>,
    pub metrics: Arc<Metrics>,
    pub shutdown: Shutdown,
    pub config: ServerConfig,
    /// Where the acceptor listens — a `SHUTDOWN` frame pokes it awake.
    pub local_addr: std::net::SocketAddr,
    /// The admission semaphore: queries executing right now, on every
    /// connection, bounded by `config.queue_depth`.
    pub executing: AtomicUsize,
}

/// One held admission slot; dropping it frees the slot.
struct Permit<'a>(&'a AtomicUsize);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl ConnShared {
    /// Takes an admission slot, or `None` when `queue_depth` queries
    /// are already executing.
    fn admit(&self) -> Option<Permit<'_>> {
        let bound = self.config.queue_depth.max(1);
        self.executing
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < bound).then_some(n + 1)
            })
            .ok()?;
        Some(Permit(&self.executing))
    }
}

/// What the reader sends the connection thread.
enum Event {
    /// A request frame (never a `CANCEL`: the reader acts on those).
    Frame(Frame),
    /// The reader's last word: no further frame will come, and why.
    Closed(Closed),
}

/// Why the reader stopped.
enum Closed {
    /// The peer closed between frames.
    CleanEof,
    /// Nothing (or not everything) arrived before the read deadline.
    TimedOut,
    /// The announced length exceeds the frame limit.
    Oversized(u32),
    /// The server is shutting down and this connection is idle.
    Shutdown,
    /// The stream failed (or ended inside a frame).
    Dead,
}

/// What the reader and the connection thread share besides the channel:
/// how many delivered frames are still unserved (the reader's read-ahead
/// credit and the idle clock's pause), since when the connection has
/// been idle, that it is closing, and the running query's budget.
struct Flow {
    state: Mutex<FlowState>,
    changed: Condvar,
}

struct FlowState {
    unserved: usize,
    idle_since: Instant,
    closing: bool,
    /// The budget of the query the connection thread is executing.
    running: Option<Arc<Budget>>,
    /// A cancel that arrived while a frame was being served but before
    /// its query started; it cancels that query as it starts.
    cancel_pending: bool,
}

impl Flow {
    fn new() -> Flow {
        Flow {
            state: Mutex::new(FlowState {
                unserved: 0,
                idle_since: Instant::now(),
                closing: false,
                running: None,
                cancel_pending: false,
            }),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FlowState> {
        // Every update leaves the state valid at every step, so a
        // holder's panic poisons nothing.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Reader: blocks while it is [`READ_AHEAD`] frames ahead; `false`
    /// means the connection is closing.
    fn wait_for_credit(&self) -> bool {
        let mut state = self.lock();
        while state.unserved >= READ_AHEAD && !state.closing {
            state = self.changed.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        !state.closing
    }

    /// Reader: a frame is about to be delivered.
    fn delivered(&self) {
        self.lock().unserved += 1;
    }

    /// Reader: a `CANCEL` frame or the peer going away. Cancels the
    /// running query, or the one about to start; with nothing being
    /// served it only counts as a frame received.
    fn cancel(&self) {
        let mut state = self.lock();
        if let Some(budget) = &state.running {
            budget.cancel();
        } else if state.unserved > 0 {
            state.cancel_pending = true;
        } else {
            state.idle_since = Instant::now();
        }
    }

    /// Connection thread: `budget`'s query starts executing.
    fn start(&self, budget: &Arc<Budget>) {
        let mut state = self.lock();
        if std::mem::take(&mut state.cancel_pending) {
            budget.cancel();
        }
        state.running = Some(Arc::clone(budget));
    }

    /// Connection thread: a delivered frame has been fully served (its
    /// answer, if it has one, written). The idle clock restarts when
    /// nothing is left unserved.
    fn served(&self) {
        let mut state = self.lock();
        state.unserved = state.unserved.saturating_sub(1);
        state.running = None;
        state.cancel_pending = false;
        if state.unserved == 0 {
            state.idle_since = Instant::now();
        }
        drop(state);
        self.changed.notify_all();
    }

    /// Reader: `Some(idle_since)` when no frame is being served.
    fn idle_since(&self) -> Option<Instant> {
        let state = self.lock();
        (state.unserved == 0).then_some(state.idle_since)
    }

    fn close(&self) {
        self.lock().closing = true;
        self.changed.notify_all();
    }
}

/// Reads exactly `buf.len()` bytes; every [`TICK`] without data,
/// `on_tick(at_boundary)` may end the read. `at_boundary` says no byte
/// of a frame has been read yet: an EOF there is a clean close, an EOF
/// anywhere else is [`Closed::Dead`].
fn read_exact_ticking(
    r: &mut impl Read,
    buf: &mut [u8],
    frame_started: bool,
    on_tick: &mut impl FnMut(bool) -> Option<Closed>,
) -> Result<(), Closed> {
    let mut filled = 0;
    while filled < buf.len() {
        let at_boundary = filled == 0 && !frame_started;
        match r.read(&mut buf[filled..]) {
            Ok(0) if at_boundary => return Err(Closed::CleanEof),
            Ok(0) => return Err(Closed::Dead),
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if let Some(closed) = on_tick(at_boundary) {
                    return Err(closed);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(Closed::Dead),
        }
    }
    Ok(())
}

/// Reads one whole frame, consulting `on_tick` whenever the socket has
/// been silent for a [`TICK`].
fn read_frame_ticking(
    r: &mut impl Read,
    max_frame: usize,
    on_tick: &mut impl FnMut(bool) -> Option<Closed>,
) -> Result<Frame, Closed> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_ticking(r, &mut header, false, on_tick)?;
    let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]);
    if len as usize > max_frame {
        return Err(Closed::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_ticking(r, &mut payload, true, on_tick)?;
    Ok(Frame {
        ty: header[4],
        payload,
    })
}

/// The reader thread's body: frames in, events out, until the stream
/// ends, the deadline passes, or the connection thread closes up.
fn read_frames(
    stream: TcpStream,
    events: &Sender<Event>,
    flow: &Flow,
    shutdown: &Shutdown,
    max_frame: usize,
    read_timeout: Duration,
) {
    let _ = stream.set_read_timeout(Some(TICK));
    let mut reader = BufReader::new(stream);
    let mut on_tick = |at_boundary: bool| {
        // Both checks apply to an idle connection only: while a frame
        // is being served its answer is owed, and the deadline resumes
        // from the moment that answer is written.
        let idle_since = flow.idle_since()?;
        if at_boundary && shutdown.is_triggered() {
            return Some(Closed::Shutdown);
        }
        (idle_since.elapsed() >= read_timeout).then_some(Closed::TimedOut)
    };
    while flow.wait_for_credit() {
        match read_frame_ticking(&mut reader, max_frame, &mut on_tick) {
            Ok(frame) if frame.ty == frame::CANCEL => flow.cancel(),
            Ok(frame) => {
                flow.delivered();
                if events.send(Event::Frame(frame)).is_err() {
                    return;
                }
            }
            Err(closed) => {
                // Whatever is running has no one left to answer.
                flow.cancel();
                let _ = events.send(Event::Closed(closed));
                return;
            }
        }
    }
}

/// The connection's write half: frames are encoded into one reusable
/// buffer and leave in one `write` per answer (per [`FLUSH_BYTES`] for
/// big ones).
struct Out {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Out {
    fn flush(&mut self) -> std::io::Result<()> {
        let written = self.stream.write_all(&self.buf);
        self.buf.clear();
        written
    }

    fn flush_if_full(&mut self) -> std::io::Result<()> {
        if self.buf.len() >= FLUSH_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Buffers a terminal frame and writes everything out.
    fn finish(&mut self, ty: u8, payload: &[u8]) -> std::io::Result<()> {
        push_frame(&mut self.buf, ty, payload);
        self.flush()
    }

    fn done(&mut self, total: u32, touched: u64, batch: u32) -> bool {
        self.finish(frame::DONE, &done_payload(total, touched, batch))
            .is_ok()
    }

    /// Best-effort error frame; a failed write just means the peer is
    /// gone.
    fn error(&mut self, error_code: u8, message: &str) -> bool {
        self.finish(frame::ERROR, &error_payload(error_code, message))
            .is_ok()
    }
}

/// One connection: its write half, its event channel, its reader.
struct Conn<'a> {
    shared: &'a ConnShared,
    out: Out,
    events: Receiver<Event>,
    flow: Arc<Flow>,
    reader: Option<JoinHandle<()>>,
}

impl Drop for Conn<'_> {
    /// Closes the socket under the reader and joins it, on every way
    /// out of [`serve`] — a panic included — so the connection thread
    /// finishing means no thread of this connection is left.
    fn drop(&mut self) {
        self.flow.close();
        let _ = self.out.stream.shutdown(SocketShutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        self.shared
            .metrics
            .connections_open
            .fetch_sub(1, Ordering::SeqCst);
    }
}

/// The connection thread's body.
pub(crate) fn serve(stream: TcpStream, shared: &ConnShared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let (events_tx, events) = channel();
    let flow = Arc::new(Flow::new());
    let reader = {
        let flow = Arc::clone(&flow);
        let shutdown = shared.shutdown.clone();
        let (max_frame, read_timeout) = (shared.config.max_frame, shared.config.read_timeout);
        std::thread::spawn(move || {
            read_frames(
                read_half,
                &events_tx,
                &flow,
                &shutdown,
                max_frame,
                read_timeout,
            )
        })
    };
    shared
        .metrics
        .connections_open
        .fetch_add(1, Ordering::SeqCst);
    Conn {
        shared,
        out: Out {
            stream,
            buf: Vec::with_capacity(FLUSH_BYTES),
        },
        events,
        flow,
        reader: Some(reader),
    }
    .run();
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

impl Conn<'_> {
    /// Serves request frames, in order, until the connection ends.
    fn run(&mut self) {
        let shared = self.shared;
        let metrics = &shared.metrics;
        loop {
            faults::fail_point("server::conn::frame");
            let request = match self.events.recv() {
                Ok(Event::Frame(f)) => f,
                Ok(Event::Closed(Closed::TimedOut)) => {
                    bump(&metrics.timeouts);
                    self.out.error(code::TIMEOUT, "read timed out");
                    return;
                }
                Ok(Event::Closed(Closed::Oversized(len))) => {
                    bump(&metrics.protocol_errors);
                    self.out.error(
                        code::OVERSIZED,
                        &format!(
                            "frame of {len} bytes exceeds the {}-byte limit",
                            shared.config.max_frame
                        ),
                    );
                    return;
                }
                // The peer or the server is done.
                Ok(Event::Closed(Closed::CleanEof | Closed::Shutdown | Closed::Dead)) | Err(_) => {
                    return
                }
            };
            let keep_going = match request.ty {
                frame::QUERY => self.answer_query(&request.payload),
                frame::STATS => {
                    push_frame(
                        &mut self.out.buf,
                        frame::RCHUNK,
                        metrics.render().as_bytes(),
                    );
                    self.out.done(0, 0, 0)
                }
                frame::SHUTDOWN => {
                    let ok = self.out.done(0, 0, 0);
                    crate::begin_shutdown(&shared.shutdown, shared.local_addr);
                    ok
                }
                other => {
                    bump(&metrics.protocol_errors);
                    self.out.error(
                        code::MALFORMED,
                        &format!("unknown frame type 0x{other:02x}"),
                    )
                }
            };
            self.flow.served();
            if !keep_going {
                return;
            }
        }
    }

    /// Handles one `QUERY` frame end to end: decode, prepare, admit,
    /// execute, answer. `false` when the connection must close (only
    /// when the answer could not be written).
    fn answer_query(&mut self, payload: &[u8]) -> bool {
        let shared = self.shared;
        let metrics = &shared.metrics;
        let (request_flags, deadline_ms, engine_name, expr) = match parse_query_payload(payload) {
            Ok(parts) => parts,
            Err(message) => {
                bump(&metrics.protocol_errors);
                return self.out.error(code::MALFORMED, &message);
            }
        };
        let Some(engine) = crate::protocol::engine_by_name(engine_name) else {
            bump(&metrics.rejected_requests);
            let message = format!("unknown engine {engine_name:?}");
            return self.out.error(code::ENGINE, &message);
        };
        let query = match shared.session.prepare(expr) {
            Ok(query) => query,
            Err(e) => {
                bump(&metrics.rejected_requests);
                return self.out.error(code::PARSE, &e.to_string());
            }
        };
        if shared.shutdown.is_triggered() {
            return self
                .out
                .error(code::SHUTTING_DOWN, "server is shutting down");
        }
        let Some(permit) = shared.admit() else {
            bump(&metrics.busy_rejections);
            let message = format!(
                "{} queries are already executing",
                shared.config.queue_depth
            );
            return self.out.error(code::BUSY, &message);
        };
        // The governed deadline is the tighter of the client's ask and
        // the server's own execution ceiling.
        let mut exec_deadline = shared.config.exec_timeout;
        if let Some(ms) = deadline_ms {
            exec_deadline = exec_deadline.min(Duration::from_millis(u64::from(ms)));
        }
        let budget = Arc::new(Budget::new().with_deadline_in(exec_deadline));
        self.flow.start(&budget);
        // The governed run isolates panics inside evaluation; this catch
        // covers its surroundings (and the `server::execute` fail
        // point), so one poisoned query cannot take the connection down.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            faults::fail_point("server::execute");
            let jobs = [(&query, Some(budget))];
            shared.session.execute(&jobs, engine, None).remove(0)
        }));
        drop(permit);
        metrics.record_batch(1);
        let output = outcome
            .unwrap_or_else(|_| Err(Error::Internal("query execution panicked".to_string())));
        match output {
            Ok(output) => {
                bump(&metrics.queries_ok);
                self.stream_output(request_flags, &output).is_ok()
            }
            Err(e) => {
                // Governed failures answer a typed error and keep the
                // connection alive.
                let (error_code, counter) = match &e {
                    Error::DeadlineExceeded => (code::TIMEOUT, &metrics.exec_timeouts),
                    Error::BudgetExhausted => (code::RESOURCE, &metrics.resource_exhausted),
                    Error::Cancelled => (code::CANCELLED, &metrics.cancelled_queries),
                    Error::Internal(_) => (code::INTERNAL, &metrics.internal_errors),
                    _ => (code::PARSE, &metrics.rejected_requests),
                };
                bump(counter);
                self.out.error(error_code, &e.to_string())
            }
        }
    }

    /// Streams one query's answer: chunks, then the terminal `DONE`.
    fn stream_output(&mut self, request_flags: u8, output: &QueryOutput) -> std::io::Result<()> {
        let out = &mut self.out;
        if request_flags & flags::COUNT_ONLY == 0 {
            if request_flags & flags::RENDER != 0 {
                let doc = self.shared.session.doc();
                let mut open: Option<usize> = None;
                for v in output.iter() {
                    let start =
                        *open.get_or_insert_with(|| begin_frame(&mut out.buf, frame::RCHUNK));
                    write_line(&mut out.buf, doc, v);
                    out.buf.push(b'\n');
                    if out.buf.len() - start - HEADER_LEN >= RENDER_CHUNK_BYTES {
                        end_frame(&mut out.buf, start);
                        open = None;
                        out.flush_if_full()?;
                    }
                }
                if let Some(start) = open {
                    end_frame(&mut out.buf, start);
                }
            } else {
                let ids = output.nodes().as_slice();
                for chunk in ids.chunks(self.shared.config.chunk_ids.max(1)) {
                    let start = begin_frame(&mut out.buf, frame::CHUNK);
                    push_ids(&mut out.buf, chunk);
                    end_frame(&mut out.buf, start);
                    out.flush_if_full()?;
                }
            }
        }
        // A query runs alone: the batch field of `DONE` is always 1.
        out.finish(
            frame::DONE,
            &done_payload(output.len() as u32, output.stats().total_touched(), 1),
        )
    }
}
