//! Per-connection protocol loop: an event-driven state machine over one
//! channel, fed by a reader thread and the batcher.
//!
//! Each accepted connection gets a thread running [`serve`] and, under
//! it, a **reader thread** on a clone of the socket. The reader turns
//! bytes into frames; the batcher turns admitted queries into replies;
//! both send into the connection's single [`Event`] channel, and the
//! connection thread is a plain state machine over a blocking `recv()`:
//!
//! * **idle** — the next event is a request frame (served at once) or
//!   the reader's closing word (answered with a typed error where the
//!   protocol has one, then the connection closes);
//! * **in flight** — a query is with the batcher. A `CANCEL` frame or
//!   the peer hanging up flips the query's budget the instant it is
//!   read; any other frame is stashed; the reply is written the instant
//!   the batcher sends it;
//! * **in flight + one stashed frame** — the reader holds off (it reads
//!   at most one frame ahead of the one being served, so a pipelining
//!   client is held back by TCP, not buffered without bound), and the
//!   stashed frame is served right after the in-flight answer.
//!
//! Nothing on that path waits on a clock: between "QUERY frame
//! readable" and "DONE frame written" the only timers are the
//! batcher's admission window and the query's own governor deadline.
//! The one tick left ([`TICK`]) lives inside the reader, where it
//! bounds how soon an *idle* connection notices the shutdown flag and
//! its read deadline — idle *or* dribbling-a-partial-frame connections
//! are closed with a typed `TIMEOUT` error. The deadline counts from
//! the moment the connection last finished serving a frame and is
//! paused while one is being served, so a query that waits long in the
//! admission window never times its own connection out.
//!
//! Request errors are answered with typed error frames; only errors
//! that lose the frame boundary (or the peer) close the connection.
//! Every admitted query carries a governor `Budget` whose deadline is
//! the smaller of the client's optional per-query deadline and the
//! server's execution timeout. Governed failures — deadline, budget,
//! cancel, or an isolated internal panic — answer typed `ERROR` frames
//! and the connection stays open.
//!
//! An answer leaves in as few writes as it has 64 KiB blocks: frames
//! are encoded straight into a reusable per-connection buffer that is
//! flushed at the terminal frame.

use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown as SocketShutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use staircase_xpath::{parse_union, Budget, Error, Session};

use crate::batcher::{Batcher, Pending, Reply, SubmitError};
use crate::metrics::Metrics;
use crate::protocol::{
    begin_frame, code, done_payload, end_frame, error_payload, flags, frame, parse_query_payload,
    push_frame, push_ids, render_line, Frame, HEADER_LEN,
};
use crate::shutdown::Shutdown;
use crate::ServerConfig;

/// Source of per-connection ids (the batcher's fairness key).
static CONN_IDS: AtomicU64 = AtomicU64::new(1);

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
/// being served plus one stashed behind it.
const READ_AHEAD: usize = 2;

/// Everything a connection thread needs, shared by all of them.
pub(crate) struct ConnShared {
    pub session: Arc<Session>,
    pub batcher: Arc<Batcher>,
    pub metrics: Arc<Metrics>,
    pub shutdown: Shutdown,
    pub config: ServerConfig,
    /// Where the acceptor listens — a `SHUTDOWN` frame pokes it awake.
    pub local_addr: std::net::SocketAddr,
}

/// What a connection thread's one channel carries.
pub(crate) enum Event {
    /// The reader decoded a request frame.
    Frame(Frame),
    /// The reader's last word: no further frame will come, and why.
    Closed(Closed),
    /// The batcher answered the in-flight query.
    Reply(Reply),
    /// The in-flight query's [`ReplyTo`] was dropped unanswered — the
    /// batcher died with the query in hand.
    Lost,
}

/// Why the reader stopped.
pub(crate) enum Closed {
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

/// The batcher's end of a connection's channel for one query. Exactly
/// one event comes back per admitted query: the reply, or
/// [`Event::Lost`] if this is dropped without one — so a connection
/// never waits on a query nobody holds any more.
pub(crate) struct ReplyTo(Option<Sender<Event>>);

impl ReplyTo {
    pub(crate) fn new(events: Sender<Event>) -> ReplyTo {
        ReplyTo(Some(events))
    }

    /// Answers the query. The connection may have hung up mid-wait; a
    /// dead receiver is not the sender's problem.
    pub(crate) fn send(mut self, reply: Reply) {
        if let Some(events) = self.0.take() {
            let _ = events.send(Event::Reply(reply));
        }
    }

    /// The query was refused at admission: no event is owed for it.
    pub(crate) fn disarm(mut self) {
        self.0 = None;
    }
}

impl Drop for ReplyTo {
    fn drop(&mut self) {
        if let Some(events) = self.0.take() {
            let _ = events.send(Event::Lost);
        }
    }
}

/// What the reader and the connection thread tell each other besides
/// events: how many delivered frames are still unserved (the reader's
/// read-ahead credit and the idle clock's pause), since when the
/// connection has been idle, and that the connection is closing.
struct Flow {
    state: Mutex<FlowState>,
    changed: Condvar,
}

struct FlowState {
    unserved: usize,
    idle_since: Instant,
    closing: bool,
}

impl Flow {
    fn new() -> Flow {
        Flow {
            state: Mutex::new(FlowState {
                unserved: 0,
                idle_since: Instant::now(),
                closing: false,
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

    /// Connection thread: a delivered frame has been fully served (its
    /// answer, if it has one, written). The idle clock restarts when
    /// nothing is left unserved.
    fn served(&self) {
        let mut state = self.lock();
        state.unserved = state.unserved.saturating_sub(1);
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
            Ok(frame) => {
                flow.delivered();
                if events.send(Event::Frame(frame)).is_err() {
                    return;
                }
            }
            Err(closed) => {
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
    /// Cloned into each admitted query's [`ReplyTo`].
    events_tx: Sender<Event>,
    flow: Arc<Flow>,
    reader: Option<JoinHandle<()>>,
    client_id: u64,
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
        let events_tx = events_tx.clone();
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
    Conn {
        shared,
        out: Out {
            stream,
            buf: Vec::new(),
        },
        events,
        events_tx,
        flow,
        reader: Some(reader),
        client_id: CONN_IDS.fetch_add(1, Ordering::Relaxed),
    }
    .run();
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

impl Conn<'_> {
    /// The idle state: serve request frames until the connection ends.
    fn run(&mut self) {
        let shared = self.shared;
        let metrics = &shared.metrics;
        // A frame that arrived while a query was in flight, served next.
        let mut stashed: Option<Frame> = None;
        loop {
            staircase_xpath::faults::fail_point("server::conn::frame");
            let request = match stashed.take() {
                Some(f) => f,
                None => match self.events.recv() {
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
                    // The peer or the server is done; replies cannot
                    // arrive with nothing in flight.
                    Ok(Event::Closed(_) | Event::Reply(_) | Event::Lost) | Err(_) => return,
                },
            };
            let keep_going = match request.ty {
                frame::QUERY => {
                    let (ok, leftover) = self.answer_query(&request.payload);
                    stashed = leftover;
                    ok
                }
                // A CANCEL with nothing in flight lost the race against
                // the answer (or was speculative); it is deliberately a
                // no-op.
                frame::CANCEL => true,
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
                    crate::begin_shutdown(&shared.shutdown, &shared.batcher, shared.local_addr);
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

    /// Handles one `QUERY` frame end to end. The first return value is
    /// `false` when the connection must close (only I/O failures and a
    /// lost batcher); the second carries a non-`CANCEL` frame that
    /// arrived while the query was in flight, to be served next.
    fn answer_query(&mut self, payload: &[u8]) -> (bool, Option<Frame>) {
        let shared = self.shared;
        let metrics = &shared.metrics;
        let (request_flags, deadline_ms, engine_name, expr) = match parse_query_payload(payload) {
            Ok(parts) => parts,
            Err(message) => {
                bump(&metrics.protocol_errors);
                return (self.out.error(code::MALFORMED, &message), None);
            }
        };
        let Some(engine) = crate::protocol::engine_by_name(engine_name) else {
            bump(&metrics.rejected_requests);
            let message = format!("unknown engine {engine_name:?}");
            return (self.out.error(code::ENGINE, &message), None);
        };
        // Parse-check here so a bad expression is answered without a
        // batcher round trip (and without holding a batch slot).
        if let Err(e) = parse_union(expr) {
            bump(&metrics.rejected_requests);
            return (self.out.error(code::PARSE, &e.to_string()), None);
        }
        // The governed deadline is the tighter of the client's ask and
        // the server's own execution ceiling.
        let mut exec_deadline = shared.config.exec_timeout;
        if let Some(ms) = deadline_ms {
            exec_deadline = exec_deadline.min(Duration::from_millis(u64::from(ms)));
        }
        let budget = Arc::new(Budget::new().with_deadline_in(exec_deadline));
        let submitted = shared.batcher.submit(Pending {
            expr: expr.to_string(),
            engine,
            reply: ReplyTo::new(self.events_tx.clone()),
            at: Instant::now(),
            budget: Arc::clone(&budget),
            client: self.client_id,
        });
        match submitted {
            Ok(()) => {}
            Err(SubmitError::Busy) => {
                return (self.out.error(code::BUSY, "admission queue is full"), None);
            }
            Err(SubmitError::ShuttingDown) => {
                let ok = self
                    .out
                    .error(code::SHUTTING_DOWN, "server is shutting down");
                return (ok, None);
            }
        }
        // The in-flight state: block on the one channel and act on
        // whatever happens first — the reply, a CANCEL, an early frame,
        // or the peer going away.
        let mut stashed: Option<Frame> = None;
        let mut client_gone = false;
        let reply = loop {
            match self.events.recv() {
                Ok(Event::Reply(reply)) => break reply,
                Ok(Event::Lost) | Err(_) => {
                    // The batcher always answers admitted queries (it
                    // drains the queue even on shutdown); a dropped
                    // reply handle means it died.
                    self.out.error(code::INTERNAL, "query engine is gone");
                    return (false, None);
                }
                Ok(Event::Frame(f)) if f.ty == frame::CANCEL => {
                    budget.cancel();
                    self.flow.served();
                }
                Ok(Event::Frame(f)) => {
                    // The reader stops one frame ahead: nothing can
                    // arrive behind a stashed frame to overwrite it.
                    debug_assert!(stashed.is_none());
                    stashed = Some(f);
                }
                Ok(Event::Closed(_)) => {
                    // The peer hung up (or lost the frame boundary)
                    // mid-query: stop paying for the answer, but let
                    // the in-flight slot resolve cleanly.
                    budget.cancel();
                    client_gone = true;
                }
            }
        };
        if client_gone {
            // The reply has resolved; there is no one to write it to.
            bump(&metrics.cancelled_queries);
            return (false, None);
        }
        let (output, batch_size) = match reply {
            Ok(answer) => answer,
            Err(e) => {
                // Governed failures answer a typed error and keep the
                // connection (and its stashed frame) alive.
                let (error_code, counter) = match &e {
                    Error::DeadlineExceeded => (code::TIMEOUT, &metrics.exec_timeouts),
                    Error::BudgetExhausted => (code::RESOURCE, &metrics.resource_exhausted),
                    Error::Cancelled => (code::CANCELLED, &metrics.cancelled_queries),
                    Error::Internal(_) => (code::INTERNAL, &metrics.internal_errors),
                    _ => (code::PARSE, &metrics.rejected_requests),
                };
                bump(counter);
                return (self.out.error(error_code, &e.to_string()), stashed);
            }
        };
        bump(&metrics.queries_ok);
        (
            self.stream_output(request_flags, &output, batch_size)
                .is_ok(),
            stashed,
        )
    }

    /// Streams one query's answer: chunks, then the terminal `DONE`.
    fn stream_output(
        &mut self,
        request_flags: u8,
        output: &staircase_xpath::QueryOutput,
        batch_size: usize,
    ) -> std::io::Result<()> {
        let out = &mut self.out;
        if request_flags & flags::COUNT_ONLY == 0 {
            if request_flags & flags::RENDER != 0 {
                let doc = self.shared.session.doc();
                let mut open: Option<usize> = None;
                for v in output.iter() {
                    let start =
                        *open.get_or_insert_with(|| begin_frame(&mut out.buf, frame::RCHUNK));
                    out.buf.extend_from_slice(render_line(doc, v).as_bytes());
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
        out.finish(
            frame::DONE,
            &done_payload(
                output.len() as u32,
                output.stats().total_touched(),
                batch_size as u32,
            ),
        )
    }
}
