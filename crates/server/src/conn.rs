//! Per-connection protocol loop: a connection is one thread.
//!
//! Each accepted connection gets a thread running [`serve`]. It owns the
//! socket and one input buffer ([`Inbox`]), reads its own frames, and
//! serves each in order as a slice of that buffer, so no request frame
//! is allocated. Serving a `QUERY` means executing it right there,
//! against the shared [`Session`], and streaming the answer out: no
//! queue and no thread hand-off. Repeated texts skip parse and plan:
//! the connection keeps the [`Query`] it prepared for each text
//! ([`Prepared`]), and a `Query` keeps its plan per engine.
//!
//! A running query must still see a `CANCEL` frame and the peer hanging
//! up. Its governor [`Budget`] carries an interrupt, polled by the
//! budget's full check, that reads the socket without blocking at most
//! once per [`POLL_EVERY`]. A `CANCEL` at the front of the buffer is
//! consumed and cancels the query, and so do EOF and a stream error. It
//! reads only while no whole frame other than a `CANCEL` is buffered, so
//! a request pipelined behind the query waits its turn and TCP holds a
//! pipelining client back. A `CANCEL` already buffered right behind a
//! query cancels it as it starts; one with nothing in flight is ignored.
//!
//! Nothing on the request path waits on a clock. The one tick left
//! ([`TICK`]) is the blocking read's timeout: it bounds how soon an idle
//! connection notices the shutdown flag and its read deadline — idle
//! *or* dribbling-a-partial-frame connections are closed with a typed
//! `TIMEOUT` error. The deadline counts from the moment the connection
//! last finished serving a frame, so a long query never times its own
//! connection out.
//!
//! Admission is a counting semaphore of
//! [`queue_depth`](ServerConfig::queue_depth) executing queries,
//! server-wide (`SERVER_BUSY` past it, `SHUTTING_DOWN` after shutdown).
//! Every admitted query runs under a budget whose deadline is the
//! smaller of the client's and the server's execution timeout. Governed
//! failures — deadline, budget, cancel, or a caught internal panic —
//! answer typed `ERROR` frames and the connection stays open; only
//! errors that lose the frame boundary (or the peer) close it.
//!
//! An answer leaves in as few writes as it has 64 KiB blocks: frames
//! are encoded straight into a reusable per-connection buffer that is
//! flushed at the terminal frame.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use staircase_xpath::{faults, Budget, Error, Query, QueryOutput, Session};

use crate::metrics::Metrics;
use crate::protocol::{
    begin_frame, code, done_payload, end_frame, error_payload, flags, frame, parse_query_payload,
    push_frame, push_ids, write_line, HEADER_LEN,
};
use crate::shutdown::Shutdown;
use crate::ServerConfig;

/// How often a blocked read wakes to check the shutdown flag and the
/// idle deadline. Off the request path: a frame that arrives is read at
/// once.
const TICK: Duration = Duration::from_millis(50);

/// The least time between two socket reads of a running query's
/// interrupt: a query shorter than this never reads the socket.
const POLL_EVERY: Duration = Duration::from_millis(1);

/// The input buffer's resting size; it grows to hold a larger frame
/// whole and shrinks back once that frame is served.
const INPUT_BYTES: usize = 8 * 1024;

/// Rendered chunks are closed at this payload size.
const RENDER_CHUNK_BYTES: usize = 32 * 1024;

/// The output buffer is written out once it holds this much, and at
/// every terminal frame.
const FLUSH_BYTES: usize = 64 * 1024;

/// How many texts a connection keeps prepared.
const PREPARED_TEXTS: usize = 64;

/// How many bytes of text a connection keeps prepared; a longer text is
/// prepared for its request alone.
const PREPARED_BYTES: usize = 64 * 1024;

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

/// Why a connection stops reading.
#[derive(Debug, PartialEq, Eq)]
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

/// What the front of the input buffer holds.
enum Front {
    /// Not yet a whole frame, which takes this many bytes in all.
    Partial(usize),
    /// A whole frame: its type and payload length.
    Frame(u8, usize),
    /// A header announcing more than the frame limit.
    Oversized(u32),
}

/// The connection's read half: the socket and the one buffer it is read
/// into. Bytes `head..end` of `buf` are received and not yet consumed.
struct Inbox<R = TcpStream> {
    stream: R,
    buf: Vec<u8>,
    head: usize,
    end: usize,
    max_frame: usize,
    /// The earliest instant the running query's interrupt reads again.
    next_poll: Instant,
}

impl<R: Read> Inbox<R> {
    fn new(stream: R, max_frame: usize) -> Inbox<R> {
        Inbox {
            stream,
            buf: vec![0; INPUT_BYTES],
            head: 0,
            end: 0,
            max_frame,
            next_poll: Instant::now(),
        }
    }

    fn front(&self) -> Front {
        let bytes = &self.buf[self.head..self.end];
        let Some(header) = bytes.get(..HEADER_LEN) else {
            return Front::Partial(HEADER_LEN);
        };
        let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]);
        if len as usize > self.max_frame {
            Front::Oversized(len)
        } else if bytes.len() < HEADER_LEN + len as usize {
            Front::Partial(HEADER_LEN + len as usize)
        } else {
            Front::Frame(header[4], len as usize)
        }
    }

    /// Consumes the front frame, which must be whole; returns where its
    /// payload sits in `buf`.
    fn consume(&mut self, len: usize) -> Range<usize> {
        let payload = self.head + HEADER_LEN..self.head + HEADER_LEN + len;
        self.head = payload.end;
        payload
    }

    /// Consumes a `CANCEL` at the front of the buffer, if one is there.
    fn take_cancel(&mut self) -> bool {
        let Front::Frame(frame::CANCEL, len) = self.front() else {
            return false;
        };
        self.consume(len);
        true
    }

    /// One read into the buffer, after making room for the `want`
    /// bytes of the front frame. `Ok(0)` is EOF.
    fn fill(&mut self, want: usize) -> std::io::Result<usize> {
        if self.head == self.end {
            (self.head, self.end) = (0, 0);
            self.buf.truncate(INPUT_BYTES);
            self.buf.shrink_to_fit();
        }
        if self.head + want > self.buf.len() {
            self.buf.copy_within(self.head..self.end, 0);
            (self.head, self.end) = (0, self.end - self.head);
            if want > self.buf.len() {
                self.buf.resize(want, 0);
            }
        }
        let n = self.stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// The next frame, read blocking: its type and where its payload
    /// sits in `buf` (valid until the next read). Every [`TICK`] without
    /// data, an idle connection checks the shutdown flag (between frames
    /// only) and the read deadline counted from `idle_since`.
    fn next_frame(
        &mut self,
        idle_since: Instant,
        shutdown: &Shutdown,
        read_timeout: Duration,
    ) -> Result<(u8, Range<usize>), Closed> {
        loop {
            let want = match self.front() {
                Front::Frame(ty, len) => return Ok((ty, self.consume(len))),
                Front::Oversized(len) => return Err(Closed::Oversized(len)),
                Front::Partial(want) => want,
            };
            let at_boundary = self.head == self.end;
            match self.fill(want) {
                Ok(0) if at_boundary => return Err(Closed::CleanEof),
                Ok(0) => return Err(Closed::Dead),
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if at_boundary && shutdown.is_triggered() {
                        return Err(Closed::Shutdown);
                    }
                    if idle_since.elapsed() >= read_timeout {
                        return Err(Closed::TimedOut);
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(Closed::Dead),
            }
        }
    }
}

impl Inbox {
    /// The running query's interrupt: `true` when a `CANCEL` is at the
    /// front of the buffer, or the peer is gone. Reads the socket
    /// without blocking, at most once per [`POLL_EVERY`], and only while
    /// the front frame is not yet whole.
    fn interrupted(&mut self) -> bool {
        loop {
            if self.take_cancel() {
                return true;
            }
            let now = Instant::now();
            let (Front::Partial(want), true) = (self.front(), now >= self.next_poll) else {
                return false;
            };
            self.next_poll = now + POLL_EVERY;
            let _ = self.stream.set_nonblocking(true);
            let read = self.fill(want);
            let _ = self.stream.set_nonblocking(false);
            match read {
                Ok(n) if n > 0 => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    return false
                }
                // EOF or a failed stream: the peer is gone.
                _ => return true,
            }
        }
    }
}

/// Locks `inbox`; every update leaves it valid at every step, so a
/// holder's panic poisons nothing.
fn lock(inbox: &Mutex<Inbox>) -> MutexGuard<'_, Inbox> {
    inbox.lock().unwrap_or_else(|e| e.into_inner())
}

/// The connection's prepared texts: text → [`Query`], bounded by
/// [`PREPARED_TEXTS`] and [`PREPARED_BYTES`] and cleared when full.
/// Texts that fail to parse are not kept.
#[derive(Default)]
struct Prepared<'s> {
    queries: HashMap<String, Rc<Query<'s>>>,
    bytes: usize,
}

impl<'s> Prepared<'s> {
    /// The query for `expr`, prepared on a miss.
    fn get(&mut self, session: &'s Session, expr: &str) -> Result<Rc<Query<'s>>, Error> {
        if let Some(query) = self.queries.get(expr) {
            return Ok(Rc::clone(query));
        }
        let query = Rc::new(session.prepare(expr)?);
        if expr.len() <= PREPARED_BYTES {
            if self.queries.len() == PREPARED_TEXTS || self.bytes + expr.len() > PREPARED_BYTES {
                self.queries.clear();
                self.bytes = 0;
            }
            self.bytes += expr.len();
            self.queries.insert(expr.to_string(), Rc::clone(&query));
        }
        Ok(query)
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

/// One connection: its write half, its read half, its prepared texts.
struct Conn<'a> {
    shared: &'a ConnShared,
    out: Out,
    /// Shared only with the running query's interrupt, which runs on
    /// this same thread.
    inbox: Arc<Mutex<Inbox>>,
    prepared: Prepared<'a>,
}

impl Drop for Conn<'_> {
    /// Uncounts the connection on every way out of [`serve`], a panic
    /// included.
    fn drop(&mut self) {
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
    let _ = stream.set_read_timeout(Some(TICK));
    shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
    let Ok(read_half) = stream.try_clone() else {
        return;
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
        inbox: Arc::new(Mutex::new(Inbox::new(read_half, shared.config.max_frame))),
        prepared: Prepared::default(),
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
        let mut idle_since = Instant::now();
        loop {
            faults::fail_point("server::conn::frame");
            let next = lock(&self.inbox).next_frame(
                idle_since,
                &shared.shutdown,
                shared.config.read_timeout,
            );
            let keep_going = match next {
                Ok((frame::QUERY, payload)) => self.answer_query(payload),
                // Nothing is in flight: ignored.
                Ok((frame::CANCEL, _)) => true,
                Ok((frame::STATS, _)) => {
                    push_frame(
                        &mut self.out.buf,
                        frame::RCHUNK,
                        metrics.render().as_bytes(),
                    );
                    self.out.done(0, 0, 0)
                }
                Ok((frame::SHUTDOWN, _)) => {
                    let ok = self.out.done(0, 0, 0);
                    crate::begin_shutdown(&shared.shutdown, shared.local_addr);
                    ok
                }
                Ok((other, _)) => {
                    bump(&metrics.protocol_errors);
                    self.out.error(
                        code::MALFORMED,
                        &format!("unknown frame type 0x{other:02x}"),
                    )
                }
                Err(Closed::TimedOut) => {
                    bump(&metrics.timeouts);
                    self.out.error(code::TIMEOUT, "read timed out");
                    return;
                }
                Err(Closed::Oversized(len)) => {
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
                Err(Closed::CleanEof | Closed::Shutdown | Closed::Dead) => return,
            };
            if !keep_going {
                return;
            }
            idle_since = Instant::now();
        }
    }

    /// Handles one `QUERY` frame end to end: decode, prepare, admit,
    /// execute, answer. `payload` is where the frame sits in the input
    /// buffer. `false` when the connection must close (only when the
    /// answer could not be written).
    fn answer_query(&mut self, payload: Range<usize>) -> bool {
        let shared = self.shared;
        let metrics = &shared.metrics;
        let mut inbox = lock(&self.inbox);
        let (request_flags, deadline_ms, engine_name, expr) =
            match parse_query_payload(&inbox.buf[payload]) {
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
        let query = match self.prepared.get(&shared.session, expr) {
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
        let interrupt = {
            let inbox = Arc::clone(&self.inbox);
            move || lock(&inbox).interrupted()
        };
        let budget = Arc::new(
            Budget::new()
                .with_deadline_in(exec_deadline)
                .with_interrupt(interrupt),
        );
        // A `CANCEL` already buffered right behind the query cancels it
        // as it starts.
        if inbox.take_cancel() {
            budget.cancel();
        }
        inbox.next_poll = Instant::now() + POLL_EVERY;
        drop(inbox);
        // The governed run isolates panics inside evaluation; this catch
        // covers its surroundings (and the `server::execute` fail
        // point), so one poisoned query cannot take the connection down.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            faults::fail_point("server::execute");
            let jobs = [(&*query, Some(budget))];
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

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::net::TcpListener;

    use super::*;
    use crate::protocol::{encode_frame, query_payload};

    /// A stream of scripted reads: a run of bytes, or `None` for a read
    /// that times out; EOF once the script is done.
    struct Script(VecDeque<Option<Vec<u8>>>);

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(None) => Err(ErrorKind::WouldBlock.into()),
                Some(Some(mut bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.0.push_front(Some(bytes.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    fn scripted(reads: Vec<Option<Vec<u8>>>, max_frame: usize) -> Inbox<Script> {
        // An empty run would read as EOF.
        let reads = reads
            .into_iter()
            .filter(|r| r.as_ref().is_none_or(|b| !b.is_empty()));
        Inbox::new(Script(reads.collect()), max_frame)
    }

    /// The next frame's type and payload, with a read deadline far away.
    fn next<R: Read>(inbox: &mut Inbox<R>) -> Result<(u8, Vec<u8>), Closed> {
        let (ty, payload) =
            inbox.next_frame(Instant::now(), &Shutdown::new(), Duration::from_secs(60))?;
        Ok((ty, inbox.buf[payload].to_vec()))
    }

    fn query(expr: &str) -> Vec<u8> {
        encode_frame(frame::QUERY, &query_payload(0, "auto", expr))
    }

    fn cancel() -> Vec<u8> {
        encode_frame(frame::CANCEL, &[])
    }

    #[test]
    fn frames_split_at_every_byte_boundary_are_read_whole() {
        // The first frame nearly fills the resting buffer, so the second
        // straddles its end at many cuts and is moved to the front.
        let long = format!("/descendant::{}", "a".repeat(INPUT_BYTES - 400));
        let mut wire = query(&long);
        wire.extend(query("//b"));
        wire.extend(cancel());
        for cut in 0..=wire.len() {
            let reads = vec![Some(wire[..cut].to_vec()), None, Some(wire[cut..].to_vec())];
            let mut inbox = scripted(reads, 1 << 20);
            let first = next(&mut inbox).unwrap();
            assert_eq!(
                first,
                (frame::QUERY, query_payload(0, "auto", &long)),
                "cut {cut}"
            );
            let second = next(&mut inbox).unwrap();
            assert_eq!(
                second,
                (frame::QUERY, query_payload(0, "auto", "//b")),
                "cut {cut}"
            );
            assert_eq!(
                next(&mut inbox).unwrap(),
                (frame::CANCEL, vec![]),
                "cut {cut}"
            );
            assert_eq!(next(&mut inbox), Err(Closed::CleanEof), "cut {cut}");
        }
    }

    #[test]
    fn a_frame_larger_than_the_resting_buffer_grows_it_until_it_is_served() {
        let long = "x".repeat(3 * INPUT_BYTES);
        let mut wire = query(&long);
        wire.extend(query("//b"));
        let mut inbox = scripted(vec![Some(wire), None, Some(query("//c"))], 1 << 20);
        assert_eq!(next(&mut inbox).unwrap().1, query_payload(0, "auto", &long));
        assert!(inbox.buf.len() > INPUT_BYTES);
        assert_eq!(next(&mut inbox).unwrap().1, query_payload(0, "auto", "//b"));
        assert_eq!(next(&mut inbox).unwrap().1, query_payload(0, "auto", "//c"));
        assert_eq!(inbox.buf.len(), INPUT_BYTES, "shrunk back once empty");
    }

    #[test]
    fn an_oversized_header_is_refused_before_its_payload_arrives() {
        let mut header = 2048u32.to_be_bytes().to_vec();
        header.push(frame::QUERY);
        // The length arrives before the type byte: still nothing is
        // allocated for the announced payload.
        let reads = vec![Some(header[..4].to_vec()), None, Some(header[4..].to_vec())];
        let mut inbox = scripted(reads, 1024);
        assert_eq!(next(&mut inbox), Err(Closed::Oversized(2048)));
        assert_eq!(inbox.buf.len(), INPUT_BYTES);
    }

    #[test]
    fn eof_inside_a_frame_is_a_dead_stream_and_between_frames_a_clean_close() {
        let wire = query("//b");
        for cut in 1..wire.len() {
            let mut inbox = scripted(vec![Some(wire[..cut].to_vec())], 1024);
            assert_eq!(next(&mut inbox), Err(Closed::Dead), "cut {cut}");
        }
        let mut inbox = scripted(vec![Some(wire)], 1024);
        assert_eq!(next(&mut inbox).unwrap().0, frame::QUERY);
        assert_eq!(next(&mut inbox), Err(Closed::CleanEof));
    }

    #[test]
    fn a_cancel_right_behind_the_running_query_is_consumed() {
        let mut wire = query("//b");
        wire.extend(cancel());
        wire.extend(query("//c"));
        let mut inbox = scripted(vec![Some(wire)], 1024);
        assert_eq!(next(&mut inbox).unwrap().0, frame::QUERY);
        assert!(inbox.take_cancel());
        assert!(!inbox.take_cancel(), "consumed once");
        assert_eq!(next(&mut inbox).unwrap().1, query_payload(0, "auto", "//c"));
    }

    #[test]
    fn a_cancel_behind_a_pipelined_query_is_left_in_place() {
        let mut wire = query("//b");
        wire.extend(query("//c"));
        wire.extend(cancel());
        let mut inbox = scripted(vec![Some(wire)], 1024);
        assert_eq!(next(&mut inbox).unwrap().0, frame::QUERY);
        assert!(!inbox.take_cancel());
        assert_eq!(next(&mut inbox).unwrap().1, query_payload(0, "auto", "//c"));
        assert_eq!(next(&mut inbox).unwrap().0, frame::CANCEL);
    }

    /// A connected loopback pair: the client end and an inbox over the
    /// server end, whose first frame (a query) has been read.
    fn connected() -> (TcpStream, Inbox) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_read_timeout(Some(TICK)).unwrap();
        let mut inbox = Inbox::new(server, 1024);
        client.write_all(&query("//b")).unwrap();
        assert_eq!(next(&mut inbox).unwrap().0, frame::QUERY);
        (client, inbox)
    }

    /// Polls the interrupt, as if `POLL_EVERY` had passed, until it says
    /// `true` or five seconds are up.
    fn interrupted_soon(inbox: &mut Inbox) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            inbox.next_poll = Instant::now();
            if inbox.interrupted() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    }

    #[test]
    fn the_interrupt_reads_a_cancel_at_most_once_per_poll_interval() {
        let (mut client, mut inbox) = connected();
        inbox.next_poll = Instant::now();
        assert!(!inbox.interrupted(), "nothing sent");
        client.write_all(&cancel()).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        inbox.next_poll = Instant::now() + Duration::from_secs(3600);
        assert!(!inbox.interrupted(), "no read before the next poll is due");
        assert!(interrupted_soon(&mut inbox));
        assert!(!inbox.take_cancel(), "the cancel was consumed");
        // The socket is blocking again: the next read waits for a frame.
        client.write_all(&query("//c")).unwrap();
        assert_eq!(next(&mut inbox).unwrap().1, query_payload(0, "auto", "//c"));
    }

    #[test]
    fn the_interrupt_stops_reading_at_a_pipelined_query() {
        let (mut client, mut inbox) = connected();
        let mut wire = query("//c");
        wire.extend(cancel());
        client.write_all(&wire).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !matches!(inbox.front(), Front::Frame(..)) {
            assert!(
                Instant::now() < deadline,
                "the pipelined query never arrived"
            );
            inbox.next_poll = Instant::now();
            assert!(!inbox.interrupted());
            std::thread::sleep(Duration::from_millis(1));
        }
        inbox.next_poll = Instant::now();
        assert!(
            !inbox.interrupted(),
            "a cancel behind a pipelined query is not ours"
        );
        assert_eq!(next(&mut inbox).unwrap().1, query_payload(0, "auto", "//c"));
        assert!(inbox.take_cancel());
    }

    #[test]
    fn a_hang_up_interrupts_the_running_query() {
        let (client, mut inbox) = connected();
        drop(client);
        assert!(interrupted_soon(&mut inbox));
    }
}
