//! # staircase-server
//!
//! The batching query server front end: the traffic layer that turns
//! concurrent independent clients into `Session::run_many` batches,
//! whose memo computes a step several of them ask once.
//!
//! ```no_run
//! use std::sync::Arc;
//! use staircase_server::{Client, QueryOptions, Server, ServerConfig};
//! use staircase_xpath::Session;
//!
//! let session = Arc::new(Session::parse_xml("<a><b/><b/></a>")?);
//! let handle = Server::start(session, ServerConfig::default())?;
//! let mut client = Client::connect(handle.local_addr())?;
//! let reply = client.query("//b", &QueryOptions::default())?;
//! assert_eq!(reply.total, 2);
//! client.shutdown_server()?;
//! handle.join();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## The serving model
//!
//! The executor half of the server predates this crate: a
//! [`Session`] is `Sync`, owns a persistent
//! worker pool, and its `run_many` answers K queries in order, sharing
//! every step that repeats among them — the same path prefix, the same
//! join under other predicates, a nested `following`/`preceding` region
//! — a measured 1.4–1.5× over running them back to back. What this
//! crate adds is the discipline that manufactures those batches out of
//! independent clients, the same admission-window trick inference
//! servers use to amortize repeated work over concurrent requests:
//!
//! * **Admission window** ([`batcher`]): queries from all connections
//!   land in one bounded queue. A round opens when the queue becomes
//!   non-empty and drains when the window ([`ServerConfig::window`], a
//!   few ms) expires, [`ServerConfig::max_batch`] queries have
//!   accumulated, or every open connection has a query in the round —
//!   holding the window then could not grow the batch, so it is not
//!   held. The drained batch executes as one `run_many` call per engine
//!   named in it. The window deliberately trades a few milliseconds of
//!   added latency for the batch's throughput multiple, and only
//!   while someone who could still join is idle; a zero window disables
//!   batching entirely (one query per pass, even under backlog) and is
//!   the load generator's baseline.
//! * **Backpressure**: the admission queue is bounded
//!   ([`ServerConfig::queue_depth`]); when the pool cannot drain fast
//!   enough, further requests are answered with a typed `SERVER_BUSY`
//!   error frame immediately instead of queueing without bound. Clients
//!   retry or shed load; the server's memory does not grow with offered
//!   load.
//! * **Streamed results**: answers leave as a sequence of bounded
//!   chunk frames followed by a terminal stats frame, so clients
//!   process (and the server forgets) results incrementally instead of
//!   holding a materialized response per in-flight query.
//! * **Robustness**: per-connection read/write timeouts, typed error
//!   frames for malformed input (the connection survives anything that
//!   does not lose the frame boundary), and graceful shutdown — stop
//!   accepting, refuse new admissions, drain every admitted batch,
//!   exit. An accepted query is always answered.
//!
//! Threads, not async: there is no tokio in this environment (no
//! registry access), and none is needed — the acceptor (blocked in
//! `accept`) and the batcher (blocked on its queue) are one thread
//! each, and a connection is two: a reader that turns socket bytes into
//! frames, and the connection thread proper, a state machine blocked on
//! the one channel that the reader and the batcher both send into. The
//! request path is event-driven end to end: between a `QUERY` frame
//! becoming readable and its `DONE` frame being written, nothing waits
//! on a clock except the admission window and the query's own
//! deadline. The actual work all happens on the session's own worker
//! pool.
//!
//! ## Failure model
//!
//! Every admitted query executes under a governor
//! [`Budget`](staircase_xpath::Budget) whose deadline is the tighter of
//! the client's optional per-query deadline (the `DEADLINE` flag in the
//! `QUERY` frame) and the server-wide [`ServerConfig::exec_timeout`].
//! What can go wrong, and what survives it:
//!
//! * **Query deadline** (`TIMEOUT` error frame): the executor stops the
//!   query cooperatively at the next enforcement boundary. Only that
//!   query fails; batch siblings in the same `run_many` call complete with
//!   node- and order-identical results, and the connection stays open
//!   for the next request. This is distinct from the *read* timeout
//!   ([`ServerConfig::read_timeout`]), which also answers `TIMEOUT` but
//!   closes the connection — a peer that cannot deliver a frame has
//!   lost the frame boundary.
//! * **Cost budget** (`RESOURCE`): same containment as the deadline,
//!   tripped by the touched-node ceiling instead of the clock.
//! * **Cancellation** (`CANCELLED`): while a query is in flight the
//!   connection's reader thread keeps reading; a `CANCEL` frame or the
//!   peer hanging up reaches the connection thread as an event and
//!   flips the budget's cancel flag at once. Any other frame that
//!   arrives early is stashed and served after the in-flight answer
//!   (and the reader stops one frame ahead), so pipelining a request
//!   behind a long query is safe.
//! * **Execution panic** (`INTERNAL`): a panicking executor task is
//!   caught at the pool (or batch-group) boundary and isolated to the
//!   pass it rode in — each query of that pass answers `INTERNAL`, the
//!   batcher thread, the worker pool, the session, and the connection
//!   all remain usable. An `INTERNAL` caused by the batcher itself
//!   dying is the one variant that closes the connection.
//! * **Overload** (`SERVER_BUSY`) and **shutdown** (`SHUTTING_DOWN`)
//!   are refused at admission and never consume a batch slot; queries
//!   whose budget is already dead when their round drains (expired in
//!   queue) are answered without occupying a slot either.
//!
//! The corresponding counters — `exec_timeouts`, `resource_exhausted`,
//! `cancelled_queries`, `internal_errors` — are reported by the `STATS`
//! frame; see [`Metrics`].
//!
//! ## Wire protocol
//!
//! See [`protocol`] for the normative frame-by-frame spec. In short:
//! every frame is `[len: u32 BE][type: u8][payload]`; a client sends a
//! `QUERY` frame naming an engine and an XPath expression and reads
//! result chunks (`CHUNK` of big-endian pre ranks, or `RCHUNK` of
//! rendered text lines) terminated by exactly one `DONE` (total,
//! touched nodes, admission-batch size) or typed `ERROR` frame.
//! `STATS` reports server counters and `SHUTDOWN` asks for a graceful
//! exit. Two bins ship with the crate: `staircase-serve` (the server)
//! and, in `staircase-bench`, `staircase-loadgen` (an open-loop load
//! generator emitting `BENCH_server_latency.json`).

#![warn(missing_docs)]

pub mod batcher;
mod conn;
pub mod metrics;
pub mod mix;
pub mod protocol;
pub mod shutdown;

mod client;

pub use batcher::SubmitError;
pub use client::{Client, ClientError, QueryOptions, QueryReply};
pub use metrics::Metrics;
pub use protocol::{engine_by_name, render_line, render_node};
pub use shutdown::Shutdown;

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use staircase_xpath::Session;

use batcher::Batcher;
use conn::ConnShared;

/// Everything tunable about a server, with defaults sized for the
/// `staircase-serve` CLI.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    /// The admission window: how long the batcher holds an open round
    /// for more queries to join. Zero means pass-through.
    pub window: Duration,
    /// Largest admission batch one round may drain.
    pub max_batch: usize,
    /// Bound of the admission queue; submissions beyond it are answered
    /// `SERVER_BUSY`.
    pub queue_depth: usize,
    /// A connection that takes longer than this to deliver a frame —
    /// idle or dribbling — is closed with a `TIMEOUT` error. Counted
    /// from the later of the last frame received and the last answer
    /// written; paused while a request is being served.
    pub read_timeout: Duration,
    /// Per-write timeout for responses; a client that stops reading is
    /// disconnected rather than parked on forever.
    pub write_timeout: Duration,
    /// Largest accepted frame (requests *and* the limit announced to
    /// payload builders).
    pub max_frame: usize,
    /// How many pre ranks one `CHUNK` frame carries.
    pub chunk_ids: usize,
    /// Server-side ceiling on a single query's execution time. Every
    /// admitted query runs under a governor deadline of
    /// `min(client deadline, exec_timeout)`; tripping it answers a
    /// `TIMEOUT` error frame and the connection survives (unlike the
    /// read timeout, which closes it).
    pub exec_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            window: Duration::from_millis(2),
            max_batch: 32,
            queue_depth: 256,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_frame: 1 << 20,
            chunk_ids: 4096,
            exec_timeout: Duration::from_secs(10),
        }
    }
}

/// The server: [`Server::start`] is the only entry point.
pub struct Server;

impl Server {
    /// Binds the listener, spawns the acceptor and batcher threads, and
    /// returns immediately with a handle.
    ///
    /// # Errors
    ///
    /// The bind failing.
    pub fn start(session: Arc<Session>, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Shutdown::new();
        let metrics = Arc::new(Metrics::default());
        let batcher = Arc::new(Batcher::new(
            config.queue_depth,
            config.window,
            config.max_batch,
            shutdown.clone(),
            Arc::clone(&metrics),
        ));
        let shared = Arc::new(ConnShared {
            session: Arc::clone(&session),
            batcher: Arc::clone(&batcher),
            metrics: Arc::clone(&metrics),
            shutdown: shutdown.clone(),
            config,
            local_addr,
        });
        let runner = {
            let batcher = Arc::clone(&batcher);
            std::thread::spawn(move || batcher.run(&session))
        };
        let acceptor = {
            let shutdown = shutdown.clone();
            std::thread::spawn(move || accept_loop(listener, &shared, &shutdown))
        };
        Ok(ServerHandle {
            local_addr,
            shutdown,
            batcher,
            metrics,
            acceptor: Some(acceptor),
            runner: Some(runner),
        })
    }
}

/// Starts graceful shutdown: sets the flag, wakes the batcher, and
/// unblocks the acceptor — which sits in a blocking `accept` — with a
/// throwaway loopback connection to its own port.
pub(crate) fn begin_shutdown(shutdown: &Shutdown, batcher: &Batcher, local_addr: SocketAddr) {
    shutdown.trigger();
    batcher.wake_all();
    // A wildcard bind address is not connectable everywhere; its
    // loopback is.
    let ip = match local_addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    let poke = SocketAddr::new(ip, local_addr.port());
    // A failed poke (the listener is already gone) needs no handling.
    let _ = TcpStream::connect_timeout(&poke, Duration::from_secs(1));
}

/// The acceptor thread: block in `accept` until [`begin_shutdown`]
/// pokes it, then join every connection thread — each has already
/// joined its reader, and an idle one closes within a reader tick of
/// the flag.
fn accept_loop(listener: TcpListener, shared: &Arc<ConnShared>, shutdown: &Shutdown) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shutdown.is_triggered() {
            // The wake-up poke, or a client that lost the race with it.
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                // Counted here, not on the connection's thread, so the
                // batcher knows of the connection before its first
                // query can arrive.
                let open = shared.batcher.connection_opened();
                let shared = Arc::clone(shared);
                conns.push(std::thread::spawn(move || {
                    let _open = open;
                    conn::serve(stream, &shared);
                }));
            }
            // Out of descriptors, or the peer reset before we got to
            // it: back off rather than spin on a persistent error.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
        // Reap finished connection threads so a long-lived server does
        // not accumulate one handle per client ever served.
        conns.retain(|h| !h.is_finished());
    }
    drop(listener);
    for handle in conns {
        let _ = handle.join();
    }
}

/// A running server: its address, its metrics, and its lifecycle.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shutdown: Shutdown,
    batcher: Arc<Batcher>,
    metrics: Arc<Metrics>,
    acceptor: Option<JoinHandle<()>>,
    runner: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (the actual port when the config said 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live server counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Triggers graceful shutdown: stop accepting, refuse new
    /// admissions, drain everything admitted. Idempotent; returns
    /// without waiting — pair with [`ServerHandle::join`].
    pub fn shutdown(&self) {
        begin_shutdown(&self.shutdown, &self.batcher, self.local_addr);
    }

    /// Waits for the server to exit (either after
    /// [`ServerHandle::shutdown`] or a client's `SHUTDOWN` frame).
    pub fn join(mut self) {
        self.join_threads();
    }

    /// [`ServerHandle::shutdown`] + [`ServerHandle::join`].
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }

    fn join_threads(&mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.runner.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // A dropped handle must not leave detached server threads
        // accepting traffic; trigger and reap them.
        if self.acceptor.is_some() {
            self.shutdown();
        }
        self.join_threads();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("local_addr", &self.local_addr)
            .field("shutting_down", &self.shutdown.is_triggered())
            .finish()
    }
}
