//! # staircase-server
//!
//! The query server front end: the traffic layer that puts a shared
//! [`Session`] on the wire, one connection thread per client, each
//! executing its client's queries where they arrive.
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
//! A [`Session`] is `Sync` and runs each query on the thread that asks,
//! so any number of threads may evaluate against it at once. The server leans
//! on that and adds as little as it can: **a connection is one thread,
//! and it executes its own queries**.
//!
//! * **Inline execution**: a connection's thread prepares each `QUERY`
//!   (once per text it is sent), executes it against the shared
//!   session, and streams the answer, all on its own stack. A query
//!   never waits in a queue behind another connection's query, and two
//!   connections run on two cores at once.
//! * **Backpressure**: admission is a counting semaphore of
//!   [`ServerConfig::queue_depth`] queries executing at once, server-wide.
//!   Past the bound a query is answered with a typed `SERVER_BUSY` error
//!   frame at once instead of piling up. Clients retry or shed load.
//! * **Streamed results**: answers leave as a sequence of bounded
//!   chunk frames followed by a terminal stats frame, rendered straight
//!   into the connection's output buffer, so clients process (and the
//!   server forgets) results incrementally.
//! * **Robustness**: per-connection read/write timeouts, typed error
//!   frames for malformed input (the connection survives anything that
//!   does not lose the frame boundary), and graceful shutdown — stop
//!   accepting, refuse new queries, let running ones finish, exit. An
//!   admitted query is always answered.
//!
//! Threads, not async: there is no tokio in this environment (no
//! registry access), and none is needed — the acceptor is one thread
//! blocked in `accept`, and a connection is one thread, which reads its
//! own frames, serves them in order and executes queries; a running
//! query's budget polls the socket, so a `CANCEL` or a hang-up reaches
//! it. The request path is event-driven end to end: between a `QUERY`
//! frame becoming readable and its `DONE` frame being written, nothing
//! waits on a clock except the query's own deadline.
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
//!   query fails, and the connection stays open for the next request.
//!   This is distinct from the *read* timeout
//!   ([`ServerConfig::read_timeout`]), which also answers `TIMEOUT` but
//!   closes the connection — a peer that cannot deliver a frame has
//!   lost the frame boundary.
//! * **Cost budget** (`RESOURCE`): same containment as the deadline,
//!   tripped by the touched-node ceiling instead of the clock.
//! * **Cancellation** (`CANCELLED`): while a query runs, its budget
//!   reads the connection's socket without blocking, at most once a
//!   millisecond; a `CANCEL` frame or the peer hanging up cancels the
//!   query. Any other frame that arrives early waits in the input
//!   buffer and is served after the in-flight answer, so pipelining a
//!   request behind a long query is safe.
//! * **Execution panic** (`INTERNAL`): a panicking evaluation is caught
//!   (per query inside the session, and around the whole execution on
//!   the connection thread) and fails only that query; the session and
//!   the connection remain usable.
//! * **Overload** (`SERVER_BUSY`) and **shutdown** (`SHUTTING_DOWN`)
//!   are refused before execution and hold no slot.
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
//! touched nodes, and a batch size that is always 1) or typed `ERROR` frame.
//! `STATS` reports server counters and `SHUTDOWN` asks for a graceful
//! exit. The crate ships one bin, `staircase-serve` (the server).

#![warn(missing_docs)]

mod conn;
pub mod metrics;
pub mod mix;
pub mod protocol;
pub mod shutdown;

mod client;

pub use client::{Client, ClientError, QueryOptions, QueryReply};
pub use metrics::Metrics;
pub use protocol::{engine_by_name, render_line, render_node, write_line};
pub use shutdown::Shutdown;

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use staircase_xpath::Session;

use conn::ConnShared;

/// Everything tunable about a server, with defaults sized for the
/// `staircase-serve` CLI.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    /// How many queries may execute at once, server-wide; a query past
    /// the bound is answered `SERVER_BUSY`.
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
    /// Binds the listener, spawns the acceptor thread, and returns
    /// immediately with a handle.
    ///
    /// # Errors
    ///
    /// The bind failing.
    pub fn start(session: Arc<Session>, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Shutdown::new();
        let metrics = Arc::new(Metrics::default());
        let shared = Arc::new(ConnShared {
            session,
            metrics: Arc::clone(&metrics),
            shutdown: shutdown.clone(),
            config,
            local_addr,
            executing: AtomicUsize::new(0),
        });
        let acceptor = {
            let shutdown = shutdown.clone();
            std::thread::spawn(move || accept_loop(listener, &shared, &shutdown))
        };
        Ok(ServerHandle {
            local_addr,
            shutdown,
            metrics,
            acceptor: Some(acceptor),
        })
    }
}

/// Starts graceful shutdown: sets the flag and unblocks the acceptor —
/// which sits in a blocking `accept` — with a throwaway loopback
/// connection to its own port.
pub(crate) fn begin_shutdown(shutdown: &Shutdown, local_addr: SocketAddr) {
    shutdown.trigger();
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
/// pokes it, then join every connection thread — a running query
/// finishes and is answered first, and an idle connection closes within
/// a read tick of the flag.
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
                let shared = Arc::clone(shared);
                conns.push(std::thread::spawn(move || conn::serve(stream, &shared)));
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
    metrics: Arc<Metrics>,
    acceptor: Option<JoinHandle<()>>,
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
    /// queries, finish the running ones. Idempotent; returns
    /// without waiting — pair with [`ServerHandle::join`].
    pub fn shutdown(&self) {
        begin_shutdown(&self.shutdown, self.local_addr);
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
