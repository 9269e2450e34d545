//! Protocol-level robustness tests over a real listener: malformed and
//! oversized frames, read timeouts, backpressure (`SERVER_BUSY`),
//! cancellation, and graceful shutdown. Tests that need a query in
//! flight run [`pathological`] and end it with a `CANCEL`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use staircase_server::protocol::{self, code, flags, frame};
use staircase_server::{Client, ClientError, QueryOptions, Server, ServerConfig, ServerHandle};
use staircase_xpath::Session;

const SAMPLE: &str = "<site><open_auctions><open_auction id='a0'><bidder><increase>1</increase>\
    </bidder><bidder><increase>2</increase></bidder></open_auction>\
    </open_auctions></site>";

fn start(config: ServerConfig) -> ServerHandle {
    let session = Arc::new(Session::parse_xml(SAMPLE).expect("fixture parses"));
    Server::start(session, config).expect("ephemeral bind succeeds")
}

/// Waits until the server counts exactly `n` open connections: a
/// `connect` returns before the server has seen the connection, and a
/// connection is uncounted only once its thread has finished.
fn wait_for_open(handle: &ServerHandle, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle
        .metrics()
        .connections_open
        .load(std::sync::atomic::Ordering::SeqCst)
        != n
    {
        assert!(Instant::now() < deadline, "never saw {n} open connections");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A document and query pair whose ungoverned evaluation takes seconds
/// even in a release build — thousands of alternating full-plane passes
/// over a 120 301-node document — so a query is deterministically still
/// running when a test acts on it. Every test that runs it cancels it;
/// the default execution timeout bounds it otherwise. `//p` on the same
/// document is a quick query with 300 answers.
fn pathological() -> (Arc<Session>, String) {
    let xml = format!(
        "<root>{}</root>",
        format!("<p>{}</p>", "<q/>".repeat(400)).repeat(300)
    );
    let session = Session::parse_xml(&xml).expect("pathological document parses");
    let mut expr = String::from("/descendant-or-self::*");
    for i in 0..2000 {
        expr.push_str(if i % 2 == 0 {
            "/ancestor-or-self::*"
        } else {
            "/descendant-or-self::*"
        });
    }
    (Arc::new(session), expr)
}

fn start_pathological(config: ServerConfig) -> (ServerHandle, String) {
    let (session, expr) = pathological();
    let handle = Server::start(session, config).expect("ephemeral bind succeeds");
    (handle, expr)
}

fn server_code(err: &ClientError) -> u8 {
    match err {
        ClientError::Server { code, .. } => *code,
        other => panic!("not a server error frame: {other:?}"),
    }
}

fn count_query(expr: &str) -> Vec<u8> {
    protocol::encode_frame(
        frame::QUERY,
        &protocol::query_payload(flags::COUNT_ONLY, "staircase", expr),
    )
}

fn next_frame(stream: &mut TcpStream) -> protocol::Frame {
    protocol::read_frame(stream, 1 << 20)
        .expect("readable")
        .expect("a frame, not EOF")
}

fn error_code(f: &protocol::Frame) -> u8 {
    assert_eq!(f.ty, frame::ERROR, "{f:?}");
    protocol::parse_error_payload(&f.payload).unwrap().0
}

fn opts(engine: &str) -> QueryOptions {
    QueryOptions {
        engine: engine.to_string(),
        render: false,
        count_only: false,
        deadline_ms: None,
    }
}

#[test]
fn queries_round_trip_on_every_engine() {
    let handle = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();
    for engine in [
        "staircase",
        "pushdown",
        "fragmented",
        "naive",
        "sql",
        "auto",
    ] {
        let reply = client
            .query("/descendant::increase/ancestor::bidder", &opts(engine))
            .unwrap_or_else(|e| panic!("{engine}: {e}"));
        assert_eq!(reply.total, 2, "{engine}");
        assert_eq!(reply.ids.len(), 2, "{engine}");
        assert!(reply.touched > 0, "{engine}");
        assert!(reply.batch_size >= 1, "{engine}");
    }
    handle.shutdown_and_join();
}

#[test]
fn count_only_and_render_modes() {
    let handle = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let counted = client
        .query(
            "//bidder",
            &QueryOptions {
                count_only: true,
                ..opts("staircase")
            },
        )
        .unwrap();
    assert_eq!(counted.total, 2);
    assert!(counted.ids.is_empty(), "count-only sends no chunks");

    let rendered = client
        .query(
            "//bidder",
            &QueryOptions {
                render: true,
                ..opts("staircase")
            },
        )
        .unwrap();
    assert_eq!(rendered.rendered.len(), 2);
    for line in &rendered.rendered {
        assert!(line.starts_with("pre "), "{line}");
        assert!(line.contains("<bidder>"), "{line}");
    }
    handle.shutdown_and_join();
}

#[test]
fn parse_and_engine_errors_leave_the_connection_usable() {
    let handle = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let err = client.query("///bad[", &opts("staircase")).unwrap_err();
    assert!(
        matches!(err, ClientError::Server { code: c, .. } if c == code::PARSE),
        "{err:?}"
    );
    let err = client.query("//bidder", &opts("warp-drive")).unwrap_err();
    assert!(
        matches!(err, ClientError::Server { code: c, .. } if c == code::ENGINE),
        "{err:?}"
    );
    // Same connection, still serving.
    let reply = client.query("//bidder", &opts("staircase")).unwrap();
    assert_eq!(reply.total, 2);
    handle.shutdown_and_join();
}

/// `parallel` is no engine (every engine runs a query sequentially):
/// the name is refused like any unknown one, and the connection keeps
/// serving.
#[test]
fn the_retired_parallel_engine_name_is_an_engine_error() {
    let handle = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let err = client.query("//bidder", &opts("parallel")).unwrap_err();
    assert!(
        matches!(err, ClientError::Server { code: c, .. } if c == code::ENGINE),
        "{err:?}"
    );
    let reply = client.query("//bidder", &opts("auto")).unwrap();
    assert_eq!(reply.total, 2);
    handle.shutdown_and_join();
}

#[test]
fn malformed_payload_is_answered_and_survived() {
    let handle = start(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();

    // A QUERY frame whose engine-name length overruns the payload.
    let bad = protocol::encode_frame(frame::QUERY, &[flags::COUNT_ONLY, 250, b'x']);
    stream.write_all(&bad).unwrap();
    let f = protocol::read_frame(&mut stream, 1 << 20).unwrap().unwrap();
    assert_eq!(f.ty, frame::ERROR);
    let (c, msg) = protocol::parse_error_payload(&f.payload).unwrap();
    assert_eq!(c, code::MALFORMED, "{msg}");

    // An unknown frame type is also answered in place.
    stream
        .write_all(&protocol::encode_frame(0x7F, &[]))
        .unwrap();
    let f = protocol::read_frame(&mut stream, 1 << 20).unwrap().unwrap();
    let (c, _) = protocol::parse_error_payload(&f.payload).unwrap();
    assert_eq!(c, code::MALFORMED);

    // The connection survived both: a clean query still answers.
    stream
        .write_all(&protocol::encode_frame(
            frame::QUERY,
            &protocol::query_payload(flags::COUNT_ONLY, "staircase", "//bidder"),
        ))
        .unwrap();
    let f = protocol::read_frame(&mut stream, 1 << 20).unwrap().unwrap();
    assert_eq!(f.ty, frame::DONE);
    let (total, _, _) = protocol::parse_done_payload(&f.payload).unwrap();
    assert_eq!(total, 2);
    handle.shutdown_and_join();
}

#[test]
fn oversized_frames_error_and_close() {
    let config = ServerConfig {
        max_frame: 1024,
        ..ServerConfig::default()
    };
    let handle = start(config);
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    // Announce a 2 MiB payload against a 1 KiB limit; no need to send it.
    let mut header = Vec::new();
    header.extend_from_slice(&(2u32 << 20).to_be_bytes());
    header.push(frame::QUERY);
    stream.write_all(&header).unwrap();
    let f = protocol::read_frame(&mut stream, 1 << 20).unwrap().unwrap();
    assert_eq!(f.ty, frame::ERROR);
    let (c, msg) = protocol::parse_error_payload(&f.payload).unwrap();
    assert_eq!(c, code::OVERSIZED);
    assert!(msg.contains("1024"), "{msg}");
    // The server closes after an oversized frame.
    let mut buf = [0u8; 1];
    assert_eq!(stream.read(&mut buf).unwrap_or(0), 0, "connection closed");
    handle.shutdown_and_join();
}

#[test]
fn idle_connections_time_out_with_a_typed_error() {
    let config = ServerConfig {
        read_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let handle = start(config);
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    // Send nothing; the server must close us out with TIMEOUT.
    let f = protocol::read_frame(&mut stream, 1 << 20).unwrap().unwrap();
    assert_eq!(f.ty, frame::ERROR);
    let (c, _) = protocol::parse_error_payload(&f.payload).unwrap();
    assert_eq!(c, code::TIMEOUT);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "timeout fired way late: {:?}",
        started.elapsed()
    );
    let mut buf = [0u8; 1];
    assert_eq!(stream.read(&mut buf).unwrap_or(0), 0, "connection closed");
    assert!(
        handle
            .metrics()
            .timeouts
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    handle.shutdown_and_join();
}

#[test]
fn a_dribbled_partial_frame_times_out_too() {
    let config = ServerConfig {
        read_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let handle = start(config);
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    // Three header bytes, then silence: the deadline covers the whole
    // frame, not just the first byte.
    stream.write_all(&[0, 0, 0]).unwrap();
    let f = protocol::read_frame(&mut stream, 1 << 20).unwrap().unwrap();
    let (c, _) = protocol::parse_error_payload(&f.payload).unwrap();
    assert_eq!(c, code::TIMEOUT);
    handle.shutdown_and_join();
}

#[test]
fn saturated_admission_queue_answers_server_busy() {
    // One execution slot: while the pathological query holds it, any
    // other query must bounce with SERVER_BUSY.
    let (handle, expr) = start_pathological(ServerConfig {
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();
    let mut parked_client = Client::connect(addr).unwrap();
    let mut canceller = parked_client.try_clone().unwrap();
    let mut client = Client::connect(addr).unwrap();
    let parked = std::thread::spawn(move || {
        let err = parked_client
            .query(&expr, &opts("staircase"))
            .expect_err("cancelled, not completed");
        (err, parked_client)
    });
    // Give the long query time to take the slot; a query that still
    // found it free is answered, and asks again.
    std::thread::sleep(Duration::from_millis(50));
    let deadline = Instant::now() + Duration::from_secs(10);
    let err = loop {
        match client.query("//p", &opts("staircase")) {
            Ok(reply) => assert_eq!(reply.total, 300),
            Err(err) => break err,
        }
        assert!(Instant::now() < deadline, "never answered SERVER_BUSY");
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(server_code(&err), code::BUSY, "{err:?}");
    canceller.cancel().unwrap();
    let (parked_err, mut parked_client) = parked.join().expect("parked client answered");
    assert_eq!(server_code(&parked_err), code::CANCELLED, "{parked_err:?}");

    // Backpressure is per-request, not per-connection: the slot is free
    // again, so both connections are served.
    for c in [&mut client, &mut parked_client] {
        assert_eq!(c.query("//p", &opts("staircase")).unwrap().total, 300);
    }
    assert!(
        handle
            .metrics()
            .busy_rejections
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    handle.shutdown_and_join();
}

/// Queries run on their own connection's thread: a quick query is not
/// held behind another connection's long one.
#[test]
fn a_long_query_does_not_block_another_connection() {
    let (handle, expr) = start_pathological(ServerConfig {
        exec_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();
    let mut long = Client::connect(addr).unwrap();
    let mut canceller = long.try_clone().unwrap();
    let mut quick = Client::connect(addr).unwrap();
    let running = std::thread::spawn(move || {
        let started = Instant::now();
        let err = long
            .query(&expr, &opts("staircase"))
            .expect_err("cancelled, not completed");
        (err, started.elapsed())
    });
    std::thread::sleep(Duration::from_millis(200));
    let asked = Instant::now();
    assert_eq!(quick.query("//p", &opts("staircase")).unwrap().total, 300);
    let quick_took = asked.elapsed();
    canceller.cancel().unwrap();
    let (err, long_took) = running.join().expect("long query answered");
    assert_eq!(
        server_code(&err),
        code::CANCELLED,
        "the long query ran until the quick one was answered: {err:?}"
    );
    assert!(
        quick_took * 4 < long_took,
        "//p took {quick_took:?} beside a query that ran {long_took:?}"
    );
    handle.shutdown_and_join();
}

#[test]
fn stats_frame_reports_counters() {
    let handle = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.query("//bidder", &opts("staircase")).unwrap();
    let stats = client.server_stats().unwrap();
    let queries: u64 = stats
        .lines()
        .find_map(|l| l.strip_prefix("queries_ok "))
        .and_then(|v| v.parse().ok())
        .expect("queries_ok line");
    assert_eq!(queries, 1, "{stats}");
    assert!(stats.contains("batches 1"), "{stats}");
    handle.shutdown_and_join();
}

#[test]
fn shutdown_frame_drains_and_exits() {
    let handle = start(ServerConfig::default());
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let reply = client.query("//bidder", &opts("auto")).unwrap();
    assert_eq!(reply.total, 2);
    client.shutdown_server().unwrap();
    // join() returns because the SHUTDOWN frame triggered the exit.
    handle.join();
    // New queries on the old connection are refused or the connection
    // is closed — either way, no silent hang.
    let outcome = client.query("//bidder", &opts("auto"));
    assert!(outcome.is_err(), "server is gone: {outcome:?}");
}

/// The reply path is event-driven: a round trip costs the query plus
/// loopback, not a polling interval. (When the connection thread polled
/// the socket in 50 ms ticks this took five seconds.)
#[test]
fn sequential_round_trips_do_not_wait_on_a_timer() {
    let handle = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let started = Instant::now();
    for _ in 0..100 {
        assert_eq!(
            client.query("//bidder", &opts("staircase")).unwrap().total,
            2
        );
    }
    assert!(
        started.elapsed() < Duration::from_millis(2500),
        "100 round trips took {:?}",
        started.elapsed()
    );
    handle.shutdown_and_join();
}

/// A `CANCEL` right behind a query is answered `CANCELLED` — even when
/// it is read before the query starts — and the connection serves the
/// next query.
#[test]
fn a_cancel_mid_query_answers_cancelled_and_the_connection_survives() {
    let (handle, expr) = start_pathological(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.write_all(&count_query(&expr)).unwrap();
    stream
        .write_all(&protocol::encode_frame(frame::CANCEL, &[]))
        .unwrap();
    assert_eq!(error_code(&next_frame(&mut stream)), code::CANCELLED);
    stream.write_all(&count_query("//p")).unwrap();
    let f = next_frame(&mut stream);
    assert_eq!(f.ty, frame::DONE);
    assert_eq!(protocol::parse_done_payload(&f.payload).unwrap().0, 300);
    handle.shutdown_and_join();
}

/// A frame pipelined behind an in-flight query is stashed and answered
/// second, in order.
#[test]
fn a_pipelined_frame_is_answered_after_the_in_flight_query() {
    let handle = start(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    let mut both = count_query("//bidder");
    both.extend(count_query("//increase/ancestor::open_auction"));
    stream.write_all(&both).unwrap();
    for expected in [2, 1] {
        let f = next_frame(&mut stream);
        assert_eq!(f.ty, frame::DONE);
        assert_eq!(
            protocol::parse_done_payload(&f.payload).unwrap().0,
            expected
        );
    }
    handle.shutdown_and_join();
}

/// A client that hangs up while its query runs cancels it, and the
/// execution slot it held is free again.
#[test]
fn a_hang_up_mid_query_cancels_it_and_frees_the_batch_slot() {
    let (handle, expr) = start_pathological(ServerConfig {
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    wait_for_open(&handle, 1);
    stream.write_all(&count_query(&expr)).unwrap();
    drop(stream);
    // The hung-up connection's thread ends once its query has resolved.
    wait_for_open(&handle, 0);
    let metrics = handle.metrics();
    let load = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(load(&metrics.cancelled_queries), 1);
    assert_eq!(load(&metrics.queries_ok), 0);
    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(client.query("//p", &opts("staircase")).unwrap().total, 300);
    handle.shutdown_and_join();
}

/// The read timeout is an *idle* timeout: it is paused while a query is
/// in flight and restarts when the answer is written. Here the query
/// outlives it by far, until the client cancels it.
#[test]
fn the_read_timeout_pauses_while_a_query_is_in_flight() {
    let read_timeout = Duration::from_millis(200);
    let (handle, expr) = start_pathological(ServerConfig {
        read_timeout,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    let started = Instant::now();
    stream.write_all(&count_query(&expr)).unwrap();
    std::thread::sleep(read_timeout * 3);
    stream
        .write_all(&protocol::encode_frame(frame::CANCEL, &[]))
        .unwrap();
    let f = next_frame(&mut stream);
    let answered = Instant::now();
    assert_eq!(error_code(&f), code::CANCELLED, "answered, not timed out");
    assert!(answered - started >= read_timeout * 3);
    // Idle since the answer was written: this connection's own timeout
    // comes a full `read_timeout` after it, not after the request.
    assert_eq!(error_code(&next_frame(&mut stream)), code::TIMEOUT);
    assert!(
        answered.elapsed() >= read_timeout,
        "timed out {:?} after the answer",
        answered.elapsed()
    );
    handle.shutdown_and_join();
}

#[test]
fn stats_report_open_connections() {
    let handle = start(ServerConfig::default());
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let second = Client::connect(addr).unwrap();
    wait_for_open(&handle, 2);
    let stats = client.server_stats().unwrap();
    assert!(stats.contains("connections_open 2\n"), "{stats}");
    assert!(stats.contains("connections 2\n"), "{stats}");
    drop(second);
    wait_for_open(&handle, 1);
    let stats = client.server_stats().unwrap();
    assert!(stats.contains("connections_open 1\n"), "{stats}");
    assert!(stats.contains("connections 2\n"), "{stats}");
    handle.shutdown_and_join();
}

/// `staircase-serve` validates a `.scj` before it binds: a corrupt file is
/// a start-up error, not a panic on the first query that reads content.
#[test]
fn serve_binary_refuses_a_corrupt_encoded_document() {
    let session = Session::parse_xml(SAMPLE).expect("fixture parses");
    let mut bytes = session.doc().to_bytes().to_vec();
    let at = bytes.len() - 4;
    bytes[at..].copy_from_slice(&1000u32.to_le_bytes());
    let path = std::env::temp_dir().join(format!("serve-corrupt-{}.scj", std::process::id()));
    std::fs::write(&path, bytes).expect("temp file writes");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_staircase-serve"))
        .args([
            path.to_str().expect("utf-8 path"),
            "--encoded",
            "--addr",
            "127.0.0.1:0",
        ])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("corrupt document"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A `CANCEL` that arrives in the same `write` as its query — so both
/// are in the server's input buffer before the query starts — cancels
/// it, and the connection serves the next query.
#[test]
fn a_query_and_its_cancel_in_one_write_answer_cancelled() {
    let (handle, expr) = start_pathological(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    let mut both = count_query(&expr);
    both.extend(protocol::encode_frame(frame::CANCEL, &[]));
    stream.write_all(&both).unwrap();
    assert_eq!(error_code(&next_frame(&mut stream)), code::CANCELLED);
    stream.write_all(&count_query("//p")).unwrap();
    let f = next_frame(&mut stream);
    assert_eq!(f.ty, frame::DONE);
    assert_eq!(protocol::parse_done_payload(&f.payload).unwrap().0, 300);
    handle.shutdown_and_join();
}

/// A connection keeps the queries it prepared, a bounded number of
/// texts: more distinct texts than it keeps, then the first again, all
/// answer as they did the first time.
#[test]
fn more_distinct_texts_than_a_connection_keeps_all_answer() {
    let handle = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let text = |i: usize| format!("/descendant::bidder{}", "/self::bidder".repeat(i));
    let first = client.query(&text(0), &opts("auto")).unwrap();
    assert_eq!(first.total, 2);
    for i in 1..70 {
        let reply = client.query(&text(i), &opts("auto")).unwrap();
        assert_eq!((reply.total, &reply.ids), (2, &first.ids), "text {i}");
    }
    for engine in ["auto", "staircase"] {
        let again = client.query(&text(0), &opts(engine)).unwrap();
        assert_eq!(again.ids, first.ids, "{engine}");
    }
    handle.shutdown_and_join();
}

/// A text that fails to parse is not kept: it answers `PARSE` every
/// time, and the connection keeps serving.
#[test]
fn a_text_that_fails_to_parse_answers_parse_every_time() {
    let handle = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();
    for _ in 0..3 {
        let err = client.query("///bad[", &opts("auto")).unwrap_err();
        assert_eq!(server_code(&err), code::PARSE, "{err:?}");
        assert_eq!(client.query("//bidder", &opts("auto")).unwrap().total, 2);
    }
    handle.shutdown_and_join();
}
