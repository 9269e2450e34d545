//! End-to-end server test: a real listener on an ephemeral port, many
//! concurrent client threads on mixed engines, every response asserted
//! node- and order-identical to a sequential `Session::run` of the same
//! expression.

use std::sync::Arc;
use std::time::Duration;

use staircase_server::{Client, QueryOptions, Server, ServerConfig};
use staircase_suite::prelude::*;

/// A generated xmark-ish document big enough that shared scans matter
/// and queries return non-trivial result sets.
fn session() -> Arc<Session> {
    Arc::new(Session::new(generate(XmarkConfig::new(0.05))))
}

const EXPRS: [&str; 8] = [
    "/descendant::profile/descendant::education",
    "/descendant::increase/ancestor::bidder",
    "/descendant::bidder",
    "/descendant::date/ancestor::open_auction",
    "/descendant::person",
    "/descendant::bidder[increase]",
    "/descendant::open_auction[bidder]/descendant::date",
    "/descendant::education/ancestor::person",
];

const ENGINES: [&str; 5] = ["staircase", "fragmented", "auto", "sql", "naive"];

fn engine_of(name: &str) -> Engine {
    staircase_server::engine_by_name(name).expect("wire engine name")
}

/// ≥ 8 concurrent clients, mixed engines (incl. `auto`), a batching
/// window: every streamed response must equal the sequential
/// `Session::run` answer, node for node, in order.
#[test]
fn concurrent_clients_match_sequential_run_exactly() {
    let session = session();
    // The oracle: sequential runs, engine by engine, before any server
    // traffic exists.
    let mut expected: Vec<Vec<Vec<Pre>>> = Vec::new();
    for engine in ENGINES {
        expected.push(
            EXPRS
                .iter()
                .map(|e| {
                    session
                        .run(e, engine_of(engine))
                        .expect("oracle query parses")
                        .into_nodes()
                        .into_vec()
                })
                .collect(),
        );
    }
    let expected = Arc::new(expected);

    let config = ServerConfig {
        ..ServerConfig::default()
    };
    let handle = Server::start(Arc::clone(&session), config).expect("bind");
    let addr = handle.local_addr();

    const CLIENTS: usize = 10;
    const ROUNDS: usize = 3;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..ROUNDS {
                    // Stagger engines and expressions across clients and
                    // rounds so windows mix engines and expressions.
                    let ei = (c + round) % ENGINES.len();
                    for (qi, expr) in EXPRS.iter().enumerate() {
                        let reply = client
                            .query(
                                expr,
                                &QueryOptions {
                                    engine: ENGINES[ei].to_string(),
                                    render: false,
                                    count_only: false,
                                    deadline_ms: None,
                                },
                            )
                            .unwrap_or_else(|e| panic!("client {c}: {expr}: {e}"));
                        assert_eq!(
                            reply.ids, expected[ei][qi],
                            "client {c} round {round}: {} on {expr} diverged from \
                             sequential run",
                            ENGINES[ei]
                        );
                        assert_eq!(reply.total as usize, expected[ei][qi].len());
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    // The server must have actually batched some of that concurrency:
    // every query answered, at least one multi-query shared pass.
    let metrics = handle.metrics();
    let queries = metrics
        .queries_ok
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(queries as usize, CLIENTS * ROUNDS * EXPRS.len());
    let batches = metrics.batches.load(std::sync::atomic::Ordering::Relaxed);
    let batched = metrics
        .batched_queries
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(batched, queries, "every query rode in exactly one pass");
    assert!(
        batches <= queries,
        "passes cannot outnumber queries (batches {batches}, queries {queries})"
    );
    handle.shutdown_and_join();
}

/// A document and query pair whose ungoverned evaluation takes long
/// enough (many full-plane passes) that deadlines and cancellations
/// deterministically win the race against completion.
fn pathological() -> (Arc<Session>, String) {
    let mut b = EncodingBuilder::new();
    b.open_element("root");
    for _ in 0..300 {
        b.open_element("p");
        for _ in 0..400 {
            b.open_element("q");
            b.close_element();
        }
        b.close_element();
    }
    b.close_element();
    let mut expr = String::from("/descendant-or-self::*");
    for i in 0..80 {
        expr.push_str(if i % 2 == 0 {
            "/ancestor-or-self::*"
        } else {
            "/descendant-or-self::*"
        });
    }
    (Arc::new(Session::new(b.finish())), expr)
}

/// A per-query deadline riding the QUERY frame: the server answers a
/// typed `TIMEOUT` error frame promptly and the connection stays open
/// for ordinary queries.
#[test]
fn a_client_deadline_times_out_a_pathological_query_and_the_connection_survives() {
    use staircase_server::protocol::code;
    use staircase_server::ClientError;

    let (session, expr) = pathological();
    let handle = Server::start(Arc::clone(&session), ServerConfig::default()).expect("bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let started = std::time::Instant::now();
    let err = client
        .query(
            &expr,
            &QueryOptions {
                deadline_ms: Some(50),
                ..QueryOptions::default()
            },
        )
        .expect_err("the deadline must trip first");
    assert!(
        matches!(err, ClientError::Server { code: c, .. } if c == code::TIMEOUT),
        "{err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "timeout answered way late: {:?}",
        started.elapsed()
    );

    // Same connection, next query: the governed timeout is survivable.
    let reply = client
        .query("//p", &QueryOptions::default())
        .expect("connection stays open");
    assert_eq!(reply.total, 300);
    assert!(
        handle
            .metrics()
            .exec_timeouts
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    handle.shutdown_and_join();
}

/// ROADMAP item 1, first hole: `a[a[a[…` nested 20 000 deep is 60 KB —
/// far under `max_frame` — and used to overflow the parser's stack on
/// the connection thread, which no `catch_unwind` contains: one QUERY
/// frame killed the server for every client. It must be a typed parse
/// error, on this connection and with the server still there for the
/// next one.
#[test]
fn a_deeply_nested_query_is_a_parse_error_frame_not_an_abort() {
    use staircase_server::protocol::code;
    use staircase_server::ClientError;

    let session = session();
    let bidders = session.run("//bidder", Engine::auto()).unwrap().len() as u32;
    let handle = Server::start(Arc::clone(&session), ServerConfig::default()).expect("bind");

    let hostile = format!("{}a{}", "a[".repeat(20_000), "]".repeat(20_000));
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let err = client
        .query(&hostile, &QueryOptions::default())
        .expect_err("nesting past the limit does not parse");
    assert!(
        matches!(&err, ClientError::Server { code: c, message }
            if *c == code::PARSE && message.contains("nested deeper")),
        "{err:?}"
    );
    // The nesting limit itself is fine.
    let deepest = format!(
        "//bidder{}",
        "[increase".repeat(MAX_PREDICATE_DEPTH) + &"]".repeat(MAX_PREDICATE_DEPTH)
    );
    client
        .query(&deepest, &QueryOptions::default())
        .expect("the documented depth parses, plans and runs");

    // A fresh connection is still answered.
    let mut fresh = Client::connect(handle.local_addr()).expect("server still accepting");
    let reply = fresh
        .query("//bidder", &QueryOptions::default())
        .expect("server still serving");
    assert_eq!(reply.total, bidders);
    handle.shutdown_and_join();
}

/// A `CANCEL` frame sent while a query is in flight stops it: the
/// server answers a typed `CANCELLED` error frame and the connection
/// keeps serving.
#[test]
fn a_cancel_frame_stops_an_in_flight_query() {
    use staircase_server::protocol::code;
    use staircase_server::ClientError;

    let (session, expr) = pathological();
    let handle = Server::start(Arc::clone(&session), ServerConfig::default()).expect("bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let mut canceller = client.try_clone().expect("clone stream");
    let cancel_thread = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(60));
        canceller.cancel().expect("cancel frame sends");
    });

    let started = std::time::Instant::now();
    let err = client
        .query(&expr, &QueryOptions::default())
        .expect_err("the cancel must win against completion");
    cancel_thread.join().expect("cancel thread");
    assert!(
        matches!(err, ClientError::Server { code: c, .. } if c == code::CANCELLED),
        "{err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "cancellation answered way late: {:?}",
        started.elapsed()
    );

    let reply = client
        .query("//p", &QueryOptions::default())
        .expect("connection stays open");
    assert_eq!(reply.total, 300);
    assert!(
        handle
            .metrics()
            .cancelled_queries
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    handle.shutdown_and_join();
}

/// Rendered streaming matches what local `xq`-style rendering would
/// produce (same shared `render_line`).
#[test]
fn rendered_results_match_local_rendering() {
    let session = session();
    let handle = Server::start(Arc::clone(&session), ServerConfig::default()).expect("bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let expr = "/descendant::increase/ancestor::bidder";
    let reply = client
        .query(
            expr,
            &QueryOptions {
                engine: "auto".to_string(),
                render: true,
                count_only: false,
                deadline_ms: None,
            },
        )
        .expect("query");
    let local = session.run(expr, Engine::auto()).expect("parses");
    let local_lines: Vec<String> = local
        .iter()
        .map(|v| staircase_server::render_line(session.doc(), v))
        .collect();
    assert_eq!(reply.rendered, local_lines);
    handle.shutdown_and_join();
}
