//! `serve_wire`: the point mix through an in-process `Server` on loopback.
//!
//! Two connections, closed loop: each sends its next request when the reply
//! to the previous one is in. Every reply's total and ids are checked. The
//! traced run adds the open-loop rate ladder and prices the server's own
//! overhead against the same mix run in process.

use std::sync::Arc;
use std::time::{Duration, Instant};

use staircase_server::{Client, QueryOptions, Server, ServerConfig, ServerHandle};
use staircase_xpath::{Engine, Session};

use super::mixes::{POINT, Q1, TWIN_FACTOR, XMARK10};
use super::{run_rounds, Outcome, Params, Round};
use crate::check::{oracle, Expected};
use crate::json::Value;
use crate::ladder::{self, Clock, RealClock, Rung};
use crate::probes;
use crate::stats::{fnv1a, geomean, median};
use crate::trace;

const CONNECTIONS: usize = 2;

/// One kind of request: a point-mix query with ids returned, or Q1 rendered.
struct Request {
    id: &'static str,
    expr: &'static str,
    render: bool,
    expected: Expected,
}

struct Inputs {
    session: Arc<Session>,
    server: ServerHandle,
    requests: Vec<Request>,
    oracle_failed: u64,
}

fn options(render: bool) -> QueryOptions {
    QueryOptions {
        engine: "auto".to_string(),
        render,
        ..QueryOptions::default()
    }
}

/// Sends one request and checks the whole reply.
fn send(client: &mut Client, request: &Request) -> (bool, u64, u32) {
    match client.query(request.expr, &options(request.render)) {
        Ok(reply) => {
            // A rendered reply carries lines (`pre <rank>  <node>`), not ids.
            let sum = if request.render {
                fnv1a(reply.rendered.iter().map(|line| {
                    line.split_whitespace()
                        .nth(1)
                        .and_then(|rank| rank.parse().ok())
                        .unwrap_or(u32::MAX)
                }))
            } else {
                fnv1a(reply.ids.iter().copied())
            };
            let ok = reply.total as usize == request.expected.count
                && reply.ids.len() + reply.rendered.len() == request.expected.count
                && sum == request.expected.sum;
            (ok, reply.touched, reply.batch_size)
        }
        Err(_) => (false, 0, 0),
    }
}

fn setup(p: &Params) -> Result<Inputs, String> {
    let session = Arc::new(Session::new(XMARK10.generate(p.seed, p.factor())).with_threads(1));
    session.warm();
    let twin = Session::new(XMARK10.generate(p.seed, TWIN_FACTOR)).with_threads(1);
    let oracle_failed = POINT
        .iter()
        .map(|q| u64::from(oracle(&twin, q.expr, Engine::auto())))
        .sum();
    let expect = |expr: &str| {
        let query = session.prepare(expr).expect("fixed query text parses");
        Expected::of(&query.run(Engine::default()))
    };
    let mut requests: Vec<Request> = POINT
        .iter()
        .map(|q| Request {
            id: q.id,
            expr: q.expr,
            render: false,
            expected: expect(q.expr),
        })
        .collect();
    requests.push(Request {
        id: "wire.q1-render",
        expr: Q1,
        render: true,
        expected: expect(Q1),
    });
    let server = Server::start(Arc::clone(&session), ServerConfig::default())
        .map_err(|e| format!("server did not start on loopback: {e}"))?;
    // Every request once, so the server's first-execution costs are set-up.
    let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    for request in &requests {
        send(&mut client, request);
    }
    Ok(Inputs {
        session,
        server,
        requests,
        oracle_failed,
    })
}

/// What one connection's closed loop saw.
#[derive(Default)]
struct Lane {
    /// (request kind, latency ms, was traced)
    samples: Vec<(usize, f64, bool)>,
    failed: u64,
    touched: u64,
    batch_sizes: u64,
    finished: Duration,
}

fn connect(inputs: &Inputs) -> Result<Vec<Client>, String> {
    (0..CONNECTIONS)
        .map(|_| Client::connect(inputs.server.local_addr()).map_err(|e| e.to_string()))
        .collect()
}

fn closed_loop(
    inputs: &Inputs,
    clients: &mut [Client],
    seconds: f64,
    p: &Params,
) -> (Vec<Lane>, f64) {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let max_requests = if p.check { 20 } else { usize::MAX };
    let lanes: Vec<Lane> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut lane = Lane::default();
                    // Connections start half a cycle apart so they do not
                    // ask for the same query at the same time.
                    let offset = c * inputs.requests.len() / CONNECTIONS;
                    let mut k = 0usize;
                    while k < max_requests && (k < 3 || start.elapsed() < budget) {
                        let kind = (offset + k) % inputs.requests.len();
                        let traced = p.trace && k % 2 == 1;
                        trace::set_enabled(traced);
                        trace::set_op((c * 1_000_000 + k) as u32);
                        let t0 = Instant::now();
                        let (ok, touched, batch) = trace::span("server.roundtrip", || {
                            send(client, &inputs.requests[kind])
                        });
                        lane.samples
                            .push((kind, t0.elapsed().as_secs_f64() * 1e3, traced));
                        lane.failed += u64::from(!ok);
                        lane.touched += touched;
                        lane.batch_sizes += u64::from(batch);
                        k += 1;
                    }
                    trace::set_enabled(false);
                    lane.finished = start.elapsed();
                    trace::collect(trace::take());
                    lane
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let wall = lanes
        .iter()
        .map(|l| l.finished)
        .max()
        .unwrap_or_default()
        .as_secs_f64();
    (lanes, wall)
}

/// One rung of the open-loop ladder over both connections.
fn open_loop_rung(inputs: &Inputs, clients: &mut [Client], rate: u32, seconds: f64) -> Rung {
    let per_lane = (f64::from(rate) * seconds / CONNECTIONS as f64).ceil() as usize;
    let interval = Duration::from_secs_f64(CONNECTIONS as f64 / f64::from(rate));
    let clock = RealClock(Instant::now());
    let start = clock.now() + Duration::from_millis(5);
    let lanes = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    // Lanes interleave: lane c is due half an interval after lane c − 1.
                    let lane_start = start + interval * c as u32 / CONNECTIONS as u32;
                    ladder::run_lane(&clock, lane_start, interval, per_lane, |i| {
                        let kind = (c * 7 + i) % inputs.requests.len();
                        send(client, &inputs.requests[kind]).0
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    Rung::merge(rate, per_lane * CONNECTIONS, seconds, start, lanes)
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    // Dropping a round's inputs drops its `ServerHandle`, which shuts the
    // server down and joins its threads.
    run_rounds(
        p,
        false,
        || setup(p),
        |inputs, round| measured_phase(round, inputs),
    )
}

/// The closed loop's samples, pooled over both connections.
struct Closed {
    /// (request kind, latency ms) of the untraced requests.
    untraced: Vec<(usize, f64)>,
    traced_ms: Vec<f64>,
    completed: usize,
    batch_sizes: u64,
}

impl Closed {
    fn latencies_ms(&self) -> Vec<f64> {
        self.untraced.iter().map(|s| s.1).collect()
    }

    fn of_kind_ms(&self, kind: usize) -> Vec<f64> {
        self.untraced
            .iter()
            .filter(|s| s.0 == kind)
            .map(|s| s.1)
            .collect()
    }
}

fn measured_phase(p: &Params, inputs: &Inputs) -> Result<Round, String> {
    // A traced run spends half its time on the ladder.
    let closed_seconds = if p.trace { p.seconds / 2.0 } else { p.seconds };
    let mut clients = connect(inputs)?;
    let (lanes, wall_s) = closed_loop(inputs, &mut clients, closed_seconds, p);
    let samples = || lanes.iter().flat_map(|l| l.samples.iter());
    let closed = Closed {
        untraced: samples().filter(|s| !s.2).map(|s| (s.0, s.1)).collect(),
        traced_ms: samples().filter(|s| s.2).map(|s| s.1).collect(),
        completed: samples().count(),
        batch_sizes: lanes.iter().map(|l| l.batch_sizes).sum(),
    };
    // Round trips wait on the server's timers, not on the CPU: wall time.
    let kind_medians_us: Vec<f64> = (0..inputs.requests.len())
        .map(|kind| closed.of_kind_ms(kind))
        .filter(|ms| !ms.is_empty())
        .map(|ms| median(&ms) * 1e3)
        .collect();
    let mut round = Round {
        attempted: closed.completed as u64 + POINT.len() as u64,
        failed: lanes.iter().map(|l| l.failed).sum::<u64>() + inputs.oracle_failed,
        throughput_qps: closed.completed as f64 / wall_s,
        geomean_query_us: geomean(&kind_medians_us),
        pass_ms: closed.latencies_ms(),
        per_layer: Vec::new(),
        summary: Value::Null,
    };
    if p.trace {
        per_layer(p, inputs, &mut clients, &closed, &mut round);
    }
    Ok(round)
}

/// The traced run's extras: server overhead against the same mix in
/// process, the rate ladder, and the probes every workload reports.
fn per_layer(
    p: &Params,
    inputs: &Inputs,
    clients: &mut [Client],
    closed: &Closed,
    round: &mut Round,
) {
    let metrics = &mut round.per_layer;
    let wire_p50 = median(&closed.latencies_ms());
    metrics.push((
        "trace.overhead_share",
        (median(&closed.traced_ms) - wire_p50) / wire_p50,
    ));
    metrics.push(("trace.spans_per_pass", 1.0));
    metrics.push(("ref.scan_ms", probes::reference_scan_ms()));

    // The same mix in process, one query at a time: what is left of a round
    // trip after subtracting it is the server's own overhead. From outside a
    // round trip is one call into `server`, so this is also the layer split.
    let inproc_us: Vec<f64> = inputs
        .requests
        .iter()
        .map(|r| {
            let query = inputs
                .session
                .prepare(r.expr)
                .expect("fixed query text parses");
            probes::time(15, || query.run(Engine::auto())) * 1e6
        })
        .collect();
    let inproc = median(&inproc_us);
    let overhead_us = wire_p50 * 1e3 - inproc;
    metrics.push(("share.xpath_core", inproc / (wire_p50 * 1e3)));
    metrics.push(("share.server", overhead_us / (wire_p50 * 1e3)));
    metrics.push(("server.wire_p50_ms", wire_p50));
    metrics.push(("server.wire_overhead_us", overhead_us));
    metrics.push((
        "server.avg_batch",
        closed.batch_sizes as f64 / closed.completed as f64,
    ));

    // Counters of one cycle of the mix, as the server reports them.
    let ((touched, results), alloc) = trace::counting(|| {
        inputs
            .requests
            .iter()
            .fold((0u64, 0u64), |(t, r), request| {
                let (_, touched, _) = send(&mut clients[0], request);
                (t + touched, r + request.expected.count as u64)
            })
    });
    let cycle = inputs.requests.len() as f64;
    metrics.push(("core.touched", touched as f64));
    metrics.push((
        "core.touched_per_result",
        touched as f64 / results.max(1) as f64,
    ));
    metrics.push(("alloc.count_per_query", alloc.count as f64 / cycle));
    metrics.push(("alloc.bytes_per_query", alloc.bytes as f64 / cycle));

    let rung_seconds = if p.check { 0.3 } else { p.seconds / 10.0 };
    let rates = if p.check {
        &ladder::RUNGS[..2]
    } else {
        &ladder::RUNGS[..]
    };
    let (rungs, met) = ladder::climb(rates, |rate| {
        open_loop_rung(inputs, clients, rate, rung_seconds)
    });
    for rung in &rungs {
        round.attempted += rung.samples.len() as u64;
        round.failed += rung.samples.iter().filter(|s| !s.ok).count() as u64;
    }
    metrics.push(("server.rate_met_qps", f64::from(met)));
    let late = rungs
        .iter()
        .map(|r| r.tail_ms(|s| s.late))
        .fold(0.0, f64::max);
    metrics.push(("server.gen_late_p95_ms", late));
    let busy = inputs
        .server
        .metrics()
        .busy_rejections
        .load(std::sync::atomic::Ordering::Relaxed);
    metrics.push(("server.busy_rejections", busy as f64));

    let exprs: Vec<(&str, Engine)> = POINT.iter().map(|q| (q.expr, Engine::auto())).collect();
    let probed = probes::run(XMARK10, p, &inputs.session, &exprs, metrics);
    metrics.push((
        "core.kernel_share_est",
        touched as f64 * probed.scan_ns_per_node / (wire_p50 * 1e6 * cycle),
    ));
    round.summary = wire_summary(inputs, closed, &inproc_us, &rungs);
}

fn wire_summary(inputs: &Inputs, closed: &Closed, inproc_us: &[f64], rungs: &[Rung]) -> Value {
    let entries = inputs
        .requests
        .iter()
        .enumerate()
        .map(|(kind, r)| {
            let ms = closed.of_kind_ms(kind);
            Value::obj([
                ("id", Value::str(r.id)),
                ("samples", Value::Num(ms.len() as f64)),
                (
                    "wire_median_us",
                    if ms.is_empty() {
                        Value::Null
                    } else {
                        Value::Num(median(&ms) * 1e3)
                    },
                ),
                ("in_process_median_us", Value::Num(inproc_us[kind])),
            ])
        })
        .collect();
    let rungs = rungs
        .iter()
        .map(|r| {
            Value::obj([
                ("offered_qps", Value::Num(f64::from(r.rate))),
                ("achieved_qps", Value::Num(r.achieved_qps())),
                ("completed", Value::Num(r.samples.len() as f64)),
                ("offered", Value::Num(r.offered as f64)),
                ("tail_latency_ms", Value::Num(r.tail_ms(|s| s.latency))),
                ("tail_late_ms", Value::Num(r.tail_ms(|s| s.late))),
                ("abandoned", Value::Bool(r.abandoned)),
                ("met", Value::Bool(r.met())),
            ])
        })
        .collect();
    Value::obj([
        ("connections", Value::Num(CONNECTIONS as f64)),
        (
            "latency_limit_ms",
            Value::Num(ladder::LIMIT.as_secs_f64() * 1e3),
        ),
        ("entries", Value::Arr(entries)),
        ("rungs", Value::Arr(rungs)),
    ])
}
