//! `staircase-loadgen` — open-loop load generator for the query server.
//!
//! Drives a `staircase-serve` instance (or a self-hosted in-process
//! server) with a fixed-rate request schedule and records latency from
//! each request's *scheduled* send time, not its actual send time, so a
//! server that falls behind pays for its backlog in the percentiles
//! (no coordinated omission).
//!
//! By default it self-hosts the server over one generated document and
//! writes the run, as mode `hosted`, to `BENCH_server_latency.json`.
//!
//! ```text
//! cargo run -p staircase-bench --release --bin staircase-loadgen --
//!     [--qps Q]          target request rate (default 400)
//!     [--duration-s D]   seconds of load (default 5)
//!     [--concurrency C]  client connections (default 8)
//!     [--scale S]        xmlgen scale for the self-hosted doc (0.4)
//!     [--engine E]       wire engine name (default staircase)
//!     [--mix PATH]       query mix file, one XPath per line
//!                        (default: the BATCH_MIXED workload)
//!     [--deadline-ms N]  attach a per-query governor deadline to every
//!                        request; server-side TIMEOUT answers are
//!                        counted instead of failing the run
//!     [--addr A]         drive an external server instead of
//!                        self-hosting (mode `external`)
//!     [--out PATH]       output path (BENCH_server_latency.json)
//!     [--smoke]          1 s at modest qps (CI keep-alive)
//! ```
//!
//! The run records, besides the latency percentiles, the governed-
//! failure counts the client observed — `busy` (backpressure),
//! `timeout` (deadline trips), `cancelled` — so a run under deadline
//! pressure shows *where* the load shed instead of a bare error total.
//!
//! CI runs `--smoke` on every push and uploads the JSON as an artifact.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use staircase_bench::BATCH_MIXED;
use staircase_server::{mix, Client, ClientError, QueryOptions, Server, ServerConfig};
use staircase_xmlgen::{generate, XmarkConfig};
use staircase_xpath::Session;

struct Config {
    qps: f64,
    duration: Duration,
    concurrency: usize,
    scale: f64,
    engine: String,
    mix_path: Option<String>,
    deadline_ms: Option<u32>,
    addr: Option<String>,
    out_path: String,
}

/// One mode's worth of measurements, plus the server-side counters
/// scraped from its STATS frame.
struct ModeResult {
    mode: &'static str,
    ok: u64,
    busy: u64,
    timeout: u64,
    cancelled: u64,
    errors: u64,
    achieved_qps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    batches: u64,
}

/// What one mode's drive observed, client side.
struct DriveCounts {
    latencies: Vec<f64>,
    ok: u64,
    busy: u64,
    timeout: u64,
    cancelled: u64,
    errors: u64,
    achieved_qps: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn stat_line(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key).map(str::trim_start))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Open-loop drive: `concurrency` connections share one fixed-rate
/// schedule; connection `w` owns requests `w, w+C, w+2C, …`, each sent
/// at `start + i/qps` (or immediately if already late — the lateness is
/// the point) and timed from that scheduled instant.
fn drive(addr: &str, queries: &[String], cfg: &Config) -> DriveCounts {
    let total = (cfg.qps * cfg.duration.as_secs_f64()).round() as usize;
    let interval = Duration::from_secs_f64(1.0 / cfg.qps);
    let busy = Arc::new(AtomicU64::new(0));
    let timeout = Arc::new(AtomicU64::new(0));
    let cancelled = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let started = Instant::now();

    let workers: Vec<_> = (0..cfg.concurrency)
        .map(|w| {
            let addr = addr.to_string();
            let queries = queries.to_vec();
            let engine = cfg.engine.clone();
            let deadline_ms = cfg.deadline_ms;
            let concurrency = cfg.concurrency;
            let busy = Arc::clone(&busy);
            let timeout = Arc::clone(&timeout);
            let cancelled = Arc::clone(&cancelled);
            let errors = Arc::clone(&errors);
            std::thread::spawn(move || {
                use staircase_server::protocol::code;
                let mut client = Client::connect(&addr).expect("loadgen connect");
                let opts = QueryOptions {
                    engine,
                    render: false,
                    count_only: true,
                    deadline_ms,
                };
                let mut latencies: Vec<f64> = Vec::new();
                let mut i = w;
                while i < total {
                    let scheduled = started + interval.mul_f64(i as f64);
                    if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    match client.query(&queries[i % queries.len()], &opts) {
                        Ok(_) => latencies.push(scheduled.elapsed().as_secs_f64() * 1e3),
                        Err(ClientError::Server { code: c, .. }) if c == code::BUSY => {
                            busy.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ClientError::Server { code: c, .. })
                            if c == code::TIMEOUT || c == code::RESOURCE =>
                        {
                            timeout.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ClientError::Server { code: c, .. }) if c == code::CANCELLED => {
                            cancelled.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    i += concurrency;
                }
                latencies
            })
        })
        .collect();

    let mut latencies: Vec<f64> = Vec::with_capacity(total);
    for worker in workers {
        latencies.extend(worker.join().expect("loadgen worker"));
    }
    let elapsed = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let ok = latencies.len() as u64;
    DriveCounts {
        ok,
        busy: busy.load(Ordering::Relaxed),
        timeout: timeout.load(Ordering::Relaxed),
        cancelled: cancelled.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        achieved_qps: ok as f64 / elapsed,
        latencies,
    }
}

/// Drive one mode against a live server and fold the measurements and
/// the server's STATS counters into a `ModeResult`.
fn run_mode(mode: &'static str, addr: &str, queries: &[String], cfg: &Config) -> ModeResult {
    let counts = drive(addr, queries, cfg);
    let stats = Client::connect(addr)
        .ok()
        .and_then(|mut c| c.server_stats().ok())
        .unwrap_or_default();
    let result = ModeResult {
        mode,
        ok: counts.ok,
        busy: counts.busy,
        timeout: counts.timeout,
        cancelled: counts.cancelled,
        errors: counts.errors,
        achieved_qps: counts.achieved_qps,
        p50_ms: percentile(&counts.latencies, 50.0),
        p95_ms: percentile(&counts.latencies, 95.0),
        p99_ms: percentile(&counts.latencies, 99.0),
        batches: stat_line(&stats, "batches "),
    };
    eprintln!(
        "{mode:>12}: {} ok, {} busy, {} timeout, {} cancelled, \
         {} err, {:.0} qps, p50 {:.2} ms  p95 {:.2} ms  p99 {:.2} ms, {} executed",
        result.ok,
        result.busy,
        result.timeout,
        result.cancelled,
        result.errors,
        result.achieved_qps,
        result.p50_ms,
        result.p95_ms,
        result.p99_ms,
        result.batches
    );
    result
}

/// Self-host a server over `session`, drive it, and shut it down.
fn hosted_mode(session: &Arc<Session>, queries: &[String], cfg: &Config) -> ModeResult {
    let handle =
        Server::start(Arc::clone(session), ServerConfig::default()).expect("loadgen server binds");
    let addr = handle.local_addr().to_string();
    let result = run_mode("hosted", &addr, queries, cfg);
    handle.shutdown_and_join();
    result
}

fn main() {
    let mut cfg = Config {
        qps: 400.0,
        duration: Duration::from_secs(5),
        concurrency: 8,
        scale: 0.4,
        engine: "staircase".to_string(),
        mix_path: None,
        deadline_ms: None,
        addr: None,
        out_path: "BENCH_server_latency.json".to_string(),
    };
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut next = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} takes a value"))
        };
        match a.as_str() {
            "--qps" => cfg.qps = next("--qps").parse().expect("--qps takes a number"),
            "--duration-s" => {
                cfg.duration =
                    Duration::from_secs_f64(next("--duration-s").parse().expect("number"))
            }
            "--concurrency" => cfg.concurrency = next("--concurrency").parse().expect("number"),
            "--scale" => cfg.scale = next("--scale").parse().expect("number"),
            "--engine" => cfg.engine = next("--engine"),
            "--mix" => cfg.mix_path = Some(next("--mix")),
            "--deadline-ms" => {
                cfg.deadline_ms = Some(next("--deadline-ms").parse().expect("number"))
            }
            "--addr" => cfg.addr = Some(next("--addr")),
            "--out" => cfg.out_path = next("--out"),
            "--smoke" => smoke = true,
            other => panic!("unknown flag {other}"),
        }
    }
    if smoke {
        cfg.qps = cfg.qps.min(200.0);
        cfg.duration = Duration::from_secs(1);
    }
    assert!(
        cfg.qps > 0.0 && cfg.concurrency > 0,
        "qps and concurrency must be positive"
    );

    // The query mix: a file of one-XPath-per-line (shared loader with
    // `xq --query-file` and the same skip/report contract), or the
    // shared-scan BATCH_MIXED workload.
    let queries: Vec<String> = match &cfg.mix_path {
        Some(path) => {
            let (lines, issues) = mix::read_query_lines(path).expect("read query mix");
            for issue in &issues {
                eprintln!(
                    "loadgen: {path}:{}: {} (skipped)",
                    issue.lineno, issue.message
                );
            }
            assert!(!lines.is_empty(), "query mix {path} has no usable lines");
            lines.into_iter().map(|l| l.text).collect()
        }
        None => BATCH_MIXED.iter().map(|s| s.to_string()).collect(),
    };

    let mode = if let Some(addr) = cfg.addr.clone() {
        run_mode("external", &addr, &queries, &cfg)
    } else {
        let session = Arc::new(Session::new(generate(XmarkConfig::new(cfg.scale))));
        session.warm();
        eprintln!(
            "self-hosted document: scale {}, {} nodes; {} queries in mix",
            cfg.scale,
            session.doc().len(),
            queries.len()
        );
        hosted_mode(&session, &queries, &cfg)
    };

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"server_latency\",");
    let _ = writeln!(json, "  \"qps_target\": {},", cfg.qps);
    let _ = writeln!(json, "  \"duration_s\": {},", cfg.duration.as_secs_f64());
    let _ = writeln!(json, "  \"concurrency\": {},", cfg.concurrency);
    let _ = writeln!(json, "  \"engine\": \"{}\",", cfg.engine);
    let _ = writeln!(json, "  \"mix_queries\": {},", queries.len());
    json.push_str("  \"modes\": [\n");
    let m = &mode;
    let _ = writeln!(
        json,
        "    {{\"mode\": \"{}\", \"ok\": {}, \"busy\": {}, \"timeout\": {}, \
         \"cancelled\": {}, \"errors\": {}, \"achieved_qps\": {:.1}, \"p50_ms\": {:.3}, \
         \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \"batches\": {}}}",
        m.mode,
        m.ok,
        m.busy,
        m.timeout,
        m.cancelled,
        m.errors,
        m.achieved_qps,
        m.p50_ms,
        m.p95_ms,
        m.p99_ms,
        m.batches
    );
    json.push_str("  ]\n}\n");
    std::fs::write(&cfg.out_path, json).expect("write bench json");
    eprintln!("wrote {}", cfg.out_path);
}
