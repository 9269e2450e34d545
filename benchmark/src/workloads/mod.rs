//! The six workloads and the closed-loop runner five of them share.

pub mod ingest;
pub mod mixes;
pub mod warm;
pub mod wire;

use std::time::{Duration, Instant};

use crate::check::{Counters, Mode};
use crate::json::Value;
use crate::probes::Probed;
use crate::reference::{Reference, NOMINAL_MS};
use crate::stats::{geomean, median, percentile};
use crate::trace::{self, AllocDelta, Span};

/// What one run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: a twentieth of the scale, at most 20 passes, one set-up,
    /// two ladder rungs.
    pub check: bool,
}

impl Params {
    /// Multiplier on every document's full scale.
    pub fn factor(&self) -> f64 {
        if self.check {
            mixes::TWIN_FACTOR
        } else {
            1.0
        }
    }

    /// Rounds per run. A round is a fresh set-up plus its share of the
    /// measured seconds: where the allocator happens to put a document's
    /// columns shifts every time by up to 8 % for the life of those objects,
    /// and a burst of interference from other tenants slows one round and
    /// not the next. An untraced run measures five rounds and reports the
    /// best: an unlucky layout or a noisy neighbour only ever slows a round.
    pub fn rounds(&self) -> usize {
        if self.check || self.trace {
            1
        } else {
            5
        }
    }

    fn max_passes(&self) -> usize {
        if self.check {
            20
        } else {
            usize::MAX
        }
    }
}

pub type Metrics = Vec<(&'static str, f64)>;

/// What one run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Per-entry detail for the trace file (traced runs only).
    pub summary: Value,
}

pub fn run(workload: &str, p: &Params) -> Result<Outcome, String> {
    match workload {
        "ingest_cold" => ingest::run(p),
        "point_warm" => warm::run(&warm::POINT_WARM, p),
        "scan_warm" => warm::run(&warm::SCAN_WARM, p),
        "skew_warm" => warm::run(&warm::SKEW_WARM, p),
        "batch_pool" => warm::run(&warm::BATCH_POOL, p),
        "serve_wire" => wire::run(p),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {:?}",
            crate::spec::workload_names()
        )),
    }
}

/// What one round (one set-up's objects, measured) produced.
pub struct Round {
    pub attempted: u64,
    pub failed: u64,
    pub throughput_qps: f64,
    pub geomean_query_us: f64,
    /// Every pass (or round trip), for the pooled 95th percentile.
    pub pass_ms: Vec<f64>,
    /// Traced runs only.
    pub per_layer: Metrics,
    pub summary: Value,
}

/// Runs the rounds of one workload and merges them into the run's outcome:
/// `setup_s` is the median set-up time, throughput and geomean are those of
/// the best round (medians within it), `pass_p95_ms` is over all rounds'
/// passes, and `peak_rss_mb` is read after the first round (one set-up plus
/// its measured phase, before later rounds pile freed memory on top).
///
/// `cpu_bound`: report set-up in reference time (see `reference.rs`).
/// `serve_wire` waits on timers and sockets, which do not slow down with
/// the machine, and reports wall time.
pub fn run_rounds<I>(
    p: &Params,
    cpu_bound: bool,
    mut setup: impl FnMut() -> Result<I, String>,
    mut phase: impl FnMut(&I, &Params) -> Result<Round, String>,
) -> Result<Outcome, String> {
    let n = p.rounds();
    let round_params = Params {
        seconds: p.seconds / n as f64,
        ..*p
    };
    let mut reference = cpu_bound.then(Reference::new);
    let mut setup_s = Vec::new();
    let mut rounds = Vec::new();
    let mut peak_rss = 0.0;
    for i in 0..n {
        let t0 = Instant::now();
        let inputs = setup()?;
        let secs = t0.elapsed().as_secs_f64();
        let scale = reference.as_mut().map_or(1.0, |r| NOMINAL_MS / r.time_ms());
        setup_s.push(secs * scale);
        rounds.push(phase(&inputs, &round_params)?);
        if i == 0 {
            peak_rss = peak_rss_mb();
        }
    }
    let best = |f: fn(&Round) -> f64, pick: fn(f64, f64) -> f64| {
        rounds
            .iter()
            .map(f)
            .reduce(pick)
            .expect("at least one round")
    };
    let pooled: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.pass_ms.iter().copied())
        .collect();
    let metrics = if p.trace {
        std::mem::take(&mut rounds[0].per_layer)
    } else {
        vec![
            ("setup_s", median(&setup_s)),
            ("throughput_qps", best(|r| r.throughput_qps, f64::max)),
            ("geomean_query_us", best(|r| r.geomean_query_us, f64::min)),
            ("pass_p95_ms", percentile(&pooled, 0.95)),
            ("peak_rss_mb", peak_rss),
        ]
    };
    Ok(Outcome {
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        metrics,
        summary: std::mem::replace(&mut rounds[0].summary, Value::Null),
    })
}

/// `VmHWM` of this process in MB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ------------------------------------------------------- closed-loop runner

/// Executes a mix entry once, checks the answer as `Mode` says (adding to
/// the counters in `Mode::Counters`) and returns the number of failed
/// operations.
pub type RunFn<'a> = Box<dyn FnMut(Mode, &mut Counters) -> u32 + 'a>;

/// One entry of a mix as the runner sees it.
pub struct Entry<'a> {
    pub id: &'static str,
    /// Span name of one block of executions (`<layer>.<call>`).
    pub span: &'static str,
    /// Queries one execution answers (a batch answers 16, a cold op 3).
    pub queries: u32,
    pub run: RunFn<'a>,
}

/// Everything the pass loop measured.
pub struct Measured {
    pub reps: u32,
    /// The reference scan's wall time after each pass, milliseconds.
    pub reference_ms: Vec<f64>,
    /// Untraced passes, milliseconds of reference time each.
    pub pass_ms: Vec<f64>,
    /// Traced passes (every second pass of a traced run).
    pub traced_pass_ms: Vec<f64>,
    /// Per entry, per untraced pass: microseconds of reference time per execution.
    pub entry_us: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Traced runs: per entry, the counters of one execution.
    pub counters: Vec<Counters>,
    /// Traced runs: what one execution of every entry allocated.
    pub alloc: AllocDelta,
    /// Traced runs: the spans of the traced passes.
    pub spans: Vec<Span>,
}

/// One client, closed loop: passes over the mix until `seconds` have gone
/// by, each entry executed `reps` times back to back per pass. A traced run
/// alternates traced and untraced passes, so the two pass times come from
/// the same process, minute and cache state. The reference scan runs after
/// every pass and scales that pass's times (see `reference.rs`).
pub fn measure(entries: &mut [Entry<'_>], reps: u32, p: &Params) -> Measured {
    let mut reference = Reference::new();
    let mut entry_raw_us = vec![0.0; entries.len()];
    let mut m = Measured {
        reps,
        reference_ms: Vec::new(),
        pass_ms: Vec::new(),
        traced_pass_ms: Vec::new(),
        entry_us: vec![Vec::new(); entries.len()],
        attempted: 0,
        failed: 0,
        counters: vec![Counters::default(); entries.len()],
        alloc: AllocDelta::default(),
        spans: Vec::new(),
    };
    if p.trace {
        let ((), alloc) = trace::counting(|| {
            for (entry, counters) in entries.iter_mut().zip(&mut m.counters) {
                m.failed += u64::from((entry.run)(Mode::Counters, counters));
                m.attempted += 1;
            }
        });
        m.alloc = alloc;
    }
    let budget = Duration::from_secs_f64(p.seconds);
    let start = Instant::now();
    let mut executions = 0u64;
    let mut scratch = Counters::default();
    let mut passes = 0usize;
    while passes < p.max_passes() && (passes < 3 || start.elapsed() < budget) {
        let traced = p.trace && passes % 2 == 1;
        trace::set_enabled(traced);
        let t_pass = Instant::now();
        trace::span("harness.pass", || {
            for (i, entry) in entries.iter_mut().enumerate() {
                trace::set_op(i as u32);
                let t_entry = Instant::now();
                trace::span(entry.span, || {
                    for _ in 0..reps {
                        let mode = if executions.is_multiple_of(64) {
                            Mode::Checksum
                        } else {
                            Mode::Count
                        };
                        executions += 1;
                        m.failed += u64::from((entry.run)(mode, &mut scratch));
                    }
                });
                entry_raw_us[i] = t_entry.elapsed().as_secs_f64() * 1e6 / f64::from(reps);
            }
        });
        let raw_ms = t_pass.elapsed().as_secs_f64() * 1e3;
        trace::set_enabled(false);
        let reference_ms = reference.time_ms();
        let scale = NOMINAL_MS / reference_ms;
        m.reference_ms.push(reference_ms);
        if traced {
            m.traced_pass_ms.push(raw_ms * scale);
        } else {
            m.pass_ms.push(raw_ms * scale);
            for (samples, raw) in m.entry_us.iter_mut().zip(&entry_raw_us) {
                samples.push(raw * scale);
            }
        }
        passes += 1;
    }
    m.attempted += executions;
    m.spans = trace::take();
    m
}

impl Measured {
    /// Queries per second of the median pass, in reference time.
    pub fn throughput_qps(&self, entries: &[Entry<'_>]) -> f64 {
        let per_pass: u32 = entries.iter().map(|e| e.queries).sum::<u32>() * self.reps;
        f64::from(per_pass) / (median(&self.pass_ms) / 1e3)
    }

    /// Geometric mean over the entries of each entry's median latency.
    pub fn geomean_query_us(&self) -> f64 {
        let entry_medians: Vec<f64> = self.entry_us.iter().map(|s| median(s)).collect();
        geomean(&entry_medians)
    }

    /// Pass-derived per-layer metrics of a traced run: tracing overhead,
    /// where the pass spent its time, the mix's counters and allocations.
    /// From outside `Session::parse_xml` is one span; its self time is split
    /// between `xml` and `accel` by the probes' parse : whole ratio.
    pub fn per_layer(&self, entries: &[Entry<'_>], probed: &Probed, out: &mut Metrics) {
        let untraced = median(&self.pass_ms);
        let traced = median(&self.traced_pass_ms);
        out.push(("trace.overhead_share", (traced - untraced) / untraced));
        out.push(("ref.scan_ms", median(&self.reference_ms)));
        out.push((
            "trace.spans_per_pass",
            self.spans.len() as f64 / self.traced_pass_ms.len() as f64,
        ));
        let mut layers = trace::layer_times(&self.spans);
        let total: u64 = layers.values().sum();
        let parse_xml = trace::self_times(&self.spans)
            .get("accel.parse_xml")
            .copied()
            .unwrap_or(0);
        let moved = (parse_xml as f64 * probed.parse_part) as u64;
        *layers.entry("accel").or_insert(0) -= moved;
        *layers.entry("xml").or_insert(0) += moved;
        for (name, layer) in [
            ("share.xml", "xml"),
            ("share.accel", "accel"),
            ("share.xpath_core", "xpath"),
            ("share.server", "server"),
            ("share.harness", "harness"),
        ] {
            let ns = layers.get(layer).copied().unwrap_or(0);
            out.push((name, ns as f64 / total as f64));
        }
        let mut sum = Counters::default();
        for c in &self.counters {
            sum.add(c);
        }
        let queries: u32 = entries.iter().map(|e| e.queries).sum();
        out.push(("core.touched", sum.touched as f64));
        out.push(("core.seeks", sum.seeks as f64));
        out.push(("core.duplicates", sum.duplicates as f64));
        out.push((
            "core.touched_per_result",
            sum.touched as f64 / (sum.results.max(1)) as f64,
        ));
        out.push(("xpath.replans", sum.replans as f64));
        out.push(("xpath.twig_steps", sum.twig_steps as f64));
        out.push((
            "alloc.count_per_query",
            self.alloc.count as f64 / f64::from(queries),
        ));
        out.push((
            "alloc.bytes_per_query",
            self.alloc.bytes as f64 / f64::from(queries),
        ));
        // The scan kernels' estimated part of a pass: the mix's touched
        // nodes priced at the plain scan's cost per node.
        let pass_ns = untraced * 1e6 / f64::from(self.reps);
        out.push((
            "core.kernel_share_est",
            sum.touched as f64 * probed.scan_ns_per_node / pass_ns,
        ));
    }

    /// Per-entry detail for the trace file.
    pub fn summary(&self, entries: &[Entry<'_>]) -> Value {
        let rows = entries
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let c = &self.counters[i];
                Value::obj([
                    ("id", Value::str(e.id)),
                    ("median_us", Value::Num(median(&self.entry_us[i]))),
                    ("p95_us", Value::Num(percentile(&self.entry_us[i], 0.95))),
                    ("samples", Value::Num(self.entry_us[i].len() as f64)),
                    ("reps", Value::Num(f64::from(self.reps))),
                    ("touched", Value::Num(c.touched as f64)),
                    ("seeks", Value::Num(c.seeks as f64)),
                    ("duplicates", Value::Num(c.duplicates as f64)),
                    ("results", Value::Num(c.results as f64)),
                    ("replans", Value::Num(c.replans as f64)),
                    ("twig_steps", Value::Num(c.twig_steps as f64)),
                ])
            })
            .collect();
        let layers = trace::layer_times(&self.spans)
            .into_iter()
            .map(|(k, ns)| (k, Value::Num(ns as f64 / 1e6)))
            .collect::<Vec<_>>();
        let selfs = trace::self_times(&self.spans)
            .into_iter()
            .map(|(k, ns)| (k, Value::Num(ns as f64 / 1e6)))
            .collect::<Vec<_>>();
        Value::obj([
            ("untraced_passes", Value::Num(self.pass_ms.len() as f64)),
            (
                "traced_passes",
                Value::Num(self.traced_pass_ms.len() as f64),
            ),
            ("pass_median_ms", Value::Num(median(&self.pass_ms))),
            (
                "reference_scan_median_ms",
                Value::Num(median(&self.reference_ms)),
            ),
            ("layer_self_ms", Value::obj(layers)),
            ("span_self_ms", Value::obj(selfs)),
            ("entries", Value::Arr(rows)),
        ])
    }
}
