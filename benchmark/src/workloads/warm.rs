//! The four workloads that query warm sessions in process: `point_warm`,
//! `scan_warm`, `skew_warm` (prepared queries, one at a time) and
//! `batch_pool` (`Session::run_many`).

use staircase_xpath::{Engine, Query, Session};

use super::mixes::{
    DocSpec, Eng, QuerySpec, BATCH, BATCH_REPS, POINT, POINT_REPS, SCAN, SCAN_REPS, SKEW,
    SKEW_DOCS, SKEW_REPS, TWIN_FACTOR, XMARK10,
};
use super::{measure, run_rounds, Entry, Metrics, Outcome, Params, Round};
use crate::check::{oracle, verify, Counters, Expected, Mode};
use crate::json::Value;
use crate::probes;
use crate::trace;

pub enum Mix {
    /// Prepared queries run one at a time.
    Queries(&'static [QuerySpec]),
    /// All queries as one `run_many` batch, once under `auto` and once
    /// under the plain staircase join.
    Batch(&'static [&'static str]),
}

pub struct WarmSpec {
    pub docs: &'static [DocSpec],
    pub mix: Mix,
    pub reps: u32,
}

pub const POINT_WARM: WarmSpec = WarmSpec {
    docs: &[XMARK10],
    mix: Mix::Queries(&POINT),
    reps: POINT_REPS,
};

pub const SCAN_WARM: WarmSpec = WarmSpec {
    docs: &[XMARK10],
    mix: Mix::Queries(&SCAN),
    reps: SCAN_REPS,
};

pub const SKEW_WARM: WarmSpec = WarmSpec {
    docs: &SKEW_DOCS,
    mix: Mix::Queries(&SKEW),
    reps: SKEW_REPS,
};

pub const BATCH_POOL: WarmSpec = WarmSpec {
    docs: &[XMARK10],
    mix: Mix::Batch(&BATCH),
    reps: BATCH_REPS,
};

/// (document index, text, engine) of every query the mix asks.
fn mix_queries(mix: &Mix) -> Vec<(usize, &'static str, Engine)> {
    match mix {
        Mix::Queries(specs) => specs
            .iter()
            .map(|s| (s.doc, s.expr, s.eng.engine()))
            .collect(),
        Mix::Batch(exprs) => exprs.iter().map(|e| (0, *e, Engine::auto())).collect(),
    }
}

/// What set-up leaves behind: warm sessions and the expected answers.
struct Inputs {
    sessions: Vec<Session>,
    /// Per query of `mix_queries`: what the plain staircase join returned.
    expected: Vec<Expected>,
    oracle_attempted: u64,
    oracle_failed: u64,
}

/// Set-up as the user of a warm session sees it: generates the documents,
/// builds and warms the sessions, checks every mix entry against the naive
/// engine on a twin a twentieth the size, records the expected answers at
/// full scale, and executes every entry once so that caches are full and
/// lazy work is done.
fn setup(spec: &WarmSpec, p: &Params) -> Inputs {
    let queries = mix_queries(&spec.mix);
    let sessions: Vec<Session> = spec
        .docs
        .iter()
        .map(|d| {
            let s = Session::new(d.generate(p.seed, p.factor())).with_threads(1);
            s.warm();
            s
        })
        .collect();
    let mut oracle_failed = 0;
    for (i, d) in spec.docs.iter().enumerate() {
        let twin = Session::new(d.generate(p.seed, TWIN_FACTOR)).with_threads(1);
        for (_, expr, engine) in queries.iter().filter(|(doc, ..)| *doc == i) {
            oracle_failed += u64::from(oracle(&twin, expr, *engine));
        }
    }
    let expected = queries
        .iter()
        .map(|(doc, expr, _)| {
            let query = sessions[*doc]
                .prepare(expr)
                .expect("mix queries are fixed texts that parse");
            Expected::of(&query.run(Engine::default()))
        })
        .collect();
    let inputs = Inputs {
        sessions,
        expected,
        oracle_attempted: queries.len() as u64,
        oracle_failed,
    };
    let prepared = prepare_all(&inputs, &spec.mix);
    for entry in &mut make_entries(&inputs, &prepared, &spec.mix) {
        (entry.run)(Mode::Count, &mut Counters::default());
    }
    drop(prepared);
    inputs
}

fn prepare_all<'s>(inputs: &'s Inputs, mix: &Mix) -> Vec<Query<'s>> {
    mix_queries(mix)
        .iter()
        .map(|(doc, expr, _)| {
            inputs.sessions[*doc]
                .prepare(expr)
                .expect("mix queries are fixed texts that parse")
        })
        .collect()
}

fn make_entries<'a>(inputs: &'a Inputs, queries: &'a [Query<'a>], mix: &Mix) -> Vec<Entry<'a>> {
    match mix {
        Mix::Queries(specs) => specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let (query, expected, engine) =
                    (&queries[i], inputs.expected[i], spec.eng.engine());
                Entry {
                    id: spec.id,
                    span: "xpath.run",
                    queries: 1,
                    run: Box::new(move |mode, counters| {
                        verify(&query.run(engine), &expected, mode, counters)
                    }),
                }
            })
            .collect(),
        Mix::Batch(_) => [("batch.auto", Eng::Auto), ("batch.plain", Eng::Plain)]
            .into_iter()
            .map(|(id, eng)| {
                let batch: Vec<&Query<'a>> = queries.iter().collect();
                let session = &inputs.sessions[0];
                Entry {
                    id,
                    span: "xpath.run_many",
                    queries: batch.len() as u32,
                    run: Box::new(move |mode, counters: &mut Counters| {
                        session
                            .run_many(&batch, eng.engine())
                            .iter()
                            .zip(&inputs.expected)
                            .map(|(out, exp)| verify(out, exp, mode, counters))
                            .sum()
                    }),
                }
            })
            .collect(),
    }
}

pub fn run(spec: &WarmSpec, p: &Params) -> Result<Outcome, String> {
    run_rounds(
        p,
        true,
        || Ok(setup(spec, p)),
        |inputs, round| Ok(measured_phase(spec, round, inputs)),
    )
}

fn measured_phase(spec: &WarmSpec, p: &Params, inputs: &Inputs) -> Round {
    let queries = prepare_all(inputs, &spec.mix);
    let mut entries = make_entries(inputs, &queries, &spec.mix);
    // The measured query objects have plan caches of their own: fill them.
    let mut warm_failed = 0u64;
    for entry in &mut entries {
        warm_failed += u64::from((entry.run)(Mode::Checksum, &mut Counters::default()));
    }
    let m = measure(&mut entries, spec.reps, p);
    let mut round = Round {
        attempted: m.attempted + inputs.oracle_attempted + entries.len() as u64,
        failed: m.failed + inputs.oracle_failed + warm_failed,
        throughput_qps: m.throughput_qps(&entries),
        geomean_query_us: m.geomean_query_us(),
        pass_ms: m.pass_ms.clone(),
        per_layer: Vec::new(),
        summary: Value::Null,
    };
    if p.trace {
        let metrics = &mut round.per_layer;
        let exprs: Vec<(&str, Engine)> = mix_queries(&spec.mix)
            .iter()
            .filter(|(doc, ..)| *doc == 0)
            .map(|(_, e, eng)| (*e, *eng))
            .collect();
        let probed = probes::run(spec.docs[0], p, &inputs.sessions[0], &exprs, metrics);
        m.per_layer(&entries, &probed, metrics);
        if let Mix::Batch(_) = spec.mix {
            batch_metrics(inputs, &queries, spec, p, &m.counters, metrics);
        }
        round.summary = m.summary(&entries);
        trace::collect(m.spans);
    }
    round
}

/// `batch_pool` only: what sharing passes and the worker pool buy.
fn batch_metrics(
    inputs: &Inputs,
    queries: &[Query<'_>],
    spec: &WarmSpec,
    p: &Params,
    batch_counters: &[Counters],
    out: &mut Metrics,
) {
    let rounds = if p.check { 3 } else { 15 };
    let auto: Vec<&Query<'_>> = queries.iter().collect();
    let session = &inputs.sessions[0];
    let looped = probes::time(rounds, || {
        for q in &auto {
            std::hint::black_box(q.run(Engine::auto()));
        }
    });
    let batched = probes::time(rounds, || session.run_many(&auto, Engine::auto()));
    out.push(("xpath.batch_speedup", looped / batched));

    let mut individual = Counters::default();
    for q in &auto {
        individual.record(&q.run(Engine::auto()));
    }
    out.push((
        "xpath.batch_share_ratio",
        batch_counters[0].touched as f64 / individual.touched.max(1) as f64,
    ));

    // The same batch on a two-thread session over the same document. The
    // measured session is sequential because a second core is not reliably
    // there on the machines this runs on; the pool is priced here instead.
    let wide = Session::new(spec.docs[0].generate(p.seed, p.factor())).with_threads(2);
    wide.warm();
    let wide_queries: Vec<Query<'_>> = auto
        .iter()
        .map(|q| wide.prepare(q.text()).expect("already parsed once"))
        .collect();
    let wide_refs: Vec<&Query<'_>> = wide_queries.iter().collect();
    std::hint::black_box(wide.run_many(&wide_refs, Engine::auto()));
    let two_threads = probes::time(rounds, || wide.run_many(&wide_refs, Engine::auto()));
    out.push(("core.pool_speedup", batched / two_threads));
}
