//! `ingest_cold`: from bytes to first answers on a brand-new session.
//!
//! Two operations per pass, each starting from nothing but bytes in memory:
//! XML text → session → the three first queries → every result rendered;
//! the same from `.scj` bytes. The session is new every time, so the tag
//! index is lazy, there are no document statistics and no plan cache: this
//! is the write side of the index layer that the warm workloads only read.

use staircase_server::render_line;
use staircase_xpath::{Engine, Session};

use super::mixes::{COLD, COLD_REPS, TWIN_FACTOR, XMARK10};
use super::{measure, run_rounds, Entry, Outcome, Params, Round};
use crate::check::{oracle, verify, Counters, Expected, Mode};
use crate::json::Value;
use crate::probes;
use crate::trace;

struct Inputs {
    xml: String,
    scj: Vec<u8>,
    expected: Vec<Expected>,
    oracle_failed: u64,
}

fn setup(p: &Params) -> Inputs {
    let xml = XMARK10.generate_xml(p.seed, p.factor());
    let session = Session::parse_xml(&xml).expect("generated XML parses");
    let scj = session.doc().to_bytes().to_vec();
    let twin = Session::new(XMARK10.generate(p.seed, TWIN_FACTOR)).with_threads(1);
    let oracle_failed = COLD
        .iter()
        .map(|q| u64::from(oracle(&twin, q.expr, q.eng.engine())))
        .sum();
    let expected = COLD
        .iter()
        .map(|q| {
            let query = session.prepare(q.expr).expect("fixed query text parses");
            Expected::of(&query.run(Engine::default()))
        })
        .collect();
    Inputs {
        xml,
        scj,
        expected,
        oracle_failed,
    }
}

/// The three first queries on a cold session, every result rendered the way
/// `xq` prints it. Returns failed operations.
fn answer(session: &Session, inputs: &Inputs, mode: Mode, counters: &mut Counters) -> u32 {
    let mut failed = 0;
    for (spec, expected) in COLD.iter().zip(&inputs.expected) {
        let Ok(query) = trace::span("xpath.prepare", || session.prepare(spec.expr)) else {
            failed += 1;
            continue;
        };
        let out = trace::span("xpath.run", || query.run(spec.eng.engine()));
        // A cold answer is produced once, so it is always fully checked.
        let mode = if mode == Mode::Counters {
            mode
        } else {
            Mode::Checksum
        };
        failed += verify(&out, expected, mode, counters);
        let printed: usize = trace::span("server.render", || {
            out.iter()
                .map(|v| render_line(session.doc(), v).len())
                .sum()
        });
        std::hint::black_box(printed);
    }
    failed
}

fn entries(inputs: &Inputs) -> Vec<Entry<'_>> {
    vec![
        Entry {
            id: "cold.xml_answer",
            span: "harness.op",
            queries: COLD.len() as u32,
            run: Box::new(move |mode, counters| {
                match trace::span("accel.parse_xml", || Session::parse_xml(&inputs.xml)) {
                    Ok(session) => answer(&session, inputs, mode, counters),
                    Err(_) => COLD.len() as u32,
                }
            }),
        },
        Entry {
            id: "cold.scj_answer",
            span: "harness.op",
            queries: COLD.len() as u32,
            run: Box::new(move |mode, counters| {
                match trace::span("accel.from_bytes", || {
                    Session::from_encoded_bytes(&inputs.scj)
                }) {
                    Ok(session) => answer(&session, inputs, mode, counters),
                    Err(_) => COLD.len() as u32,
                }
            }),
        },
    ]
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    run_rounds(
        p,
        true,
        || Ok(setup(p)),
        |inputs, round| Ok(measured_phase(round, inputs)),
    )
}

fn measured_phase(p: &Params, inputs: &Inputs) -> Round {
    let mut entries = entries(inputs);
    let m = measure(&mut entries, COLD_REPS, p);
    let mut round = Round {
        attempted: m.attempted + COLD.len() as u64,
        failed: m.failed + inputs.oracle_failed,
        throughput_qps: m.throughput_qps(&entries),
        geomean_query_us: m.geomean_query_us(),
        pass_ms: m.pass_ms.clone(),
        per_layer: Vec::new(),
        summary: Value::Null,
    };
    if p.trace {
        let metrics = &mut round.per_layer;
        // The lazy path: the index state three cold queries leave behind.
        let session = Session::parse_xml(&inputs.xml).expect("generated XML parses");
        answer(&session, inputs, Mode::Count, &mut Counters::default());
        let exprs: Vec<(&str, Engine)> = COLD.iter().map(|q| (q.expr, q.eng.engine())).collect();
        let probed = probes::run(XMARK10, p, &session, &exprs, metrics);
        m.per_layer(&entries, &probed, metrics);
        round.summary = m.summary(&entries);
        trace::collect(m.spans);
    }
    round
}
