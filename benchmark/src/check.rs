//! Answer checking: every measured execution is compared with what the
//! paper's plain staircase join returned for the same query in set-up, and
//! in set-up every mix entry is compared node-for-node with the naive
//! engine on a small twin of the document. A mismatch is a failed
//! operation, never a panic.

use staircase_xpath::{Engine, QueryOutput, Session};

use crate::stats::fnv1a;

/// What a query must return: its result count and FNV-1a over the pre ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub count: usize,
    pub sum: u64,
}

impl Expected {
    pub fn of(out: &QueryOutput) -> Expected {
        Expected {
            count: out.len(),
            sum: fnv1a(out.iter()),
        }
    }
}

/// How much of an answer one execution checks. The count is compared every
/// time; the checksum walks the whole result, so the runner asks for it on
/// every 64th execution only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Count,
    Checksum,
    /// Checksum, and add the execution's counters to the caller's totals.
    Counters,
}

/// Deterministic work counters of one or more executions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub touched: u64,
    pub seeks: u64,
    pub duplicates: u64,
    pub results: u64,
    pub replans: u64,
    pub twig_steps: u64,
}

impl Counters {
    pub fn add(&mut self, other: &Counters) {
        self.touched += other.touched;
        self.seeks += other.seeks;
        self.duplicates += other.duplicates;
        self.results += other.results;
        self.replans += other.replans;
        self.twig_steps += other.twig_steps;
    }

    /// Adds one answer's work counters.
    pub fn record(&mut self, out: &QueryOutput) {
        let stats = out.stats();
        self.touched += stats.total_touched();
        self.seeks += stats.total_seeks();
        self.duplicates += stats.total_duplicates();
        self.results += out.len() as u64;
        self.replans += stats.steps.iter().filter(|s| s.replanned).count() as u64;
        self.twig_steps += stats
            .steps
            .iter()
            .filter(|s| s.op.starts_with("twig"))
            .count() as u64;
    }
}

/// Compares one answer with what is expected; returns the number of failed
/// operations (0 or 1).
pub fn verify(out: &QueryOutput, expected: &Expected, mode: Mode, counters: &mut Counters) -> u32 {
    if mode == Mode::Counters {
        counters.record(out);
    }
    let ok =
        out.len() == expected.count && (mode == Mode::Count || fnv1a(out.iter()) == expected.sum);
    u32::from(!ok)
}

/// Runs `expr` on the twin session under `engine`, under the plain
/// staircase join (the reference for full-scale answers) and under the
/// naive engine, and compares node for node; returns failed operations
/// (0 or 1).
pub fn oracle(twin: &Session, expr: &str, engine: Engine) -> u32 {
    let Ok(query) = twin.prepare(expr) else {
        return 1;
    };
    let want = query.run(Engine::naive());
    let same = |e: Engine| query.run(e).iter().eq(want.iter());
    u32::from(!(same(engine) && same(Engine::default())))
}
