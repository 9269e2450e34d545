//! Seeded text-mutation fuzzing of XPath text (offline, vendored `rand`
//! only). Queries drawn from the oracle's grammar are mutated with
//! brackets, axes, node tests and literals; every input must end in a
//! plan from `Session::explain` on every engine, or in a typed
//! `Error::Parse` on every engine — never a panic — and parsing and
//! planning it must hold at most a fixed multiple of its length.

#[path = "../crates/accel/tests/common/mod.rs"]
mod common;

use common::{counting, CountingAlloc};
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};
use staircase_suite::oracle::{self, Rng, Shape, ENGINES};
use staircase_suite::prelude::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const MUTATIONS: usize = 1_000;

/// Pieces of XPath worth splicing in: delimiters, axes, node tests,
/// literals, and characters the grammar has no use for.
const TOKENS: &[&str] = &[
    "[",
    "]",
    "(",
    ")",
    "/",
    "//",
    "::",
    ":",
    "@",
    "*",
    ".",
    "..",
    "|",
    " ",
    "'",
    "\"",
    "'t'",
    "\"x\"",
    "child::",
    "descendant::",
    "ancestor-or-self::",
    "following-sibling::",
    "self::",
    "attribute::",
    "parent::",
    "preceding::",
    "namespace::",
    "node()",
    "text()",
    "comment()",
    "processing-instruction(",
    "processing-instruction('t')",
    "[1]",
    "[a]",
    "[[",
    "]]",
    "0",
    "-",
    "=",
    "$",
    "é",
    "日",
    "a",
    "zzz",
    "\u{0}",
];

/// A random char boundary of `s` (its end included).
fn boundary(rng: &mut SmallRng, s: &str) -> usize {
    let mut at = rng.gen_range(0..s.len() + 1);
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

fn mutate(rng: &mut SmallRng, text: &mut String) {
    let at = boundary(rng, text);
    match rng.gen_range(0..4u32) {
        // Delete the rest of a token's worth.
        0 => {
            let mut to = (at + rng.gen_range(0..6usize)).min(text.len());
            while !text.is_char_boundary(to) {
                to -= 1;
            }
            text.replace_range(at..to, "");
        }
        // Insert a token.
        1 | 2 => text.insert_str(at, TOKENS[rng.gen_range(0..TOKENS.len())]),
        // Repeat a span: nesting and long chains.
        _ => {
            let from = boundary(rng, text).min(at);
            let piece = text[from..at].repeat(rng.gen_range(1..4usize));
            text.insert_str(at, &piece);
        }
    }
}

/// The mutated inputs, the same on every run: one to three stacked
/// mutations of a drawn query each.
fn inputs() -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(0x0058_5041_5448);
    (0..MUTATIONS as u64)
        .map(|seed| {
            let mut text = oracle::query(&mut Rng::new(seed));
            for _ in 0..rng.gen_range(1..4u32) {
                mutate(&mut rng, &mut text);
            }
            text
        })
        .collect()
}

#[test]
fn mutated_queries_plan_on_every_engine_or_fail_to_parse() {
    let session = Session::parse_xml(&oracle::document(Shape::Tree, 1, 80)).unwrap();
    let mut refused = 0;
    for text in inputs() {
        let first = session.explain(&text, ENGINES[0]);
        for &engine in ENGINES.iter() {
            match (session.explain(&text, engine), &first) {
                (Ok(plan), Ok(_)) => assert!(plan.step_count() > 0, "{text:?} via {engine:?}"),
                (Err(Error::Parse(e)), Err(Error::Parse(f))) => assert_eq!(e, *f, "{text:?}"),
                (got, first) => panic!("{text:?} via {engine:?}: {got:?}, first {first:?}"),
            }
        }
        refused += usize::from(first.is_err());
    }
    // The loop has teeth both ways: most mutations are refused, and
    // hundreds still plan.
    assert!(refused > MUTATIONS / 3, "{refused} refused");
    assert!(MUTATIONS - refused > MUTATIONS / 10, "{refused} refused");
}

#[test]
fn parsing_and_planning_hold_a_fixed_multiple_of_the_text() {
    let session = Session::parse_xml(&oracle::document(Shape::Tree, 1, 80)).unwrap();
    session.doc_stats();
    for text in inputs() {
        let (_, counts) = counting(|| session.explain(&text, Engine::auto()));
        assert!(
            counts.peak <= 96 * text.len() as u64 + 8_192,
            "{} bytes held planning {} bytes: {text:?}",
            counts.peak,
            text.len()
        );
    }
}
