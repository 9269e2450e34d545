//! Worst-case-optimal twig matching, exercised end to end: the fused
//! `StepOp::Twig` leapfrog must answer node- and order-identically to
//! every fixed step-at-a-time engine — on random documents and random
//! branching queries, and through `Session::run_many` — while its
//! `StepTrace` reports the *actual* leapfrog seeks. Plus cursor unit tests at word and fragment boundaries.

use proptest::prelude::*;
use staircase_suite::prelude::*;

/// The fixed step-at-a-time engines the twig plans are checked against.
fn fixed_engines() -> Vec<Engine> {
    vec![
        Engine::staircase().variant(Variant::Basic).build().unwrap(),
        Engine::staircase()
            .variant(Variant::EstimationSkipping)
            .build()
            .unwrap(),
        Engine::staircase().pushdown(true).build().unwrap(),
        Engine::staircase().fragmented(true).build().unwrap(),
        Engine::naive(),
        Engine::sql().eq1_window(true).build().unwrap(),
    ]
}

/// An arbitrary small document over the `p`/`q`/`r`/`rare` vocabulary —
/// the same shape family as the batch tests, so twig regions see deep
/// nesting, repeated tags, and empty fragments alike.
fn arb_doc() -> impl Strategy<Value = Doc> {
    proptest::collection::vec(0u8..6, 1..220).prop_map(|ops| {
        let tags = ["p", "q", "r"];
        let mut b = EncodingBuilder::new();
        b.open_element("root");
        let mut depth = 1;
        let mut rares = 0;
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                0 | 3 => {
                    b.open_element(tags[i % tags.len()]);
                    depth += 1;
                }
                1 if depth > 1 => {
                    b.close_element();
                    depth -= 1;
                }
                5 if rares < 3 && i % 17 == 5 => {
                    b.open_element("rare");
                    b.close_element();
                    rares += 1;
                }
                _ => {
                    b.comment("c");
                }
            }
        }
        while depth > 0 {
            b.close_element();
            depth -= 1;
        }
        b.finish()
    })
}

/// An arbitrary *branching* query whose head is twig-eligible — vertical
/// steps with vertical existential predicates — optionally followed by
/// an ineligible tail (ancestor step, nested predicate), so plans mix
/// fused twig regions with ordinary steps.
fn arb_twig_query() -> impl Strategy<Value = String> {
    const NAMES: [&str; 4] = ["p", "q", "r", "rare"];
    const EDGES: [&str; 3] = ["descendant", "descendant", "child"];
    const PREDS: [&str; 6] = [
        "",
        "",
        "[descendant::p]",
        "[child::q]",
        "[descendant::q/child::r]",
        "[p][descendant::r]",
    ];
    const TAILS: [&str; 4] = ["", "", "/ancestor::p", "/descendant::q[r/p]"];
    proptest::collection::vec(0usize..60, 3..9).prop_map(|picks| {
        let mut out = format!(
            "/descendant::{}{}",
            NAMES[picks[0] % NAMES.len()],
            PREDS[picks[1] % PREDS.len()]
        );
        for pair in picks[2..picks.len() - 1].chunks(2) {
            let pred = pair.get(1).copied().unwrap_or(0);
            out.push('/');
            out.push_str(EDGES[pair[0] % EDGES.len()]);
            out.push_str("::");
            out.push_str(NAMES[(pair[0] / EDGES.len()) % NAMES.len()]);
            out.push_str(PREDS[pred % PREDS.len()]);
        }
        out.push_str(TAILS[picks[picks.len() - 1] % TAILS.len()]);
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance property: `Engine::twig()` and `Engine::auto()`
    /// answer node- and order-identically to every fixed engine on
    /// random documents and random branching queries — one query at a
    /// time, and through `run_many`.
    #[test]
    fn twig_matches_every_fixed_engine(
        (doc, exprs) in (arb_doc(), proptest::collection::vec(arb_twig_query(), 1..5))
    ) {
        let session = Session::new(doc);
        let reference_engine = fixed_engines()[0];
        let queries: Vec<Query> = exprs
            .iter()
            .map(|e| session.prepare(e).unwrap_or_else(|err| panic!("{e:?} must parse: {err}")))
            .collect();
        let reference: Vec<QueryOutput> =
            queries.iter().map(|q| q.run(reference_engine)).collect();
        // Fixed engines agree among themselves (the existing invariant
        // twig must join).
        for engine in &fixed_engines()[1..] {
            for ((e, q), r) in exprs.iter().zip(&queries).zip(&reference) {
                prop_assert_eq!(q.run(*engine).nodes(), r.nodes(), "{} via {:?}", e, engine);
            }
        }
        for engine in [Engine::twig(), Engine::auto()] {
            for ((e, q), r) in exprs.iter().zip(&queries).zip(&reference) {
                prop_assert_eq!(q.run(engine).nodes(), r.nodes(), "{} via {:?}", e, engine);
            }
            // The lane executor path: run_many over the whole batch.
            let refs: Vec<&Query> = queries.iter().collect();
            let batch = session.run_many(&refs, engine);
            for ((e, b), r) in exprs.iter().zip(&batch).zip(&reference) {
                prop_assert_eq!(b.nodes(), r.nodes(), "run_many {} via {:?}", e, engine);
            }
        }
    }
}

/// A fused query's trace reports the leapfrog's *actual* work: the twig
/// step carries non-zero seeks — as do step-at-a-time fragment joins,
/// one per partition; only the plain plane scan carries none — and the
/// fused plan materializes a strictly smaller peak intermediate.
#[test]
fn fused_step_reports_real_seeks() {
    let session = Session::new(generate_skewed(SkewConfig::new(0.5, 1.2)));
    let expr = "/descendant::a[descendant::b]/descendant::c[descendant::d]";
    let plan = session.explain(expr, Engine::twig()).unwrap();
    let fused: Vec<_> = plan.branches()[0]
        .steps()
        .iter()
        .filter(|s| matches!(s.operator(), StepOp::Twig(_)))
        .collect();
    assert_eq!(fused.len(), 1, "the whole path fuses into one twig step");

    let query = session.prepare(expr).unwrap();
    let twig = query.run(Engine::twig());
    let step = query.run(Engine::staircase().fragmented(true).build().unwrap());
    assert_eq!(twig.nodes(), step.nodes());
    assert!(!twig.is_empty(), "the skewed generator plants matches");
    assert!(
        twig.stats().total_seeks() > 0,
        "leapfrog must report its seeks"
    );
    assert_eq!(
        twig.stats().steps.len(),
        1,
        "one fused step, one trace entry"
    );
    assert!(
        step.stats().total_seeks() > 0,
        "fragment joins gallop their list cursor: one seek per partition"
    );
    assert_eq!(
        query.run(Engine::default()).stats().total_seeks(),
        0,
        "scans do not seek"
    );
    let twig_peak = twig.stats().steps.iter().map(|s| s.result_size).max();
    let step_peak = step.stats().steps.iter().map(|s| s.result_size).max();
    assert!(
        twig_peak < step_peak,
        "fusion must shrink the peak intermediate: {twig_peak:?} vs {step_peak:?}"
    );
}

/// A plan depends only on the document, the normalised expression and
/// the engine: executed twig steps leave nothing behind that prices a
/// later plan. On the skewed workload the twig operator exists for,
/// `Engine::auto`'s EXPLAIN — estimated costs included — renders the
/// same before and after the query ran under `twig` and `auto`, and a
/// freshly prepared query plans exactly like the first one.
#[test]
fn plans_do_not_drift_with_the_queries_a_session_ran() {
    let session = Session::new(generate_skewed(SkewConfig::new(0.5, 1.2)));
    let expr = "/descendant::a[descendant::b]/descendant::c[descendant::d]";
    let before = session.explain(expr, Engine::auto()).unwrap();
    let fused = before.branches()[0]
        .steps()
        .iter()
        .filter(|s| matches!(s.operator(), StepOp::Twig(_)))
        .count();
    assert!(fused >= 1, "auto must fuse on the skewed workload");
    let before = before.to_string();

    let query = session.prepare(expr).unwrap();
    let first = query.explain(Engine::auto()).to_string();
    let reference = query.run(Engine::twig());
    for engine in [Engine::twig(), Engine::auto()] {
        for _ in 0..8 {
            assert_eq!(query.run(engine).nodes(), reference.nodes(), "{engine:?}");
        }
    }

    let after = session.explain(expr, Engine::auto()).unwrap().to_string();
    assert_eq!(after, before, "auto's plan drifted with the queries run");
    let fresh = session.prepare(expr).unwrap();
    assert_eq!(fresh.explain(Engine::auto()).to_string(), first);
    assert_eq!(fresh.run(Engine::auto()).nodes(), reference.nodes());
}

/// Tags absent from the document give empty fragments; the leapfrog
/// must return empty (not panic, not mis-seek) whichever leg is empty.
#[test]
fn empty_fragments_are_handled_at_every_leg() {
    let session = Session::parse_xml("<root><a><b/></a><a/></root>").unwrap();
    for expr in [
        "/descendant::zzz[descendant::b]/descendant::a",
        "/descendant::a[descendant::zzz]/descendant::b",
        "/descendant::a[descendant::b]/descendant::zzz",
    ] {
        let query = session.prepare(expr).unwrap();
        assert!(query.run(Engine::twig()).is_empty(), "{expr} must be empty");
        assert_eq!(
            query.run(Engine::twig()).nodes(),
            query.run(Engine::default()).nodes(),
            "{expr}"
        );
    }
}

/// Builds a flat document of `blocks` repeated `<a><b/></a>` blocks with
/// one trailing `<a><c/></a>`, so every per-tag fragment's length is
/// exactly `blocks` and the interesting match sits on the final entry.
fn flat_doc(blocks: usize) -> Doc {
    let mut b = EncodingBuilder::new();
    b.open_element("root");
    for _ in 0..blocks {
        b.open_element("a");
        b.open_element("b");
        b.close_element();
        b.close_element();
    }
    b.open_element("a");
    b.open_element("c");
    b.close_element();
    b.close_element();
    b.close_element();
    b.finish()
}

/// Cursor seeks at word boundaries: fragment lengths straddling the
/// 64-element mark (63/64/65) — where any word-granular bitmap or
/// galloping window math is most likely to be off by one — must not
/// change what matches, including the match planted on the fragment's
/// last entry.
#[test]
fn cursor_seeks_across_word_boundary_fragments() {
    for blocks in [1, 2, 63, 64, 65, 127, 128] {
        let doc = flat_doc(blocks);
        let tags = TagIndex::build(&doc);
        let a = tags.fragment_by_name(&doc, "a");
        let c = tags.fragment_by_name(&doc, "c");
        assert_eq!(a.len(), blocks + 1);
        assert_eq!(c.len(), 1);

        // Spine a > c: only the last `a` block qualifies.
        let spine = [
            SpineLeg {
                edge: TwigEdge::Descendant,
                list: a,
                chains: vec![],
            },
            SpineLeg {
                edge: TwigEdge::Child,
                list: c,
                chains: vec![],
            },
        ];
        let (out, stats) = twig_match(&doc, &spine, &Context::singleton(0));
        assert_eq!(out.len(), 1, "{blocks} blocks: one c matches");
        assert_eq!(out.iter().next(), Some(c[0]), "{blocks} blocks");
        assert!(stats.seeks > 0, "{blocks} blocks: cursor must seek");

        // Chain [b] on the spine leg: all but the last `a` qualify —
        // the chain cursor runs to the very end of its fragment.
        let b = tags.fragment_by_name(&doc, "b");
        assert_eq!(b.len(), blocks);
        let spine = [SpineLeg {
            edge: TwigEdge::Descendant,
            list: a,
            chains: vec![vec![ChainStep {
                edge: TwigEdge::Child,
                list: b,
            }]],
        }];
        let (out, _) = twig_match(&doc, &spine, &Context::singleton(0));
        assert_eq!(out.len(), blocks, "{blocks} blocks: every a[b] matches");
    }
}

/// Fragment-boundary seeks under the session API: results planted at
/// the first and last positions of their fragments survive fusion at
/// sizes around the word boundary, identically to step-at-a-time.
#[test]
fn boundary_matches_survive_fusion() {
    for blocks in [63, 64, 65] {
        let session = Session::new(flat_doc(blocks));
        for expr in [
            "/descendant::a[child::b]/descendant::b",
            "/descendant::a/child::c",
            "/descendant::a[child::c]/child::c",
        ] {
            let query = session.prepare(expr).unwrap();
            assert_eq!(
                query.run(Engine::twig()).nodes(),
                query.run(Engine::default()).nodes(),
                "{expr} with {blocks} blocks"
            );
        }
    }
}
