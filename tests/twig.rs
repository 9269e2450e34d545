//! Worst-case-optimal twig matching, exercised end to end: the fused
//! `StepOp::Twig` leapfrog's `StepTrace` reports the *actual* leapfrog
//! seeks, plans do not drift, and cursors seek right at word and
//! fragment boundaries. (That `Engine::twig()` answers random branching
//! queries like every other engine is `tests/oracle.rs`, whose grammar
//! draws twig-shaped paths.)

use staircase_suite::prelude::*;

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

/// What one engine did for one query: its answer, the nodes it touched,
/// its cursor seeks, its peak intermediate (the largest per-step
/// result) and how many twig steps its plan fused.
#[derive(Debug, PartialEq)]
struct Counters {
    nodes: Vec<Pre>,
    touched: u64,
    seeks: u64,
    peak: usize,
    fused: usize,
}

fn counters(session: &Session, expr: &str, engine: Engine) -> Counters {
    let query = session.prepare(expr).unwrap();
    let fused = query
        .explain(engine)
        .branches()
        .iter()
        .flat_map(|b| b.steps())
        .filter(|s| matches!(s.operator(), StepOp::Twig(_)))
        .count();
    let out = query.run(engine);
    let stats = out.stats();
    Counters {
        nodes: out.nodes().iter().collect(),
        touched: stats.total_touched(),
        seeks: stats.total_seeks(),
        peak: stats.steps.iter().map(|s| s.result_size).max().unwrap_or(0),
        fused,
    }
}

/// The leapfrog's advantage, counted exactly. On the rare-under-common
/// skewed document, step-at-a-time (the fragment joins) materialises the
/// whole 1 000-node `a` frontier; the fused twig step — which `auto`
/// chooses there — answers the same node from a handful of touches. On
/// the uniform XMark document, where step-at-a-time is already near
/// optimal, `auto` declines fusion and does exactly what the fragment
/// joins do.
#[test]
fn the_leapfrog_touches_what_the_skew_plants_and_auto_declines_it_on_uniform_data() {
    let fragmented = Engine::staircase().fragmented(true).build().unwrap();

    let skewed = Session::new(generate_skewed(SkewConfig::new(0.5, 1.2).with_seed(0x5EED)));
    skewed.warm();
    for (expr, fused_touched) in [
        (
            "/descendant::a[descendant::b]/descendant::c[descendant::d]",
            9,
        ),
        ("/descendant::a[child::b]/descendant::c[child::d]", 7),
    ] {
        let step = counters(&skewed, expr, fragmented);
        assert_eq!(
            step.nodes.len(),
            1,
            "{expr}: the generator plants one match"
        );
        assert_eq!(
            (step.touched, step.seeks, step.peak, step.fused),
            (1005, 6, 1000, 0),
            "{expr}: step-at-a-time"
        );
        for engine in [Engine::twig(), Engine::auto()] {
            let fused = counters(&skewed, expr, engine);
            assert_eq!(fused.nodes, step.nodes, "{expr} via {engine:?}");
            assert_eq!(
                (fused.touched, fused.seeks, fused.peak, fused.fused),
                (fused_touched, 14, 1, 1),
                "{expr} via {engine:?}"
            );
        }
    }

    let uniform = Session::new(generate(XmarkConfig::new(0.5)));
    uniform.warm();
    for (expr, touched, seeks) in [
        (
            "/descendant::open_auction[descendant::bidder]/descendant::increase",
            347,
            47,
        ),
        (
            "/descendant::person[child::profile]/descendant::education",
            93,
            30,
        ),
    ] {
        let step = counters(&uniform, expr, fragmented);
        assert_eq!((step.touched, step.seeks), (touched, seeks), "{expr}");
        assert_eq!(counters(&uniform, expr, Engine::auto()), step, "{expr}");
        assert_eq!(
            counters(&uniform, expr, Engine::twig()).nodes,
            step.nodes,
            "{expr} via twig"
        );
    }
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
