//! The session façade, exercised end to end: the session builds its
//! auxiliary structures at most once however many queries it serves,
//! explains and runs its plans as documented, and fails typed. (That every
//! engine answers arbitrary documents and queries alike — alone and
//! batched, from XML and `.scj` — is `tests/oracle.rs`.)

use staircase_suite::oracle::ENGINES;
use staircase_suite::prelude::*;

/// The tag index and the SQL engine, each built once.
const BOTH_ONCE: AuxBuilds = AuxBuilds {
    tag_index: 1,
    sql_engine: 1,
};

#[test]
fn auxiliary_structures_build_at_most_once() {
    let session = Session::new(generate(XmarkConfig::new(0.05)));
    assert_eq!(
        session.aux_builds(),
        AuxBuilds::default(),
        "nothing built up front"
    );

    let fragmented = Engine::staircase().fragmented(true).build().unwrap();
    let sql = Engine::sql()
        .eq1_window(true)
        .early_nametest(true)
        .build()
        .unwrap();
    let queries: Vec<Query> = [
        "/descendant::profile/descendant::education",
        "/descendant::increase/ancestor::bidder",
        "//open_auction[bidder]",
    ]
    .iter()
    .map(|q| session.prepare(q).unwrap())
    .collect();

    for _ in 0..4 {
        for query in &queries {
            query.run(Engine::default());
            query.run(fragmented);
            query.run(sql);
        }
    }
    // 36 runs across three engines and three prepared queries: exactly
    // one TagIndex and one SqlEngine were ever constructed.
    assert_eq!(session.aux_builds(), BOTH_ONCE);
}

#[test]
fn warm_builds_everything_exactly_once() {
    let session = Session::new(generate(XmarkConfig::new(0.05)));
    assert_eq!(session.aux_builds(), AuxBuilds::default());

    // Warm builds both structures (concurrently) …
    session.warm();
    assert_eq!(session.aux_builds(), BOTH_ONCE);

    // … and neither warming again nor querying on any engine rebuilds.
    session.warm();
    let queries = [
        "/descendant::increase/ancestor::bidder",
        "//open_auction[bidder]",
    ];
    for &engine in ENGINES.iter() {
        for query in queries {
            session.run(query, engine).unwrap();
        }
    }
    assert_eq!(session.aux_builds(), BOTH_ONCE);
}

#[test]
fn warm_races_with_queries_safely() {
    // Queries racing the warm-up must see each structure built exactly
    // once (OnceLock serialises initialisers).
    let session = Session::new(generate(XmarkConfig::new(0.02)));
    let query = session.prepare("//increase/ancestor::bidder").unwrap();
    std::thread::scope(|scope| {
        scope.spawn(|| session.warm());
        scope.spawn(|| query.run(Engine::staircase().fragmented(true).build().unwrap()));
        scope.spawn(|| query.run(Engine::sql().build().unwrap()));
    });
    assert_eq!(session.aux_builds(), BOTH_ONCE);

    // First fragment-plan queries racing each other on a fresh session:
    // one of them sweeps the columns, and every tag's fragment exists
    // afterwards, whichever tags the racers named.
    let fragmented = Engine::staircase().fragmented(true).build().unwrap();
    let texts = [
        "/descendant::increase/ancestor::bidder",
        "/descendant::profile/descendant::education",
        "/descendant::open_auction/child::bidder",
    ];
    for _ in 0..8 {
        let session = Session::new(generate(XmarkConfig::new(0.02)));
        let queries: Vec<Query> = texts.iter().map(|q| session.prepare(q).unwrap()).collect();
        let start = std::sync::Barrier::new(queries.len());
        let answers: Vec<QueryOutput> = std::thread::scope(|scope| {
            let racers: Vec<_> = queries
                .iter()
                .map(|query| {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        query.run(fragmented)
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(session.aux_builds().tag_index, 1);
        let index = session.tag_index();
        assert_eq!(index.fragments_built(), session.doc().tags().len());
        assert_eq!(index.total_nodes(), session.doc().kind_counts().0);
        for (query, got) in queries.iter().zip(&answers) {
            assert!(!got.is_empty(), "{}", query.text());
            assert_eq!(got.nodes(), query.run(Engine::default()).nodes());
        }
    }
}

#[test]
fn prepared_queries_outlive_engine_choice() {
    let session = Session::new(generate(XmarkConfig::new(0.05)));
    let query = session
        .prepare("/descendant::increase/ancestor::bidder")
        .unwrap();
    let first = query.run(ENGINES[0]);
    assert!(!first.is_empty());
    for &engine in ENGINES.iter() {
        assert_eq!(query.run(engine).nodes(), first.nodes(), "{engine:?}");
    }
}

#[test]
fn invalid_engine_configs_never_reach_evaluation() {
    assert!(matches!(
        Engine::staircase().fragmented(true).pushdown(true).build(),
        Err(Error::InvalidEngine(_))
    ));
    assert!(matches!(
        Engine::staircase()
            .pushdown(true)
            .variant(Variant::Skipping)
            .fragmented(true)
            .build(),
        Err(Error::InvalidEngine(_))
    ));
}

/// One context node outside the document fails every slot of an
/// [`Session::execute`] batch with the typed error, before any slot's
/// work runs — governed or not.
#[test]
fn an_out_of_range_context_fails_every_slot_before_any_work() {
    let session = Session::parse_xml("<a><b/><b/><b/></a>").unwrap();
    let len = session.doc().len();
    let stale = Context::from_sorted(vec![1, len as Pre + 3]);
    let (child, parent) = (
        session.prepare("child::node()").unwrap(),
        session.prepare("..").unwrap(),
    );
    let budget = std::sync::Arc::new(Budget::new());
    let outs = session.execute(
        &[
            (&child, None),
            (&parent, Some(budget.clone())),
            (&child, None),
        ],
        Engine::auto(),
        Some(&stale),
    );
    assert_eq!(outs.len(), 3);
    for out in &outs {
        assert!(
            matches!(out, Err(Error::ContextOutOfRange { pre, len: l }) if *pre == len as Pre + 3 && *l == len),
            "got {out:?}"
        );
    }
    assert_eq!(budget.touched(), 0, "no slot ran");
    assert_eq!(
        session.aux_builds(),
        AuxBuilds::default(),
        "nothing was built"
    );
}

#[test]
fn query_output_supports_borrowed_iteration() {
    let session = Session::parse_xml("<a><b/><b/><b/></a>").unwrap();
    let out = session.run("//b", Engine::default()).unwrap();
    // By-reference iteration, twice, with no clone in between.
    let first: Vec<Pre> = (&out).into_iter().collect();
    let second: Vec<Pre> = out.iter().collect();
    assert_eq!(first, second);
    assert_eq!(first.len(), 3);
    assert_eq!(out.nodes().as_slice(), &first[..]);
}

#[test]
fn explain_reports_operators_and_costs() {
    let session = Session::new(generate(XmarkConfig::new(0.05)));

    // The cost-based planner: a selective name test on a vertical axis
    // plans as a prebuilt fragment join; planning alone builds nothing.
    let plan = session
        .explain(
            "/descendant::increase/ancestor::open_auction",
            Engine::auto(),
        )
        .unwrap();
    assert_eq!(session.aux_builds(), AuxBuilds::default());
    assert_eq!(plan.branches().len(), 1);
    let steps = plan.branches()[0].steps();
    assert_eq!(steps.len(), 2);
    for step in steps {
        assert!(
            matches!(step.operator(), StepOp::Fragment { prescan: false }),
            "{:?}",
            step.operator()
        );
        assert!(step.estimate().cost > 0.0);
        assert!(step.estimate().rows >= 0.0);
    }

    // An unselective step keeps the estimation-skipping staircase join.
    let plan = session
        .explain("/descendant::node()", Engine::auto())
        .unwrap();
    assert!(matches!(
        plan.branches()[0].steps()[0].operator(),
        StepOp::Staircase {
            variant: Variant::EstimationSkipping
        }
    ));

    // Fixed engines explain their fixed policies.
    let plan = session
        .explain("/descendant::increase", Engine::naive())
        .unwrap();
    assert!(matches!(
        plan.branches()[0].steps()[0].operator(),
        StepOp::Naive
    ));

    // One rendered line per step, each carrying operator and estimate.
    let plan = session
        .explain("//profile/education | //bidder", Engine::auto())
        .unwrap();
    let text = plan.to_string();
    assert!(text.contains("branch 2:"));
    let step_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("step ")).collect();
    assert_eq!(step_lines.len(), plan.step_count());
    for line in step_lines {
        assert!(line.contains("op "), "{line}");
        assert!(line.contains("est cost"), "{line}");
    }

    // Parse errors propagate as usual.
    assert!(session.explain("///", Engine::auto()).is_err());
}

#[test]
fn auto_estimates_track_observed_cost_direction() {
    // The model only has to *rank* candidates; sanity-check that the
    // auto plan's total estimate is in the same order of magnitude
    // bucket as what execution actually touched for a selective query
    // (both far below the document size), while a tree-unaware plan's
    // estimate is far above.
    let session = Session::new(generate(XmarkConfig::new(0.1)));
    session.warm();
    let expr = "/descendant::privacy";
    let auto_plan = session.explain(expr, Engine::auto()).unwrap();
    let naive_plan = session.explain(expr, Engine::naive()).unwrap();
    let n = session.doc().len() as f64;
    assert!(auto_plan.estimated_cost() < n / 4.0);
    assert!(naive_plan.estimated_cost() > n / 4.0);
    let out = session.run(expr, Engine::auto()).unwrap();
    assert!((out.stats().total_touched() as f64) < n / 4.0);
}

/// The fragment join's probe term prices the gallop the kernel runs —
/// `card · (1 + log2(f / card + 2))`, not a whole-list binary search per
/// partition: Q2's ancestor step (one partition per `increase`) is
/// estimated within 3 × of what it is observed to touch and seek.
#[test]
fn fragment_estimate_is_within_3x_of_observed_for_q2s_ancestor_step() {
    let session = Session::new(generate(XmarkConfig::new(1.0)));
    session.warm();
    let out = session
        .run("/descendant::increase/ancestor::bidder", Engine::auto())
        .unwrap();
    let step = &out.stats().steps[1];
    assert_eq!(
        step.op, "fragment",
        "auto joins Q2's ancestor step on the list"
    );
    assert!(step.seeks > 0 && step.nodes_touched > 0, "{step:?}");
    let ratio = step.est_cost / step.observed_cost();
    assert!(
        (1.0 / 3.0..=3.0).contains(&ratio),
        "estimated {} against observed {} (touched {} + seeks {})",
        step.est_cost,
        step.observed_cost(),
        step.nodes_touched,
        step.seeks
    );
}

/// `child::name` is a priced candidate under auto (and so adaptive): out
/// of a selective context it joins the tag's list — estimated within 2 ×
/// of what it is observed to touch and seek — and where the hop is a
/// handful of children, or the test is no name, it stays structural.
#[test]
fn auto_joins_child_name_steps_on_the_list_where_the_hop_costs_more() {
    let session = Session::new(generate(XmarkConfig::new(1.0)));
    session.warm();
    for expr in [
        "/descendant::person/child::profile",
        "/descendant::closed_auction/child::price",
    ] {
        let want = session.run(expr, Engine::default()).unwrap();
        assert!(!want.is_empty(), "{expr}");
        for engine in [Engine::auto(), Engine::adaptive()] {
            let plan = session.explain(expr, engine).unwrap();
            for step in plan.branches()[0].steps() {
                assert_eq!(
                    step.operator(),
                    &StepOp::Fragment { prescan: false },
                    "{expr} {engine:?}: {plan}"
                );
            }
            let out = session.run(expr, engine).unwrap();
            assert_eq!(out.nodes(), want.nodes(), "{expr} {engine:?}");
            let child = &out.stats().steps[1];
            assert_eq!(child.op, "fragment", "{expr}");
            let ratio = child.est_cost / child.observed_cost();
            assert!(
                (0.5..=2.0).contains(&ratio),
                "{expr}: estimated {} against observed {} (touched {} + seeks {})",
                child.est_cost,
                child.observed_cost(),
                child.nodes_touched,
                child.seeks
            );
            // The hop it replaced walks every child of every context node.
            let hop = &want.stats().steps[1];
            assert_eq!(hop.op, "structural");
            assert!(child.nodes_touched * 3 < hop.nodes_touched, "{expr}");
        }
    }
    for expr in [
        "/child::site/child::regions",
        "/child::regions",
        "/descendant::person/child::node()",
        "/descendant::person/child::*",
        "/descendant::person/child::text()",
        "/descendant::person/attribute::id",
    ] {
        let plan = session.explain(expr, Engine::auto()).unwrap();
        let steps = plan.branches()[0].steps();
        for step in steps.iter().filter(|s| s.axis() != Axis::Descendant) {
            assert_eq!(step.operator(), &StepOp::Structural, "{expr}: {plan}");
        }
    }
    // A name no element carries: the empty prescan fragment, as on the
    // vertical axes.
    let plan = session
        .explain("/descendant::node()/child::nosuchtag", Engine::auto())
        .unwrap();
    assert_eq!(
        plan.branches()[0].steps()[1].operator(),
        &StepOp::Fragment { prescan: true }
    );
    let out = session
        .run("/descendant::node()/child::nosuchtag", Engine::auto())
        .unwrap();
    assert!(out.is_empty());
    assert_eq!(out.stats().steps[1].nodes_touched, 0);
}

#[test]
fn auto_plans_absent_names_without_building_the_fragment_index() {
    let session = Session::new(generate(XmarkConfig::new(0.05)));
    // A name absent from the document is provably empty; auto must not
    // force the prebuilt fragment index into existence to discover that.
    let plan = session
        .explain("/descendant::nosuchtag/ancestor::person", Engine::auto())
        .unwrap();
    assert!(matches!(
        plan.branches()[0].steps()[0].operator(),
        StepOp::Fragment { prescan: true }
    ));
    let out = session
        .run("/descendant::nosuchtag/ancestor::person", Engine::auto())
        .unwrap();
    assert!(out.is_empty());
    assert_eq!(
        session.aux_builds(),
        AuxBuilds::default(),
        "absent-name queries must build nothing"
    );
    // And the absent-name step costs nothing: no scan ever ran.
    assert_eq!(out.stats().steps[0].nodes_touched, 0);
}

/// The *flip* document: 2 000 `a`s that each carry all fifteen `p1` …
/// `p15` children and one `x`, then 10 000 loose `x`s. Every `a` passes
/// every predicate: the predicates are as correlated as they can be.
fn flip_xml() -> String {
    let ps: String = (1..=15).map(|i| format!("<p{i}/>")).collect();
    format!(
        "<site>{}{}</site>",
        format!("<a>{ps}<x/></a>").repeat(2000),
        "<x/>".repeat(10_000)
    )
}

/// `/descendant::a[p1]…[p15]/descendant::x`: priced as fifteen
/// independent halvings, the `a` frontier would be about one node and
/// the last step a plain staircase join; priced as one halving, it is
/// 1 000 and the last step the fragment join.
fn flip_query() -> String {
    let preds: String = (1..=15).map(|i| format!("[p{i}]")).collect();
    format!("/descendant::a{preds}/descendant::x")
}

/// The operators `auto` plans for `expr`.
fn auto_ops(session: &Session, expr: &str) -> Vec<StepOp> {
    let plan = session.explain(expr, Engine::auto()).unwrap();
    plan.branches()[0]
        .steps()
        .iter()
        .map(|s| s.operator().clone())
        .collect()
}

#[test]
fn auto_runs_the_plan_it_priced_once_when_estimates_mislead() {
    // `adaptive` is a name for auto, not a second engine.
    assert_eq!(Engine::adaptive(), Engine::auto());
    // Stacked predicates halve the estimated `a` frontier once, so the
    // flip query's last step plans as the fragment join statically, and
    // what runs is what EXPLAIN printed.
    let xml = flip_xml();
    let expr = flip_query();
    let session = Session::parse_xml(&xml).unwrap();
    let query = session.prepare(&expr).unwrap();
    let fragmented = Engine::staircase().fragmented(true).build().unwrap();
    let plan = session.explain(&expr, Engine::auto()).unwrap();
    assert_eq!(
        auto_ops(&session, &expr).last(),
        Some(&StepOp::Fragment { prescan: false }),
        "{plan}"
    );
    assert!(!plan.to_string().contains("[replan]"), "{plan}");

    let auto = query.run(Engine::auto());
    let plain = query.run(Engine::default());
    assert_eq!(auto.nodes(), plain.nodes());
    let planned: Vec<String> = plan.branches()[0]
        .steps()
        .iter()
        .map(|s| s.operator().to_string())
        .collect();
    let ran: Vec<&str> = auto.stats().steps.iter().map(|s| s.op.as_str()).collect();
    assert_eq!(
        ran, planned,
        "the plan that runs is the plan EXPLAIN printed"
    );
    // The fragment step touches no more than the paper's plain staircase
    // join of the same step: 2 000 entries and 2 000 seeks against
    // 2 000 whole subtrees of 16 nodes.
    let (fast, scan) = (
        auto.stats().steps.last().unwrap(),
        plain.stats().steps.last().unwrap(),
    );
    assert!(
        fast.nodes_touched <= scan.nodes_touched,
        "{fast:?} vs {scan:?}"
    );
    assert_eq!(fast.observed_cost(), 4000.0, "{fast:?}");
    assert_eq!(scan.nodes_touched, 32_000, "{scan:?}");
    // No engine marks a step, alone or batched.
    for engine in [Engine::auto(), Engine::default(), fragmented] {
        let out = query.run(engine);
        assert_eq!(out.nodes(), auto.nodes(), "{engine:?}");
        assert!(out.stats().steps.iter().all(|s| !s.replanned), "{engine:?}");
        assert!(out.stats().steps.iter().all(|s| !s.op.contains("[replan]")));
    }
    for out in session.run_many(&[&query, &query], Engine::auto()) {
        assert_eq!(out.nodes(), auto.nodes());
        let ops: Vec<&str> = out.stats().steps.iter().map(|s| s.op.as_str()).collect();
        assert_eq!(ops, planned);
        assert!(out.stats().steps.iter().all(|s| !s.replanned));
    }

    // The misleading-statistics document's nested `b` frontier is priced
    // right statically: auto plans no SQL and touches no more than
    // either fixed engine it chooses between.
    let session = Session::new(generate_misleading(MisleadConfig::new(4.0)));
    let mislead = "/descendant::a/descendant::b/descendant::node()";
    let query = session.prepare(mislead).unwrap();
    let plan = session.explain(mislead, Engine::auto()).unwrap();
    assert!(!plan.to_string().contains("sql("), "{plan}");
    let auto = query.run(Engine::auto());
    for engine in [Engine::default(), fragmented] {
        let fixed = query.run(engine);
        assert_eq!(auto.nodes(), fixed.nodes(), "{engine:?}");
        assert!(
            auto.stats().total_touched() <= fixed.stats().total_touched(),
            "auto touched {} vs {engine:?} {}",
            auto.stats().total_touched(),
            fixed.stats().total_touched()
        );
    }
}

/// A query's plan is its own: it picks the same operators, and reports
/// the same step statistics, alone and next to a batch partner.
#[test]
fn auto_plans_a_query_the_same_alone_and_batched() {
    // Fifteen `self::a` filters halve the estimated `a` frontier once:
    // the 1 000 expected contexts price `descendant::x` as the fragment
    // join, which the 2 000 observed ones run at 2 000 entries and 2 000
    // seeks, against the plane scan's 2 000 subtrees of 16 nodes.
    let xml = flip_xml();
    let query = format!("/descendant::*{}/descendant::x", "[self::a]".repeat(15));
    let partner = "/descendant::x";
    let session = Session::parse_xml(&xml).unwrap();
    assert_eq!(
        auto_ops(&session, &query).last(),
        Some(&StepOp::Fragment { prescan: false })
    );
    let [q, p] = [query.as_str(), partner].map(|e| session.prepare(e).unwrap());
    let alone = q.run(Engine::auto());
    let batch = session.run_many(&[&q, &p], Engine::auto());
    assert_eq!(session.aux_builds().tag_index, 1);
    assert_eq!(batch[0].nodes(), alone.nodes());
    let last = alone.stats().steps.last().unwrap();
    assert_eq!(last.op, "fragment");
    assert_eq!(last.observed_cost(), 4000.0, "{last:?}");
    assert_eq!(
        batch[0].stats().steps,
        alone.stats().steps,
        "a batch partner changed the query's plan"
    );
}

/// `auto` never plans or builds the Figure-3 SQL baseline: on fresh
/// sessions over the benchmark's documents, its `auto` texts plan no SQL
/// step, the misleading text runs as planned, and no B-tree is built.
#[test]
fn auto_never_plans_or_builds_the_sql_baseline() {
    const MISLEAD: &str = "/descendant::a/descendant::b/descendant::node()";
    const SKEW: [&str; 2] = [
        "/descendant::a[descendant::b]/descendant::c[descendant::d]",
        "/descendant::a[child::b]/descendant::c[child::d]",
    ];
    let cases: [(Doc, &[&str]); 3] = [
        (generate_misleading(MisleadConfig::new(4.0)), &[MISLEAD]),
        (generate_skewed(SkewConfig::new(0.2, 1.2)), &SKEW),
        (generate(XmarkConfig::new(0.5)), &POINT),
    ];
    for (doc, exprs) in cases {
        let session = Session::new(doc);
        for expr in exprs {
            let out = session.run(expr, Engine::auto()).unwrap();
            for step in &out.stats().steps {
                assert!(!step.op.contains("sql("), "{expr}: {}", step.op);
            }
        }
        assert_eq!(session.aux_builds().sql_engine, 0, "{exprs:?}");
    }
}

/// The benchmark's twelve selective point queries.
const POINT: [&str; 12] = [
    "/descendant::profile/descendant::education",
    "/descendant::increase/ancestor::bidder",
    "/descendant::open_auction[descendant::bidder]/descendant::increase",
    "/descendant::person[child::profile]/descendant::education",
    "/descendant::person/child::profile",
    "/descendant::open_auction/descendant::bidder/descendant::increase",
    "/descendant::bidder[increase]/ancestor::open_auction",
    "/descendant::date/ancestor::open_auction",
    "/descendant::education/ancestor::person",
    "/descendant::open_auction[bidder]/descendant::date",
    "/descendant::closed_auction/child::price",
    "/descendant::item/descendant::keyword",
];

/// The selective point queries run their plans as planned under auto,
/// alone and batched: the same answers, no step marked.
#[test]
fn point_queries_never_replan_under_auto() {
    let session = Session::new(generate(XmarkConfig::new(1.0)));
    let queries: Vec<Query> = POINT.iter().map(|e| session.prepare(e).unwrap()).collect();
    let refs: Vec<&Query> = queries.iter().collect();
    let batch = session.run_many(&refs, Engine::auto());
    for ((expr, query), batched) in POINT.iter().zip(&queries).zip(&batch) {
        let alone = query.run(Engine::auto());
        assert_eq!(batched.nodes(), alone.nodes(), "{expr}");
        for (how, out) in [("alone", &alone), ("run_many", batched)] {
            assert!(
                out.stats().steps.iter().all(|s| !s.replanned),
                "{how}: {expr} replanned: {:?}",
                out.stats().steps
            );
        }
    }
}
