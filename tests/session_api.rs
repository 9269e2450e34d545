//! The session façade, exercised end to end: every engine configuration
//! must produce identical results for arbitrary documents and queries
//! run through [`Session`]/[`Query`], and the session must build its
//! auxiliary structures at most once however many queries it serves.

use proptest::prelude::*;
use staircase_suite::prelude::*;

/// Every buildable engine configuration.
fn all_engines() -> Vec<Engine> {
    vec![
        Engine::staircase()
            .variant(Variant::Basic)
            .build()
            .expect("valid engine config"),
        Engine::staircase()
            .variant(Variant::Skipping)
            .build()
            .expect("valid engine config"),
        Engine::staircase()
            .variant(Variant::EstimationSkipping)
            .build()
            .expect("valid engine config"),
        Engine::staircase()
            .pushdown(true)
            .build()
            .expect("valid engine config"),
        Engine::staircase()
            .fragmented(true)
            .build()
            .expect("valid engine config"),
        Engine::naive(),
        Engine::sql().build().expect("valid engine config"),
        Engine::sql()
            .eq1_window(true)
            .early_nametest(true)
            .build()
            .expect("valid config"),
        Engine::auto(),
        Engine::adaptive(),
    ]
}

/// An arbitrary small document built through the encoding builder.
fn arb_doc() -> impl Strategy<Value = Doc> {
    proptest::collection::vec(0u8..5, 1..250).prop_map(|ops| {
        let tags = ["p", "q", "r"];
        let mut b = EncodingBuilder::new();
        b.open_element("root");
        let mut depth = 1;
        let mut just_text = false;
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                0 | 3 => {
                    b.open_element(tags[i % tags.len()]);
                    depth += 1;
                    just_text = false;
                }
                1 if depth > 1 => {
                    b.close_element();
                    depth -= 1;
                    just_text = false;
                }
                2 if !just_text => {
                    b.text("t");
                    just_text = true;
                }
                _ => {
                    b.comment("c");
                    just_text = false;
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

/// An arbitrary absolute query over the `p`/`q`/`r` vocabulary: one to
/// three steps of partitioning/child axes with name, wildcard, or node
/// tests, optionally carrying an existential predicate (which exercises
/// the staircase engines' semijoin fast path).
fn arb_query() -> impl Strategy<Value = String> {
    let axis = prop_oneof![
        Just("descendant"),
        Just("ancestor"),
        Just("following"),
        Just("preceding"),
        Just("child"),
        Just("descendant-or-self"),
        Just("ancestor-or-self"),
    ];
    let test = prop_oneof![Just("p"), Just("q"), Just("r"), Just("*"), Just("node()")];
    let pred = prop_oneof![
        Just(""),
        Just("[p]"),
        Just("[descendant::q]"),
        Just("[zzz]")
    ];
    proptest::collection::vec((axis, test, pred), 1..4).prop_map(|steps| {
        let mut out = String::new();
        for (axis, test, pred) in steps {
            out.push('/');
            out.push_str(axis);
            out.push_str("::");
            out.push_str(test);
            out.push_str(pred);
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance property of the whole engine zoo: any engine —
    /// including the cost-based planner — same answer, for random
    /// documents and random prepared queries.
    #[test]
    fn every_engine_agrees_via_session((doc, query) in (arb_doc(), arb_query())) {
        let session = Session::new(doc);
        let prepared = session.prepare(&query)
            .unwrap_or_else(|e| panic!("generated query {query:?} must parse: {e}"));
        let reference = prepared.run(Engine::naive());
        for engine in all_engines() {
            let got = prepared.run(engine);
            prop_assert_eq!(
                got.nodes(),
                reference.nodes(),
                "{} via {:?}",
                query,
                engine
            );
        }
        // The satellite claim, spelled out: Engine::auto() is
        // node-identical to Engine::default() on every generated query.
        prop_assert_eq!(
            prepared.run(Engine::auto()).nodes(),
            prepared.run(Engine::default()).nodes(),
            "auto vs default on {}",
            query
        );
        // However many engines ran, the session built each auxiliary
        // structure at most once.
        let builds = session.aux_builds();
        prop_assert!(builds.tag_index <= 1);
        prop_assert!(builds.sql_engine <= 1);
    }

    /// The adaptive engine is node- and order-identical to every fixed
    /// engine through both `run` and `run_many`, at every session pool
    /// width — re-planning may change access paths, never answers.
    #[test]
    fn adaptive_agrees_at_every_pool_width((doc, query) in (arb_doc(), arb_query())) {
        for width in [1usize, 2, 4] {
            let session = Session::new(doc.clone()).with_threads(width);
            let prepared = session.prepare(&query)
                .unwrap_or_else(|e| panic!("generated query {query:?} must parse: {e}"));
            let reference = prepared.run(Engine::naive());
            let single = prepared.run(Engine::adaptive());
            prop_assert_eq!(
                single.nodes(),
                reference.nodes(),
                "run at width {}: {}",
                width,
                query
            );
            // The same query twice in one batch: both lanes re-plan (or
            // decline to) independently and agree with the fixed run.
            let batch = session.run_many(&[&prepared, &prepared], Engine::adaptive());
            for out in &batch {
                prop_assert_eq!(
                    out.nodes(),
                    reference.nodes(),
                    "run_many at width {}: {}",
                    width,
                    query
                );
            }
        }
    }

    /// Sessions over a persisted plane answer exactly like sessions over
    /// the original document.
    #[test]
    fn persisted_sessions_answer_identically(doc in arb_doc()) {
        let original = Session::new(doc);
        let reloaded = Session::from_encoded_bytes(&original.doc().to_bytes())
            .expect("self-produced bytes decode");
        for query in ["/descendant::p", "//q/ancestor::node()", "//r[p]"] {
            let a = original.run(query, Engine::default()).unwrap();
            let b = reloaded.run(query, Engine::default()).unwrap();
            prop_assert_eq!(a.nodes(), b.nodes(), "{}", query);
        }
    }
}

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
    assert_eq!(
        session.aux_builds(),
        AuxBuilds {
            tag_index: 1,
            sql_engine: 1
        }
    );
}

#[test]
fn warm_builds_everything_exactly_once() {
    let session = Session::new(generate(XmarkConfig::new(0.05)));
    assert_eq!(session.aux_builds(), AuxBuilds::default());

    // Warm builds both structures (concurrently) …
    session.warm();
    assert_eq!(
        session.aux_builds(),
        AuxBuilds {
            tag_index: 1,
            sql_engine: 1
        }
    );

    // … and neither warming again nor querying on any engine rebuilds.
    session.warm();
    let queries = [
        "/descendant::increase/ancestor::bidder",
        "//open_auction[bidder]",
    ];
    for engine in all_engines() {
        for query in queries {
            session.run(query, engine).unwrap();
        }
    }
    assert_eq!(
        session.aux_builds(),
        AuxBuilds {
            tag_index: 1,
            sql_engine: 1
        }
    );
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
    assert_eq!(
        session.aux_builds(),
        AuxBuilds {
            tag_index: 1,
            sql_engine: 1
        }
    );

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
    let mut previous: Option<QueryOutput> = None;
    for engine in all_engines() {
        let out = query.run(engine);
        assert!(!out.is_empty(), "{engine:?}");
        if let Some(prev) = &previous {
            assert_eq!(prev.nodes(), out.nodes(), "{engine:?}");
        }
        previous = Some(out);
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

#[test]
fn auto_replans_when_estimates_mislead() {
    // `adaptive` is a name for auto, not a second engine.
    assert_eq!(Engine::adaptive(), Engine::auto());
    // The misleading-statistics document: every global statistic is
    // honest, yet the `b` frontier after `//a/descendant::b` is orders
    // of magnitude above the Equation-1 estimate. The plan mis-prices
    // the final step; auto must observe the real frontier, switch the
    // operator mid-plan, and mark the switch.
    let session = Session::new(generate_misleading(MisleadConfig::new(4.0)));
    let expr = "/descendant::a/descendant::b/descendant::node()";
    let query = session.prepare(expr).unwrap();
    let fragmented = Engine::staircase().fragmented(true).build().unwrap();

    let auto = query.run(Engine::auto());
    let plain = query.run(Engine::default());
    assert_eq!(auto.nodes(), plain.nodes(), "replanning changed the answer");

    // The switch provably fired: the trace carries the marker …
    let replanned: Vec<&str> = auto
        .stats()
        .steps
        .iter()
        .filter(|s| s.replanned)
        .map(|s| s.op.as_str())
        .collect();
    assert!(
        !replanned.is_empty(),
        "the misleading workload must trigger a mid-plan switch"
    );
    assert!(
        replanned.iter().all(|op| op.contains("[replan]")),
        "replanned steps must be marked: {replanned:?}"
    );
    // … the switched step touches no more than the paper's plain
    // staircase join of the same step …
    let step = auto.stats().steps.iter().position(|s| s.replanned).unwrap();
    assert!(
        auto.stats().steps[step].nodes_touched <= plain.stats().steps[step].nodes_touched,
        "the switch must pay off: auto touched {} vs staircase {}",
        auto.stats().steps[step].nodes_touched,
        plain.stats().steps[step].nodes_touched
    );
    // … and the fixed engines never carry the marker.
    for engine in [Engine::default(), fragmented] {
        let out = query.run(engine);
        assert_eq!(out.nodes(), auto.nodes(), "{engine:?}");
        assert!(out.stats().steps.iter().all(|s| !s.replanned), "{engine:?}");
    }

    // Lane-local switching: the shared cached plan is untouched, so a
    // later run starts from the static plan again.
    let plan = session.explain(expr, Engine::auto()).unwrap();
    assert!(!plan.to_string().contains("[replan]"));

    // The switch also fires identically through run_many at every pool
    // width.
    for width in [1usize, 2, 4] {
        let session =
            Session::new(generate_misleading(MisleadConfig::new(4.0))).with_threads(width);
        let query = session.prepare(expr).unwrap();
        let outs = session.run_many(&[&query, &query], Engine::auto());
        for out in &outs {
            assert_eq!(out.nodes(), auto.nodes(), "width {width}");
            assert!(
                out.stats().steps.iter().any(|s| s.replanned),
                "width {width}: batch lanes must replan too"
            );
        }
    }
}

/// Re-pricing the SQL plan reads the observed frontier's real unpruned
/// window. On the small misleading document the `b` frontier nests, so
/// its regions overlap many times over; priced from `card · avg_subtree`
/// the SQL scan looked cheap and was kept, touching ≈ 20 × what the
/// pruning staircase join touches.
#[test]
fn replanned_sql_is_priced_from_the_observed_window() {
    let session = Session::new(generate_misleading(MisleadConfig::new(0.5)));
    let expr = "/descendant::a/descendant::b/descendant::node()";
    let auto = session.run(expr, Engine::auto()).unwrap();
    let plain = session.run(expr, Engine::default()).unwrap();
    assert_eq!(auto.nodes(), plain.nodes());
    let last = auto.stats().steps.last().unwrap();
    assert!(last.replanned, "{}", last.op);
    assert!(last.op.contains("[replan]"), "{}", last.op);
    let staircase = plain.stats().steps.last().unwrap();
    assert!(
        last.nodes_touched <= staircase.nodes_touched,
        "auto touched {} vs staircase {}",
        last.nodes_touched,
        staircase.nodes_touched
    );
}

/// A re-planning lane switches only to structures its own query's plan
/// needs, never to one the executor holds for a batch partner: a query
/// picks the same operators, and reports the same step statistics,
/// alone and next to partners that use the fragment index and the SQL
/// B-tree.
#[test]
fn auto_replans_a_query_the_same_alone_and_batched() {
    // Deep chains inflate the average subtree; the one `b` under an `a`
    // sits among 2 000 others, so the frontier after `descendant::b` is
    // far off the estimate and the last step is re-priced.
    let chains = format!("{}{}", "<e>".repeat(400), "</e>".repeat(400)).repeat(10);
    let xml = format!(
        "<site>{chains}{}<a><b><c/><c/></b></a></site>",
        "<b><c/><c/><c/></b>".repeat(2000)
    );
    let query = "/descendant::*/descendant::b/descendant::*";
    let fragments = "/descendant::site/descendant::site";
    let sql = "/descendant::site/descendant::site/descendant::*";
    for width in [1usize, 4] {
        let session = Session::parse_xml(&xml).unwrap().with_threads(width);
        let ops = |expr: &str| -> Vec<StepOp> {
            let plan = session.explain(expr, Engine::auto()).unwrap();
            plan.branches()[0]
                .steps()
                .iter()
                .map(|s| s.operator().clone())
                .collect()
        };
        // The query's plan needs neither structure; its partners' do.
        assert!(ops(query)
            .iter()
            .all(|op| matches!(op, StepOp::Staircase { .. })));
        assert!(ops(fragments)
            .iter()
            .any(|op| matches!(op, StepOp::Fragment { prescan: false })));
        assert!(ops(sql).iter().any(|op| matches!(op, StepOp::Sql { .. })));
        let [q, f, s] = [query, fragments, sql].map(|e| session.prepare(e).unwrap());
        let alone = q.run(Engine::auto());
        let batch = session.run_many(&[&q, &f, &s], Engine::auto());
        assert_eq!(batch[0].nodes(), alone.nodes(), "width {width}");
        assert_eq!(
            batch[0].stats().steps,
            alone.stats().steps,
            "width {width}: batch partners changed the query's plan"
        );
    }
}

/// The selective point queries are well estimated: auto runs their plans
/// as planned, alone and batched, at every pool width — re-planning is
/// reserved for estimates that are off by the disagreement factor.
#[test]
fn point_queries_never_replan_under_auto() {
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
    let doc = generate(XmarkConfig::new(1.0));
    for width in [1usize, 4] {
        let session = Session::new(doc.clone()).with_threads(width);
        let queries: Vec<Query> = POINT.iter().map(|e| session.prepare(e).unwrap()).collect();
        let refs: Vec<&Query> = queries.iter().collect();
        let batch = session.run_many(&refs, Engine::auto());
        for ((expr, query), batched) in POINT.iter().zip(&queries).zip(&batch) {
            let alone = query.run(Engine::auto());
            assert_eq!(batched.nodes(), alone.nodes(), "{expr}");
            for (how, out) in [("alone", &alone), ("run_many", batched)] {
                assert!(
                    out.stats().steps.iter().all(|s| !s.replanned),
                    "width {width}, {how}: {expr} replanned: {:?}",
                    out.stats().steps
                );
            }
        }
    }
}
