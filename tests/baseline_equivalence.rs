//! Cross-engine equivalence: the staircase join (all variants), the naive
//! strategy, the SQL-plan emulation, and MPMGJN must compute identical
//! axis-step results.

use staircase_suite::prelude::*;

fn workload() -> Doc {
    generate(XmarkConfig::new(0.1).with_seed(42))
}

fn engine(builder: StaircaseBuilder) -> Engine {
    builder.build().expect("valid engine config")
}

#[test]
fn all_engines_agree_on_paper_queries() {
    let session = Session::new(workload());
    let engines = [
        engine(Engine::staircase().variant(Variant::Basic)),
        engine(Engine::staircase().variant(Variant::Skipping)),
        engine(Engine::staircase().variant(Variant::EstimationSkipping)),
        engine(Engine::staircase().pushdown(true)),
        engine(Engine::staircase().fragmented(true)),
        Engine::naive(),
        Engine::sql().build().expect("valid engine config"),
        Engine::sql()
            .eq1_window(true)
            .early_nametest(true)
            .build()
            .expect("valid config"),
    ];
    for query in [
        "/descendant::profile/descendant::education",
        "/descendant::increase/ancestor::bidder",
        "//open_auction/descendant::personref",
        "/descendant::person/following::bidder",
        "/descendant::education/preceding::interest",
    ] {
        let prepared = session.prepare(query).unwrap();
        let reference = prepared.run(engines[0]);
        for e in &engines[1..] {
            let got = prepared.run(*e);
            assert_eq!(got.nodes(), reference.nodes(), "{query} via {e:?}");
        }
        assert!(!reference.is_empty(), "{query} should match something");
    }
    // Nine engines, thirty-odd runs: the session built each auxiliary
    // structure exactly once.
    assert_eq!(
        session.aux_builds(),
        AuxBuilds {
            tag_index: 1,
            sql_engine: 1
        }
    );
}

#[test]
fn mpmgjn_agrees_with_staircase_descendant() {
    let doc = workload();
    let tags = TagIndex::build(&doc);
    let profiles: Vec<Pre> = tags.fragment_by_name(&doc, "profile").to_vec();
    let all: Vec<Pre> = doc
        .pres()
        .filter(|&v| doc.kind(v) != NodeKind::Attribute)
        .collect();
    let (mp, _) = mpmgjn_join(&doc, &profiles, &all);
    let ctx: Context = profiles.iter().copied().collect();
    let (sc, _) = descendant(&doc, &ctx, Variant::EstimationSkipping);
    assert_eq!(mp, sc);
}

#[test]
fn mpmgjn_tests_more_nodes_than_staircase() {
    // §5's claim: pruning + skipping means the staircase join touches and
    // tests fewer nodes than MPMGJN on the same join.
    let doc = workload();
    let tags = TagIndex::build(&doc);
    // A context with nesting: open_auctions contain bidders.
    let mut alist: Vec<Pre> = tags.fragment_by_name(&doc, "open_auction").to_vec();
    alist.extend_from_slice(tags.fragment_by_name(&doc, "bidder"));
    alist.sort_unstable();
    let all: Vec<Pre> = doc
        .pres()
        .filter(|&v| doc.kind(v) != NodeKind::Attribute)
        .collect();
    let (mp_result, mp) = mpmgjn_join(&doc, &alist, &all);
    let ctx: Context = alist.iter().copied().collect();
    let (sc_result, sc) = descendant(&doc, &ctx, Variant::Skipping);
    assert_eq!(mp_result, sc_result);
    assert!(
        mp.nodes_tested > sc.nodes_touched(),
        "MPMGJN tested {} vs staircase touched {}",
        mp.nodes_tested,
        sc.nodes_touched()
    );
}

#[test]
fn sql_plan_generates_duplicates_staircase_does_not() {
    let doc = workload();
    let engine = SqlEngine::build(&doc);
    let tags = TagIndex::build(&doc);
    let increases: Context = tags
        .fragment_by_name(&doc, "increase")
        .iter()
        .copied()
        .collect();
    let (_, sql_stats) = engine.axis_step(&increases, Axis::Ancestor, SqlPlanOptions::default());
    assert!(
        sql_stats.duplicates() > 0,
        "ancestor step must duplicate shared paths"
    );
    let (_, sc_stats) = ancestor(&doc, &increases, Variant::Skipping);
    assert_eq!(sc_stats.result_size, sql_stats.result_size);
}

#[test]
fn eq1_window_preserves_results_while_cutting_scans() {
    let doc = workload();
    let engine = SqlEngine::build(&doc);
    let tags = TagIndex::build(&doc);
    let profiles: Context = tags
        .fragment_by_name(&doc, "profile")
        .iter()
        .copied()
        .collect();
    let (r1, s1) = engine.axis_step(&profiles, Axis::Descendant, SqlPlanOptions::default());
    let (r2, s2) = engine.axis_step(
        &profiles,
        Axis::Descendant,
        SqlPlanOptions {
            eq1_window: true,
            early_nametest: None,
        },
    );
    assert_eq!(r1, r2);
    // The paper saw up to three orders of magnitude here; at minimum the
    // window must cut the scan volume drastically.
    assert!(
        s2.index_entries_scanned * 10 <= s1.index_entries_scanned,
        "window scan {} vs unwindowed {}",
        s2.index_entries_scanned,
        s1.index_entries_scanned
    );
}

#[test]
fn random_documents_cross_check() {
    // Beyond XMark shapes: adversarial random trees.
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
    for round in 0..5 {
        let mut b = EncodingBuilder::new();
        b.open_element("r");
        let mut depth = 1;
        for _ in 0..500 {
            match rng.gen_range(0..4) {
                0 | 1 => {
                    b.open_element(["x", "y", "z"][rng.gen_range(0..3)]);
                    depth += 1;
                }
                2 if depth > 1 => {
                    b.close_element();
                    depth -= 1;
                }
                _ => {
                    b.comment("pad");
                }
            }
        }
        while depth > 0 {
            b.close_element();
            depth -= 1;
        }
        let session = Session::new(b.finish());
        let sql = Engine::sql()
            .eq1_window(true)
            .early_nametest(true)
            .build()
            .unwrap();
        for query in ["//x/ancestor::y", "//y/descendant::z", "//z/preceding::x"] {
            let prepared = session.prepare(query).unwrap();
            let a = prepared.run(Engine::default());
            let b2 = prepared.run(Engine::naive());
            let c = prepared.run(sql);
            assert_eq!(a.nodes(), b2.nodes(), "round {round}: {query}");
            assert_eq!(a.nodes(), c.nodes(), "round {round}: {query}");
        }
    }
}
