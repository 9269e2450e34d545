//! The batch execution layer, exercised end to end: `Session::run_many`
//! answers exactly like a loop of `Query::run` calls — node for node,
//! step for step — while sharing plane scans between the batched
//! queries (touched-node totals at or below, and on overlapping
//! workloads strictly below, the sequential sum). On random documents
//! and query batches, for every engine, that is `tests/oracle.rs`.

use staircase_suite::oracle::VARIANTS;
use staircase_suite::prelude::*;

/// The nodes a batch's outputs touched, together.
fn touched(outs: &[QueryOutput]) -> u64 {
    outs.iter().map(|o| o.stats().total_touched()).sum()
}

/// `run_many` against single runs on a generated XMark document, on a
/// workload mixing root-context descendants, ancestor steps, fragment
/// joins, horizontal axes, and semijoin probes: a batch answers node- and
/// order-identically to single runs, per-query traces line up, and the
/// batch touches and seeks no more than the single runs together; a
/// second session on the same document reports exactly the same
/// counters (nothing a session caches changes what a query reports).
#[test]
fn run_many_matches_single_runs_on_an_xmark_doc() {
    let doc = generate(XmarkConfig::new(0.2));
    let first = Session::new(doc.clone());
    let second = Session::new(doc);
    let exprs = [
        "/descendant::node()",
        "/descendant::bidder",
        "/descendant::increase/ancestor::bidder",
        "/descendant::node()/ancestor::node()",
        "/descendant::open_auction[bidder]/descendant::date",
        "/descendant::bidder/following::node()",
        "/descendant::person/preceding::node()",
        "/descendant::bidder[increase]/ancestor::open_auction",
    ];
    for engine in [
        Engine::default(),
        Engine::staircase().fragmented(true).build().unwrap(),
        Engine::staircase().pushdown(true).build().unwrap(),
        Engine::auto(),
    ] {
        let queries: Vec<Query> = exprs.iter().map(|e| first.prepare(e).unwrap()).collect();
        let again: Vec<Query> = exprs.iter().map(|e| second.prepare(e).unwrap()).collect();
        let batch = first.run_many(&queries.iter().collect::<Vec<_>>(), engine);
        let repeat = second.run_many(&again.iter().collect::<Vec<_>>(), engine);
        let (mut batch_cost, mut single_cost) = ((0u64, 0u64), (0u64, 0u64));
        for (((e, b), r), q) in exprs.iter().zip(&batch).zip(&repeat).zip(&queries) {
            let single = q.run(engine);
            assert_eq!(b.nodes(), single.nodes(), "{e} via {engine:?}");
            assert_eq!(
                b.stats().steps.len(),
                single.stats().steps.len(),
                "{e} via {engine:?}"
            );
            for (bt, st) in b.stats().steps.iter().zip(&single.stats().steps) {
                assert_eq!(bt.result_size, st.result_size, "{e} via {engine:?}");
            }
            assert_eq!(b.nodes(), r.nodes(), "{e} via {engine:?}: second session");
            assert_eq!(
                (b.stats().total_touched(), b.stats().total_seeks()),
                (r.stats().total_touched(), r.stats().total_seeks()),
                "{e} via {engine:?}: second session"
            );
            batch_cost.0 += b.stats().total_touched();
            batch_cost.1 += b.stats().total_seeks();
            single_cost.0 += single.stats().total_touched();
            single_cost.1 += single.stats().total_seeks();
        }
        assert!(
            batch_cost.0 <= single_cost.0 && batch_cost.1 <= single_cost.1,
            "{engine:?}: batch (touched, seeks) {batch_cost:?} > single runs {single_cost:?}"
        );
    }
}

/// The first `i + 1` steps of an unabbreviated absolute path, or `None`
/// when it has fewer.
fn prefix(expr: &str, i: usize) -> Option<&str> {
    let ends = expr.match_indices('/').skip(1).map(|(k, _)| k);
    ends.chain([expr.len()]).nth(i).map(|end| &expr[..end])
}

/// The acceptance criterion of the batch layer: a batch of ≥ 8
/// descendant/ancestor queries runs each repeated path prefix once —
/// the per-query `nodes_touched` totals sum to strictly less than what
/// the same queries touch when run one by one — and every step reports
/// what its kernel did: its alone-run `nodes_touched`, or 0 where it
/// is a step-key or join-key hit.
#[test]
fn batch_of_eight_shares_plane_passes() {
    let session = Session::new(generate(XmarkConfig::new(0.05)));
    let exprs = [
        "/descendant::increase/ancestor::bidder",
        "/descendant::profile/descendant::education",
        "/descendant::bidder",
        "/descendant::date/ancestor::open_auction",
        "/descendant::person",
        "/descendant::increase",
        "/descendant::open_auction/descendant::date",
        "/descendant::education/ancestor::person",
    ];
    let queries: Vec<Query> = exprs.iter().map(|e| session.prepare(e).unwrap()).collect();
    let refs: Vec<&Query> = queries.iter().collect();

    for variant in VARIANTS {
        let engine = Engine::staircase().variant(variant).build().unwrap();
        let batch = session.run_many(&refs, engine);
        let sequential: Vec<QueryOutput> = queries.iter().map(|q| q.run(engine)).collect();

        let (batch_total, seq_total) = (touched(&batch), touched(&sequential));
        assert!(
            batch_total < seq_total,
            "{variant:?}: batch touched {batch_total}, sequential {seq_total}"
        );
        // A step is a hit when an earlier query of the batch has the same
        // path prefix through it (none of these steps has predicates, so
        // a join key is a step key); every other step pays its own pass,
        // even over a root context an earlier query scanned under
        // another name test.
        for (q, (b, s)) in batch.iter().zip(&sequential).enumerate() {
            for (i, (bs, ss)) in b.stats().steps.iter().zip(&s.stats().steps).enumerate() {
                let hit = (0..q).any(|p| prefix(exprs[p], i) == prefix(exprs[q], i));
                let alone = if hit { 0 } else { ss.nodes_touched };
                assert_eq!(
                    bs.nodes_touched, alone,
                    "{variant:?}: {} step {i} (hit: {hit})",
                    exprs[q]
                );
            }
        }
        for (b, s) in batch.iter().zip(&sequential) {
            assert_eq!(b.nodes(), s.nodes(), "{variant:?}");
        }
    }
}

/// Batched ancestor steps with *distinct* contexts report, query by
/// query, exactly the step statistics of running each query alone: a
/// lane's cost in a batch is its cost alone, in every variant.
#[test]
fn distinct_contexts_report_their_own_pass() {
    let session = Session::new(generate(XmarkConfig::new(0.05)));
    // Different first steps → different second-step contexts; the second
    // (ancestor) round batches eight distinct boundary lists.
    let exprs = [
        "/descendant::increase/ancestor::node()",
        "/descendant::date/ancestor::node()",
        "/descendant::education/ancestor::node()",
        "/descendant::bidder/ancestor::node()",
        "/descendant::profile/ancestor::node()",
        "/descendant::person/ancestor::node()",
        "/descendant::open_auction/ancestor::node()",
        "/descendant::seller/ancestor::node()",
    ];
    let queries: Vec<Query> = exprs.iter().map(|e| session.prepare(e).unwrap()).collect();
    let refs: Vec<&Query> = queries.iter().collect();
    for variant in VARIANTS {
        let engine = Engine::staircase().variant(variant).build().unwrap();
        let batch = session.run_many(&refs, engine);
        for ((expr, q), b) in exprs.iter().zip(&queries).zip(&batch) {
            let s = q.run(engine);
            assert_eq!(b.nodes(), s.nodes(), "{expr} {variant:?}");
            let (bt, st) = (&b.stats().steps[1], &s.stats().steps[1]);
            assert_eq!(
                (&bt.step, &bt.op, bt.result_size, bt.nodes_touched, bt.seeks),
                (&st.step, &st.op, st.result_size, st.nodes_touched, st.seeks),
                "{expr} {variant:?}"
            );
        }
    }
}

/// Degenerate batches behave.
#[test]
fn trivial_batches() {
    let session = Session::parse_xml("<a><b><c/></b><b/></a>").unwrap();
    // Empty batch.
    assert!(session.run_many(&[], Engine::default()).is_empty());
    // Single query batch equals the plain run.
    let q = session.prepare("//b").unwrap();
    let batch = session.run_many(&[&q], Engine::default());
    assert_eq!(batch[0].nodes(), q.run(Engine::default()).nodes());
    // Union queries merge branches in order, as sequential does.
    let u = session.prepare("//b | //c").unwrap();
    let batch = session.run_many(&[&u, &q], Engine::default());
    let direct = u.run(Engine::default());
    assert_eq!(batch[0].nodes(), direct.nodes());
    assert_eq!(batch[0].stats().steps.len(), direct.stats().steps.len());
    // Empty documents yield empty outputs, one per query.
    let empty = Session::new(EncodingBuilder::new().finish());
    let eq = empty.prepare("//b").unwrap();
    let outs = empty.run_many(&[&eq, &eq], Engine::default());
    assert_eq!(outs.len(), 2);
    assert!(outs.iter().all(|o| o.is_empty()));
}

/// Fragment (on-list) joins batch: under the fragmented engine — and
/// under `auto` wherever it plans fragments — lanes naming the same tag
/// share one cursor over the per-tag list, so batch touched totals drop
/// strictly below the sequential sum while results stay identical.
#[test]
fn fragment_joins_share_the_list_cursor() {
    let session = Session::new(generate(XmarkConfig::new(0.05)));
    // All eight first steps are name tests from the root: same tag ⇒
    // same fragment lane group, deduped context ⇒ one pass.
    let exprs = [
        "/descendant::bidder",
        "/descendant::bidder/ancestor::open_auction",
        "/descendant::bidder/descendant::increase",
        "/descendant::bidder[increase]",
        "/descendant::person",
        "/descendant::person/descendant::education",
        "/descendant::increase",
        "/descendant::increase/ancestor::bidder",
    ];
    let queries: Vec<Query> = exprs.iter().map(|e| session.prepare(e).unwrap()).collect();
    let refs: Vec<&Query> = queries.iter().collect();
    for engine in [
        Engine::staircase().fragmented(true).build().unwrap(),
        Engine::staircase().pushdown(true).build().unwrap(),
        Engine::auto(),
    ] {
        let batch = session.run_many(&refs, engine);
        let sequential: Vec<QueryOutput> = queries.iter().map(|q| q.run(engine)).collect();
        let (batch_total, seq_total) = (touched(&batch), touched(&sequential));
        assert!(
            batch_total < seq_total,
            "{engine:?}: batch touched {batch_total} !< sequential {seq_total}"
        );
        for ((e, b), s) in exprs.iter().zip(&batch).zip(&sequential) {
            assert_eq!(b.nodes(), s.nodes(), "{e} via {engine:?}");
        }
    }
}

/// Horizontal axes batch too: the nested following/preceding regions of
/// a group come out of one shared scan, attributed to the widest lane.
#[test]
fn horizontal_axes_share_one_scan() {
    let session = Session::new(generate(XmarkConfig::new(0.05)));
    let exprs = [
        "/descendant::bidder/following::node()",
        "/descendant::person/following::node()",
        "/descendant::increase/following::node()",
        "/descendant::bidder/preceding::node()",
        "/descendant::education/preceding::node()",
    ];
    let queries: Vec<Query> = exprs.iter().map(|e| session.prepare(e).unwrap()).collect();
    let refs: Vec<&Query> = queries.iter().collect();
    let engine = Engine::default();
    let batch = session.run_many(&refs, engine);
    let mut batch_horiz = 0u64;
    let mut seq_horiz = 0u64;
    for (q, b) in queries.iter().zip(&batch) {
        let s = q.run(engine);
        assert_eq!(b.nodes(), s.nodes());
        batch_horiz += b.stats().steps[1].nodes_touched;
        seq_horiz += s.stats().steps[1].nodes_touched;
    }
    assert!(
        batch_horiz < seq_horiz,
        "horizontal round: batch touched {batch_horiz} !< sequential {seq_horiz}"
    );
}

/// Steps carrying semijoin predicates stay on the lane path (the probes
/// are grouped), so a batch of predicate-heavy queries still shares its
/// join passes.
#[test]
fn semijoin_predicates_do_not_break_batching() {
    let session = Session::new(generate(XmarkConfig::new(0.05)));
    let exprs = [
        "/descendant::open_auction[bidder]",
        "/descendant::open_auction[descendant::increase]",
        "/descendant::open_auction[bidder][descendant::date]",
        "/descendant::bidder[increase]/ancestor::open_auction",
    ];
    let queries: Vec<Query> = exprs.iter().map(|e| session.prepare(e).unwrap()).collect();
    let refs: Vec<&Query> = queries.iter().collect();
    for engine in [Engine::default(), Engine::auto()] {
        let batch = session.run_many(&refs, engine);
        let sequential: Vec<QueryOutput> = queries.iter().map(|q| q.run(engine)).collect();
        for ((e, b), s) in exprs.iter().zip(&batch).zip(&sequential) {
            assert_eq!(b.nodes(), s.nodes(), "{e} via {engine:?}");
            for (bt, st) in b.stats().steps.iter().zip(&s.stats().steps) {
                assert_eq!(bt.result_size, st.result_size, "{e} via {engine:?}");
            }
        }
        // The four first steps share passes: strictly fewer touches than
        // four sequential runs (which re-scan per query).
        let (batch_total, seq_total) = (touched(&batch), touched(&sequential));
        assert!(
            batch_total < seq_total,
            "{engine:?}: batch touched {batch_total} !< sequential {seq_total}"
        );
    }
}

/// A multi-step predicate is a semijoin chain, not a nested loop: the
/// step stays on the lane path like a one-step semijoin does, lanes
/// carrying the same chain share its join pass (and, inside the
/// executor, one reduction of the chain — asserted next to the code, in
/// `staircase-xpath`'s batch tests, since predicate work is in no public
/// counter), and the answers are the sequential ones.
#[test]
fn chain_predicates_stay_on_the_lane_path() {
    let session = Session::new(generate(XmarkConfig::new(0.05)));
    let exprs = [
        "//open_auction[bidder/increase]",
        "//open_auction[bidder/increase]/@id",
        "/descendant::open_auction[child::bidder[child::increase]]/descendant::date",
        "//open_auction[.//bidder[date]/increase]",
        "//increase[ancestor::open_auction/bidder/date]",
    ];
    let queries: Vec<Query> = exprs.iter().map(|e| session.prepare(e).unwrap()).collect();
    let refs: Vec<&Query> = queries.iter().collect();
    let oracle: Vec<QueryOutput> = queries.iter().map(|q| q.run(Engine::naive())).collect();
    assert!(oracle.iter().all(|o| !o.is_empty()));
    for engine in [
        Engine::default(),
        Engine::staircase().fragmented(true).build().unwrap(),
        Engine::auto(),
    ] {
        for q in &queries {
            let plan = q.explain(engine);
            assert!(plan.to_string().contains("semijoin["), "{plan}");
        }
        let batch = session.run_many(&refs, engine);
        let sequential: Vec<QueryOutput> = queries.iter().map(|q| q.run(engine)).collect();
        for (((e, b), s), o) in exprs.iter().zip(&batch).zip(&sequential).zip(&oracle) {
            assert_eq!(b.nodes(), o.nodes(), "{e} via {engine:?}");
            assert_eq!(s.nodes(), o.nodes(), "{e} via {engine:?}");
        }
        // Four lanes open with `descendant::open_auction`: one pass.
        let (batch_total, seq_total) = (touched(&batch), touched(&sequential));
        assert!(
            batch_total < seq_total,
            "{engine:?}: batch touched {batch_total} !< sequential {seq_total}"
        );
    }
}

/// Horizontal axes on batching and fallback-only engines alike must
/// line up with sequential runs node for node and trace for trace,
/// including mixed batches where vertical steps batch around them.
#[test]
fn horizontal_axes_match_sequential_per_query() {
    let session = Session::new(generate(XmarkConfig::new(0.05)));
    let exprs = [
        "/descendant::bidder/following::node()",
        "/descendant::person/preceding::node()",
        "/descendant::increase/following::date",
        "/descendant::education/preceding::bidder",
        // Mixed: a batchable vertical step on either side of a
        // horizontal one.
        "/descendant::open_auction/following::node()/descendant::increase",
        "/descendant::profile/preceding::node()/ancestor::open_auction",
    ];
    let queries: Vec<Query> = exprs.iter().map(|e| session.prepare(e).unwrap()).collect();
    let refs: Vec<&Query> = queries.iter().collect();

    for engine in [
        Engine::default(),
        Engine::staircase().fragmented(true).build().unwrap(),
        Engine::auto(),
        Engine::naive(),
    ] {
        let batch = session.run_many(&refs, engine);
        assert_eq!(batch.len(), queries.len());
        let mut some_result = false;
        for ((expr, q), b) in exprs.iter().zip(&queries).zip(&batch) {
            let s = q.run(engine);
            assert_eq!(b.nodes(), s.nodes(), "{expr} via {engine:?}");
            assert_eq!(
                b.stats().steps.len(),
                s.stats().steps.len(),
                "{expr} via {engine:?}"
            );
            for (bt, st) in b.stats().steps.iter().zip(&s.stats().steps) {
                assert_eq!(bt.step, st.step, "{expr} via {engine:?}");
                assert_eq!(bt.result_size, st.result_size, "{expr} via {engine:?}");
            }
            some_result |= !b.is_empty();
        }
        assert!(some_result, "workload must exercise non-empty results");
    }
}

/// `Engine::auto` batches the steps it planned as plain staircase joins
/// exactly like the fixed staircase engine: shared first steps cost one
/// pass, and results stay identical to sequential runs.
#[test]
fn auto_planned_staircase_steps_share_passes() {
    let session = Session::new(generate(XmarkConfig::new(0.05)));
    // node() tests keep auto on the plain staircase join (no fragment
    // to exploit), so all four first steps share the root context pass.
    let exprs = [
        "/descendant::node()",
        "/descendant::node()/ancestor::node()",
        "/descendant::node()/descendant::node()",
        "/descendant::node()/following::node()",
    ];
    let queries: Vec<Query> = exprs.iter().map(|e| session.prepare(e).unwrap()).collect();
    let refs: Vec<&Query> = queries.iter().collect();
    let batch = session.run_many(&refs, Engine::auto());
    let sequential: Vec<QueryOutput> = queries.iter().map(|q| q.run(Engine::auto())).collect();
    for (b, s) in batch.iter().zip(&sequential) {
        assert_eq!(b.nodes(), s.nodes());
    }
    let first_step_total: u64 = batch.iter().map(|o| o.stats().steps[0].nodes_touched).sum();
    let first_step_single = sequential[0].stats().steps[0].nodes_touched;
    assert_eq!(
        first_step_total, first_step_single,
        "shared first step must cost one pass under auto"
    );
}

/// A step whose query trips its budget never enters the memo: the same
/// text ungoverned, later in the batch, computes its own steps and
/// reports what it reports alone.
#[test]
fn a_tripped_step_never_enters_the_memo() {
    let session = Session::new(generate(XmarkConfig::new(0.05)));
    let text = "/descendant::node()/ancestor::node()";
    let governed = session.prepare(text).unwrap();
    let plain = session.prepare(text).unwrap();
    for engine in [Engine::default(), Engine::auto()] {
        let budget = std::sync::Arc::new(Budget::new().with_max_touched(10));
        let outs = session.execute(&[(&governed, Some(budget)), (&plain, None)], engine, None);
        assert!(
            matches!(outs[0], Err(Error::BudgetExhausted)),
            "{engine:?}: the governed query trips: {:?}",
            outs[0].as_ref().map(|o| o.len())
        );
        let batched = outs[1].as_ref().expect("the ungoverned twin completes");
        let alone = plain.run(engine);
        assert_eq!(batched.nodes(), alone.nodes(), "{engine:?}");
        assert_eq!(batched.stats().steps, alone.stats().steps, "{engine:?}");
        assert!(batched.stats().steps[0].nodes_touched > 0, "{engine:?}");
    }
}
