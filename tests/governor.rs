//! The query governor, end to end: deadlines stop pathological queries
//! promptly, cost budgets trip at the touched-node ceiling, cooperative
//! cancellation works from another thread, and every trip is
//! lane-local — batch siblings complete node- and order-identical to an
//! ungoverned run, and the session stays reusable afterwards.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use staircase_suite::oracle::{self, counters, Shape};
use staircase_suite::prelude::*;

/// A two-level document: `root` over `fanout` `p` elements, each over
/// `width` `q` elements — big enough that a full-document pass is
/// measurable work, cheap enough to build in every test.
fn layered_doc(fanout: usize, width: usize) -> Doc {
    let mut b = EncodingBuilder::new();
    b.open_element("root");
    for _ in 0..fanout {
        b.open_element("p");
        for _ in 0..width {
            b.open_element("q");
            b.close_element();
        }
        b.close_element();
    }
    b.close_element();
    b.finish()
}

/// A query whose every step visits (roughly) the whole document:
/// `steps` alternating full-plane descendant/ancestor passes. Running
/// it ungoverned costs `steps × |doc|` touched nodes — the pathological
/// shape the governor exists for.
fn pathological_query(steps: usize) -> String {
    let mut q = String::from("/descendant-or-self::*");
    for i in 0..steps {
        q.push_str(if i % 2 == 0 {
            "/ancestor-or-self::*"
        } else {
            "/descendant-or-self::*"
        });
    }
    q
}

fn engine() -> Engine {
    Engine::staircase().build().expect("valid engine config")
}

/// `query` on `engine` under `budget`: one governed slot of
/// [`Session::execute`], from the root.
fn governed(query: &Query<'_>, engine: Engine, budget: Arc<Budget>) -> Result<QueryOutput, Error> {
    query
        .session()
        .execute(&[(query, Some(budget))], engine, None)
        .remove(0)
}

#[test]
fn a_50ms_deadline_stops_a_pathological_query_promptly() {
    let session = Session::new(layered_doc(300, 400));
    let query = session
        .prepare(&pathological_query(2000))
        .expect("query parses");
    let budget = Arc::new(Budget::new().with_deadline_in(Duration::from_millis(50)));
    let started = Instant::now();
    let out = governed(&query, engine(), budget);
    let elapsed = started.elapsed();
    assert!(
        matches!(out, Err(Error::DeadlineExceeded)),
        "expected a deadline trip, got {out:?}"
    );
    // Promptness: enforcement is amortized (chunk boundaries, round
    // boundaries), so the stop lands within a small multiple of the
    // deadline — not after the multi-second ungoverned runtime.
    assert!(
        elapsed < Duration::from_secs(2),
        "deadline enforced too late: {elapsed:?}"
    );

    // The session survives the trip: ordinary queries still answer.
    let ok = session.prepare("//q").expect("query parses").run(engine());
    assert_eq!(ok.len(), 300 * 400);
}

#[test]
fn a_cost_budget_trips_at_the_touched_node_ceiling() {
    let session = Session::new(layered_doc(100, 100));
    let query = session
        .prepare(&pathological_query(20))
        .expect("query parses");

    let tight = Arc::new(Budget::new().with_max_touched(2_000));
    let out = governed(&query, engine(), Arc::clone(&tight));
    assert!(
        matches!(out, Err(Error::BudgetExhausted)),
        "expected a cost trip, got {out:?}"
    );
    assert!(
        tight.touched() >= 2_000,
        "the trip must record the ceiling being reached, saw {}",
        tight.touched()
    );

    // A generous budget changes nothing about the answer.
    let loose = Arc::new(Budget::new().with_max_touched(u64::MAX));
    let governed = governed(&query, engine(), loose).expect("a generous budget must not trip");
    let baseline = query.run(engine());
    assert_eq!(governed.nodes().as_slice(), baseline.nodes().as_slice());
}

#[test]
fn cancellation_from_another_thread_stops_the_query() {
    let session = Session::new(layered_doc(300, 400));
    let query = session
        .prepare(&pathological_query(60))
        .expect("query parses");
    let budget = Arc::new(Budget::new());
    let canceller = {
        let budget = Arc::clone(&budget);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            budget.cancel();
        })
    };
    let started = Instant::now();
    let out = governed(&query, engine(), budget);
    let elapsed = started.elapsed();
    canceller.join().expect("canceller thread");
    assert!(
        matches!(out, Err(Error::Cancelled)),
        "expected a cancellation, got {out:?}"
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "cancellation observed too late: {elapsed:?}"
    );
}

#[test]
fn a_dead_budget_fails_before_any_work() {
    let session = Session::new(layered_doc(10, 10));
    let query = session.prepare("//q").expect("query parses");
    let budget = Arc::new(Budget::new());
    budget.cancel();
    let out = governed(&query, engine(), Arc::clone(&budget));
    assert!(matches!(out, Err(Error::Cancelled)), "got {out:?}");
    assert_eq!(budget.touched(), 0, "a dead budget must admit no work");
}

#[test]
fn a_tripped_lane_leaves_batch_siblings_identical() {
    let doc = layered_doc(60, 60);
    let exprs = [
        "//q",
        "/descendant::q/ancestor::p",
        "//p[q]",
        // The governed victim: full-plane passes against a 500-node cap.
        "/descendant-or-self::*/ancestor-or-self::*/descendant-or-self::*",
    ];
    for engine in [engine(), Engine::auto()] {
        let session = Session::new(doc.clone());
        let queries: Vec<_> = exprs
            .iter()
            .map(|e| session.prepare(e).expect("query parses"))
            .collect();
        let refs: Vec<&_> = queries.iter().collect();
        let baseline = session.run_many(&refs, engine);

        let mut jobs: Vec<_> = refs.iter().map(|&q| (q, None)).collect();
        jobs[exprs.len() - 1].1 = Some(Arc::new(Budget::new().with_max_touched(500)));
        let governed = session.execute(&jobs, engine, None);

        assert!(
            matches!(governed.last(), Some(Err(Error::BudgetExhausted))),
            "the victim must trip, got {:?}",
            governed.last()
        );
        for (i, (g, b)) in governed.iter().zip(&baseline).enumerate() {
            if i == exprs.len() - 1 {
                continue;
            }
            let g = g
                .as_ref()
                .unwrap_or_else(|e| panic!("sibling {i} must complete, got {e}"));
            assert_eq!(
                g.nodes().as_slice(),
                b.nodes().as_slice(),
                "sibling {i} diverged from the ungoverned run"
            );
        }

        // The session is still whole: the same batch answers again.
        let again = session.run_many(&refs, engine);
        for (a, b) in again.iter().zip(&baseline) {
            assert_eq!(a.nodes().as_slice(), b.nodes().as_slice());
        }
    }
}

/// One [`Session::execute`] batch of K > 1 queries from one explicit
/// context, governed and ungoverned slots mixed: each ungoverned slot —
/// and the slot whose budget never binds — is node- and order-identical
/// to its K = 1 run, and only the tight budget trips.
#[test]
fn a_batch_from_an_explicit_context_mixes_governed_and_ungoverned_slots() {
    let doc = layered_doc(60, 60);
    let exprs = [
        "child::q",
        "ancestor::root",
        "following::q",
        // Full-plane passes against a 500-node cap.
        "descendant-or-self::*/ancestor-or-self::*/descendant-or-self::*",
        "self::p[q]",
    ];
    for engine in [engine(), Engine::auto()] {
        let session = Session::new(doc.clone());
        let from = session.run("//p", engine).expect("runs").into_nodes();
        assert_eq!(from.len(), 60);
        let queries: Vec<_> = exprs
            .iter()
            .map(|e| session.prepare(e).expect("query parses"))
            .collect();
        let alone = |q: &Query<'_>| {
            session
                .execute(&[(q, None)], engine, Some(&from))
                .remove(0)
                .expect("an ungoverned run completes")
        };
        let loose = Arc::new(Budget::new().with_max_touched(u64::MAX));
        let tight = Arc::new(Budget::new().with_max_touched(500));
        let jobs = [
            (&queries[0], None),
            (&queries[1], Some(Arc::clone(&loose))),
            (&queries[2], None),
            (&queries[3], Some(Arc::clone(&tight))),
            (&queries[4], None),
        ];
        let outs = session.execute(&jobs, engine, Some(&from));
        let label = format!("{engine:?}");
        assert!(
            matches!(outs[3], Err(Error::BudgetExhausted)),
            "{label}: the tight slot must trip, got {:?}",
            outs[3]
        );
        for i in [0, 1, 2, 4] {
            let out = outs[i]
                .as_ref()
                .unwrap_or_else(|e| panic!("{label}: slot {i} must complete, got {e}"));
            assert_eq!(
                out.nodes().as_slice(),
                alone(&queries[i]).nodes().as_slice(),
                "{label}: slot {i} diverged from its K = 1 run"
            );
        }
        assert!(loose.touched() > 0, "{label}: the loose slot was charged");
    }
}

/// On an empty document no round runs, yet a budget that is already
/// dead still fails its slot with its own typed trip, beside slots that
/// answer empty.
#[test]
fn a_dead_budget_trips_even_on_an_empty_document() {
    let session = Session::new(EncodingBuilder::new().finish());
    let query = session.prepare("//q").expect("query parses");
    let cancelled = Arc::new(Budget::new());
    cancelled.cancel();
    let expired = Arc::new(Budget::new().with_deadline_in(Duration::ZERO));
    let live = Arc::new(Budget::new().with_deadline_in(Duration::from_secs(60)));
    let outs = session.execute(
        &[
            (&query, None),
            (&query, Some(cancelled)),
            (&query, Some(expired)),
            (&query, Some(live)),
        ],
        engine(),
        None,
    );
    assert!(
        matches!(&outs[0], Ok(out) if out.is_empty()),
        "{:?}",
        outs[0]
    );
    assert!(matches!(outs[1], Err(Error::Cancelled)), "{:?}", outs[1]);
    assert!(
        matches!(outs[2], Err(Error::DeadlineExceeded)),
        "{:?}",
        outs[2]
    );
    assert!(
        matches!(&outs[3], Ok(out) if out.is_empty()),
        "{:?}",
        outs[3]
    );
}

/// Runs `exprs` as one batch on `engine` with its first, then its second
/// query under a `ceiling` cost budget: that query trips, and every
/// ungoverned sibling answers what the ungoverned batch answers.
fn assert_trips_are_lane_local(session: &Session, exprs: &[&str], engine: Engine, ceiling: u64) {
    let prepare = |e: &&str| session.prepare(e).expect("query parses");
    let queries: Vec<_> = exprs.iter().map(prepare).collect();
    let refs: Vec<&_> = queries.iter().collect();
    let baseline = session.run_many(&refs, engine);
    for victim in [0usize, 1] {
        let mut jobs: Vec<_> = refs.iter().map(|&q| (q, None)).collect();
        jobs[victim].1 = Some(Arc::new(Budget::new().with_max_touched(ceiling)));
        let governed = session.execute(&jobs, engine, None);
        for (i, (g, b)) in governed.iter().zip(&baseline).enumerate() {
            match g {
                Err(Error::BudgetExhausted) if i == victim => {}
                Ok(g) if i != victim => {
                    assert_eq!(
                        g.nodes(),
                        b.nodes(),
                        "victim {victim}: sibling {i} diverged"
                    )
                }
                other => panic!("victim {victim}, query {i}: got {other:?}"),
            }
        }
    }
}

/// ≈ 100 000 nodes: `people` over 1 000 `person`s, each a `profile` and
/// 98 fillers, and one `closing` element after them all — so
/// `closing/preceding::node()` is a single comparison-free run over the
/// whole `people` subtree.
fn people_doc() -> Doc {
    let mut b = EncodingBuilder::new();
    b.open_element("site");
    b.open_element("people");
    for _ in 0..1_000 {
        b.open_element("person");
        b.open_element("profile");
        b.close_element();
        for _ in 0..98 {
            b.open_element("x");
            b.close_element();
        }
        b.close_element();
    }
    b.close_element();
    b.open_element("closing");
    b.close_element();
    b.close_element();
    b.finish()
}

/// The plain engine's scans carry their node test and run their
/// comparison-free ranges through one governed helper: a tight cost
/// budget still stops them mid-scan, one chunk past the ceiling at most.
#[test]
fn a_cost_budget_stops_a_fused_scan_within_one_chunk() {
    use staircase_core::governor::SCAN_CHUNK;
    const CEILING: u64 = 1_000;
    let session = Session::new(people_doc());
    let n = session.doc().len() as u64;
    assert!(n > 100_000);
    let tripped_inside = |what: &str, out: Result<QueryOutput, Error>, budget: &Budget| {
        assert!(
            matches!(out, Err(Error::BudgetExhausted)),
            "{what}: expected a cost trip, got {out:?}"
        );
        let charged = budget.touched();
        assert!(
            charged > CEILING && charged <= CEILING + u64::from(SCAN_CHUNK),
            "{what}: charged {charged} at the trip, ceiling {CEILING}, chunk {SCAN_CHUNK}"
        );
    };

    // K = 1: the copy phase of `descendant(root)` under a name test…
    for expr in [
        "/descendant::profile",
        "/descendant::person/preceding::node()",
    ] {
        let query = session.prepare(expr).expect("query parses");
        let budget = Arc::new(Budget::new().with_max_touched(CEILING));
        let out = governed(&query, Engine::default(), Arc::clone(&budget));
        tripped_inside(expr, out, &budget);
        // …while the same query ungoverned answers.
        assert!(!query.run(Engine::default()).is_empty(), "{expr}");
    }
    // …and `preceding`'s one long subtree block (the merged scan's run).
    let closing = session.run("//closing", Engine::default()).expect("runs");
    let query = session.prepare("preceding::node()").expect("query parses");
    let budget = Arc::new(Budget::new().with_max_touched(CEILING));
    let from = |budget: Option<Arc<Budget>>| {
        session
            .execute(
                &[(&query, budget)],
                Engine::default(),
                Some(closing.nodes()),
            )
            .remove(0)
    };
    let out = from(Some(Arc::clone(&budget)));
    tripped_inside("closing/preceding::node()", out, &budget);
    let whole = from(None).expect("in range");
    assert_eq!(whole.len() as u64, n - 2, "everything but site and closing");

    // As one query of a batch: the victim trips, its ungoverned siblings
    // finish node-identical to an ungoverned batch.
    let exprs = [
        "/descendant::profile",
        "/descendant::person/preceding::node()",
        "/descendant::person",
        "/descendant::x/ancestor::person",
    ];
    assert_trips_are_lane_local(&session, &exprs, Engine::default(), CEILING);
}

/// ≈ 116 000 nodes: 380 `open_auction`s (a `bidder` with an `increase`
/// each) and 380 `person`s (a `profile` each) among 19 000 `date`s with
/// five fillers apiece — every tag fragment but `date`'s fits a 500-node
/// budget, and no join over them reaches a tick grain.
fn auction_doc() -> Doc {
    let mut b = EncodingBuilder::new();
    b.open_element("site");
    for i in 0..19_000 {
        if i % 50 == 0 {
            b.open_element("open_auction");
            b.open_element("bidder");
            b.open_element("increase");
            b.close_element();
            b.close_element();
            b.close_element();
            b.open_element("person");
            b.open_element("profile");
            b.close_element();
            b.close_element();
        }
        b.open_element("date");
        for _ in 0..5 {
            b.open_element("x");
            b.close_element();
        }
        b.close_element();
    }
    b.close_element();
    b.finish()
}

/// The on-list joins and the predicate probes are the same governed
/// loops: a cost budget the step's own join fits under still trips in
/// the predicate's probe (which used to run unseen by the governor), and
/// a root-context fragment copy trips inside its one slice.
#[test]
fn a_cost_budget_reaches_predicate_probes_and_fragment_copies() {
    use staircase_core::governor::SCAN_CHUNK;
    const CEILING: u64 = 500;
    let session = Session::new(auction_doc());
    assert!(session.doc().len() >= 100_000);
    let fragmented = Engine::staircase().fragmented(true).build().unwrap();
    let tripped = |what: &str, out: Result<QueryOutput, Error>, budget: &Budget| {
        assert!(
            matches!(out, Err(Error::BudgetExhausted)),
            "{what}: expected a cost trip, got {out:?}"
        );
        let charged = budget.touched();
        assert!(
            charged > CEILING && charged <= CEILING + u64::from(SCAN_CHUNK),
            "{what}: charged {charged} at the trip, ceiling {CEILING}, chunk {SCAN_CHUNK}"
        );
    };
    for engine in [fragmented, Engine::auto()] {
        // The step alone — 380 entries copied from the root — fits…
        for step in ["/descendant::open_auction", "/descendant::person"] {
            let query = session.prepare(step).expect("query parses");
            let budget = Arc::new(Budget::new().with_max_touched(CEILING));
            let out = governed(&query, engine, Arc::clone(&budget))
                .expect("the join alone stays under the ceiling");
            assert_eq!(out.len(), 380, "{step}");
            assert!(budget.touched() <= CEILING, "{step}: {}", budget.touched());
        }
        // …the probe of its 380 results against the predicate's list is
        // charged on top, and trips.
        for expr in [
            "/descendant::open_auction[descendant::increase]",
            "/descendant::person[child::profile]",
            "/descendant::increase[ancestor::open_auction]",
        ] {
            let query = session.prepare(expr).expect("query parses");
            let budget = Arc::new(Budget::new().with_max_touched(CEILING));
            let out = governed(&query, engine, Arc::clone(&budget));
            tripped(expr, out, &budget);
            assert_eq!(query.run(engine).len(), 380, "{expr}: ungoverned");
        }
        // One slice, 19 000 entries long: the copy is chunked under a
        // budget, so the trip comes one chunk in, not at the step's end.
        let dates = session.prepare("/descendant::date").expect("query parses");
        let budget = Arc::new(Budget::new().with_max_touched(CEILING));
        let out = governed(&dates, engine, Arc::clone(&budget));
        tripped("/descendant::date", out, &budget);
        assert_eq!(dates.run(engine).len(), 19_000);
    }

    // As one member of a batch of four: the victim trips, its ungoverned
    // siblings finish node-identical to an ungoverned batch.
    let exprs = [
        "/descendant::date",
        "/descendant::open_auction[descendant::increase]",
        "/descendant::person/child::profile",
        "/descendant::increase/ancestor::bidder",
    ];
    assert_trips_are_lane_local(&session, &exprs, Engine::auto(), CEILING);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The containment property, at arbitrary scan points: wherever a
    /// cost budget trips the first query of a batch — mid-kernel,
    /// between rounds, or never — every sibling lane answers node- and
    /// order-identical to the ungoverned run, and the session remains
    /// fully reusable afterwards.
    #[test]
    fn governed_trips_are_lane_local_and_leave_the_session_reusable(
        (seed, cap) in (0u64..1 << 40, 1u64..3_000)
    ) {
        let xml = oracle::document(Shape::Tree, seed, 1 + seed as usize % 200);
        let mut exprs = oracle::queries(seed, 4);
        exprs.push(oracle::query(&mut oracle::Rng::new(seed)));
        let session = Session::parse_xml(&xml).unwrap();
        let queries: Vec<_> = exprs
            .iter()
            .map(|e| session.prepare(e).expect("generated query parses"))
            .collect();
        let refs: Vec<&_> = queries.iter().collect();
        let baseline = session.run_many(&refs, Engine::auto());

        let mut jobs: Vec<_> = refs.iter().map(|&q| (q, None)).collect();
        jobs[0].1 = Some(Arc::new(Budget::new().with_max_touched(cap)));
        let governed = session.execute(&jobs, Engine::auto(), None);

        for (i, (g, b)) in governed.iter().zip(&baseline).enumerate() {
            match g {
                Ok(out) => prop_assert_eq!(
                    out.nodes().as_slice(),
                    b.nodes().as_slice(),
                    "query {} diverged", i
                ),
                Err(Error::BudgetExhausted) => prop_assert_eq!(
                    i, 0, "only the governed lane may trip"
                ),
                Err(other) => prop_assert!(
                    false, "unexpected failure {}", other
                ),
            }
        }

        // Reusability: the same session answers the full batch
        // ungoverned, identically, after any trip.
        let again = session.run_many(&refs, Engine::auto());
        for (a, b) in again.iter().zip(&baseline) {
            prop_assert_eq!(a.nodes().as_slice(), b.nodes().as_slice());
        }
    }
}

/// The benchmark's twelve selective point queries; the wire mix adds
/// the first one again, rendered.
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

/// Governance changes no counter: an untripped governed run of the wire
/// mix — under a pure cancel token and under a deadline an hour away —
/// answers the same nodes with the same per-step counters as the
/// ungoverned run. (On random documents and queries, for every engine,
/// alone and batched, that is `tests/oracle.rs`.)
#[test]
fn an_untripped_budget_changes_no_node_and_no_counter() {
    let session = Session::new(generate(XmarkConfig::new(0.5)));
    for engine in [Engine::auto(), engine()] {
        for expr in POINT {
            let query = session.prepare(expr).expect("query parses");
            let free = query.run(engine);
            for budget in [
                Budget::new(),
                Budget::new().with_deadline_in(Duration::from_secs(3600)),
            ] {
                let governed = governed(&query, engine, Arc::new(budget))
                    .unwrap_or_else(|e| panic!("{expr} tripped: {e}"));
                assert_eq!(governed.nodes(), free.nodes(), "{expr}");
                assert_eq!(counters(&governed), counters(&free), "{expr}");
            }
        }
    }
}
