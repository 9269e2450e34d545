//! XPath rewriting laws the paper relies on (§4.4 Experiment 3, §6):
//! name-test pushdown and the Q2 ancestor ↔ descendant-predicate rewrite.

use staircase_suite::prelude::*;

fn doc() -> Doc {
    generate(XmarkConfig::new(0.1).with_seed(3))
}

#[test]
fn q2_equals_manual_rewrite() {
    // /descendant::increase/ancestor::bidder ≡
    // /descendant::bidder[descendant::increase]    (Olteanu et al.)
    let session = Session::new(doc());
    let direct = session
        .prepare("/descendant::increase/ancestor::bidder")
        .unwrap();
    let rewrite = session
        .prepare("/descendant::bidder[descendant::increase]")
        .unwrap();
    for engine in [
        Engine::default(),
        Engine::naive(),
        Engine::sql()
            .eq1_window(true)
            .early_nametest(true)
            .build()
            .unwrap(),
    ] {
        let a = direct.run(engine);
        let b = rewrite.run(engine);
        assert_eq!(a.nodes(), b.nodes(), "{engine:?}");
        assert!(!a.is_empty());
    }
}

#[test]
fn sql_exists_rewrite_matches_xpath_semantics() {
    let session = Session::new(doc());
    let doc = session.doc();
    let engine = session.sql_engine();
    let bidder = doc.tag_id("bidder").unwrap();
    let increase = doc.tag_id("increase").unwrap();
    let (via_sql, _) =
        engine.descendant_exists_rewrite(&Context::singleton(doc.root()), bidder, increase);
    let via_xpath = session
        .run(
            "/descendant::bidder[descendant::increase]",
            Engine::default(),
        )
        .unwrap();
    assert_eq!(&via_sql, via_xpath.nodes());
}

#[test]
fn nametest_pushdown_is_transparent() {
    // nametest(scj(doc, cs), n) ≡ scj(nametest(doc, n), cs) — the paper's
    // §4.4: pre/post properties remain valid on a subset of the plane.
    let session = Session::new(doc());
    for query in [
        "/descendant::profile/descendant::education",
        "/descendant::increase/ancestor::bidder",
        "//person/descendant::interest",
    ] {
        let prepared = session.prepare(query).unwrap();
        let late = prepared.run(Engine::default());
        let early = prepared.run(Engine::staircase().pushdown(true).build().unwrap());
        assert_eq!(late.nodes(), early.nodes(), "{query}");
        let fragmented = prepared.run(Engine::staircase().fragmented(true).build().unwrap());
        assert_eq!(late.nodes(), fragmented.nodes(), "{query}");
        // With prebuilt fragments (§6) the join touches only fragment
        // nodes — far fewer than the full-plane join. (Query-time
        // pushdown pays an O(n) name-test scan instead; its win is wall
        // time, not touch count.)
        assert!(
            fragmented.stats().total_touched() < late.stats().total_touched(),
            "{query}: fragments touched {} vs {}",
            fragmented.stats().total_touched(),
            late.stats().total_touched()
        );
    }
}

#[test]
fn pushdown_on_nonselective_test_still_correct() {
    // A tag that covers most elements (the "obviously makes sense for
    // selective name tests only" caveat): correctness must hold anyway.
    let session = Session::parse_xml("<p><p><p><q/></p></p><p/></p>").unwrap();
    let query = session.prepare("//p/descendant::p").unwrap();
    let late = query.run(Engine::default());
    let early = query.run(Engine::staircase().pushdown(true).build().unwrap());
    assert_eq!(late.nodes(), early.nodes());
}

#[test]
fn predicate_evaluation_is_existential() {
    let session = Session::parse_xml("<r><a><b/><b/><b/></a><a><c/></a><a><b/></a></r>").unwrap();
    // Predicates do not multiply results: one hit per qualifying node.
    let out = session.run("//a[b]", Engine::default()).unwrap();
    assert_eq!(out.len(), 2);
}

// ── Normalisation and semijoin chains against the tree-walk oracle ──

mod abbreviated {
    use proptest::prelude::*;
    use staircase_suite::oracle::{self, Tree, ENGINES, SHAPES};
    use staircase_suite::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The batch memo against the tree walk, which reads no post or
        /// level column. For every drawn query the batch holds the query,
        /// an exact repeat of it (every step a hit), its first planned
        /// step alone (a prefix the query shares), and that step
        /// continued along `following` and `preceding`, and so is the
        /// query itself when it is one path. The continuations are asked
        /// again in reverse order at the end, so that regions of
        /// different bounds are both narrowed and widened from one
        /// another. Run through `run_many` on every engine, every answer
        /// is the reference's.
        #[test]
        fn batch_memo_agrees_with_the_reference(seed in 0u64..1 << 40) {
            let xml = oracle::document(SHAPES[seed as usize % 4], seed, 1 + seed as usize % 60);
            let exprs = oracle::queries(seed, 3);
            let tree = Tree::parse(&xml).unwrap();
            let session = Session::parse_xml(&xml).unwrap();
            let mut batch: Vec<String> = Vec::new();
            let mut regions: Vec<String> = Vec::new();
            for expr in &exprs {
                let query = session.prepare(expr).unwrap_or_else(|err| panic!("{expr:?}: {err}"));
                let plan = query.explain(Engine::default());
                let root = if expr.trim_start().starts_with('/') { "/" } else { "" };
                let prefix = format!("{root}{}", plan.branches()[0].steps()[0].source());
                let following = format!("{prefix}/following::node()");
                let preceding = format!("{prefix}/preceding::node()");
                regions.extend([preceding.clone(), following.clone()]);
                batch.extend([expr.clone(), expr.clone(), following, prefix, preceding]);
                if !expr.contains('|') {
                    for axis in ["preceding", "following"] {
                        let continued = format!("{expr}/{axis}::node()");
                        regions.push(continued.clone());
                        batch.push(continued);
                    }
                }
            }
            batch.extend(regions.into_iter().rev());
            let expected: Vec<Vec<u32>> = batch.iter().map(|e| tree.eval(e)).collect();
            let queries: Vec<Query> = batch
                .iter()
                .map(|e| session.prepare(e).unwrap_or_else(|err| panic!("{e:?}: {err}")))
                .collect();
            let refs: Vec<&Query> = queries.iter().collect();
            for &engine in ENGINES.iter() {
                let outs = session.run_many(&refs, engine);
                for ((e, want), got) in batch.iter().zip(&expected).zip(&outs) {
                    prop_assert_eq!(
                        got.nodes().as_slice(), &want[..],
                        "{} in a batch with {:?} via {:?} on {}",
                        e, batch, engine, xml
                    );
                }
            }
        }
    }

    /// The horizontal regions of a batch, narrowed and widened from one
    /// another, on a document whose elements close before later bounds
    /// (so a narrower `preceding` region must drop ancestors the wider
    /// one held): every query, in both batch orders, on every engine,
    /// is the reference's.
    #[test]
    fn batched_regions_narrow_and_widen_like_the_reference() {
        let xml = "<a><b><c/><d>t</d></b><d/><b><c><d/></c><a/></b><c/></a>";
        let tree = Tree::parse(xml).unwrap();
        let session = Session::parse_xml(xml).unwrap();
        let mut exprs: Vec<String> = Vec::new();
        for axis in ["preceding", "following"] {
            for test in ["node()", "d"] {
                for from in ["//d", "//c", "//b", "//b/c", "//a/a", "//c/d"] {
                    exprs.push(format!("{from}/{axis}::{test}"));
                }
            }
        }
        for order in [false, true] {
            if order {
                exprs.reverse();
            }
            let queries: Vec<Query> = exprs.iter().map(|e| session.prepare(e).unwrap()).collect();
            let refs: Vec<&Query> = queries.iter().collect();
            for &engine in ENGINES.iter() {
                for (expr, got) in exprs.iter().zip(session.run_many(&refs, engine)) {
                    let want = tree.eval(expr);
                    assert_eq!(got.nodes().as_slice(), &want[..], "{expr} via {engine:?}");
                }
            }
        }
    }

    /// `child::name` after a fragment step joins the list under auto and
    /// hops over the children under every fixed engine: the same nodes,
    /// in document order, on a one-tag chain whose context nodes nest
    /// and on XMark — against the tree walk.
    #[test]
    fn child_name_steps_match_the_reference_on_every_engine() {
        let chain = String::from("<a><a><a><a/><a/></a><a/></a><a/></a>");
        let xmark = generate_xml(XmarkConfig::new(0.5));
        for (xml, exprs) in [
            (&chain, &["//a/child::a", "//a/a/a", "//a[a]/child::a"][..]),
            (
                &xmark,
                &[
                    "//person/child::profile",
                    "//closed_auction/child::price",
                    "//open_auction[bidder]/child::bidder/child::increase",
                ][..],
            ),
        ] {
            let tree = Tree::parse(xml).unwrap();
            let session = Session::parse_xml(xml).unwrap();
            for &expr in exprs {
                let want = tree.eval(expr);
                assert!(!want.is_empty(), "{expr}");
                for &engine in ENGINES.iter() {
                    let got = session.run(expr, engine).unwrap();
                    assert_eq!(got.nodes().as_slice(), &want[..], "{expr} via {engine:?}");
                }
            }
        }
        // Under auto the XMark steps really are the on-list join.
        let session = Session::parse_xml(&xmark).unwrap();
        let out = session
            .run("//person/child::profile", Engine::auto())
            .unwrap();
        assert_eq!(out.stats().steps[1].op, "fragment");
    }

    /// The shapes the issue names, on a document with same-tag nesting,
    /// checked one by one so a failure names the query.
    #[test]
    fn named_shapes_match_the_reference() {
        let xml = "<a><b id='1'><c><d/>t</c><b><c/></b></b><a id='2'><a><b><c><d/></c></b></a></a>\
                   <c><b/>text<!--x--></c></a>";
        let tree = Tree::parse(xml).unwrap();
        let session = Session::parse_xml(xml).unwrap();
        for expr in [
            "//a//b",
            ".//a",
            "a//b",
            "//a[b/c]",
            "//a[.//b/c[d]]",
            "//c[ancestor::b/c]",
            "//text()",
            "//a/@id",
            "//@id",
            "//b[c/d] | //a[a]//c",
            "//a[b[c[d]]]",
            "//node()",
            "//*[.//d]/..",
            "/descendant-or-self::node()/descendant-or-self::a",
        ] {
            let want = tree.eval(expr);
            for &engine in ENGINES.iter() {
                let got = session.run(expr, engine).unwrap();
                assert_eq!(got.nodes().as_slice(), &want[..], "{expr} via {engine:?}");
            }
        }
    }
}
