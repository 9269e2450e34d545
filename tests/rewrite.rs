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

// ── Normalisation and semijoin chains against an independent reference ──

mod reference {
    //! A reference evaluator for the parsed (**not** normalised)
    //! expression over the plain `staircase_xml` tree: axes are walked
    //! through parent/child links, a step is "for every context node,
    //! every node on the axis", a predicate is evaluated once per
    //! candidate, `//` is the literal
    //! `descendant-or-self::node()/child::`. It shares nothing with the
    //! engines — no pre/post/level column, no normaliser, no planner —
    //! except the numbering of nodes, which it rebuilds from the tree
    //! (an element, its attributes, then its children, in document
    //! order).

    use std::collections::BTreeSet;

    use staircase_suite::prelude::{Axis, Document};
    use staircase_xml::{NodeId, NodeKind as TreeKind};
    use staircase_xpath::{parse_union, NodeTest, Path, Predicate, Step};

    enum Kind {
        Element(String),
        Attribute(String),
        Text,
        Comment,
        Pi(String),
    }

    struct Node {
        kind: Kind,
        parent: Option<usize>,
        /// Child nodes (never attributes), in document order.
        children: Vec<usize>,
        attributes: Vec<usize>,
    }

    pub struct Tree {
        nodes: Vec<Node>,
    }

    impl Tree {
        pub fn parse(xml: &str) -> Tree {
            let document = Document::parse(xml).expect("generated XML is well-formed");
            let mut tree = Tree { nodes: Vec::new() };
            let root = document.root_element().expect("generated XML has a root");
            tree.add(&document, root, None);
            tree
        }

        fn push(&mut self, kind: Kind, parent: Option<usize>) -> usize {
            self.nodes.push(Node {
                kind,
                parent,
                children: Vec::new(),
                attributes: Vec::new(),
            });
            self.nodes.len() - 1
        }

        fn add(&mut self, document: &Document, id: NodeId, parent: Option<usize>) -> usize {
            match document.kind(id) {
                TreeKind::Element { name, attributes } => {
                    let me = self.push(Kind::Element(name.clone()), parent);
                    for (attr, _) in attributes {
                        let a = self.push(Kind::Attribute(attr.clone()), Some(me));
                        self.nodes[me].attributes.push(a);
                    }
                    for child in document.children(id) {
                        let c = self.add(document, child, Some(me));
                        self.nodes[me].children.push(c);
                    }
                    me
                }
                TreeKind::Text(_) => self.push(Kind::Text, parent),
                TreeKind::Comment(_) => self.push(Kind::Comment, parent),
                TreeKind::Pi { target, .. } => self.push(Kind::Pi(target.clone()), parent),
                TreeKind::Document => unreachable!("only the arena root is a document node"),
            }
        }

        fn descendants(&self, v: usize, out: &mut Vec<usize>) {
            for &c in &self.nodes[v].children {
                out.push(c);
                self.descendants(c, out);
            }
        }

        fn axis(&self, v: usize, axis: Axis) -> Vec<usize> {
            let mut out = Vec::new();
            match axis {
                Axis::SelfAxis => out.push(v),
                Axis::Child => out.extend(&self.nodes[v].children),
                Axis::Attribute => out.extend(&self.nodes[v].attributes),
                Axis::Parent => out.extend(self.nodes[v].parent),
                Axis::Descendant => self.descendants(v, &mut out),
                Axis::DescendantOrSelf => {
                    out.push(v);
                    self.descendants(v, &mut out);
                }
                Axis::Ancestor | Axis::AncestorOrSelf => {
                    if axis == Axis::AncestorOrSelf {
                        out.push(v);
                    }
                    let mut up = self.nodes[v].parent;
                    while let Some(a) = up {
                        out.push(a);
                        up = self.nodes[a].parent;
                    }
                }
                // The nodes after (before) `v` in document order that
                // are neither in its subtree nor on its ancestor chain.
                Axis::Following | Axis::Preceding => {
                    let mut kin = Vec::new();
                    self.descendants(v, &mut kin);
                    let mut up = self.nodes[v].parent;
                    while let Some(a) = up {
                        kin.push(a);
                        up = self.nodes[a].parent;
                    }
                    out.extend((0..self.nodes.len()).filter(|&u| {
                        (u > v) == (axis == Axis::Following)
                            && u != v
                            && !kin.contains(&u)
                            && !matches!(self.nodes[u].kind, Kind::Attribute(_))
                    }));
                }
                other => panic!("the generator never emits {other}"),
            }
            out
        }

        fn passes(&self, v: usize, test: &NodeTest, axis: Axis) -> bool {
            let kind = &self.nodes[v].kind;
            match test {
                NodeTest::AnyNode => true,
                NodeTest::Text => matches!(kind, Kind::Text),
                NodeTest::Comment => matches!(kind, Kind::Comment),
                NodeTest::Pi(None) => matches!(kind, Kind::Pi(_)),
                NodeTest::Pi(Some(target)) => matches!(kind, Kind::Pi(t) if t == target),
                // The principal node kind: attributes on the attribute
                // axis, elements everywhere else.
                NodeTest::AnyPrincipal | NodeTest::Name(_) => {
                    let name = match (kind, axis) {
                        (Kind::Attribute(name), Axis::Attribute) => name,
                        (Kind::Element(name), axis) if axis != Axis::Attribute => name,
                        _ => return false,
                    };
                    !matches!(test, NodeTest::Name(wanted) if wanted != name)
                }
            }
        }

        fn step(&self, context: &BTreeSet<usize>, step: &Step) -> BTreeSet<usize> {
            let mut out = BTreeSet::new();
            for &c in context {
                for v in self.axis(c, step.axis) {
                    let keep = self.passes(v, &step.test, step.axis)
                        && step.predicates.iter().all(|Predicate::Exists(p)| {
                            !self.path(p, &BTreeSet::from([v])).is_empty()
                        });
                    if keep {
                        out.insert(v);
                    }
                }
            }
            out
        }

        fn path(&self, path: &Path, context: &BTreeSet<usize>) -> BTreeSet<usize> {
            let mut current = if path.absolute {
                BTreeSet::from([0])
            } else {
                context.clone()
            };
            for step in &path.steps {
                current = self.step(&current, step);
            }
            current
        }

        /// The expression's answer from the root element, as node
        /// numbers in document order.
        pub fn eval(&self, expr: &str) -> Vec<u32> {
            let parsed = parse_union(expr).expect("generated queries parse");
            let root = BTreeSet::from([0]);
            let mut all = BTreeSet::new();
            for branch in &parsed.branches {
                all.extend(self.path(branch, &root));
            }
            all.into_iter().map(|v| v as u32).collect()
        }
    }
}

mod abbreviated {
    use super::reference::Tree;
    use proptest::prelude::*;
    use staircase_suite::prelude::*;

    const TAGS: [&str; 4] = ["a", "b", "c", "d"];

    /// Small documents over `a`/`b`/`c`/`d` with `id` attributes, text
    /// and comments. Three shapes: random trees, chains (every element
    /// the only child of the one before — including `<a><a><a>` runs of
    /// one tag) and stars (one parent, many leaves).
    fn arb_xml() -> impl Strategy<Value = String> {
        (
            0u8..4,
            proptest::collection::vec((0u8..8, 0usize..4), 1..60),
        )
            .prop_map(|(shape, ops)| {
                let mut xml = String::from("<a>");
                let mut open: Vec<&str> = Vec::new();
                let mut text_last = false;
                for (i, (op, tag)) in ops.into_iter().enumerate() {
                    // Chains never close, stars never nest; shape 3 nests one
                    // tag only.
                    let tag = if shape == 3 { TAGS[0] } else { TAGS[tag] };
                    let op = match shape {
                        1 | 3 if op < 5 => 0,
                        2 if op < 2 => 6,
                        _ => op,
                    };
                    match op {
                        0 | 1 => {
                            let id = if i % 3 == 0 { " id='x'" } else { "" };
                            xml.push_str(&format!("<{tag}{id}>"));
                            open.push(tag);
                            text_last = false;
                        }
                        2 | 3 if !open.is_empty() => {
                            xml.push_str(&format!("</{}>", open.pop().unwrap()));
                            text_last = false;
                        }
                        4 if !text_last => {
                            xml.push_str("text");
                            text_last = true;
                        }
                        5 => {
                            xml.push_str("<!--c-->");
                            text_last = false;
                        }
                        _ => {
                            xml.push_str(&format!("<{tag} id='y'/>"));
                            text_last = false;
                        }
                    }
                }
                while let Some(tag) = open.pop() {
                    xml.push_str(&format!("</{tag}>"));
                }
                xml.push_str("</a>");
                xml
            })
    }

    /// Queries the way people type them: `//`, `.//`, bare names,
    /// `@id`, `text()`, and predicates from one step to nested chains —
    /// every shape the normaliser rewrites, every shape the chain
    /// lowering takes, and the neighbours of both that must stay put.
    fn arb_path() -> impl Strategy<Value = String> {
        let lead = prop_oneof![
            Just("//"),
            Just("//"),
            Just("//"),
            Just(".//"),
            Just("/"),
            Just("")
        ];
        let sep = prop_oneof![Just("/"), Just("//"), Just("//")];
        let test = prop_oneof![
            Just("a"),
            Just("b"),
            Just("c"),
            Just("d"),
            Just("a"),
            Just("b"),
            Just("*"),
            Just("text()"),
            Just("node()"),
            Just("@id"),
            Just("."),
            Just(".."),
            Just("descendant::c"),
            Just("descendant-or-self::b"),
            Just("ancestor::a"),
        ];
        let pred = prop_oneof![
            Just(""),
            Just(""),
            Just(""),
            Just("[b]"),
            Just("[b/c]"),
            Just("[.//b]"),
            Just("[.//b/c[d]]"),
            Just("[ancestor::b/c]"),
            Just("[a//a]"),
            Just("[b[c][d]]"),
            Just("[c/ancestor::a[b]/d]"),
            Just("[descendant::c[ancestor::b]]"),
            Just("[@id]"),
            Just("[b/@id]"),
            Just("[b[c]/..]"),
            Just("[.//text()]"),
            Just("[*/c]"),
            Just("[//d]"),
            Just("[.]"),
        ];
        (lead, proptest::collection::vec((sep, test, pred), 1..4)).prop_map(|(lead, steps)| {
            let mut out = String::from(lead);
            for (i, (sep, test, pred)) in steps.into_iter().enumerate() {
                if i > 0 {
                    out.push_str(sep);
                }
                out.push_str(test);
                // Abbreviated steps take no predicate in this grammar.
                if !matches!(test, "." | "..") {
                    out.push_str(pred);
                }
            }
            out
        })
    }

    fn arb_query() -> impl Strategy<Value = String> {
        prop_oneof![
            arb_path(),
            arb_path(),
            arb_path(),
            (arb_path(), arb_path()).prop_map(|(l, r)| format!("{l} | {r}")),
        ]
    }

    fn engines() -> Vec<Engine> {
        vec![
            Engine::default(),
            Engine::staircase().pushdown(true).build().unwrap(),
            Engine::staircase().fragmented(true).build().unwrap(),
            Engine::auto(),
            Engine::adaptive(),
            Engine::twig(),
            Engine::naive(),
            Engine::sql().build().unwrap(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every engine, through `run` and `run_many`, answers node- and
        /// order-identically to the reference's literal evaluation of
        /// what was typed.
        #[test]
        fn engines_agree_with_the_literal_semantics(
            (xml, exprs) in (arb_xml(), proptest::collection::vec(arb_query(), 1..5))
        ) {
            let tree = Tree::parse(&xml);
            let expected: Vec<Vec<u32>> = exprs.iter().map(|e| tree.eval(e)).collect();
            let session = Session::parse_xml(&xml).unwrap();
            let queries: Vec<Query> = exprs
                .iter()
                .map(|e| session.prepare(e).unwrap_or_else(|err| panic!("{e:?}: {err}")))
                .collect();
            let refs: Vec<&Query> = queries.iter().collect();
            for engine in engines() {
                let batch = session.run_many(&refs, engine);
                for ((expr, query), (want, got)) in
                    exprs.iter().zip(&queries).zip(expected.iter().zip(&batch))
                {
                    prop_assert_eq!(
                        got.nodes().as_slice(), &want[..],
                        "run_many: {} via {:?} on {}", expr, engine, xml
                    );
                    prop_assert_eq!(
                        query.run(engine).nodes().as_slice(), &want[..],
                        "run: {} via {:?} on {}", expr, engine, xml
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

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
        fn batch_memo_agrees_with_the_reference(
            (xml, exprs) in (arb_xml(), proptest::collection::vec(arb_query(), 1..4))
        ) {
            let tree = Tree::parse(&xml);
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
            for engine in engines() {
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
        let tree = Tree::parse(xml);
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
            for engine in engines() {
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
        let all = engines();
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
            let tree = Tree::parse(xml);
            let session = Session::parse_xml(xml).unwrap();
            for &expr in exprs {
                let want = tree.eval(expr);
                assert!(!want.is_empty(), "{expr}");
                for &engine in &all {
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
        let tree = Tree::parse(xml);
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
            for engine in engines() {
                let got = session.run(expr, engine).unwrap();
                assert_eq!(got.nodes().as_slice(), &want[..], "{expr} via {engine:?}");
            }
        }
        // The reference itself, by hand: the root `a` is nobody's child.
        assert_eq!(tree.eval("//b").len(), 4);
        assert_eq!(tree.eval("//a").len(), 2);
        assert_eq!(tree.eval("//a//b").len(), 1);
    }
}
