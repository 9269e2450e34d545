//! Mask/scalar parity: the chunked bitmask kernels behind a node test's
//! range select are pure acceleration. Every engine must return node-
//! and order-identical results with identical per-step stats.
//!
//! Window offsets and lengths are driven across word boundaries
//! (unaligned heads, sub-word tails) via `Session::execute` from an
//! explicit context, through whole engines checked against the
//! tree-walk oracle, which never touches a mask or a column. (Whole
//! queries from the root, cold and warm, on every engine:
//! `tests/oracle.rs`.)
//!
//! The last section pins the one node test every plane scan carries
//! (`ScanTest`): its range select and its candidate select against the
//! scalar filter, at every chunk-boundary shape.

use proptest::prelude::*;
use staircase_suite::oracle::{self, Shape, Tree, ENGINES};
use staircase_suite::prelude::*;

const AXES: [&str; 5] = ["descendant", "ancestor", "following", "preceding", "child"];
/// Node tests as written in the query text; `ghost` never occurs in
/// any generated document, so its name test must yield nothing.
const TESTS: [&str; 8] = ["a", "b", "c", "d", "ghost", "*", "node()", "text()"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Windowed contexts at arbitrary offsets: a contiguous pre-rank
    /// run whose head and tail land anywhere relative to the 64-bit
    /// word grid is fed to every engine through `execute`, and each
    /// must match the oracle, and report the same statistics when run
    /// again warm.
    #[test]
    fn offset_windows_agree_on_every_engine(
        (seed, start, len) in (0u64..1 << 40, 0usize..130, 1usize..140),
        (a, t) in (0usize..AXES.len(), 0usize..TESTS.len()),
    ) {
        let xml = oracle::document(Shape::Tree, seed, 64 + seed as usize % 236);
        let tree = Tree::parse(&xml).unwrap();
        let n = tree.len();
        let ctx: Vec<Pre> = (start.min(n)..(start + len).min(n))
            .map(|v| v as Pre)
            .filter(|&v| !tree.is_attribute(v))
            .collect();
        if !ctx.is_empty() {
            let query = format!("{}::{}", AXES[a], TESTS[t]);
            let expected = tree.eval_from(&query, &ctx);
            let session = Session::parse_xml(&xml).unwrap();
            let prepared = session.prepare(&query).unwrap();
            let context: Context = ctx.iter().copied().collect();
            for &engine in ENGINES.iter() {
                let run = || session.execute(&[(&prepared, None)], engine, Some(&context)).remove(0).unwrap();
                let cold = run();
                let warm = run();
                let got: Vec<Pre> = cold.nodes().iter().collect();
                prop_assert_eq!(&got, &expected, "{} from {}..+{} via {:?}", &query, start, len, engine);
                prop_assert_eq!(
                    cold.stats(), warm.stats(),
                    "warm rerun changed stats: {} from {}..+{} via {:?}", &query, start, len, engine
                );
            }
        }
    }
}

// ── ScanTest: the range select and the candidate select ─────────────────

/// What sits at one pre rank of a [`flat_doc`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Leaf {
    /// `<x/>`: the filler.
    Filler,
    /// `<hit/>`: what the name test looks for.
    Hit,
    /// An attribute *named* `hit` — same dictionary entry, wrong kind.
    AttrHit,
    Text,
    Comment,
    /// `<?hit …?>` and `<?other …?>`.
    PiHit,
    PiOther,
}

/// `<root>` with one leaf per entry of `leaves`: leaf `i` is pre rank
/// `i + 1`, so a test can plant a hit on an exact lane.
fn flat_doc(leaves: &[Leaf]) -> Doc {
    let mut b = EncodingBuilder::new();
    b.open_element("root");
    for leaf in leaves {
        match leaf {
            Leaf::Filler => {
                b.open_element("x");
                b.close_element();
            }
            Leaf::Hit => {
                b.open_element("hit");
                b.close_element();
            }
            Leaf::AttrHit => {
                b.attribute("hit", "v");
            }
            Leaf::Text => {
                b.text("t");
            }
            Leaf::Comment => {
                b.comment("c");
            }
            Leaf::PiHit => {
                b.pi("hit", "d");
            }
            Leaf::PiOther => {
                b.pi("other", "d");
            }
        }
    }
    b.close_element();
    b.finish()
}

/// A compiled test with its name and its scalar definition.
type TestCase<'d> = (&'static str, ScanTest<'d>, Box<dyn Fn(Pre) -> bool + 'd>);

/// The tests a step can compile to.
fn scan_tests(doc: &Doc) -> Vec<TestCase<'_>> {
    let named = move |kind: NodeKind, name: &'static str| {
        move |v: Pre| doc.kind(v) == kind && doc.tag_name(v) == Some(name)
    };
    let of_kind = move |kind: NodeKind| move |v: Pre| doc.kind(v) == kind;
    vec![
        (
            "node()",
            ScanTest::node(doc),
            Box::new(move |v| doc.kind(v) != NodeKind::Attribute),
        ),
        (
            "*",
            ScanTest::kind(doc, NodeKind::Element),
            Box::new(of_kind(NodeKind::Element)),
        ),
        (
            "@*",
            ScanTest::kind(doc, NodeKind::Attribute),
            Box::new(of_kind(NodeKind::Attribute)),
        ),
        (
            "text()",
            ScanTest::kind(doc, NodeKind::Text),
            Box::new(of_kind(NodeKind::Text)),
        ),
        (
            "comment()",
            ScanTest::kind(doc, NodeKind::Comment),
            Box::new(of_kind(NodeKind::Comment)),
        ),
        (
            "processing-instruction()",
            ScanTest::kind(doc, NodeKind::Pi),
            Box::new(of_kind(NodeKind::Pi)),
        ),
        (
            "hit",
            ScanTest::named(doc, NodeKind::Element, "hit"),
            Box::new(named(NodeKind::Element, "hit")),
        ),
        (
            "@hit",
            ScanTest::named(doc, NodeKind::Attribute, "hit"),
            Box::new(named(NodeKind::Attribute, "hit")),
        ),
        (
            "processing-instruction('hit')",
            ScanTest::named(doc, NodeKind::Pi, "hit"),
            Box::new(named(NodeKind::Pi, "hit")),
        ),
        (
            "ghost",
            ScanTest::named(doc, NodeKind::Element, "ghost"),
            Box::new(|_| false),
        ),
    ]
}

/// Every `(lo, hi)` whose length sits on a chunk edge of either range
/// kernel (32 tag lanes, 64 kind lanes), at every offset of `doc`.
fn assert_ranges_match_scalar(label: &str, doc: &Doc) {
    let n = doc.len() as Pre;
    for (name, test, scalar) in scan_tests(doc) {
        for lo in 0..n {
            for len in [0u32, 1, 2, 3, 31, 32, 33, 63, 64, 65] {
                let hi = (lo + len).min(n);
                let want: Vec<Pre> = (lo..hi).filter(|&v| scalar(v)).collect();
                let mut got = Vec::new();
                test.select_range(lo, hi, &mut got);
                assert_eq!(got, want, "{label}: {name} over {lo}..{hi}");
                assert!(
                    (lo..hi).all(|v| test.keeps(v) == scalar(v)),
                    "{label}: {name} keeps() over {lo}..{hi}"
                );
            }
        }
        // The whole document, and the candidate select over every
        // other-or-so position of it.
        let want: Vec<Pre> = (0..n).filter(|&v| scalar(v)).collect();
        let mut got = Vec::new();
        test.select_range(0, n, &mut got);
        assert_eq!(got, want, "{label}: {name} over the document");
        for stride in [1usize, 2, 3, 64, 65] {
            let candidates: Vec<Pre> = (0..n).step_by(stride).collect();
            let want: Vec<Pre> = candidates.iter().copied().filter(|&v| scalar(v)).collect();
            got.clear();
            test.select_candidates(&candidates, &mut got);
            assert_eq!(got, want, "{label}: {name} candidates, stride {stride}");
        }
    }
}

#[test]
fn range_selects_match_the_scalar_filter_at_every_chunk_edge() {
    const N: usize = 200;
    // Hits on the first and the last lane of a 32-lane chunk, and on
    // both sides of a chunk boundary (leaf i is pre rank i + 1).
    let mut planted = vec![Leaf::Filler; N];
    for pre in [1usize, 32, 33, 63, 64, 65, 96, 127, 128, 129, 200] {
        planted[pre - 1] = Leaf::Hit;
    }
    assert_ranges_match_scalar("planted", &flat_doc(&planted));

    assert_ranges_match_scalar("all hits", &flat_doc(&[Leaf::Hit; N]));
    assert_ranges_match_scalar("no hits", &flat_doc(&[Leaf::Filler; N]));

    // The only positions carrying the name are attributes: the tag
    // compare hits, the kind check must reject every one of them.
    let mut attrs_only = vec![Leaf::Filler; N];
    for pre in [1usize, 31, 32, 33, 64, 100, 199, 200] {
        attrs_only[pre - 1] = Leaf::AttrHit;
    }
    let doc = flat_doc(&attrs_only);
    let mut got = Vec::new();
    ScanTest::named(&doc, NodeKind::Element, "hit").select_range(0, doc.len() as Pre, &mut got);
    assert!(got.is_empty(), "attributes named `hit` are not elements");
    assert_ranges_match_scalar("attribute names only", &doc);

    // Every kind at once, in a pattern that is not periodic in 32 or 64.
    let kinds = [
        Leaf::Hit,
        Leaf::AttrHit,
        Leaf::Text,
        Leaf::Filler,
        Leaf::Comment,
        Leaf::PiHit,
        Leaf::PiOther,
    ];
    let mixed: Vec<Leaf> = (0..N)
        .map(|i| kinds[(i * i + i / 7) % kinds.len()])
        .collect();
    assert_ranges_match_scalar("mixed", &flat_doc(&mixed));
}
