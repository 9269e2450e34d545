//! Mask/scalar parity: the chunked bitmask kernels and the per-tag
//! bitmap fragments are pure acceleration. Whichever filtering route
//! the runtime picks — per-element scalar loop, gathered-column mask
//! kernel, or bitmap window select — every engine must return node-
//! and order-identical results with identical per-step stats.
//!
//! The reference here is deliberately naive: a per-node loop over the
//! raw pre/post/kind/tag columns that never touches `mask` or
//! `TagBitmap`. Window offsets and lengths are driven across word
//! boundaries (unaligned heads, sub-word tails) both at the kernel
//! level and, via `Session::execute` from an explicit context, through
//! whole engines including
//! the cost-based `auto` planner.
//!
//! The last section pins the one node test every plane scan carries
//! (`ScanTest`): its range select against the scalar filter at every
//! chunk-boundary shape, and its candidate select against the five
//! per-test filters it replaced.

use proptest::prelude::*;
use staircase_core::{mask, TagBitmap};
use staircase_suite::prelude::*;

const TAG_NAMES: [&str; 4] = ["x", "y", "z", "w"];
const AXES: [(&str, Axis); 5] = [
    ("descendant", Axis::Descendant),
    ("ancestor", Axis::Ancestor),
    ("following", Axis::Following),
    ("preceding", Axis::Preceding),
    ("child", Axis::Child),
];
/// Node tests as written in the query text; `ghost` never occurs in
/// any generated document, so its name test must yield nothing.
const TESTS: [&str; 8] = ["x", "y", "z", "w", "ghost", "*", "node()", "text()"];

fn engines() -> [Engine; 9] {
    [
        Engine::staircase().variant(Variant::Basic).build().unwrap(),
        Engine::staircase()
            .variant(Variant::Skipping)
            .build()
            .unwrap(),
        Engine::staircase()
            .variant(Variant::EstimationSkipping)
            .build()
            .unwrap(),
        Engine::staircase().pushdown(true).build().unwrap(),
        Engine::staircase().fragmented(true).build().unwrap(),
        Engine::naive(),
        Engine::sql().build().unwrap(),
        Engine::sql()
            .eq1_window(true)
            .early_nametest(true)
            .build()
            .unwrap(),
        Engine::auto(),
    ]
}

/// Random document from an opcode tape: elements over a small tag
/// alphabet, interleaved with text, comments, and attributes.
fn build_doc(ops: &[u8]) -> Doc {
    let mut b = EncodingBuilder::new();
    b.open_element("r");
    let mut depth = 1usize;
    for (i, &op) in ops.iter().enumerate() {
        match op {
            0..=2 | 7 => {
                b.open_element(TAG_NAMES[(op as usize + i) % TAG_NAMES.len()]);
                depth += 1;
            }
            3 if depth > 1 => {
                b.close_element();
                depth -= 1;
            }
            4 => {
                b.text("t");
            }
            5 => {
                b.comment("pad");
            }
            _ => {
                b.attribute("id", "v");
            }
        }
    }
    while depth > 0 {
        b.close_element();
        depth -= 1;
    }
    b.finish()
}

/// `true` when `v` passes `test` (as spelled in [`TESTS`]).
fn scalar_test(doc: &Doc, v: Pre, test: &str) -> bool {
    match test {
        "*" => doc.kind(v) == NodeKind::Element,
        "node()" => true,
        "text()" => doc.kind(v) == NodeKind::Text,
        "comment()" => doc.kind(v) == NodeKind::Comment,
        name => {
            doc.kind(v) == NodeKind::Element
                && doc.tag_id(name) == Some(doc.tag_column()[v as usize])
        }
    }
}

/// One axis step + node test, evaluated per node over the raw columns.
fn scalar_step(doc: &Doc, ctx: &[Pre], axis: Axis, test: &str) -> Vec<Pre> {
    let post = doc.post_column();
    let mut out = Vec::new();
    for v in doc.pres() {
        if doc.kind(v) == NodeKind::Attribute {
            continue;
        }
        let hit = ctx.iter().any(|&c| match axis {
            Axis::Descendant => v > c && post[v as usize] < post[c as usize],
            Axis::Ancestor => v < c && post[v as usize] > post[c as usize],
            Axis::Following => v > c && post[v as usize] > post[c as usize],
            Axis::Preceding => v < c && post[v as usize] < post[c as usize],
            Axis::Child => v != c && doc.parent(v) == c,
            _ => unreachable!("axis outside the generated set"),
        });
        if hit && scalar_test(doc, v, test) {
            out.push(v);
        }
    }
    out
}

fn query_text(steps: &[(usize, usize)], absolute: bool) -> String {
    let mut q = String::new();
    for (i, &(a, t)) in steps.iter().enumerate() {
        if absolute || i > 0 {
            q.push('/');
        }
        q.push_str(AXES[a].0);
        q.push_str("::");
        q.push_str(TESTS[t]);
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whole-query parity from the root: every engine, including
    /// `auto`, matches the scalar reference node for node, and a warm
    /// rerun (bitmaps now built and cached) reports byte-identical
    /// [`EvalStats`] to the cold one.
    #[test]
    fn every_engine_matches_the_scalar_reference(
        ops in proptest::collection::vec(0u8..8, 1..250),
        steps in proptest::collection::vec((0usize..AXES.len(), 0usize..TESTS.len()), 1..4),
    ) {
        let doc = build_doc(&ops);
        let mut expected: Vec<Pre> = vec![doc.root()];
        for &(a, t) in &steps {
            expected = scalar_step(&doc, &expected, AXES[a].1, TESTS[t]);
        }
        let query = query_text(&steps, true);
        let session = Session::new(doc);
        let prepared = session.prepare(&query).unwrap();
        for engine in engines() {
            let cold = prepared.run(engine);
            let warm = prepared.run(engine);
            let got: Vec<Pre> = cold.nodes().iter().collect();
            prop_assert_eq!(&got, &expected, "{} via {:?}", &query, engine);
            prop_assert_eq!(
                warm.nodes().iter().collect::<Vec<Pre>>(), got,
                "warm rerun changed nodes: {} via {:?}", &query, engine
            );
            prop_assert_eq!(
                cold.stats(), warm.stats(),
                "bitmap warm-up changed stats: {} via {:?}", &query, engine
            );
        }
    }

    /// Windowed contexts at arbitrary offsets: a contiguous pre-rank
    /// run whose head and tail land anywhere relative to the 64-bit
    /// word grid is fed to every engine through `execute`, and each
    /// must match the scalar reference (the gap-free runs here are
    /// exactly the shape the bitmap window-select fast path claims).
    #[test]
    fn offset_windows_agree_on_every_engine(
        ops in proptest::collection::vec(0u8..8, 64..300),
        start in 0usize..130,
        len in 1usize..140,
        a in 0usize..AXES.len(),
        t in 0usize..TESTS.len(),
    ) {
        let doc = build_doc(&ops);
        let n = doc.len();
        let ctx: Vec<Pre> = (start.min(n)..(start + len).min(n))
            .map(|v| v as Pre)
            .filter(|&v| doc.kind(v) != NodeKind::Attribute)
            .collect();
        if !ctx.is_empty() {
            let expected = scalar_step(&doc, &ctx, AXES[a].1, TESTS[t]);
            let query = query_text(&[(a, t)], false);
            let session = Session::new(doc);
            let prepared = session.prepare(&query).unwrap();
            let context: Context = ctx.iter().copied().collect();
            for engine in engines() {
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

    /// Kernel-level window parity: `TagBitmap::select_window` and
    /// `count_window` against the scalar column loop over windows whose
    /// `from`/`to` sweep across word boundaries.
    #[test]
    fn bitmap_windows_match_scalar_filters(
        tags in proptest::collection::vec(0u32..6, 1..400),
        from in 0usize..140,
        len in 0usize..140,
    ) {
        let element = NodeKind::Element as u8;
        let kinds: Vec<u8> = (0..tags.len())
            .map(|i| if i % 7 == 3 { NodeKind::Text as u8 } else { element })
            .collect();
        for tid in 0..6u32 {
            let bm = TagBitmap::build(&kinds, element, &tags, tid);
            let to = (from + len).min(tags.len());
            let want: Vec<Pre> = (from.min(tags.len())..to)
                .filter(|&v| kinds[v] == element && tags[v] == tid)
                .map(|v| v as Pre)
                .collect();
            let mut got = Vec::new();
            bm.select_window(from, to, &mut got);
            prop_assert_eq!(&got, &want, "select {}..{} tag {}", from, to, tid);
            prop_assert_eq!(bm.count_window(from, to), want.len(), "count {}..{} tag {}", from, to, tid);
        }
    }

    /// Kernel-level candidate parity: the gathered-column mask kernel
    /// and the bitmap probe kernel against the scalar loop, over
    /// candidate slices starting at unaligned offsets with sub-word
    /// tails and gaps.
    #[test]
    fn candidate_kernels_match_scalar_filters(
        tags in proptest::collection::vec(0u32..6, 1..400),
        off in 0usize..70,
        stride in 1usize..4,
    ) {
        let element = NodeKind::Element as u8;
        let kinds: Vec<u8> = (0..tags.len())
            .map(|i| if i % 5 == 2 { NodeKind::Comment as u8 } else { element })
            .collect();
        let cands: Vec<Pre> = (off.min(tags.len())..tags.len())
            .step_by(stride)
            .map(|v| v as Pre)
            .collect();
        for tid in 0..6u32 {
            let want: Vec<Pre> = cands
                .iter()
                .copied()
                .filter(|&v| kinds[v as usize] == element && tags[v as usize] == tid)
                .collect();
            let mut got = Vec::new();
            mask::select_tag_candidates(&kinds, &tags, element, tid, &cands, &mut got);
            prop_assert_eq!(&got, &want, "columns off {} stride {} tag {}", off, stride, tid);
            let bm = TagBitmap::build(&kinds, element, &tags, tid);
            got.clear();
            mask::select_bitmap_candidates(&bm, &cands, &mut got);
            prop_assert_eq!(&got, &want, "bitmap off {} stride {} tag {}", off, stride, tid);
        }
    }
}

/// Deterministic sweep pinning the exact boundary shapes: empty
/// windows, single bits, 63/64/65, double-word spans, and ragged tails
/// past the end of the document.
#[test]
fn word_boundary_windows_are_exact() {
    let element = NodeKind::Element as u8;
    let n = 300usize;
    let kinds = vec![element; n];
    let tags: Vec<u32> = (0..n as u32)
        .map(|v| v.wrapping_mul(2654435761) % 5)
        .collect();
    for tid in 0..5u32 {
        let bm = TagBitmap::build(&kinds, element, &tags, tid);
        for from in [
            0usize, 1, 7, 31, 63, 64, 65, 127, 128, 129, 255, 256, 299, 300, 310,
        ] {
            for len in [0usize, 1, 7, 63, 64, 65, 128, 129, 171, 400] {
                let to = (from + len).min(n);
                let want: Vec<Pre> = (from.min(n)..to)
                    .filter(|&v| tags[v] == tid)
                    .map(|v| v as Pre)
                    .collect();
                let mut got = Vec::new();
                bm.select_window(from, from + len, &mut got);
                assert_eq!(got, want, "select {from}..+{len} tag {tid}");
                assert_eq!(
                    bm.count_window(from, from + len),
                    want.len(),
                    "count {from}..+{len} tag {tid}"
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
