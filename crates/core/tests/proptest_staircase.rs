//! Property tests: on arbitrary documents and contexts, every staircase
//! join variant must agree with the brute-force axis semantics and respect
//! the paper's access-count guarantees.

use std::sync::Arc;

use proptest::prelude::*;
use staircase_accel::{Axis, Context, Doc, EncodingBuilder, NodeKind, Pre};
use staircase_core::governor::{self, Budget, SCAN_CHUNK};
use staircase_core::{
    ancestor, ancestor_on_list, ancestor_on_list_pooled, ancestor_pooled, child_on_list,
    child_on_list_pooled, descendant, descendant_on_list, descendant_on_list_pooled,
    descendant_pooled, following, following_pooled, has_ancestor_in, has_child_in,
    has_descendant_in, preceding, preceding_pooled, prune, try_axis_step, ScanTest, Scratch,
    StepStats, TagIndex, Variant,
};

fn arb_doc() -> impl Strategy<Value = Doc> {
    (proptest::collection::vec(0u8..4, 1..300)).prop_map(|ops| {
        let tags = ["p", "q", "r"];
        let mut b = EncodingBuilder::new();
        b.open_element("root");
        let mut depth = 1;
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                0 | 3 => {
                    b.open_element(tags[i % tags.len()]);
                    depth += 1;
                }
                1 if depth > 1 => {
                    b.close_element();
                    depth -= 1;
                }
                _ => {
                    b.comment("leaf");
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

fn arb_doc_and_context() -> impl Strategy<Value = (Doc, Context)> {
    arb_doc().prop_flat_map(|doc| {
        let n = doc.len() as u32;
        let ctx = proptest::collection::vec(0..n, 0..24).prop_map(Context::from_unsorted);
        (Just(doc), ctx)
    })
}

fn reference(doc: &Doc, ctx: &Context, axis: Axis) -> Vec<Pre> {
    doc.pres()
        .filter(|&v| ctx.iter().any(|c| axis.contains(doc, c, v)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_variants_match_reference((doc, ctx) in arb_doc_and_context()) {
        for axis in Axis::PARTITIONING {
            let want = reference(&doc, &ctx, axis);
            for variant in [Variant::Basic, Variant::Skipping, Variant::EstimationSkipping] {
                let (got, stats) = try_axis_step(&doc, &ctx, axis, variant).unwrap();
                prop_assert_eq!(got.as_slice(), &want[..], "{}/{:?}", axis, variant);
                prop_assert_eq!(stats.result_size, want.len());
            }
        }
    }

    #[test]
    fn results_sorted_and_unique((doc, ctx) in arb_doc_and_context()) {
        for axis in Axis::PARTITIONING {
            let (got, _) = try_axis_step(&doc, &ctx, axis, Variant::default()).unwrap();
            prop_assert!(got.as_slice().windows(2).all(|w| w[0] < w[1]), "{}", axis);
        }
    }

    #[test]
    fn pruning_never_changes_results((doc, ctx) in arb_doc_and_context()) {
        for axis in Axis::PARTITIONING {
            let pruned = prune(&doc, &ctx, axis);
            prop_assert!(pruned.len() <= ctx.len());
            prop_assert_eq!(
                reference(&doc, &ctx, axis),
                reference(&doc, &pruned, axis),
                "{}", axis
            );
        }
    }

    /// §3.3: with skipping, descendant touches ≤ |region| + |context| nodes.
    #[test]
    fn skipping_access_bound((doc, ctx) in arb_doc_and_context()) {
        let (_, stats) = descendant(&doc, &ctx, Variant::Skipping);
        let region = doc
            .pres()
            .filter(|&v| ctx.iter().any(|c| v > c && doc.post(v) < doc.post(c)))
            .count() as u64;
        prop_assert!(stats.nodes_touched() <= region + stats.context_out as u64);
    }

    /// Estimation skipping performs at most (h+1) comparisons per partition.
    #[test]
    fn estimation_comparison_bound((doc, ctx) in arb_doc_and_context()) {
        let (_, stats) = descendant(&doc, &ctx, Variant::EstimationSkipping);
        prop_assert!(
            stats.nodes_scanned <= (doc.height() as u64 + 1) * stats.partitions as u64
        );
    }

    /// The closure property: feeding a step result back in as context is
    /// always legal (sorted, unique, in-bounds).
    #[test]
    fn results_compose((doc, ctx) in arb_doc_and_context()) {
        let (step1, _) = descendant(&doc, &ctx, Variant::default());
        let (step2, _) = ancestor(&doc, &step1, Variant::default());
        let want = reference(&doc, &step1, Axis::Ancestor);
        prop_assert_eq!(step2.as_slice(), &want[..]);
    }

    /// The pooled entries equal the plain joins, on a cold scratch pool
    /// and again on the warm one.
    #[test]
    fn pooled_equals_plain((doc, ctx) in arb_doc_and_context()) {
        let mut scratch = Scratch::new();
        let node = ScanTest::node(&doc);
        let (d, s) = (Variant::EstimationSkipping, Variant::Skipping);
        let sd = descendant_pooled(&doc, &ctx, d, &node, &mut scratch);
        prop_assert_eq!(&sd, &descendant(&doc, &ctx, d));
        prop_assert_eq!(descendant_pooled(&doc, &ctx, d, &node, &mut scratch), sd);
        let sa = ancestor_pooled(&doc, &ctx, s, &node, &mut scratch);
        prop_assert_eq!(&sa, &ancestor(&doc, &ctx, s));
        prop_assert_eq!(ancestor_pooled(&doc, &ctx, s, &node, &mut scratch), sa);
    }

    /// Name-test pushdown (list join) ≡ join then name test.
    #[test]
    fn pushdown_equivalence((doc, ctx) in arb_doc_and_context()) {
        let idx = TagIndex::build(&doc);
        let (full, _) = descendant(&doc, &ctx, Variant::default());
        for tag in ["p", "q"] {
            let late = full.name_test(&doc, tag);
            let (early, _) = descendant_on_list(&doc, idx.fragment_by_name(&doc, tag), &ctx);
            prop_assert_eq!(late, early, "{}", tag);
        }
    }

    /// The plain and the pooled form of every operator that moves a
    /// fragment cursor agree: same nodes, and the same [`StepStats`]
    /// field for field — `seeks` included; a probe moves its cursors
    /// exactly as the join with the roles swapped does.
    #[test]
    fn fragment_cursor_forms_agree_on_every_counter((doc, ctx) in arb_doc_and_context()) {
        let idx = TagIndex::build(&doc);
        let mut s1 = Scratch::new();
        for tag in ["p", "q"] {
            let list = idx.fragment_by_name(&doc, tag);
            let single = descendant_on_list(&doc, list, &ctx);
            prop_assert_eq!(&descendant_on_list_pooled(&doc, list, &ctx, &mut s1), &single);
            let single = ancestor_on_list(&doc, list, &ctx);
            prop_assert_eq!(&ancestor_on_list_pooled(&doc, list, &ctx, &mut s1), &single);
            let single = child_on_list(&doc, list, &ctx);
            prop_assert_eq!(&child_on_list_pooled(&doc, list, &ctx, &mut s1), &single);
            let cursor = |s: &StepStats| (s.nodes_scanned, s.nodes_copied, s.seeks, s.partitions);
            let swapped: Context = list.iter().copied().collect();
            let single = has_descendant_in(&doc, &ctx, list);
            prop_assert!(single.1.seeks <= 2 * ctx.len() as u64, "a move or a jump a candidate");
            let join = ancestor_on_list(&doc, ctx.as_slice(), &swapped);
            prop_assert_eq!((&single.0, cursor(&single.1)), (&join.0, cursor(&join.1)));
            let single = has_ancestor_in(&doc, &ctx, list);
            let join = descendant_on_list(&doc, ctx.as_slice(), &swapped);
            prop_assert_eq!((&single.0, cursor(&single.1)), (&join.0, cursor(&join.1)));
            let single = has_child_in(&doc, &ctx, list);
            let want: Vec<Pre> = ctx.iter().filter(|&c| list.iter().any(|&v| doc.parent(v) == c)).collect();
            prop_assert_eq!(single.0.as_slice(), &want[..]);
        }
    }

    /// following/preceding of a singleton partition the plane with the
    /// descendant/ancestor results.
    #[test]
    fn singleton_partitions_add_up((doc, c) in arb_doc().prop_flat_map(|d| {
        let n = d.len() as u32;
        (Just(d), 0..n)
    })) {
        let ctx = Context::singleton(c);
        let (d, _) = descendant(&doc, &ctx, Variant::default());
        let (a, _) = ancestor(&doc, &ctx, Variant::default());
        let (f, _) = following(&doc, &ctx);
        let (p, _) = preceding(&doc, &ctx);
        // Attribute-free documents here, so counts add to |doc| - 1.
        prop_assert_eq!(d.len() + a.len() + f.len() + p.len(), doc.len() - 1);
    }
}

// ── The node test rides the scan: fused ≡ join-then-filter ──────────────

const VARIANTS: [Variant; 3] = [
    Variant::Basic,
    Variant::Skipping,
    Variant::EstimationSkipping,
];

/// A document of exactly `n` nodes holding every node kind: elements
/// over a small alphabet, attributes (one named like the element
/// `shared`), text, comments, and processing instructions with two
/// targets. Nobody is called `ghost`.
fn mixed_doc(ops: &[u8], n: usize) -> Doc {
    let mut b = EncodingBuilder::new();
    b.open_element("root");
    let mut depth = 1;
    let mut i = 0usize;
    while b.len() < n {
        // The tape repeats with a drift, so a long document is not periodic.
        let op = (ops[i % ops.len()] as usize + i / ops.len()) % 10;
        i += 1;
        match op {
            0..=2 => {
                b.open_element(["p", "q", "shared"][op]);
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
                b.comment("c");
            }
            6 => {
                b.pi("target", "d");
            }
            7 => {
                b.pi("other", "d");
            }
            _ => {
                b.attribute(["shared", "id"][i % 2], "v");
            }
        }
    }
    while depth > 0 {
        b.close_element();
        depth -= 1;
    }
    b.finish()
}

/// Every arm of [`ScanTest`] that a partitioning axis can be asked
/// (attribute tests belong to the `attribute` axis, which is no scan).
fn arms(doc: &Doc) -> Vec<ScanTest<'_>> {
    vec![
        ScanTest::node(doc),
        ScanTest::kind(doc, NodeKind::Element),
        ScanTest::kind(doc, NodeKind::Text),
        ScanTest::kind(doc, NodeKind::Comment),
        ScanTest::kind(doc, NodeKind::Pi),
        ScanTest::named(doc, NodeKind::Element, "p"),
        ScanTest::named(doc, NodeKind::Element, "shared"),
        ScanTest::named(doc, NodeKind::Pi, "target"),
        ScanTest::named(doc, NodeKind::Element, "ghost"),
    ]
}

/// Join-then-filter: what `test` keeps of a `node()` run's result.
fn filtered(test: &ScanTest<'_>, base: &Context) -> Vec<Pre> {
    let mut out = Vec::new();
    test.select_candidates(base.as_slice(), &mut out);
    out
}

/// The fused run returned what the filter keeps of the `node()` run, and
/// read exactly what the `node()` run read.
fn assert_rides(
    label: &str,
    test: &ScanTest<'_>,
    fused: &(Context, StepStats),
    plain: &(Context, StepStats),
) {
    assert_eq!(fused.0.as_slice(), &filtered(test, &plain.0)[..], "{label}");
    assert_eq!(fused.1.result_size, fused.0.len(), "{label}");
    let but_size = |s: &StepStats| StepStats {
        result_size: 0,
        ..*s
    };
    assert_eq!(but_size(&fused.1), but_size(&plain.1), "{label}");
}

fn sized(which: usize, small: usize) -> usize {
    let chunk = SCAN_CHUNK as usize;
    [31, 32, 33, 63, 64, 65, chunk - 1, chunk, chunk + 1]
        .get(which)
        .copied()
        .unwrap_or(small)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every single-context plane scan × every test arm, ungoverned and
    /// under an unconstrained budget (the chunked path).
    #[test]
    fn a_fused_test_is_the_node_run_filtered(
        ops in proptest::collection::vec(0u8..10, 8..80),
        which in 0usize..14,
        small in 2usize..300,
        picks in proptest::collection::vec(0u32..1_000_000, 0..12),
    ) {
        let doc = mixed_doc(&ops, sized(which, small));
        let n = doc.len() as u32;
        let ctx = Context::from_unsorted(picks.iter().map(|p| p % n).collect());
        // Equation 1 is exact: the descendant copy is each pruned step's
        // whole subtree, and preceding probes only the last node's
        // ancestors — both counted here by walking parent pointers.
        let subtrees: u64 = prune(&doc, &ctx, Axis::Descendant)
            .iter()
            .map(|c| subtree_by_parents(&doc, c))
            .sum();
        let ancestors = ctx.as_slice().last().map_or(0, |&c| doc.ancestors(c).count() as u64);
        let mut scratch = Scratch::new();
        for governed in [false, true] {
            let _guard = governed.then(|| governor::enter(Arc::new(Budget::new())));
            for (t, test) in arms(&doc).iter().enumerate() {
                for variant in VARIANTS {
                    let label = format!("arm {t} {variant:?} governed {governed}");
                    let plain = descendant(&doc, &ctx, variant);
                    let fresh = descendant_pooled(&doc, &ctx, variant, test, &mut Scratch::new());
                    assert_rides(&label, test, &fresh, &plain);
                    let pooled = descendant_pooled(&doc, &ctx, variant, test, &mut scratch);
                    assert_rides(&label, test, &pooled, &plain);
                    if variant == Variant::EstimationSkipping {
                        let s = &pooled.1;
                        assert_eq!((s.nodes_scanned, s.nodes_copied), (0, subtrees), "{label}");
                    }
                    let plain = ancestor(&doc, &ctx, variant);
                    let fresh = ancestor_pooled(&doc, &ctx, variant, test, &mut Scratch::new());
                    assert_rides(&label, test, &fresh, &plain);
                    let pooled = ancestor_pooled(&doc, &ctx, variant, test, &mut scratch);
                    assert_rides(&label, test, &pooled, &plain);
                }
                let label = format!("arm {t} governed {governed}");
                let plain = following(&doc, &ctx);
                let fresh = following_pooled(&doc, &ctx, test, &mut Scratch::new());
                assert_rides(&label, test, &fresh, &plain);
                let pooled = following_pooled(&doc, &ctx, test, &mut scratch);
                assert_rides(&label, test, &pooled, &plain);
                let plain = preceding(&doc, &ctx);
                let fresh = preceding_pooled(&doc, &ctx, test, &mut Scratch::new());
                assert_rides(&label, test, &fresh, &plain);
                let pooled = preceding_pooled(&doc, &ctx, test, &mut scratch);
                assert_rides(&label, test, &pooled, &plain);
                assert_eq!(pooled.1.nodes_scanned, ancestors, "{label}: one probe per ancestor");
            }
        }
    }
}

/// `|c/descendant|` by walking parent pointers: the descendants of `c`
/// are the nodes after it, contiguous in document order, whose ancestor
/// chain meets `c`. Reads neither `post` nor `level`.
fn subtree_by_parents(doc: &Doc, c: Pre) -> u64 {
    (c + 1..doc.len() as Pre)
        .take_while(|&v| doc.ancestors(v).any(|a| a == c))
        .count() as u64
}

// ── Range joins: the three joins and three probes against the region
//    definition, on unpruned contexts ────────────────────────────────────

/// List and context lengths worth hitting: empty, tiny, around a mask
/// word, and around gallop brackets (2ᵏ ± 1).
const LENGTHS: [usize; 15] = [0, 1, 2, 3, 7, 8, 9, 31, 32, 33, 63, 64, 65, 127, 129];

/// `len` distinct pre ranks of `doc` (all of them when it has fewer),
/// ascending, spread by `seed`.
fn pick_sorted(doc: &Doc, len: usize, seed: u64) -> Vec<Pre> {
    let n = doc.len() as u64;
    let mut state = seed | 1;
    let mut out: Vec<Pre> = (0..len * 2)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as Pre
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out.truncate(len);
    out
}

fn is_descendant(doc: &Doc, anc: Pre, v: Pre) -> bool {
    v > anc && doc.post(v) < doc.post(anc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn range_joins_and_probes_equal_the_region_definition(
        ops in proptest::collection::vec(0u8..10, 8..80),
        small in 40usize..600,
        list_sel in 0usize..2 * LENGTHS.len(),
        ctx_sel in 0usize..5 * LENGTHS.len(),
        seed in 1u64..1_000_000,
    ) {
        // (the vendored proptest stops at six-tuples: the selectors pack
        // a length and a shape each)
        let (list_kind, list_len) = (list_sel / LENGTHS.len() * 3 + list_sel % 3, list_sel % LENGTHS.len());
        let (ctx_shape, ctx_len) = (ctx_sel / LENGTHS.len(), ctx_sel % LENGTHS.len());
        let doc = mixed_doc(&ops, small);
        let idx = TagIndex::build(&doc);
        // The list: a tag fragment (one-tag nesting, a name shared with
        // an attribute), or any sorted node set of a chosen length —
        // attributes, text and all.
        let list: Vec<Pre> = match list_kind {
            0 => idx.fragment_by_name(&doc, "p").to_vec(),
            1 => idx.fragment_by_name(&doc, "shared").to_vec(),
            2 => idx.fragment_by_name(&doc, "ghost").to_vec(),
            _ => pick_sorted(&doc, LENGTHS[list_len], seed),
        };
        // The context: unpruned picks (nested nodes stay in), optionally
        // salted with list entries, or squeezed entirely before / after
        // the list.
        let mut picks = pick_sorted(&doc, LENGTHS[ctx_len], seed.rotate_left(17) ^ 0x9E37);
        match (ctx_shape, list.first(), list.last()) {
            (1, _, _) => picks.extend(list.iter().step_by(2)),
            (2, Some(&first), _) => picks.retain(|&c| c < first),
            (3, _, Some(&last)) => picks.retain(|&c| c > last),
            (4, _, _) => picks.extend(doc.pres().filter(|&v| doc.tag_name(v) == Some("p"))),
            _ => {}
        }
        let ctx = Context::from_unsorted(picks);
        let label = format!("kind {list_kind} |list| {} |ctx| {} shape {ctx_shape}", list.len(), ctx.len());

        // The three joins, node for node and in order.
        let want: Vec<Pre> = list.iter().copied()
            .filter(|&p| ctx.iter().any(|c| is_descendant(&doc, c, p))).collect();
        let (got, stats) = descendant_on_list(&doc, &list, &ctx);
        prop_assert_eq!(got.as_slice(), &want[..], "descendant {}", label);
        prop_assert_eq!((stats.nodes_scanned, stats.nodes_copied), (0, want.len() as u64));
        let want: Vec<Pre> = list.iter().copied()
            .filter(|&p| ctx.iter().any(|c| is_descendant(&doc, p, c))).collect();
        let (got, stats) = ancestor_on_list(&doc, &list, &ctx);
        prop_assert_eq!(got.as_slice(), &want[..], "ancestor {}", label);
        prop_assert!(stats.nodes_touched() + stats.seeks <= 3 * list.len() as u64, "{}", stats);
        let want: Vec<Pre> = list.iter().copied()
            .filter(|&p| ctx.as_slice().binary_search(&doc.parent(p)).is_ok()).collect();
        let (got, _) = child_on_list(&doc, &list, &ctx);
        prop_assert_eq!(got.as_slice(), &want[..], "child {}", label);

        // The three probes.
        let want: Vec<Pre> = ctx.iter()
            .filter(|&c| list.iter().any(|&p| is_descendant(&doc, c, p))).collect();
        let (has_desc, _) = has_descendant_in(&doc, &ctx, &list);
        prop_assert_eq!(has_desc.as_slice(), &want[..], "has_descendant_in {}", label);
        let want: Vec<Pre> = ctx.iter()
            .filter(|&c| list.iter().any(|&p| is_descendant(&doc, p, c))).collect();
        let (has_anc, _) = has_ancestor_in(&doc, &ctx, &list);
        prop_assert_eq!(has_anc.as_slice(), &want[..], "has_ancestor_in {}", label);
        let want: Vec<Pre> = ctx.iter()
            .filter(|&c| list.iter().any(|&p| doc.parent(p) == c)).collect();
        let (has_child, _) = has_child_in(&doc, &ctx, &list);
        prop_assert_eq!(has_child.as_slice(), &want[..], "has_child_in {}", label);

        // The role swaps: a probe is the other join with list and context
        // trading places.
        let list_ctx: Context = list.iter().copied().collect();
        prop_assert_eq!(&has_desc, &ancestor_on_list(&doc, ctx.as_slice(), &list_ctx).0);
        prop_assert_eq!(&has_anc, &descendant_on_list(&doc, ctx.as_slice(), &list_ctx).0);
    }
}
