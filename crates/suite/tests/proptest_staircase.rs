//! Property tests: on arbitrary documents and contexts, every staircase
//! join variant must agree with the region the tree-walk oracle walks and
//! respect the paper's access-count guarantees.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use staircase_accel::{Axis, Context, Doc, NodeKind, Pre};
use staircase_core::governor::{self, Budget, SCAN_CHUNK};
use staircase_core::{
    ancestor, ancestor_on_list, ancestor_on_list_pooled, ancestor_pooled, child_on_list,
    child_on_list_pooled, descendant, descendant_on_list, descendant_on_list_pooled,
    descendant_pooled, following, following_pooled, has_ancestor_in, has_child_in,
    has_descendant_in, preceding, preceding_pooled, prune, try_axis_step, ScanTest, Scratch,
    StepStats, TagIndex, Variant,
};
use staircase_suite::oracle::{self, Shape, Tree, SHAPES, VARIANTS};

/// A generated document of `nodes` nodes — every kind of node — and the
/// oracle's tree of it.
fn generated(shape: Shape, seed: u64, nodes: usize) -> (Doc, Tree) {
    let xml = oracle::document(shape, seed, nodes);
    (Doc::from_xml(&xml).unwrap(), Tree::parse(&xml).unwrap())
}

/// A generated document of up to 300 nodes and a context of up to 24 of
/// its nodes.
fn case(seed: u64, picks: &[u32]) -> (Doc, Tree, Context) {
    let (doc, tree) = generated(SHAPES[seed as usize % 4], seed, 1 + seed as usize % 300);
    let n = doc.len() as u32;
    (doc, tree, picks.iter().map(|p| p % n).collect())
}

/// Every node below some node of `ctx`, attributes included: the
/// descendant region of the plane.
fn below(tree: &Tree, ctx: &Context) -> BTreeSet<u32> {
    ctx.iter().flat_map(|c| tree.subtree(c)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_variants_match_reference(seed in 0u64..1 << 40, picks in proptest::collection::vec(0u32..1 << 20, 0..24)) {
        let (doc, tree, ctx) = case(seed, &picks);
        for axis in Axis::PARTITIONING {
            let want = tree.region(ctx.as_slice(), axis);
            for variant in VARIANTS {
                let (got, stats) = try_axis_step(&doc, &ctx, axis, variant).unwrap();
                prop_assert_eq!(got.as_slice(), &want[..], "{}/{:?}", axis, variant);
                prop_assert_eq!(stats.result_size, want.len());
            }
        }
    }

    #[test]
    fn results_sorted_and_unique(seed in 0u64..1 << 40, picks in proptest::collection::vec(0u32..1 << 20, 0..24)) {
        let (doc, _, ctx) = case(seed, &picks);
        for axis in Axis::PARTITIONING {
            let (got, _) = try_axis_step(&doc, &ctx, axis, Variant::default()).unwrap();
            prop_assert!(got.as_slice().windows(2).all(|w| w[0] < w[1]), "{}", axis);
        }
    }

    #[test]
    fn pruning_never_changes_results(seed in 0u64..1 << 40, picks in proptest::collection::vec(0u32..1 << 20, 0..24)) {
        let (doc, tree, ctx) = case(seed, &picks);
        for axis in Axis::PARTITIONING {
            let pruned = prune(&doc, &ctx, axis);
            prop_assert!(pruned.len() <= ctx.len());
            prop_assert_eq!(
                tree.region(ctx.as_slice(), axis),
                tree.region(pruned.as_slice(), axis),
                "{}", axis
            );
        }
    }

    /// §3.3: with skipping, descendant touches ≤ |region| + |context|
    /// nodes, the region holding the attributes below the context.
    #[test]
    fn skipping_access_bound(seed in 0u64..1 << 40, picks in proptest::collection::vec(0u32..1 << 20, 0..24)) {
        let (doc, tree, ctx) = case(seed, &picks);
        let (_, stats) = descendant(&doc, &ctx, Variant::Skipping);
        let region = below(&tree, &ctx).len() as u64;
        prop_assert!(stats.nodes_touched() <= region + stats.context_out as u64);
    }

    /// Estimation skipping performs at most (h+1) comparisons per partition.
    #[test]
    fn estimation_comparison_bound(seed in 0u64..1 << 40, picks in proptest::collection::vec(0u32..1 << 20, 0..24)) {
        let (doc, _, ctx) = case(seed, &picks);
        let (_, stats) = descendant(&doc, &ctx, Variant::EstimationSkipping);
        prop_assert!(
            stats.nodes_scanned <= (doc.height() as u64 + 1) * stats.partitions as u64
        );
    }

    /// The closure property: feeding a step result back in as context is
    /// always legal (sorted, unique, in-bounds).
    #[test]
    fn results_compose(seed in 0u64..1 << 40, picks in proptest::collection::vec(0u32..1 << 20, 0..24)) {
        let (doc, tree, ctx) = case(seed, &picks);
        let (step1, _) = descendant(&doc, &ctx, Variant::default());
        let (step2, _) = ancestor(&doc, &step1, Variant::default());
        let want = tree.region(step1.as_slice(), Axis::Ancestor);
        prop_assert_eq!(step2.as_slice(), &want[..]);
    }

    /// The pooled entries equal the plain joins, on a cold scratch pool
    /// and again on the warm one.
    #[test]
    fn pooled_equals_plain(seed in 0u64..1 << 40, picks in proptest::collection::vec(0u32..1 << 20, 0..24)) {
        let (doc, _, ctx) = case(seed, &picks);
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
    fn pushdown_equivalence(seed in 0u64..1 << 40, picks in proptest::collection::vec(0u32..1 << 20, 0..24)) {
        let (doc, _, ctx) = case(seed, &picks);
        let idx = TagIndex::build(&doc);
        let (full, _) = descendant(&doc, &ctx, Variant::default());
        for tag in ["a", "b"] {
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
    fn fragment_cursor_forms_agree_on_every_counter(seed in 0u64..1 << 40, picks in proptest::collection::vec(0u32..1 << 20, 0..24)) {
        let (doc, tree, ctx) = case(seed, &picks);
        let idx = TagIndex::build(&doc);
        let mut s1 = Scratch::new();
        for tag in ["a", "b"] {
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
            let want: Vec<Pre> = ctx.iter().filter(|&c| list.iter().any(|&v| tree.parent(v) == Some(c))).collect();
            prop_assert_eq!(single.0.as_slice(), &want[..]);
        }
    }

    /// following/preceding of a singleton partition the plane with the
    /// descendant/ancestor results: every node but attributes and the
    /// context node itself is on exactly one of the four axes.
    #[test]
    fn singleton_partitions_add_up(seed in 0u64..1 << 40, pick in 0u32..1 << 20) {
        let (doc, tree, _) = case(seed, &[]);
        let c = pick % doc.len() as u32;
        let ctx = Context::singleton(c);
        let (d, _) = descendant(&doc, &ctx, Variant::default());
        let (a, _) = ancestor(&doc, &ctx, Variant::default());
        let (f, _) = following(&doc, &ctx);
        let (p, _) = preceding(&doc, &ctx);
        let others = (0..doc.len() as u32).filter(|&v| v != c && !tree.is_attribute(v)).count();
        prop_assert_eq!(d.len() + a.len() + f.len() + p.len(), others);
    }
}

// ── The node test rides the scan: fused ≡ join-then-filter ──────────────

/// Every arm of [`ScanTest`] that a partitioning axis can be asked
/// (attribute tests belong to the `attribute` axis, which is no scan).
fn arms(doc: &Doc) -> Vec<ScanTest<'_>> {
    vec![
        ScanTest::node(doc),
        ScanTest::kind(doc, NodeKind::Element),
        ScanTest::kind(doc, NodeKind::Text),
        ScanTest::kind(doc, NodeKind::Comment),
        ScanTest::kind(doc, NodeKind::Pi),
        ScanTest::named(doc, NodeKind::Element, "a"),
        // `b` names attributes too.
        ScanTest::named(doc, NodeKind::Element, "b"),
        ScanTest::named(doc, NodeKind::Pi, "t"),
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
        seed in 0u64..1 << 40,
        which in 0usize..14,
        small in 2usize..300,
        picks in proptest::collection::vec(0u32..1_000_000, 0..12),
    ) {
        let (doc, tree) = generated(Shape::Tree, seed, sized(which, small));
        let n = doc.len() as u32;
        let ctx = Context::from_unsorted(picks.iter().map(|p| p % n).collect());
        // Equation 1 is exact: the descendant copy is each pruned step's
        // whole subtree, and preceding probes only the last node's
        // ancestors — both counted here by the oracle's tree walk.
        let subtrees = below(&tree, &ctx).len() as u64;
        let ancestors = ctx.as_slice().last().map_or(0, |&c| tree.ancestors(c).count() as u64);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn range_joins_and_probes_equal_the_region_definition(
        doc_seed in 0u64..1 << 40,
        small in 40usize..600,
        list_sel in 0usize..2 * LENGTHS.len(),
        ctx_sel in 0usize..5 * LENGTHS.len(),
        seed in 1u64..1_000_000,
    ) {
        // (the vendored proptest stops at six-tuples: the selectors pack
        // a length and a shape each)
        let (list_kind, list_len) = (list_sel / LENGTHS.len() * 3 + list_sel % 3, list_sel % LENGTHS.len());
        let (ctx_shape, ctx_len) = (ctx_sel / LENGTHS.len(), ctx_sel % LENGTHS.len());
        let (doc, tree) = generated(Shape::Tree, doc_seed, small);
        let idx = TagIndex::build(&doc);
        // The list: a tag fragment (one-tag nesting, a name shared with
        // an attribute), or any sorted node set of a chosen length —
        // attributes, text and all.
        let list: Vec<Pre> = match list_kind {
            0 => idx.fragment_by_name(&doc, "a").to_vec(),
            1 => idx.fragment_by_name(&doc, "b").to_vec(),
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
            (4, _, _) => picks.extend(doc.pres().filter(|&v| tree.element_name(v) == Some("a"))),
            _ => {}
        }
        let ctx = Context::from_unsorted(picks);
        let label = format!("kind {list_kind} |list| {} |ctx| {} shape {ctx_shape}", list.len(), ctx.len());

        // The three joins, node for node and in order: list entries
        // below, above and under some context node.
        let in_ctx = |v: Pre| ctx.as_slice().binary_search(&v).is_ok();
        let in_list = |v: Pre| list.binary_search(&v).is_ok();
        let above = |nodes: &[Pre]| -> BTreeSet<Pre> {
            nodes.iter().flat_map(|&v| tree.ancestors(v)).collect()
        };
        let (above_ctx, above_list) = (above(ctx.as_slice()), above(&list));
        let want: Vec<Pre> = list.iter().copied().filter(|&p| tree.ancestors(p).any(in_ctx)).collect();
        let (got, stats) = descendant_on_list(&doc, &list, &ctx);
        prop_assert_eq!(got.as_slice(), &want[..], "descendant {}", label);
        prop_assert_eq!((stats.nodes_scanned, stats.nodes_copied), (0, want.len() as u64));
        let want: Vec<Pre> = list.iter().copied().filter(|p| above_ctx.contains(p)).collect();
        let (got, stats) = ancestor_on_list(&doc, &list, &ctx);
        prop_assert_eq!(got.as_slice(), &want[..], "ancestor {}", label);
        prop_assert!(stats.nodes_touched() + stats.seeks <= 3 * list.len() as u64, "{}", stats);
        let want: Vec<Pre> = list.iter().copied().filter(|&p| tree.parent(p).is_some_and(in_ctx)).collect();
        let (got, _) = child_on_list(&doc, &list, &ctx);
        prop_assert_eq!(got.as_slice(), &want[..], "child {}", label);

        // The three probes: context nodes above, below and the parent of
        // some list entry.
        let want: Vec<Pre> = ctx.iter().filter(|c| above_list.contains(c)).collect();
        let (has_desc, _) = has_descendant_in(&doc, &ctx, &list);
        prop_assert_eq!(has_desc.as_slice(), &want[..], "has_descendant_in {}", label);
        let want: Vec<Pre> = ctx.iter().filter(|&c| tree.ancestors(c).any(in_list)).collect();
        let (has_anc, _) = has_ancestor_in(&doc, &ctx, &list);
        prop_assert_eq!(has_anc.as_slice(), &want[..], "has_ancestor_in {}", label);
        let parents: BTreeSet<Pre> = list.iter().filter_map(|&p| tree.parent(p)).collect();
        let want: Vec<Pre> = ctx.iter().filter(|c| parents.contains(c)).collect();
        let (has_child, _) = has_child_in(&doc, &ctx, &list);
        prop_assert_eq!(has_child.as_slice(), &want[..], "has_child_in {}", label);

        // The role swaps: a probe is the other join with list and context
        // trading places.
        let list_ctx: Context = list.iter().copied().collect();
        prop_assert_eq!(&has_desc, &ancestor_on_list(&doc, ctx.as_slice(), &list_ctx).0);
        prop_assert_eq!(&has_anc, &descendant_on_list(&doc, ctx.as_slice(), &list_ctx).0);
    }
}
