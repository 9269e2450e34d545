//! The access-count bounds as tests, on generated documents: the paper's
//! `touched ≤ |result| + |context|` for the skipping descendant join
//! (§3.3) — with the one term the paper's attribute-free plane does not
//! have — and the merge bound of the fragment joins: a join over two
//! sorted inputs never does more work than reading both.

use staircase_accel::{Context, Doc, NodeKind, Pre};
use staircase_core::{
    ancestor_on_list, descendant, descendant_on_list, descendant_tested, prune_ancestor,
    prune_descendant, ScanTest, StepStats, TagIndex, Variant,
};
use staircase_xmlgen::{generate, generate_skewed, SkewConfig, XmarkConfig};

fn elements(doc: &Doc, tag: &str) -> Context {
    doc.elements_with_tag(doc.tag_id(tag).expect("generated tag"))
        .into_iter()
        .collect()
}

/// Attribute nodes inside the subtrees of the pruned context — the ones
/// a skipping scan walks over on its way to each partition's first miss.
fn attributes_below(doc: &Doc, context: &Context) -> u64 {
    prune_descendant(doc, context)
        .iter()
        .map(|c| {
            (c + 1..=c + doc.subtree_size(c))
                .filter(|&v| doc.kind(v) == NodeKind::Attribute)
                .count() as u64
        })
        .sum()
}

/// `core.bound_ratio`: a skipping partition scans the descendants of its
/// step plus at most the one node that ends it, and every scanned
/// descendant is a result *unless it is an attribute* (scanned, then
/// filtered from the `descendant` axis).
#[test]
fn skipping_descendant_touches_result_plus_context_plus_scanned_attributes() {
    // Attribute-free: the paper's bound, exactly.
    let skewed = generate_skewed(SkewConfig::new(1.0, 1.2));
    assert_eq!(
        skewed.kind_counts().1,
        0,
        "the skewed document has no attributes"
    );
    for tag in ["a", "b", "c"] {
        let ctx = elements(&skewed, tag);
        for variant in [Variant::Skipping, Variant::EstimationSkipping] {
            let (_, s) = descendant(&skewed, &ctx, variant);
            assert!(
                s.nodes_touched() <= (s.result_size + s.context_out) as u64,
                "{tag} {variant:?}: {s}"
            );
        }
    }

    // XMark has attributes everywhere, and they account for every touch
    // past the paper's bound (the benchmark's 1.091).
    let xmark = generate(XmarkConfig::new(1.0));
    assert!(xmark.kind_counts().1 > 0);
    for tag in ["open_auction", "person", "item", "bidder"] {
        let ctx = elements(&xmark, tag);
        let attrs = attributes_below(&xmark, &ctx);
        for variant in [Variant::Skipping, Variant::EstimationSkipping] {
            let (_, s) = descendant(&xmark, &ctx, variant);
            let paper = (s.result_size + s.context_out) as u64;
            assert!(s.nodes_touched() <= paper + attrs, "{tag} {variant:?}: {s}");
            if variant == Variant::Skipping && attrs > 0 {
                // Skipping compares every node it touches: the slack is
                // the attributes to the node, never less.
                assert!(s.nodes_touched() + s.partitions as u64 >= paper + attrs);
            }
        }
    }
}

/// A node test riding the scan does not buy a smaller counter — only
/// less memory traffic: the scan reads the positions the `node()` scan
/// reads and writes out fewer of them. So `touched` is the `node()`
/// run's whatever the test keeps, and the bound above holds against the
/// `node()` result (not against the few nodes the test kept).
#[test]
fn a_selective_test_touches_what_the_node_scan_touches() {
    let skewed = generate_skewed(SkewConfig::new(1.0, 1.2));
    let xmark = generate(XmarkConfig::new(1.0));
    let cases: [(&Doc, &[(&str, &str)]); 2] = [
        (
            &skewed,
            &[("a", "c"), ("a", "d"), ("b", "a"), ("c", "nosuch")],
        ),
        (
            &xmark,
            &[
                ("open_auction", "increase"),
                ("person", "education"),
                ("item", "keyword"),
                ("site", "profile"),
                ("bidder", "nosuch"),
            ],
        ),
    ];
    for (doc, pairs) in cases {
        for &(outer, inner) in pairs {
            let ctx = elements(doc, outer);
            let attrs = attributes_below(doc, &ctx);
            let test = ScanTest::named(doc, NodeKind::Element, inner);
            for variant in [
                Variant::Basic,
                Variant::Skipping,
                Variant::EstimationSkipping,
            ] {
                let (all, plain) = descendant(doc, &ctx, variant);
                let (kept, fused) = descendant_tested(doc, &ctx, variant, &test);
                let label = format!("{outer}//{inner} {variant:?}");
                assert_eq!(fused.nodes_touched(), plain.nodes_touched(), "{label}");
                assert_eq!(fused.nodes_scanned, plain.nodes_scanned, "{label}");
                assert_eq!(fused.nodes_copied, plain.nodes_copied, "{label}");
                assert_eq!(fused.nodes_skipped, plain.nodes_skipped, "{label}");
                assert!(
                    kept.len() <= all.len() / 2,
                    "{label}: the test is selective"
                );
                if variant != Variant::Basic {
                    let bound = (plain.result_size + plain.context_out) as u64 + attrs;
                    assert!(fused.nodes_touched() <= bound, "{label}: {fused}");
                }
            }
        }
    }
}

/// What a merge of `context` into `list` may cost at most.
fn assert_merge_bound(label: &str, s: &StepStats, pruned: usize, list: &[Pre]) {
    assert!(s.seeks > 0, "{label}: fragment joins report their gallops");
    assert!(
        s.nodes_touched() + s.seeks <= 2 * (pruned + list.len()) as u64,
        "{label}: {s} against |pruned context| {pruned} + |list| {}",
        list.len()
    );
}

#[test]
fn fragment_joins_are_merges_on_skewed_and_xmark_documents() {
    let skewed = generate_skewed(SkewConfig::new(1.0, 1.2));
    let xmark = generate(XmarkConfig::new(1.0));
    let cases: [(&Doc, &[(&str, &str)]); 2] = [
        (&skewed, &[("a", "c"), ("a", "b"), ("c", "d"), ("b", "a")]),
        (
            &xmark,
            &[
                ("open_auction", "increase"),
                ("bidder", "increase"),
                ("profile", "education"),
                ("item", "keyword"),
                ("site", "date"),
            ],
        ),
    ];
    for (doc, pairs) in cases {
        let index = TagIndex::build(doc);
        for &(outer, inner) in pairs {
            let (outer_list, inner_list) = (
                index.fragment_by_name(doc, outer),
                index.fragment_by_name(doc, inner),
            );
            let outer_ctx: Context = outer_list.iter().copied().collect();
            let inner_ctx: Context = inner_list.iter().copied().collect();

            let (_, s) = descendant_on_list(doc, inner_list, &outer_ctx);
            let pruned = prune_descendant(doc, &outer_ctx).len();
            assert!(s.seeks <= s.partitions as u64, "{outer}//{inner}: {s}");
            assert_merge_bound(&format!("{outer}//{inner}"), &s, pruned, inner_list);

            let (_, s) = ancestor_on_list(doc, outer_list, &inner_ctx);
            let pruned = prune_ancestor(doc, &inner_ctx).len();
            assert!(
                s.seeks <= s.partitions as u64 + s.nodes_scanned,
                "{inner}/ancestor::{outer}: {s}"
            );
            assert_merge_bound(
                &format!("{inner}/ancestor::{outer}"),
                &s,
                pruned,
                outer_list,
            );
        }
    }
}
