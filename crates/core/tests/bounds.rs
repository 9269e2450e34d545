//! The access-count bounds as tests, on generated documents: the paper's
//! `touched ≤ |result| + |context|` for the skipping descendant join
//! (§3.3) — with the one term the paper's attribute-free plane does not
//! have — and the bounds of the fragment joins, which are range joins:
//! a descendant slice is copied without a compare, the ancestor join is
//! bounded by its list whatever the context, the child join looks only
//! at entries below the context, and none does more work than reading
//! both of its sorted inputs.

use staircase_accel::{Context, Doc, NodeKind, Pre};
use staircase_core::{
    ancestor_on_list, child_on_list, descendant, descendant_on_list, descendant_tested,
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

/// The PR 16 merge bound, against the context nodes the join stopped at
/// (`context_out`: the rest were passed by gallops, unread).
fn assert_merge_bound(label: &str, s: &StepStats, list: &[Pre]) {
    assert!(
        s.nodes_touched() + s.seeks <= 2 * (s.context_out + list.len()) as u64,
        "{label}: {s} against |list| {}",
        list.len()
    );
}

/// List entries inside the subtree of some context node.
fn entries_below(doc: &Doc, list: &[Pre], context: &Context) -> u64 {
    let cover = prune_descendant(doc, context);
    list.iter()
        .filter(|&&p| cover.iter().any(|c| p > c && p <= c + doc.subtree_size(c)))
        .count() as u64
}

/// The fragment joins are range joins: what each may cost, on both
/// generated families, with the context as the previous step leaves it
/// (unpruned).
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
                ("open_auction", "date"),
                ("bidder", "increase"),
                ("profile", "education"),
                ("person", "profile"),
                ("closed_auction", "price"),
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

            // Descendant: slices are bracketed and copied, never compared.
            let label = format!("{outer}//{inner}");
            let (out, s) = descendant_on_list(doc, inner_list, &outer_ctx);
            assert_eq!(s.nodes_scanned, 0, "{label}: {s}");
            assert_eq!(s.nodes_copied, out.len() as u64, "{label}: {s}");
            assert_eq!(s.nodes_copied, entries_below(doc, inner_list, &outer_ctx));
            assert!(s.seeks <= 4 * s.partitions as u64, "{label}: {s}");
            assert!(
                s.partitions <= prune_descendant(doc, &outer_ctx).len(),
                "{label}: nested context nodes are passed, not opened"
            );
            assert_merge_bound(&label, &s, inner_list);

            // Ancestor: driven from the list, whatever the context's size.
            let label = format!("{inner}/ancestor::{outer}");
            let (_, s) = ancestor_on_list(doc, outer_list, &inner_ctx);
            assert!(
                s.nodes_touched() + s.seeks <= 3 * outer_list.len() as u64,
                "{label}: {s}"
            );
            assert_merge_bound(&label, &s, outer_list);

            // Child: at most the entries below the context are looked at.
            let label = format!("{outer}/{inner}");
            let (_, s) = child_on_list(doc, inner_list, &outer_ctx);
            assert_eq!(s.nodes_copied, 0, "{label}: {s}");
            assert!(
                s.nodes_touched() <= entries_below(doc, inner_list, &outer_ctx),
                "{label}: {s}"
            );
            assert_merge_bound(&label, &s, inner_list);
        }
    }
}

/// A root context copies the fragment as one slice.
#[test]
fn a_root_context_is_one_partition_and_one_copy() {
    let xmark = generate(XmarkConfig::new(1.0));
    let index = TagIndex::build(&xmark);
    let root = Context::singleton(xmark.root());
    for tag in ["date", "increase", "profile", "site"] {
        let list = index.fragment_by_name(&xmark, tag);
        let (out, s) = descendant_on_list(&xmark, list, &root);
        // `site` is the root itself: not its own descendant.
        let below = list.iter().filter(|&&p| p > xmark.root()).count();
        assert_eq!(out.len(), below, "{tag}");
        assert_eq!((s.partitions, s.context_out), (1, 1), "{tag}: {s}");
        assert_eq!((s.nodes_scanned, s.nodes_copied), (0, below as u64));
        assert!(s.seeks <= 2, "{tag}: {s}");
    }
}

/// The ancestor join's work is bounded by the list, not by the context:
/// a context twenty times the list (XMark's `date` → `open_auction`) and
/// a one-node context both stay under `3 · |list|`.
#[test]
fn the_ancestor_join_is_bounded_by_its_list_whatever_the_context() {
    let xmark = generate(XmarkConfig::new(1.0));
    let index = TagIndex::build(&xmark);
    let list = index.fragment_by_name(&xmark, "open_auction");
    let dates: Context = index
        .fragment_by_name(&xmark, "date")
        .iter()
        .copied()
        .collect();
    assert!(
        dates.len() >= 15 * list.len(),
        "{} dates, {} auctions",
        dates.len(),
        list.len()
    );
    let last_date = Context::singleton(*dates.as_slice().last().expect("dates"));
    let first_date = Context::singleton(dates.as_slice()[0]);
    for (label, ctx) in [
        ("every date", &dates),
        ("the last date", &last_date),
        ("the first date", &first_date),
    ] {
        let (_, s) = ancestor_on_list(&xmark, list, ctx);
        assert!(
            s.nodes_touched() + s.seeks <= 3 * list.len() as u64,
            "{label}: {s}"
        );
        assert!(s.context_out <= list.len() + 1, "{label}: {s}");
        assert_merge_bound(label, &s, list);
    }
    // A context that ends early ends the join early.
    let (_, s) = ancestor_on_list(&xmark, list, &first_date);
    assert!(s.nodes_touched() <= 2, "the first date: {s}");
}
