//! The access-count bounds as tests, on generated documents: the paper's
//! `touched ≤ |result| + |context|` for the skipping descendant join
//! (§3.3) — with the one term the paper's attribute-free plane does not
//! have — and the bounds of the fragment joins, which are range joins:
//! a descendant slice is copied without a compare, the ancestor join is
//! bounded by its list whatever the context, the child join looks only
//! at entries below the context, and none does more work than reading
//! both of its sorted inputs. The plane scans are checked on random
//! documents too, each through its pooled entry and its plain join: a
//! scratch pool changes where a result lives, never what is touched.

use std::sync::LazyLock;

use staircase_accel::{Context, Doc, NodeKind, Pre};
use staircase_core::{
    ancestor, ancestor_on_list, ancestor_pooled, child_on_list, descendant, descendant_on_list,
    descendant_pooled, following, following_pooled, preceding, preceding_pooled, prune_ancestor,
    prune_descendant, prune_following, prune_preceding, ScanTest, Scratch, StepStats, TagIndex,
    Variant,
};
use staircase_suite::oracle::{self, Rng, Shape, Tree, VARIANTS};
use staircase_xmlgen::{generate, generate_document, generate_skewed_xml, SkewConfig, XmarkConfig};

/// A document and the tree-walk oracle's tree of the same text.
type Loaded = (Doc, Tree);

fn loaded(xml: &str) -> Loaded {
    (Doc::from_xml(xml).unwrap(), Tree::parse(xml).unwrap())
}

/// XMark from the generator straight into the encoding, and into the
/// tree the oracle walks.
static XMARK: LazyLock<Loaded> = LazyLock::new(|| {
    let config = XmarkConfig::new(1.0);
    let tree = Tree::from_document(&generate_document(config));
    (generate(config), tree)
});
static SKEWED: LazyLock<Loaded> =
    LazyLock::new(|| loaded(&generate_skewed_xml(SkewConfig::new(1.0, 1.2))));

fn elements(doc: &Doc, tag: &str) -> Context {
    doc.elements_with_tag(doc.tag_id(tag).expect("generated tag"))
        .into_iter()
        .collect()
}

/// Whether each node lies inside the subtree of a context node,
/// attributes included, by the oracle's tree walk.
fn below(tree: &Tree, context: &Context) -> Vec<bool> {
    let mut below = vec![false; tree.len()];
    for c in context.iter() {
        if !below[c as usize] {
            tree.subtree(c)
                .into_iter()
                .for_each(|v| below[v as usize] = true);
        }
    }
    below
}

/// Attribute nodes inside the subtrees of the context — the ones a
/// skipping scan walks over on its way to each partition's first miss.
fn attributes_below(tree: &Tree, context: &Context) -> u64 {
    let below = below(tree, context);
    (0..tree.len() as Pre)
        .filter(|&v| below[v as usize] && tree.is_attribute(v))
        .count() as u64
}

/// `core.bound_ratio`: a skipping partition scans the descendants of its
/// step plus at most the one node that ends it, and every scanned
/// descendant is a result *unless it is an attribute* (scanned, then
/// filtered from the `descendant` axis).
#[test]
fn skipping_descendant_touches_result_plus_context_plus_scanned_attributes() {
    // Attribute-free: the paper's bound, exactly.
    let skewed = &SKEWED.0;
    assert_eq!(
        skewed.kind_counts().1,
        0,
        "the skewed document has no attributes"
    );
    for tag in ["a", "b", "c"] {
        let ctx = elements(skewed, tag);
        for variant in [Variant::Skipping, Variant::EstimationSkipping] {
            let (_, s) = descendant(skewed, &ctx, variant);
            assert!(
                s.nodes_touched() <= (s.result_size + s.context_out) as u64,
                "{tag} {variant:?}: {s}"
            );
        }
    }

    // XMark has attributes everywhere, and they account for every touch
    // past the paper's bound (the benchmark's 1.091).
    let (xmark, tree) = &*XMARK;
    assert!(xmark.kind_counts().1 > 0);
    for tag in ["open_auction", "person", "item", "bidder"] {
        let ctx = elements(xmark, tag);
        let attrs = attributes_below(tree, &ctx);
        for variant in [Variant::Skipping, Variant::EstimationSkipping] {
            let (_, s) = descendant(xmark, &ctx, variant);
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
    let cases: [(&Loaded, &[(&str, &str)]); 2] = [
        (
            &SKEWED,
            &[("a", "c"), ("a", "d"), ("b", "a"), ("c", "nosuch")],
        ),
        (
            &XMARK,
            &[
                ("open_auction", "increase"),
                ("person", "education"),
                ("item", "keyword"),
                ("site", "profile"),
                ("bidder", "nosuch"),
            ],
        ),
    ];
    for ((doc, tree), pairs) in cases {
        for &(outer, inner) in pairs {
            let ctx = elements(doc, outer);
            let attrs = attributes_below(tree, &ctx);
            let test = ScanTest::named(doc, NodeKind::Element, inner);
            for variant in VARIANTS {
                let (all, plain) = descendant(doc, &ctx, variant);
                let (kept, fused) =
                    descendant_pooled(doc, &ctx, variant, &test, &mut Scratch::new());
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

/// The merge bound of the range joins, against the context nodes the join stopped at
/// (`context_out`: the rest were passed by gallops, unread).
fn assert_merge_bound(label: &str, s: &StepStats, list: &[Pre]) {
    assert!(
        s.nodes_touched() + s.seeks <= 2 * (s.context_out + list.len()) as u64,
        "{label}: {s} against |list| {}",
        list.len()
    );
}

/// List entries inside the subtree of some context node.
fn entries_below(tree: &Tree, list: &[Pre], context: &Context) -> u64 {
    let below = below(tree, context);
    list.iter().filter(|&&p| below[p as usize]).count() as u64
}

/// The fragment joins are range joins: what each may cost, on both
/// generated families, with the context as the previous step leaves it
/// (unpruned).
#[test]
fn fragment_joins_are_merges_on_skewed_and_xmark_documents() {
    let cases: [(&Loaded, &[(&str, &str)]); 2] = [
        (&SKEWED, &[("a", "c"), ("a", "b"), ("c", "d"), ("b", "a")]),
        (
            &XMARK,
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
    for ((doc, tree), pairs) in cases {
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
            assert_eq!(s.nodes_copied, entries_below(tree, inner_list, &outer_ctx));
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
                s.nodes_touched() <= entries_below(tree, inner_list, &outer_ctx),
                "{label}: {s}"
            );
            assert_merge_bound(&label, &s, inner_list);
        }
    }
}

/// A root context copies the fragment as one slice.
#[test]
fn a_root_context_is_one_partition_and_one_copy() {
    let xmark = &XMARK.0;
    let index = TagIndex::build(xmark);
    let root = Context::singleton(xmark.root());
    for tag in ["date", "increase", "profile", "site"] {
        let list = index.fragment_by_name(xmark, tag);
        let (out, s) = descendant_on_list(xmark, list, &root);
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
    let xmark = &XMARK.0;
    let index = TagIndex::build(xmark);
    let list = index.fragment_by_name(xmark, "open_auction");
    let dates: Context = index
        .fragment_by_name(xmark, "date")
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
        let (_, s) = ancestor_on_list(xmark, list, ctx);
        assert!(
            s.nodes_touched() + s.seeks <= 3 * list.len() as u64,
            "{label}: {s}"
        );
        assert!(s.context_out <= list.len() + 1, "{label}: {s}");
        assert_merge_bound(label, &s, list);
    }
    // A context that ends early ends the join early.
    let (_, s) = ancestor_on_list(xmark, list, &first_date);
    assert!(s.nodes_touched() <= 2, "the first date: {s}");
}

// ── The plane scans on random documents, pooled and plain ──────────────

/// A generated document of `size` nodes with every kind of content the
/// scans step over, and the oracle's tree of it.
fn generated(seed: u64, size: usize) -> (Doc, Tree) {
    loaded(&oracle::document(Shape::Tree, seed, size))
}

/// The document alone.
fn generated_doc(seed: u64, size: usize) -> Doc {
    Doc::from_xml(&oracle::document(Shape::Tree, seed, size)).unwrap()
}

/// About `approx` pseudo-random nodes of `doc` (attributes included).
fn random_context(doc: &Doc, seed: u64, approx: usize) -> Context {
    let mut rng = Rng::new(seed);
    Context::from_unsorted((0..approx).map(|_| rng.below(doc.len()) as Pre).collect())
}

fn attributes_in(tree: &Tree, range: impl Iterator<Item = Pre>) -> u64 {
    range.filter(|&v| tree.is_attribute(v)).count() as u64
}

/// The four plane scans of `ctx` through their pooled entries, twice on
/// one scratch pool (cold, then warm): every run must agree node for
/// node and counter for counter with the plain single-context join.
fn plane_scans(doc: &Doc, ctx: &Context, variant: Variant) -> [(Context, StepStats); 4] {
    let mut scratch = Scratch::new();
    let test = ScanTest::node(doc);
    let mut runs = || {
        [
            descendant_pooled(doc, ctx, variant, &test, &mut scratch),
            ancestor_pooled(doc, ctx, variant, &test, &mut scratch),
            following_pooled(doc, ctx, &test, &mut scratch),
            preceding_pooled(doc, ctx, &test, &mut scratch),
        ]
    };
    let cold = runs();
    let warm = runs();
    let label = format!("{} nodes, |context| {}, {variant:?}", doc.len(), ctx.len());
    let single = [
        descendant(doc, ctx, variant),
        ancestor(doc, ctx, variant),
        following(doc, ctx),
        preceding(doc, ctx),
    ];
    for (axis, ((cold, warm), one)) in ["descendant", "ancestor", "following", "preceding"]
        .iter()
        .zip(cold.iter().zip(&warm).zip(&single))
    {
        assert_eq!(
            cold, one,
            "{axis}, {label}: the pooled entry is the plain join"
        );
        assert_eq!(warm, one, "{axis}, {label}: a warm pool changes nothing");
    }
    cold
}

/// Every position of the plane a scan is responsible for is accounted
/// for once, as scanned, copied or skipped, and what is touched stays
/// inside the paper's bound (descendant, with the attribute term), the
/// region (following), or the region plus the context node's ancestors
/// (preceding), in every variant.
fn assert_plane_bounds((doc, tree): &(Doc, Tree), ctx: &Context) {
    let attributes = attributes_below(tree, ctx);
    for variant in VARIANTS {
        assert_variant_bounds(doc, tree, ctx, variant, attributes);
    }
}

fn assert_variant_bounds(doc: &Doc, tree: &Tree, ctx: &Context, variant: Variant, attributes: u64) {
    let [(_, d), (_, a), (_, f), (_, p)] = plane_scans(doc, ctx, variant);
    let n = doc.len() as u64;
    let label = format!("{n} nodes, |context| {}, {variant:?}", ctx.len());
    let accounted = |s: &StepStats| s.nodes_touched() + s.nodes_skipped;

    let steps = prune_descendant(doc, ctx);
    if let Some(first) = steps.iter().next() {
        let partitions = steps.len() as u64;
        assert_eq!(
            accounted(&d),
            n - u64::from(first) - partitions,
            "descendant {label}"
        );
    }
    if variant != Variant::Basic {
        let bound = (d.result_size + d.context_out) as u64 + attributes;
        assert!(d.nodes_touched() <= bound, "descendant {label}: {d}");
    }

    let steps = prune_ancestor(doc, ctx);
    if let Some(last) = steps.iter().last() {
        let boundaries = steps.len() as u64 - 1;
        assert_eq!(
            accounted(&a),
            u64::from(last) - boundaries,
            "ancestor {label}"
        );
    }

    if let Some(c) = prune_following(doc, ctx).iter().next() {
        let start = c + 1 + tree.subtree(c).len() as Pre;
        assert_eq!(accounted(&f), n - u64::from(c) - 1, "following {label}");
        let attrs = attributes_in(tree, start..doc.len() as Pre);
        assert_eq!(
            f.nodes_touched(),
            f.result_size as u64 + attrs,
            "following {label}: {f}"
        );
    }

    if let Some(c) = prune_preceding(doc, ctx).iter().next() {
        // Every attribute before `c` is in its region: none is an
        // ancestor.
        let attrs = attributes_in(tree, 0..c);
        let bound = p.result_size as u64 + attrs + tree.ancestors(c).count() as u64;
        assert!(p.nodes_touched() <= bound, "preceding {label}: {p}");
    }
}

/// The plane scans on small and large random documents, from a root, a
/// scattered and a three-node context.
#[test]
fn plane_scans_keep_their_bounds_on_random_documents_with_and_without_a_pool() {
    for seed in 0..6 {
        for size in [300, 9_000] {
            let loaded = generated(seed, size);
            let doc = &loaded.0;
            let contexts = [
                Context::singleton(doc.root()),
                random_context(doc, seed ^ 0xD15C, 40),
                random_context(doc, seed ^ 0x5EED, 3),
            ];
            for ctx in &contexts {
                assert_plane_bounds(&loaded, ctx);
            }
        }
    }
}

/// An empty context yields nothing from every scan.
#[test]
fn folded_kernels_on_an_empty_context() {
    let doc = generated_doc(1, 9_000);
    for variant in VARIANTS {
        for (result, stats) in plane_scans(&doc, &Context::empty(), variant) {
            assert!(result.is_empty(), "{variant:?}");
            assert_eq!(stats.nodes_touched(), 0, "{variant:?}: {stats}");
        }
    }
}

/// One-node contexts — the root, the deepest node, the first child —
/// are one partition each, and keep every bound.
#[test]
fn folded_kernels_on_single_node_contexts() {
    let loaded = generated(9, 12_000);
    let (doc, tree) = &loaded;
    let deepest = doc
        .pres()
        .max_by_key(|&v| tree.ancestors(v).count())
        .expect("a non-empty document");
    for ctx in [
        Context::singleton(doc.root()),
        Context::singleton(deepest),
        Context::singleton(1),
    ] {
        assert_plane_bounds(&loaded, &ctx);
    }
}

// ── Scratch parity of the single-lane plane scans ──────────────────────
//
// A long-lived evaluator hands `descendant_pooled` and `ancestor_pooled`
// one scratch pool for every step. Reusing its buffers changes where a
// result lives, never which nodes are scanned, so the pooled join is
// node- and counter-identical to the plain kernels however warm the pool.

const POOL_DOC_SIZE: usize = 9000;

fn pooled_descendant(
    doc: &Doc,
    ctx: &Context,
    variant: Variant,
    scratch: &mut Scratch,
) -> (Context, StepStats) {
    descendant_pooled(doc, ctx, variant, &ScanTest::node(doc), scratch)
}

fn pooled_ancestor(
    doc: &Doc,
    ctx: &Context,
    variant: Variant,
    scratch: &mut Scratch,
) -> (Context, StepStats) {
    ancestor_pooled(doc, ctx, variant, &ScanTest::node(doc), scratch)
}

#[test]
fn pooled_descendant_equals_plain() {
    let mut scratch = Scratch::new();
    for seed in 0..6 {
        let doc = generated_doc(seed, POOL_DOC_SIZE);
        let root = Context::singleton(doc.root());
        let ctx = random_context(&doc, seed ^ 0xD00D, 50);
        for case in [&root, &ctx] {
            let plain = descendant(&doc, case, Variant::EstimationSkipping);
            let pooled = pooled_descendant(&doc, case, Variant::EstimationSkipping, &mut scratch);
            assert_eq!(plain, pooled, "seed {seed}");
            scratch.recycle(pooled.0);
        }
    }
}

#[test]
fn pooled_ancestor_equals_plain() {
    let mut scratch = Scratch::new();
    for seed in 0..6 {
        let doc = generated_doc(seed, POOL_DOC_SIZE);
        let ctx = random_context(&doc, seed ^ 0xE77E, 400);
        let plain = ancestor(&doc, &ctx, Variant::Skipping);
        let pooled = pooled_ancestor(&doc, &ctx, Variant::Skipping, &mut scratch);
        assert_eq!(plain, pooled, "seed {seed}");
        scratch.recycle(pooled.0);
    }
}

#[test]
fn pooled_access_counts_match_plain() {
    // A recycled buffer must not change which nodes the join touches.
    let mut scratch = Scratch::new();
    let doc = generated_doc(42, 3 * POOL_DOC_SIZE);
    for ctx in [
        Context::singleton(doc.root()),
        random_context(&doc, 0x1234, 80),
    ] {
        let (_, plain) = descendant(&doc, &ctx, Variant::Skipping);
        let (result, pooled) = pooled_descendant(&doc, &ctx, Variant::Skipping, &mut scratch);
        assert_eq!(plain.nodes_scanned, pooled.nodes_scanned);
        assert_eq!(plain.nodes_skipped, pooled.nodes_skipped);
        assert_eq!(plain.nodes_copied, pooled.nodes_copied);
        scratch.recycle(result);
    }
}

#[test]
fn shared_pool_serves_both_joins() {
    // The session path: one persistent scratch pool, many joins.
    let mut scratch = Scratch::new();
    for seed in [9, 10, 11] {
        let doc = generated_doc(seed, POOL_DOC_SIZE);
        let ctx = random_context(&doc, 0xFADE ^ seed, 60);
        let (plain_d, _) = descendant(&doc, &ctx, Variant::EstimationSkipping);
        let (plain_a, _) = ancestor(&doc, &ctx, Variant::Skipping);
        let (pooled_d, _) =
            pooled_descendant(&doc, &ctx, Variant::EstimationSkipping, &mut scratch);
        assert_eq!(plain_d, pooled_d, "seed {seed}");
        let (pooled_a, _) = pooled_ancestor(&doc, &ctx, Variant::Skipping, &mut scratch);
        assert_eq!(plain_a, pooled_a, "seed {seed}");
        scratch.recycle(pooled_d);
        scratch.recycle(pooled_a);
    }
}
