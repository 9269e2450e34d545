//! The access-count bounds as tests, on generated documents: the paper's
//! `touched ≤ |result| + |context|` for the skipping descendant join
//! (§3.3) — with the one term the paper's attribute-free plane does not
//! have — and the bounds of the fragment joins, which are range joins:
//! a descendant slice is copied without a compare, the ancestor join is
//! bounded by its list whatever the context, the child join looks only
//! at entries below the context, and none does more work than reading
//! both of its sorted inputs. The plane scans are checked on random
//! documents too, each through its `_many` kernel with and without a
//! worker pool: a morsel split changes who touches a node, never what is
//! touched.

use staircase_accel::{Context, Doc, EncodingBuilder, NodeKind, Pre};
use staircase_core::{
    ancestor, ancestor_many, ancestor_on_list, child_on_list, descendant, descendant_many,
    descendant_on_list, descendant_tested, following, following_many, preceding, preceding_many,
    prune_ancestor, prune_descendant, prune_following, prune_preceding, ScanTest, Scratch,
    StepStats, TagIndex, Variant, WorkerPool,
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

// ── The plane scans on random documents, with and without a pool ───────

const VARIANTS: [Variant; 3] = [
    Variant::Basic,
    Variant::Skipping,
    Variant::EstimationSkipping,
];

/// A deterministic pseudo-random document of about `size` nodes with
/// every kind of content the scans step over: elements of four names,
/// attributes, text and comments, nested to a random depth.
fn random_doc(seed: u64, size: usize) -> Doc {
    let mut next = xorshift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut b = EncodingBuilder::new();
    b.open_element("root");
    let mut depth = 1usize;
    while b.len() < size {
        match next() % 6 {
            0 | 1 => {
                b.open_element(["p", "q", "r", "s"][(next() % 4) as usize]);
                if next().is_multiple_of(3) {
                    b.attribute("id", "a");
                }
                depth += 1;
            }
            2 | 3 if depth > 1 => {
                b.close_element();
                depth -= 1;
            }
            4 => {
                b.text("x");
            }
            _ => {
                b.comment("c");
            }
        }
    }
    for _ in 0..depth {
        b.close_element();
    }
    b.finish()
}

/// About `approx` pseudo-random nodes of `doc` (attributes included).
fn random_context(doc: &Doc, seed: u64, approx: usize) -> Context {
    let mut next = xorshift(seed | 1);
    let n = doc.len() as u64;
    Context::from_unsorted((0..approx).map(|_| (next() % n) as Pre).collect())
}

fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

fn attributes_in(doc: &Doc, range: impl Iterator<Item = Pre>) -> u64 {
    range
        .filter(|&v| doc.kind(v) == NodeKind::Attribute)
        .count() as u64
}

/// The four plane scans of `ctx` through their `_many` kernels, once
/// without a pool and once on `pool`: the two runs must agree node for
/// node and counter for counter, and with the single-context kernel.
fn plane_scans(
    doc: &Doc,
    ctx: &Context,
    variant: Variant,
    pool: &WorkerPool,
) -> [(Context, StepStats); 4] {
    let mut scratch = Scratch::new();
    let lanes = [ctx];
    let mut runs = |pool: Option<&WorkerPool>| {
        [
            descendant_many(doc, &lanes, variant, pool, &mut scratch).remove(0),
            ancestor_many(doc, &lanes, variant, pool, &mut scratch).remove(0),
            following_many(doc, &lanes, pool, &mut scratch).remove(0),
            preceding_many(doc, &lanes, pool, &mut scratch).remove(0),
        ]
    };
    let sequential = runs(None);
    let pooled = runs(Some(pool));
    let label = format!("{} nodes, |context| {}, {variant:?}", doc.len(), ctx.len());
    for (axis, (seq, par)) in ["descendant", "ancestor", "following", "preceding"]
        .iter()
        .zip(sequential.iter().zip(&pooled))
    {
        assert_eq!(par.0, seq.0, "{axis}, {label}: results differ on the pool");
        assert_eq!(
            par.1, seq.1,
            "{axis}, {label}: statistics differ on the pool"
        );
    }
    let single = [
        descendant(doc, ctx, variant),
        ancestor(doc, ctx, variant),
        following(doc, ctx),
        preceding(doc, ctx),
    ];
    for (seq, one) in sequential.iter().zip(&single) {
        assert_eq!(
            seq.0, one.0,
            "{label}: the one-lane batch is the single join"
        );
    }
    sequential
}

/// Every position of the plane a scan is responsible for is accounted
/// for once, as scanned, copied or skipped — on a pool exactly as
/// without one — and what is touched stays inside the paper's bound
/// (descendant, with the attribute term), the region (following), or
/// the region plus the context node's ancestors (preceding).
fn assert_plane_bounds(doc: &Doc, ctx: &Context, variant: Variant, pool: &WorkerPool) {
    let [(_, d), (_, a), (_, f), (_, p)] = plane_scans(doc, ctx, variant, pool);
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
        let bound = (d.result_size + d.context_out) as u64 + attributes_below(doc, ctx);
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
        let start = c + 1 + doc.subtree_size(c);
        assert_eq!(accounted(&f), n - u64::from(c) - 1, "following {label}");
        let attrs = attributes_in(doc, start..doc.len() as Pre);
        assert_eq!(
            f.nodes_touched(),
            f.result_size as u64 + attrs,
            "following {label}: {f}"
        );
    }

    if let Some(c) = prune_preceding(doc, ctx).iter().next() {
        let region = (0..c).filter(|&v| doc.post(v) < doc.post(c));
        let attrs = attributes_in(doc, region);
        let bound = p.result_size as u64 + attrs + u64::from(doc.level(c));
        assert!(p.nodes_touched() <= bound, "preceding {label}: {p}");
    }
}

/// The plane scans on random documents either side of the morsel gate
/// (a small one never splits, a large one splits a root context inside
/// its one partition), from a root, a scattered and a three-node context.
#[test]
fn plane_scans_keep_their_bounds_on_random_documents_with_and_without_a_pool() {
    let pool = WorkerPool::new(4);
    for seed in 0..6 {
        for size in [300, 9_000] {
            let doc = random_doc(seed, size);
            let contexts = [
                Context::singleton(doc.root()),
                random_context(&doc, seed ^ 0xD15C, 40),
                random_context(&doc, seed ^ 0x5EED, 3),
            ];
            for ctx in &contexts {
                for variant in VARIANTS {
                    assert_plane_bounds(&doc, ctx, variant, &pool);
                }
            }
        }
    }
}

/// An empty context yields nothing from every scan, on a pool as
/// without one.
#[test]
fn folded_kernels_on_an_empty_context() {
    let pool = WorkerPool::new(4);
    let doc = random_doc(1, 9_000);
    for variant in VARIANTS {
        for (result, stats) in plane_scans(&doc, &Context::empty(), variant, &pool) {
            assert!(result.is_empty(), "{variant:?}");
            assert_eq!(stats.nodes_touched(), 0, "{variant:?}: {stats}");
        }
    }
}

/// Wider pools than the scans have steps: one partition (a root, a
/// single node) is split inside where its shape allows, and kept whole
/// where it does not, with the sequential answer and counters either way.
#[test]
fn folded_kernels_with_more_morsels_than_steps() {
    let doc = random_doc(9, 12_000);
    let deepest = doc
        .pres()
        .max_by_key(|&v| doc.level(v))
        .expect("a non-empty document");
    for width in [2, 8, 16] {
        let pool = WorkerPool::new(width);
        for ctx in [
            Context::singleton(doc.root()),
            Context::singleton(deepest),
            Context::singleton(1),
        ] {
            for variant in VARIANTS {
                assert_plane_bounds(&doc, &ctx, variant, &pool);
            }
        }
    }
}

// ── Pool parity of the single-lane plane scans ─────────────────────────
//
// A staircase join runs in parallel by handing `descendant_many` or
// `ancestor_many` a `WorkerPool`: the one-lane case is split into
// morsels. Splitting changes who scans a partition, never which nodes
// are scanned, so the pooled join is node- and counter-identical to the
// sequential kernels.

/// Big enough that the morsel gate opens on a root or random context.
const POOL_DOC_SIZE: usize = 9000;

fn pooled_descendant(
    doc: &Doc,
    ctx: &Context,
    variant: Variant,
    pool: &WorkerPool,
) -> (Context, StepStats) {
    descendant_many(doc, &[ctx], variant, Some(pool), &mut Scratch::new())
        .pop()
        .expect("one lane in, one result out")
}

fn pooled_ancestor(
    doc: &Doc,
    ctx: &Context,
    variant: Variant,
    pool: &WorkerPool,
) -> (Context, StepStats) {
    ancestor_many(doc, &[ctx], variant, Some(pool), &mut Scratch::new())
        .pop()
        .expect("one lane in, one result out")
}

#[test]
fn parallel_descendant_equals_serial() {
    for seed in 0..6 {
        let doc = random_doc(seed, POOL_DOC_SIZE);
        let root = Context::singleton(doc.root());
        let ctx = random_context(&doc, seed ^ 0xD00D, 50);
        for case in [&root, &ctx] {
            let (serial, sstats) = descendant(&doc, case, Variant::EstimationSkipping);
            for width in [1, 2, 3, 7] {
                let pool = WorkerPool::new(width);
                let (par, pstats) =
                    pooled_descendant(&doc, case, Variant::EstimationSkipping, &pool);
                assert_eq!(serial, par, "seed {seed}, width {width}");
                assert_eq!(sstats.result_size, pstats.result_size);
                assert_eq!(sstats.partitions, pstats.partitions);
            }
        }
    }
}

#[test]
fn parallel_ancestor_equals_serial() {
    for seed in 0..6 {
        let doc = random_doc(seed, POOL_DOC_SIZE);
        let ctx = random_context(&doc, seed ^ 0xE77E, 400);
        let (serial, _) = ancestor(&doc, &ctx, Variant::Skipping);
        for width in [1, 2, 3, 7] {
            let pool = WorkerPool::new(width);
            let (par, _) = pooled_ancestor(&doc, &ctx, Variant::Skipping, &pool);
            assert_eq!(serial, par, "seed {seed}, width {width}");
        }
    }
}

#[test]
fn parallel_access_counts_match_serial() {
    // Partitioning the staircase must not change which nodes the join
    // touches — only who touches them.
    let pool = WorkerPool::new(4);
    let doc = random_doc(42, 3 * POOL_DOC_SIZE);
    for ctx in [
        Context::singleton(doc.root()),
        random_context(&doc, 0x1234, 80),
    ] {
        let (_, serial) = descendant(&doc, &ctx, Variant::Skipping);
        let (_, par) = pooled_descendant(&doc, &ctx, Variant::Skipping, &pool);
        assert_eq!(serial.nodes_scanned, par.nodes_scanned);
        assert_eq!(serial.nodes_skipped, par.nodes_skipped);
        assert_eq!(serial.nodes_copied, par.nodes_copied);
    }
}

#[test]
fn shared_pool_serves_both_joins() {
    // The session path: one persistent pool, many joins, no spawning
    // per call.
    let pool = WorkerPool::new(4);
    for seed in [9, 10, 11] {
        let doc = random_doc(seed, POOL_DOC_SIZE);
        let ctx = random_context(&doc, 0xFADE ^ seed, 60);
        let (serial_d, _) = descendant(&doc, &ctx, Variant::EstimationSkipping);
        let (serial_a, _) = ancestor(&doc, &ctx, Variant::Skipping);
        let (par_d, _) = pooled_descendant(&doc, &ctx, Variant::EstimationSkipping, &pool);
        assert_eq!(serial_d, par_d, "seed {seed}");
        let (par_a, _) = pooled_ancestor(&doc, &ctx, Variant::Skipping, &pool);
        assert_eq!(serial_a, par_a, "seed {seed}");
    }
}
