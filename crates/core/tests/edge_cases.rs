//! Edge-case stress tests for the staircase join: degenerate tree shapes
//! (deep chains, wide fan-outs, singletons) that exercise the boundary
//! arithmetic of pruning, partitioning and skipping.

use staircase_accel::{Axis, Context, Doc, EncodingBuilder, NodeKind, Pre};
use staircase_core::{
    ancestor, ancestor_pooled, descendant, descendant_pooled, following, following_from,
    following_pooled, following_start, preceding, preceding_pooled, prune, ScanTest, Scratch,
    Variant,
};

const ALL: [Variant; 3] = [
    Variant::Basic,
    Variant::Skipping,
    Variant::EstimationSkipping,
];

/// A path graph: root → c1 → c2 → … → c(n-1).
fn chain(n: usize) -> Doc {
    let mut b = EncodingBuilder::new();
    for _ in 0..n {
        b.open_element("c");
    }
    for _ in 0..n {
        b.close_element();
    }
    b.finish()
}

/// A star: one root with n leaf children.
fn star(n: usize) -> Doc {
    let mut b = EncodingBuilder::new();
    b.open_element("r");
    for _ in 0..n {
        b.open_element("leaf");
        b.close_element();
    }
    b.close_element();
    b.finish()
}

#[test]
fn deep_chain_descendants() {
    let n = 20_000;
    let doc = chain(n);
    assert_eq!(doc.height() as usize, n - 1);
    for variant in ALL {
        let (r, _) = descendant(&doc, &Context::singleton(0), variant);
        assert_eq!(r.len(), n - 1, "{variant:?}");
        // Midpoint node: exactly half below.
        let mid = (n / 2) as Pre;
        let (r, _) = descendant(&doc, &Context::singleton(mid), variant);
        assert_eq!(r.len(), n - 1 - mid as usize, "{variant:?}");
    }
}

#[test]
fn deep_chain_ancestors() {
    let n = 20_000;
    let doc = chain(n);
    let last = (n - 1) as Pre;
    for variant in ALL {
        let (r, _) = ancestor(&doc, &Context::singleton(last), variant);
        assert_eq!(r.len(), n - 1, "{variant:?}");
    }
    // The whole chain as context prunes to the deepest node.
    let ctx: Context = doc.pres().collect();
    let pruned = prune(&doc, &ctx, Axis::Ancestor);
    assert_eq!(pruned.as_slice(), &[last]);
}

#[test]
fn deep_chain_has_no_following_or_preceding() {
    let doc = chain(5_000);
    for v in [0 as Pre, 2_500, 4_999] {
        let (f, _) = following(&doc, &Context::singleton(v));
        assert!(f.is_empty());
        let (p, _) = preceding(&doc, &Context::singleton(v));
        assert!(p.is_empty());
    }
}

#[test]
fn wide_star_descendants_and_siblings() {
    let n = 100_000;
    let doc = star(n);
    assert_eq!(doc.height(), 1);
    for variant in ALL {
        let (r, stats) = descendant(&doc, &Context::singleton(0), variant);
        assert_eq!(r.len(), n, "{variant:?}");
        assert_eq!(stats.partitions, 1);
    }
    // Every leaf's following = all later leaves.
    let (f, _) = following(&doc, &Context::singleton(1));
    assert_eq!(f.len(), n - 1);
    let (p, _) = preceding(&doc, &Context::singleton(n as Pre));
    assert_eq!(p.len(), n - 1);
}

#[test]
fn wide_star_full_context_prunes_to_nothing_shared() {
    let n = 10_000;
    let doc = star(n);
    // All leaves as context: nothing prunes (pairwise disjoint), and the
    // descendant result is empty.
    let leaves: Context = (1..=n as Pre).collect();
    let pruned = prune(&doc, &leaves, Axis::Descendant);
    assert_eq!(pruned.len(), n);
    for variant in ALL {
        let (r, stats) = descendant(&doc, &leaves, variant);
        assert!(r.is_empty(), "{variant:?}");
        assert_eq!(stats.partitions, n);
    }
    // Ancestor from all leaves: just the root, found once.
    let (r, _) = ancestor(&doc, &leaves, Variant::Skipping);
    assert_eq!(r.as_slice(), &[0]);
}

#[test]
fn single_node_document() {
    let doc = chain(1);
    let ctx = Context::singleton(0);
    for variant in ALL {
        assert!(descendant(&doc, &ctx, variant).0.is_empty());
        assert!(ancestor(&doc, &ctx, variant).0.is_empty());
    }
    assert!(following(&doc, &ctx).0.is_empty());
    assert!(preceding(&doc, &ctx).0.is_empty());
}

#[test]
fn pooled_entries_on_degenerate_shapes() {
    // The star is one partition; the chain prunes to one step. A warm
    // scratch pool, reused round after round, changes no answer and no
    // counter.
    let chain_doc = chain(20_000);
    let star_doc = star(20_000);
    for doc in [&chain_doc, &star_doc] {
        let ctx: Context = doc.pres().filter(|v| v % 7 == 0).collect();
        let mut scratch = Scratch::new();
        let node = ScanTest::node(doc);
        let (d, s) = (Variant::EstimationSkipping, Variant::Skipping);
        let want_d = descendant(doc, &ctx, d);
        let want_a = ancestor(doc, &ctx, s);
        for round in 0..3 {
            let got = descendant_pooled(doc, &ctx, d, &node, &mut scratch);
            assert_eq!(got, want_d, "descendant, round {round}");
            scratch.recycle(got.0);
            let got = ancestor_pooled(doc, &ctx, s, &node, &mut scratch);
            assert_eq!(got, want_a, "ancestor, round {round}");
            scratch.recycle(got.0);
        }
    }
}

#[test]
fn comb_tree_alternating_regions() {
    // A comb: spine of depth d, each spine node with one leaf tooth.
    let d = 1_000;
    let mut b = EncodingBuilder::new();
    for _ in 0..d {
        b.open_element("spine");
        b.open_element("tooth");
        b.close_element();
    }
    for _ in 0..d {
        b.close_element();
    }
    let doc = b.finish();
    // Teeth sit at pre = 1, 3, 5, … (right after their spine node).
    let teeth: Context = (0..d as Pre).map(|i| i * 2 + 1).collect();
    // Ancestors of all teeth = all spine nodes.
    let (anc, _) = ancestor(&doc, &teeth, Variant::Skipping);
    assert_eq!(anc.len(), d);
    assert!(anc.iter().all(|v| v % 2 == 0));
    // Preceding of the last tooth: every earlier tooth (spines are
    // ancestors, not preceding).
    let last_tooth = Context::singleton((d as Pre) * 2 - 1);
    let (prec, _) = preceding(&doc, &last_tooth);
    assert_eq!(prec.len(), d - 1);
    assert!(prec.iter().all(|v| v % 2 == 1));
}

#[test]
fn context_equal_to_whole_document() {
    let doc = star(5_000);
    let ctx: Context = doc.pres().collect();
    for variant in ALL {
        let (d, _) = descendant(&doc, &ctx, variant);
        assert_eq!(d.len(), 5_000, "{variant:?}"); // everything below root
        let (a, _) = ancestor(&doc, &ctx, variant);
        assert_eq!(a.as_slice(), &[0], "{variant:?}");
    }
}

/// A selective test riding the scan must not hand its few hits back in a
/// plane-sized allocation: the result buffer is sized by what the test
/// can keep, not by the region the scan reads.
#[test]
fn a_selective_test_does_not_reserve_the_plane() {
    // 10 000 leaves under one root; every 100th is a `rare`.
    let mut b = EncodingBuilder::new();
    b.open_element("r");
    for i in 0..10_000 {
        b.open_element(if i % 100 == 7 { "rare" } else { "leaf" });
        b.close_element();
    }
    b.close_element();
    let doc = b.finish();
    let rare = ScanTest::named(&doc, NodeKind::Element, "rare");
    let root = Context::singleton(doc.root());
    let first = Context::singleton(1);
    let last = Context::singleton(doc.len() as Pre - 1);
    let snug = |what: &str, result: Context| {
        assert_eq!(result.len(), 100, "{what}");
        let capacity = result.into_vec().capacity();
        assert!(capacity <= 2 * 100 + 64, "{what}: capacity {capacity}");
    };
    for variant in ALL {
        let (got, _) = descendant_pooled(&doc, &root, variant, &rare, &mut Scratch::new());
        snug(&format!("descendant {variant:?}"), got);
    }
    snug(
        "following",
        following_pooled(&doc, &first, &rare, &mut Scratch::new()).0,
    );
    snug(
        "preceding",
        preceding_pooled(&doc, &last, &rare, &mut Scratch::new()).0,
    );
    // The pooled entry from a cold pool, and a following region widened
    // from a narrower one in hand.
    let mut scratch = Scratch::new();
    let (got, _) = descendant_pooled(&doc, &root, Variant::default(), &rare, &mut scratch);
    snug("descendant_pooled", got);
    let start = |c: &Context| following_start(&doc, c).expect("a non-empty context");
    let second = Context::singleton(2);
    let n = doc.len() as Pre;
    let (held, _) = following_from(n, &[], start(&second), &rare, &mut scratch);
    let (wider, _) = following_from(start(&second), &held, start(&first), &rare, &mut scratch);
    snug("following_from", Context::from_sorted(wider));
}
