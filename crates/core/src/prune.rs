//! Context pruning (paper §3.1, Algorithm 1).
//!
//! An axis step over a context *sequence* duplicates work wherever the
//! per-node regions overlap. Pruning shrinks the context to the nodes at
//! the cover's boundary:
//!
//! * `descendant` — drop every context node lying inside another context
//!   node's subtree (Algorithm 1: keep nodes with strictly increasing
//!   postorder rank during a pre-ordered scan).
//! * `ancestor` — drop every context node that is an ancestor of another
//!   context node (keep the deepest step of each chain).
//! * `following` — only the node with the *minimum postorder* rank
//!   matters: `(a, b)/following = (b)/following` whenever `b` follows `a`
//!   (region S of Figure 7(a) is empty).
//! * `preceding` — symmetrically, only the *maximum preorder* rank node
//!   remains.
//!
//! After pruning, the remaining `descendant`/`ancestor` context nodes
//! relate pairwise on the preceding/following axis — both their pre *and*
//! post ranks ascend — which is exactly the staircase shape the join
//! algorithms in [`crate::descendant`]/[`crate::ancestor`] require.

use staircase_accel::{Axis, Context, Doc, Pre};

use crate::batch::Scratch;
use crate::stats::StepStats;

/// Prunes `context` for `axis`. For non-partitioning axes the context is
/// returned unchanged (pruning is a property of the four region axes).
pub fn prune(doc: &Doc, context: &Context, axis: Axis) -> Context {
    match axis {
        Axis::Descendant => prune_descendant(doc, context),
        Axis::Ancestor => prune_ancestor(doc, context),
        Axis::Following => prune_following(doc, context),
        Axis::Preceding => prune_preceding(doc, context),
        _ => context.clone(),
    }
}

/// The single-context vertical joins' frame: prunes `context` with
/// `prune` into a boundary list drawn from `scratch`, runs `scan` over it
/// into a result drawn from `scratch`, returns the boundary list to the
/// pool, and fills in the context and result counters.
pub(crate) fn prune_and_scan(
    doc: &Doc,
    context: &Context,
    scratch: &mut Scratch,
    prune: fn(&Doc, &Context, &mut Vec<Pre>),
    scan: impl FnOnce(&[Pre], &mut Vec<Pre>, &mut StepStats),
) -> (Context, StepStats) {
    let mut steps = scratch.take();
    prune(doc, context, &mut steps);
    let mut stats = StepStats {
        context_in: context.len(),
        context_out: steps.len(),
        ..Default::default()
    };
    let mut result = scratch.take();
    scan(&steps, &mut result, &mut stats);
    scratch.put(steps);
    stats.result_size = result.len();
    (Context::from_sorted(result), stats)
}

/// Algorithm 1: `descendant` pruning. Keeps context nodes whose postorder
/// rank exceeds every previously kept one; the dropped nodes lie inside a
/// kept node's subtree, so their descendant regions are covered.
pub fn prune_descendant(doc: &Doc, context: &Context) -> Context {
    let mut result: Vec<Pre> = Vec::with_capacity(context.len());
    prune_descendant_into(doc, context, &mut result);
    Context::from_sorted(result)
}

/// [`prune_descendant`] into a caller-provided buffer (cleared first), so
/// batch evaluation can reuse allocations across steps.
pub fn prune_descendant_into(doc: &Doc, context: &Context, out: &mut Vec<Pre>) {
    out.clear();
    let mut prev: Option<u32> = None;
    for c in context.iter() {
        let post = doc.post(c);
        if prev.is_none_or(|p| post > p) {
            out.push(c);
            prev = Some(post);
        }
    }
}

/// `ancestor` pruning: keeps the deepest node of every ancestor chain in
/// the context. A context node is dropped iff a later (in document order)
/// context node lies in its subtree; one look-ahead suffices because the
/// context is pre-sorted.
pub fn prune_ancestor(doc: &Doc, context: &Context) -> Context {
    let mut result: Vec<Pre> = Vec::with_capacity(context.len());
    prune_ancestor_into(doc, context, &mut result);
    Context::from_sorted(result)
}

/// [`prune_ancestor`] into a caller-provided buffer (cleared first), so
/// batch evaluation can reuse allocations across steps.
pub fn prune_ancestor_into(doc: &Doc, context: &Context, out: &mut Vec<Pre>) {
    out.clear();
    let slice = context.as_slice();
    for (i, &c) in slice.iter().enumerate() {
        match slice.get(i + 1) {
            // post(next) < post(c) together with pre(next) > pre(c) means
            // `next` descends from `c`: c's ancestors ⊂ next's ancestors.
            Some(&next) => {
                if doc.post(next) > doc.post(c) {
                    out.push(c);
                }
            }
            None => out.push(c),
        }
    }
}

/// `following` pruning: the whole context collapses to the node with the
/// minimum postorder rank.
pub fn prune_following(doc: &Doc, context: &Context) -> Context {
    context
        .iter()
        .min_by_key(|&c| doc.post(c))
        .map(Context::singleton)
        .unwrap_or_default()
}

/// `preceding` pruning: the whole context collapses to the node with the
/// maximum preorder rank (the last one — the context is pre-sorted).
pub fn prune_preceding(_doc: &Doc, context: &Context) -> Context {
    context
        .as_slice()
        .last()
        .map(|&c| Context::singleton(c))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{figure1, random_context, random_doc, reference};

    /// Figure 4: context (d,e,f,h,i,j) pruned for ancestor(-or-self) is
    /// (d,h,j).
    #[test]
    fn figure4_ancestor_pruning() {
        let doc = figure1();
        // names:  a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8 j=9
        let ctx = Context::from_unsorted(vec![3, 4, 5, 7, 8, 9]);
        let pruned = prune_ancestor(&doc, &ctx);
        assert_eq!(pruned.as_slice(), &[3, 7, 9]);
    }

    #[test]
    fn descendant_pruning_drops_covered_subtrees() {
        let doc = figure1();
        // e (pre 4) covers f..j; adding f, h, j changes nothing.
        let ctx = Context::from_unsorted(vec![4, 5, 7, 9]);
        let pruned = prune_descendant(&doc, &ctx);
        assert_eq!(pruned.as_slice(), &[4]);
    }

    #[test]
    fn descendant_pruning_keeps_disjoint_nodes() {
        let doc = figure1();
        let ctx = Context::from_unsorted(vec![1, 3, 5, 8]); // b, d, f, i
        let pruned = prune_descendant(&doc, &ctx);
        assert_eq!(pruned.as_slice(), &[1, 3, 5, 8]);
    }

    #[test]
    fn pruned_context_forms_staircase() {
        // Pre and post both strictly ascend after desc/anc pruning.
        for seed in 0..20 {
            let doc = random_doc(seed, 300);
            let ctx = random_context(&doc, seed ^ 0xABCD, 40);
            for pruned in [prune_descendant(&doc, &ctx), prune_ancestor(&doc, &ctx)] {
                let posts: Vec<u32> = pruned.iter().map(|c| doc.post(c)).collect();
                assert!(
                    posts.windows(2).all(|w| w[0] < w[1]),
                    "staircase broken: seed {seed}, posts {posts:?}"
                );
            }
        }
    }

    #[test]
    fn pruning_preserves_descendant_results() {
        for seed in 0..20 {
            let doc = random_doc(seed, 300);
            let ctx = random_context(&doc, seed ^ 0x1111, 30);
            let pruned = prune_descendant(&doc, &ctx);
            assert_eq!(
                reference(&doc, &ctx, Axis::Descendant),
                reference(&doc, &pruned, Axis::Descendant),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn pruning_preserves_ancestor_results() {
        for seed in 0..20 {
            let doc = random_doc(seed, 300);
            let ctx = random_context(&doc, seed ^ 0x2222, 30);
            let pruned = prune_ancestor(&doc, &ctx);
            assert_eq!(
                reference(&doc, &ctx, Axis::Ancestor),
                reference(&doc, &pruned, Axis::Ancestor),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn following_prunes_to_min_post_singleton() {
        let doc = figure1();
        let ctx = Context::from_unsorted(vec![1, 5, 6]); // b, f, g
        let pruned = prune_following(&doc, &ctx);
        // posts: b=1, f=5, g=3 → min post is b.
        assert_eq!(pruned.as_slice(), &[1]);
        assert_eq!(
            reference(&doc, &ctx, Axis::Following),
            reference(&doc, &pruned, Axis::Following)
        );
    }

    #[test]
    fn preceding_prunes_to_max_pre_singleton() {
        let doc = figure1();
        let ctx = Context::from_unsorted(vec![3, 5, 7]); // d, f, h
        let pruned = prune_preceding(&doc, &ctx);
        assert_eq!(pruned.as_slice(), &[7]);
        assert_eq!(
            reference(&doc, &ctx, Axis::Preceding),
            reference(&doc, &pruned, Axis::Preceding)
        );
    }

    #[test]
    fn horizontal_pruning_preserves_results_randomised() {
        for seed in 0..20 {
            let doc = random_doc(seed, 250);
            let ctx = random_context(&doc, seed ^ 0x3333, 25);
            if ctx.is_empty() {
                continue;
            }
            let f = prune_following(&doc, &ctx);
            assert_eq!(
                reference(&doc, &ctx, Axis::Following),
                reference(&doc, &f, Axis::Following),
                "following seed {seed}"
            );
            let p = prune_preceding(&doc, &ctx);
            assert_eq!(
                reference(&doc, &ctx, Axis::Preceding),
                reference(&doc, &p, Axis::Preceding),
                "preceding seed {seed}"
            );
        }
    }

    #[test]
    fn empty_context_stays_empty() {
        let doc = figure1();
        let empty = Context::empty();
        assert!(prune_descendant(&doc, &empty).is_empty());
        assert!(prune_ancestor(&doc, &empty).is_empty());
        assert!(prune_following(&doc, &empty).is_empty());
        assert!(prune_preceding(&doc, &empty).is_empty());
    }

    #[test]
    fn prune_dispatch_matches_specialised() {
        let doc = figure1();
        let ctx = Context::from_unsorted(vec![3, 4, 5, 7, 8, 9]);
        assert_eq!(
            prune(&doc, &ctx, Axis::Ancestor),
            prune_ancestor(&doc, &ctx)
        );
        assert_eq!(
            prune(&doc, &ctx, Axis::Descendant),
            prune_descendant(&doc, &ctx)
        );
        assert_eq!(
            prune(&doc, &ctx, Axis::Following),
            prune_following(&doc, &ctx)
        );
        assert_eq!(
            prune(&doc, &ctx, Axis::Preceding),
            prune_preceding(&doc, &ctx)
        );
        // Non-partitioning axes: unchanged.
        assert_eq!(prune(&doc, &ctx, Axis::Child), ctx);
    }

    #[test]
    fn pruning_is_idempotent() {
        for seed in 0..10 {
            let doc = random_doc(seed, 200);
            let ctx = random_context(&doc, seed ^ 0x4444, 30);
            let once = prune_descendant(&doc, &ctx);
            assert_eq!(prune_descendant(&doc, &once), once);
            let once = prune_ancestor(&doc, &ctx);
            assert_eq!(prune_ancestor(&doc, &once), once);
        }
    }
}
