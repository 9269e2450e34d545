//! Existential (semijoin) variants of the staircase join.
//!
//! XPath predicates like `bidder[descendant::increase]` do not need the
//! descendants themselves — only whether one exists. That is the same
//! question the range joins of [`crate::list`] answer, asked from the
//! other side, so the probes have no loop of their own:
//!
//! * [`has_descendant_in`]`(ctx, list)` — "which `ctx` nodes have a `list`
//!   node below them" — **is** the ancestor join of `ctx`-as-list against
//!   `list`-as-context ([`crate::ancestor_on_list`]): the first `list`
//!   node after `c` decides ("the paper's Figure 7(b): once a node
//!   follows `c`, everything after it does too"), and a barren `c` takes
//!   the candidates nested in it along.
//! * [`has_ancestor_in`]`(ctx, list)` — "which `ctx` nodes lie below a
//!   `list` node" — **is** the descendant join of `ctx`-as-list under
//!   `list`-as-context ([`crate::descendant_on_list`]): slices of the
//!   candidates, copied.
//! * [`has_child_in`] shares the child join's walk
//!   ([`crate::child_on_list`]) and reports the parents instead of the
//!   children.
//!
//! Running through the join loops is also what governs them (each loop
//! ticks the ambient [`crate::governor::Budget`]) and what counts their
//! gallops ([`StepStats::seeks`]). In a probe's statistics `context_in` /
//! `context_out` are the candidates, `partitions` the `list` nodes (for
//! the child probe: the candidates) the cursor stopped at.
//!
//! These operators power `staircase-xpath`'s predicate evaluation and the
//! Q2 rewrite experiment; they also double as the EXISTS probe the paper's
//! DB2 rewrite relies on, but tree-aware: a merge of two sorted lists
//! instead of an index range scan per context node. Each probe takes one
//! candidate set: a batch upstairs that asks the same step twice shares
//! the step's output, predicates applied, rather than a probe.

use staircase_accel::{Context, Doc, Pre};

use crate::list::{ancestor_range_join, child_range_join, descendant_range_join, on_list};
use crate::stats::StepStats;

/// Keeps the context nodes that have at least one descendant in `list`
/// (`list` = pre-sorted candidate nodes, e.g. a tag fragment).
///
/// Cost: a merge driven from the context, `nodes_touched() + seeks ≤
/// 3 · |context|`, independent of subtree sizes and of `|list|`.
pub fn has_descendant_in(doc: &Doc, context: &Context, list: &[Pre]) -> (Context, StepStats) {
    probe(context, |candidates, result, stats| {
        ancestor_range_join(doc, candidates, list, result, stats)
    })
}

/// Keeps the context nodes that have at least one ancestor in `list`:
/// the slices of the context below each (outermost) `list` node.
pub fn has_ancestor_in(doc: &Doc, context: &Context, list: &[Pre]) -> (Context, StepStats) {
    probe(context, |candidates, result, stats| {
        descendant_range_join(doc, candidates, list, result, stats)
    })
}

/// Keeps the context nodes that have at least one *child* in `list`.
///
/// Children of `c` lie inside `c`'s contiguous subtree run; the probe
/// walks the list entries inside it, jumping the subtree of every entry
/// deeper than a child and the rest of the run once a child is found.
pub fn has_child_in(doc: &Doc, context: &Context, list: &[Pre]) -> (Context, StepStats) {
    probe(context, |candidates, result, stats| {
        child_range_join::<true>(doc, list, candidates, result, stats)
    })
}

/// Runs one probe loop over `context`: a join ([`on_list`]) whose result
/// is a subset of the candidates, none of which counts as pruned.
fn probe(
    context: &Context,
    run: impl FnOnce(&[Pre], &mut Vec<Pre>, &mut StepStats),
) -> (Context, StepStats) {
    let (kept, mut stats) = on_list(context, Vec::with_capacity(context.len()), run);
    stats.context_out = context.len();
    (kept, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{random_context, random_doc};
    use crate::TagIndex;
    use staircase_accel::Axis;

    fn brute_exists(doc: &Doc, ctx: &Context, list: &[Pre], axis: Axis) -> Vec<Pre> {
        ctx.iter()
            .filter(|&c| list.iter().any(|&p| axis.contains(doc, c, p)))
            .collect()
    }

    #[test]
    fn descendant_exists_on_figure1() {
        let doc = Doc::from_xml("<a><b><c/></b><d/><e><f><g/><h/></f><i><j/></i></e></a>").unwrap();
        let ctx: Context = doc.pres().collect();
        // list = {g (6), j (9)}.
        let (got, _) = has_descendant_in(&doc, &ctx, &[6, 9]);
        // nodes with g or j below: a, e, f (for g), i (for j).
        assert_eq!(got.as_slice(), &[0, 4, 5, 8]);
    }

    #[test]
    fn matches_brute_force_on_random_docs() {
        for seed in 0..20 {
            let doc = random_doc(seed, 400);
            let ctx = random_context(&doc, seed ^ 0x1357, 40);
            let idx = TagIndex::build(&doc);
            for tag in ["p", "q"] {
                let list = idx.fragment_by_name(&doc, tag);
                let (d, _) = has_descendant_in(&doc, &ctx, list);
                assert_eq!(
                    d.as_slice(),
                    &brute_exists(&doc, &ctx, list, Axis::Descendant)[..],
                    "desc {tag} seed {seed}"
                );
                let (a, _) = has_ancestor_in(&doc, &ctx, list);
                assert_eq!(
                    a.as_slice(),
                    &brute_exists(&doc, &ctx, list, Axis::Ancestor)[..],
                    "anc {tag} seed {seed}"
                );
                let (c, _) = has_child_in(&doc, &ctx, list);
                assert_eq!(
                    c.as_slice(),
                    &brute_exists(&doc, &ctx, list, Axis::Child)[..],
                    "child {tag} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn descendant_probe_is_one_comparison_per_context_node() {
        let doc = random_doc(5, 1000);
        let ctx: Context = doc.pres().collect();
        let idx = TagIndex::build(&doc);
        let list = idx.fragment_by_name(&doc, "p");
        let (_, stats) = has_descendant_in(&doc, &ctx, list);
        assert!(stats.nodes_scanned <= ctx.len() as u64);
    }

    #[test]
    fn ancestor_probe_bounded_by_height() {
        let doc = random_doc(6, 1000);
        let ctx: Context = doc.pres().collect();
        let idx = TagIndex::build(&doc);
        let list = idx.fragment_by_name(&doc, "q");
        let (_, stats) = has_ancestor_in(&doc, &ctx, list);
        assert!(stats.nodes_scanned <= ctx.len() as u64 * doc.height() as u64);
    }

    #[test]
    fn empty_inputs() {
        let doc = random_doc(1, 100);
        let ctx: Context = doc.pres().collect();
        let (r, _) = has_descendant_in(&doc, &ctx, &[]);
        assert!(r.is_empty());
        let (r, _) = has_ancestor_in(&doc, &Context::empty(), &[0]);
        assert!(r.is_empty());
        let (r, _) = has_child_in(&doc, &ctx, &[]);
        assert!(r.is_empty());
    }

    /// The two loops, four names: each probe is the other join with the
    /// roles of list and context swapped — nodes *and* counters.
    #[test]
    fn probes_are_the_joins_with_the_roles_swapped() {
        use crate::{ancestor_on_list, descendant_on_list};
        for seed in 0..10 {
            let doc = random_doc(seed, 600);
            let ctx = random_context(&doc, seed ^ 0x2468, 60);
            let idx = TagIndex::build(&doc);
            let list = idx.fragment_by_name(&doc, "p");
            let witnesses: Context = list.iter().copied().collect();
            let (d, ds) = has_descendant_in(&doc, &ctx, list);
            let (j, js) = ancestor_on_list(&doc, ctx.as_slice(), &witnesses);
            assert_eq!(d, j, "seed {seed}");
            assert_eq!(
                (ds.nodes_scanned, ds.nodes_skipped, ds.seeks, ds.partitions),
                (js.nodes_scanned, js.nodes_skipped, js.seeks, js.partitions)
            );
            let (a, as_) = has_ancestor_in(&doc, &ctx, list);
            let (j, js) = descendant_on_list(&doc, ctx.as_slice(), &witnesses);
            assert_eq!(a, j, "seed {seed}");
            assert_eq!(
                (as_.nodes_copied, as_.seeks, as_.partitions),
                (js.nodes_copied, js.seeks, js.partitions)
            );
        }
    }

    #[test]
    fn nested_parents_come_back_in_document_order() {
        // Every `a` is a candidate and every `a` is on the list: the
        // inner parent (pre 1) is reported before the outer one (pre 0).
        let doc = Doc::from_xml("<a><a><a/><a/></a><a/></a>").unwrap();
        let all: Context = doc.pres().collect();
        let (got, stats) = has_child_in(&doc, &all, all.as_slice());
        assert_eq!(got.as_slice(), &[0, 1]);
        assert_eq!(stats.result_size, 2);
    }

    #[test]
    fn probes_tick_the_ambient_budget() {
        use crate::governor::{self, Budget, Trip};
        use std::sync::Arc;
        let doc = random_doc(4, 30_000);
        let ctx: Context = doc.pres().collect();
        let idx = TagIndex::build(&doc);
        let list = idx.fragment_by_name(&doc, "p");
        type Probe = fn(&Doc, &Context, &[Pre]) -> (Context, StepStats);
        let probes: [Probe; 3] = [has_descendant_in, has_ancestor_in, has_child_in];
        for probe in probes {
            let budget = Arc::new(Budget::new().with_max_touched(100));
            {
                let _g = governor::enter(Arc::clone(&budget));
                probe(&doc, &ctx, list);
            }
            assert_eq!(budget.check(), Some(Trip::Cost));
            assert!(budget.touched() <= 100 + u64::from(governor::SCAN_CHUNK));
        }
    }

    use staircase_accel::Doc;
}
