//! Existential (semijoin) variants of the staircase join.
//!
//! XPath predicates like `bidder[descendant::increase]` do not need the
//! descendants themselves — only whether one exists. The pre/post plane
//! answers that with a single probe: the subtree of `c` is the contiguous
//! preorder run `(c, c + |subtree|]`, so the *first* fragment node after
//! `c` decides the predicate ("the paper's Figure 7(b): once a node
//! follows `c`, everything after it does too").
//!
//! These operators power `staircase-xpath`'s predicate evaluation and the
//! Q2 rewrite experiment; they also double as the EXISTS probe the paper's
//! DB2 rewrite relies on, but tree-aware: one comparison per context node
//! instead of an index range scan.

use staircase_accel::{Context, Doc, Pre};

use crate::batch::dedup_pass;
use crate::cursor::seek_from;
use crate::morsel::morsel_count;
use crate::pool::WorkerPool;
use crate::stats::StepStats;

/// Keeps the context nodes that have at least one descendant in `list`
/// (`list` = pre-sorted candidate nodes, e.g. a tag fragment).
///
/// Cost: a merge — the context ascends, so the list cursor only moves
/// forward: one [`seek_from`] gallop ([`StepStats::seeks`]) plus one
/// postorder comparison per context node, `O(|context| · (1 +
/// log(|list| / |context|)))`, independent of subtree sizes.
pub fn has_descendant_in(doc: &Doc, context: &Context, list: &[Pre]) -> (Context, StepStats) {
    let mut stats = StepStats {
        context_in: context.len(),
        context_out: context.len(),
        ..Default::default()
    };
    let mut result = Vec::new();
    probe_descendant(doc, context.as_slice(), list, &mut result, &mut stats);
    stats.result_size = result.len();
    stats.partitions = context.len();
    (Context::from_sorted(result), stats)
}

/// The descendant probe over an ascending candidate slice — the
/// partition-bounded core of [`has_descendant_in`], shared with the
/// chunked parallel form (each candidate's answer is independent, so any
/// sub-slice evaluates exactly as it would inside the full loop).
fn probe_descendant(
    doc: &Doc,
    candidates: &[Pre],
    list: &[Pre],
    result: &mut Vec<Pre>,
    stats: &mut StepStats,
) {
    let post = doc.post_column();
    let mut i = 0usize;
    for &c in candidates {
        // First list entry after c in document order. The subtree of c is
        // contiguous, so either this entry is a descendant or none is.
        stats.seeks += 1;
        i = seek_from(list, i, |&p| p <= c);
        if let Some(&p) = list.get(i) {
            stats.nodes_scanned += 1;
            if post[p as usize] < post[c as usize] {
                result.push(c);
            }
        }
    }
}

/// Keeps the context nodes that have at least one ancestor in `list`.
///
/// Walks the parent chain (at most `h` steps, the document height) with a
/// binary-search membership probe per step.
pub fn has_ancestor_in(doc: &Doc, context: &Context, list: &[Pre]) -> (Context, StepStats) {
    let mut stats = StepStats {
        context_in: context.len(),
        context_out: context.len(),
        ..Default::default()
    };
    let mut result = Vec::new();
    probe_ancestor(doc, context.as_slice(), list, &mut result, &mut stats);
    stats.result_size = result.len();
    stats.partitions = context.len();
    (Context::from_sorted(result), stats)
}

/// The ancestor probe over a candidate slice (see [`probe_descendant`]).
fn probe_ancestor(
    doc: &Doc,
    candidates: &[Pre],
    list: &[Pre],
    result: &mut Vec<Pre>,
    stats: &mut StepStats,
) {
    for &c in candidates {
        let mut a = doc.parent(c);
        while a != staircase_accel::NO_PARENT {
            stats.nodes_scanned += 1;
            if list.binary_search(&a).is_ok() {
                result.push(c);
                break;
            }
            a = doc.parent(a);
        }
    }
}

/// Keeps the context nodes that have at least one *child* in `list`.
///
/// Children of `c` lie inside `c`'s contiguous subtree run; the probe
/// gallops the list cursor to that run and tests the parent column of the
/// entries inside it.
pub fn has_child_in(doc: &Doc, context: &Context, list: &[Pre]) -> (Context, StepStats) {
    let mut stats = StepStats {
        context_in: context.len(),
        context_out: context.len(),
        ..Default::default()
    };
    let mut result = Vec::new();
    probe_child(doc, context.as_slice(), list, &mut result, &mut stats);
    stats.result_size = result.len();
    stats.partitions = context.len();
    (Context::from_sorted(result), stats)
}

/// The child probe over a candidate slice (see [`probe_descendant`]).
fn probe_child(
    doc: &Doc,
    candidates: &[Pre],
    list: &[Pre],
    result: &mut Vec<Pre>,
    stats: &mut StepStats,
) {
    // Nested candidates' runs overlap, so the walk inside one run does
    // not move the cursor the next run opens from.
    let mut lo = 0usize;
    for &c in candidates {
        let subtree_end = c + 1 + doc.subtree_size(c);
        stats.seeks += 1;
        lo = seek_from(list, lo, |&p| p <= c);
        for &p in list[lo..].iter().take_while(|&&p| p < subtree_end) {
            stats.nodes_scanned += 1;
            if doc.parent(p) == c {
                result.push(c);
                break;
            }
        }
    }
}

/// Probes K candidate sets against one shared `list`: the multi-context
/// form of [`has_descendant_in`].
///
/// The probes themselves are already O(1) amortised per candidate, so the
/// batch form's leverage is *sharing*: identical candidate sets (the
/// common case when several queries in a batch carry the same predicate
/// over the same step result) are probed once, duplicates reporting zero
/// incremental touches — and the caller resolves the fragment list once
/// for the whole group instead of once per lane.
pub fn has_descendant_in_many(
    doc: &Doc,
    contexts: &[&Context],
    list: &[Pre],
) -> Vec<(Context, StepStats)> {
    dedup_pass(contexts, |ctx| has_descendant_in(doc, ctx, list))
}

/// The multi-context form of [`has_ancestor_in`]; see
/// [`has_descendant_in_many`] for the sharing contract.
pub fn has_ancestor_in_many(
    doc: &Doc,
    contexts: &[&Context],
    list: &[Pre],
) -> Vec<(Context, StepStats)> {
    dedup_pass(contexts, |ctx| has_ancestor_in(doc, ctx, list))
}

/// The multi-context form of [`has_child_in`]; see
/// [`has_descendant_in_many`] for the sharing contract.
pub fn has_child_in_many(
    doc: &Doc,
    contexts: &[&Context],
    list: &[Pre],
) -> Vec<(Context, StepStats)> {
    dedup_pass(contexts, |ctx| has_child_in(doc, ctx, list))
}

/// The parallel form of [`has_descendant_in_many`]: unique candidate
/// sets large enough to amortize handoff are probed in chunks on `pool`
/// (each candidate's probe is independent, so results and statistics are
/// identical to the sequential form).
pub fn has_descendant_in_many_par(
    doc: &Doc,
    contexts: &[&Context],
    list: &[Pre],
    pool: &WorkerPool,
) -> Vec<(Context, StepStats)> {
    dedup_pass(contexts, |ctx| {
        probe_chunked(ctx, pool, |cands, result, stats| {
            probe_descendant(doc, cands, list, result, stats);
        })
    })
}

/// The parallel form of [`has_ancestor_in_many`]; see
/// [`has_descendant_in_many_par`].
pub fn has_ancestor_in_many_par(
    doc: &Doc,
    contexts: &[&Context],
    list: &[Pre],
    pool: &WorkerPool,
) -> Vec<(Context, StepStats)> {
    dedup_pass(contexts, |ctx| {
        probe_chunked(ctx, pool, |cands, result, stats| {
            probe_ancestor(doc, cands, list, result, stats);
        })
    })
}

/// The parallel form of [`has_child_in_many`]; see
/// [`has_descendant_in_many_par`].
pub fn has_child_in_many_par(
    doc: &Doc,
    contexts: &[&Context],
    list: &[Pre],
    pool: &WorkerPool,
) -> Vec<(Context, StepStats)> {
    dedup_pass(contexts, |ctx| {
        probe_chunked(ctx, pool, |cands, result, stats| {
            probe_child(doc, cands, list, result, stats);
        })
    })
}

/// Splits one candidate set into contiguous chunks probed concurrently;
/// stays sequential when the set is too small to amortize the handoff.
fn probe_chunked(
    ctx: &Context,
    pool: &WorkerPool,
    probe: impl Fn(&[Pre], &mut Vec<Pre>, &mut StepStats) + Sync,
) -> (Context, StepStats) {
    let candidates = ctx.as_slice();
    let mut stats = StepStats {
        context_in: ctx.len(),
        context_out: ctx.len(),
        ..Default::default()
    };
    let mut result = Vec::new();
    match (pool.width() > 1)
        .then(|| morsel_count(candidates.len() as u64, pool.width()))
        .flatten()
    {
        None => probe(candidates, &mut result, &mut stats),
        Some(k) => {
            let chunk = candidates.len().div_ceil(k).max(1);
            let probe = &probe;
            let outs = pool.run(
                candidates
                    .chunks(chunk)
                    .map(|cands| {
                        move || {
                            let mut part = Vec::new();
                            let mut st = StepStats::default();
                            probe(cands, &mut part, &mut st);
                            (part, st)
                        }
                    })
                    .collect(),
            );
            for (part, st) in outs {
                result.extend_from_slice(&part);
                stats.nodes_scanned += st.nodes_scanned;
                stats.seeks += st.seeks;
            }
        }
    }
    stats.result_size = result.len();
    stats.partitions = ctx.len();
    (Context::from_sorted(result), stats)
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

    #[test]
    fn parallel_probes_match_sequential_exactly() {
        use crate::WorkerPool;
        let pool = WorkerPool::new(4);
        let doc = random_doc(8, 9000);
        let idx = TagIndex::build(&doc);
        let list = idx.fragment_by_name(&doc, "p");
        // Whole-plane candidate set: far past the chunking gate, plus a
        // duplicate set exercising the dedup path.
        let all: Context = doc.pres().collect();
        let small = random_context(&doc, 0xC0FFEE, 20);
        let refs: Vec<&Context> = vec![&all, &small, &all];
        let par_d = has_descendant_in_many_par(&doc, &refs, list, &pool);
        let seq_d = has_descendant_in_many(&doc, &refs, list);
        let par_a = has_ancestor_in_many_par(&doc, &refs, list, &pool);
        let seq_a = has_ancestor_in_many(&doc, &refs, list);
        let par_c = has_child_in_many_par(&doc, &refs, list, &pool);
        let seq_c = has_child_in_many(&doc, &refs, list);
        for i in 0..refs.len() {
            assert_eq!(par_d[i], seq_d[i], "descendant query {i}");
            assert_eq!(par_a[i], seq_a[i], "ancestor query {i}");
            assert_eq!(par_c[i], seq_c[i], "child query {i}");
        }
        // The duplicate candidate set still reports zero incremental cost.
        assert_eq!(par_d[2].1.nodes_touched(), 0);
    }

    use staircase_accel::Doc;
}
