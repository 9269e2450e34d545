//! `ancestor`-axis staircase join (Algorithm 2 plus the §3.3 skip).

use staircase_accel::{Context, Doc, Pre};

use crate::batch::Scratch;
use crate::mask::ScanTest;
use crate::prune::{prune_ancestor_into, prune_and_scan};
use crate::stats::StepStats;
use crate::{subtree_ends, Variant};

/// Evaluates `context/ancestor::node()` with the staircase join:
/// [`ancestor_pooled`] with the `node()` test on a fresh scratch pool.
///
/// After pruning (only the deepest node of each ancestor chain remains),
/// the plane is scanned left to right in partitions: the partition *ending*
/// at step `cᵢ` contains the candidates for `cᵢ`'s ancestors; the staircase
/// boundary is `post(cᵢ)` and a node passes with `post > post(cᵢ)`.
///
/// Skipping (§3.3): a node `v` inside `cᵢ`'s partition with
/// `post(v) < post(cᵢ)` precedes `cᵢ`, and so does `v`'s entire subtree
/// `(v, end(v)]`, which therefore ends before `cᵢ`: the scan jumps it
/// whole. The paper's jump was `post(v) − pre(v)`, an underestimate by
/// `level(v)`; with `level` stored, Equation (1) is exact and no position
/// inside a jumped subtree is visited. [`Variant::Skipping`] and
/// [`Variant::EstimationSkipping`] are identical here.
pub fn ancestor(doc: &Doc, context: &Context, variant: Variant) -> (Context, StepStats) {
    ancestor_pooled(
        doc,
        context,
        variant,
        &ScanTest::node(doc),
        &mut Scratch::new(),
    )
}

/// Evaluates `context/ancestor::test`: the staircase join with the
/// step's node test riding the scan, the pruned boundary list and the
/// result drawn from `scratch` (see [`crate::descendant_pooled`]). Every
/// [`StepStats`] field but `result_size` equals [`ancestor`]'s.
pub fn ancestor_pooled(
    doc: &Doc,
    context: &Context,
    variant: Variant,
    test: &ScanTest<'_>,
    scratch: &mut Scratch,
) -> (Context, StepStats) {
    prune_and_scan(
        doc,
        context,
        scratch,
        prune_ancestor_into,
        |steps, out, stats| ancestor_partitions(doc, steps, variant, test, out, stats),
    )
}

/// Evaluates the ancestor partitions induced by `steps` (pruned,
/// staircase-shaped): partition `i` spans `[prev, stepᵢ)` where `prev` is
/// the previous step + 1 (or 0 for the first).
fn ancestor_partitions(
    doc: &Doc,
    steps: &[Pre],
    variant: Variant,
    test: &ScanTest<'_>,
    result: &mut Vec<Pre>,
    stats: &mut StepStats,
) {
    let post = doc.post_column();
    let end_of = subtree_ends(doc);
    // Cooperative stop: tick every visited position, chunk governed
    // mask-kernel ranges, abandon mid-scan on a trip (partial `result`
    // is discarded by the caller).
    let mut gov = crate::governor::Ticker::ambient();

    // Pre-size from the pruned-context height bound: each step
    // contributes at most `h` ancestors, and every ancestor lies
    // strictly left of the last step.
    if let Some(&last) = steps.last() {
        let bound = (steps.len() * (doc.height() as usize + 1)).min(last as usize);
        result.reserve(test.reserve_for(bound));
    }

    let mut part_start = 0;
    for &c in steps {
        stats.partitions += 1;
        crate::faults::fail_point("core::anc::partition");
        if gov.tick(1) {
            return;
        }
        let bound = post[c as usize];
        match variant {
            Variant::Basic => {
                // Algorithm 2 charges every partition position; the
                // counter is arithmetic, so the containment + node test
                // runs through the 64-lane mask kernel.
                if gov.charged_run(part_start, c, &mut stats.nodes_scanned, |lo, hi| {
                    crate::mask::select_where(lo, hi, result, |v| {
                        post[v as usize] > bound && test.keeps(v)
                    })
                }) {
                    return;
                }
            }
            Variant::Skipping | Variant::EstimationSkipping => {
                let mut v = part_start;
                while v < c {
                    stats.nodes_scanned += 1;
                    if gov.tick(1) {
                        return;
                    }
                    if post[v as usize] > bound {
                        if test.keeps(v) {
                            result.push(v);
                        }
                        v += 1;
                    } else {
                        // v precedes c, and so does its whole subtree,
                        // which ends before c: jump it.
                        let last = end_of(v);
                        debug_assert!(last < c, "a preceding subtree ends before c");
                        stats.nodes_skipped += u64::from(last - v);
                        v = last + 1;
                    }
                }
            }
        }
        part_start = c + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{figure1, random_context, random_doc, reference};
    use staircase_accel::{Axis, NodeKind};

    const ALL: [Variant; 3] = [
        Variant::Basic,
        Variant::Skipping,
        Variant::EstimationSkipping,
    ];

    #[test]
    fn figure1_ancestors_of_g() {
        let doc = figure1();
        for variant in ALL {
            let (got, _) = ancestor(&doc, &Context::singleton(6), variant);
            assert_eq!(got.as_slice(), &[0, 4, 5], "{variant:?}"); // a, e, f
        }
    }

    #[test]
    fn figure4_context_produces_shared_ancestors_once() {
        let doc = figure1();
        // ancestor step for (d,e,f,h,i,j): expected a,d? No — ancestor only:
        // ancestors of the context set = {a, e, f, i}.
        let ctx = Context::from_unsorted(vec![3, 4, 5, 7, 8, 9]);
        for variant in ALL {
            let (got, _) = ancestor(&doc, &ctx, variant);
            assert_eq!(got.as_slice(), &[0, 4, 5, 8], "{variant:?}");
        }
    }

    #[test]
    fn variants_agree_with_reference_on_random_docs() {
        for seed in 0..25 {
            let doc = random_doc(seed, 400);
            let ctx = random_context(&doc, seed ^ 0xCAFE, 30);
            let want = reference(&doc, &ctx, Axis::Ancestor);
            for variant in ALL {
                let (got, stats) = ancestor(&doc, &ctx, variant);
                assert_eq!(got.as_slice(), &want[..], "seed {seed}, {variant:?}");
                assert_eq!(stats.result_size, want.len());
            }
        }
    }

    #[test]
    fn results_in_document_order_without_duplicates() {
        for seed in 0..10 {
            let doc = random_doc(seed, 500);
            let ctx = random_context(&doc, seed ^ 0x5150, 60);
            let (got, _) = ancestor(&doc, &ctx, Variant::Skipping);
            assert!(
                got.as_slice().windows(2).all(|w| w[0] < w[1]),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn root_has_no_ancestors() {
        let doc = figure1();
        for variant in ALL {
            let (got, _) = ancestor(&doc, &Context::singleton(0), variant);
            assert!(got.is_empty(), "{variant:?}");
        }
    }

    #[test]
    fn skipping_touches_fewer_nodes_than_basic() {
        let doc = random_doc(3, 2000);
        // Deep contexts: the nodes with maximal level.
        let max_level = doc.pres().map(|p| doc.level(p)).max().unwrap();
        let ctx: Context = doc.pres().filter(|&p| doc.level(p) == max_level).collect();
        let (a, basic) = ancestor(&doc, &ctx, Variant::Basic);
        let (b, skip) = ancestor(&doc, &ctx, Variant::Skipping);
        assert_eq!(a, b);
        assert!(skip.nodes_scanned < basic.nodes_scanned);
        assert!(skip.nodes_skipped > 0);
        assert_eq!(
            skip.nodes_scanned + skip.nodes_skipped,
            basic.nodes_scanned,
            "every basic-scanned node is either scanned or skipped"
        );
    }

    /// A jump takes a preceding node's whole subtree: by a tree walk,
    /// the skipping scan visits exactly the nodes of each partition with
    /// no preceding ancestor inside it (`c`'s ancestors and the roots of
    /// the preceding subtrees), and skips every other position.
    #[test]
    fn skipping_never_visits_a_jumped_subtree() {
        for seed in 0..25 {
            let doc = random_doc(seed, 600);
            let ctx = random_context(&doc, seed ^ 0x1A1A, 30);
            let steps = crate::prune_ancestor(&doc, &ctx);
            let (mut visited, mut positions, mut start) = (0u64, 0u64, 0);
            for c in steps.iter() {
                let chain: Vec<Pre> = doc.ancestors(c).collect();
                let jumped = |u: Pre| u >= start && !chain.contains(&u);
                visited += (start..c)
                    .filter(|&v| !doc.ancestors(v).any(jumped))
                    .count() as u64;
                positions += u64::from(c - start);
                start = c + 1;
            }
            for variant in [Variant::Skipping, Variant::EstimationSkipping] {
                let (_, stats) = ancestor(&doc, &ctx, variant);
                assert_eq!(stats.nodes_scanned, visited, "seed {seed} {variant:?}");
                assert_eq!(stats.nodes_skipped, positions - visited, "seed {seed}");
            }
        }
    }

    #[test]
    fn empty_context_empty_result() {
        let doc = figure1();
        let (got, stats) = ancestor(&doc, &Context::empty(), Variant::Skipping);
        assert!(got.is_empty());
        assert_eq!(stats.nodes_touched(), 0);
    }

    #[test]
    fn attributes_never_in_result() {
        let doc =
            staircase_accel::Doc::from_xml(r#"<a x="1"><b y="2"><c z="3"/></b></a>"#).unwrap();
        // Context: the <c> element (pre 4).
        for variant in ALL {
            let (got, _) = ancestor(&doc, &Context::singleton(4), variant);
            assert_eq!(got.len(), 2, "{variant:?}"); // a, b
            assert!(got.iter().all(|v| doc.kind(v) == NodeKind::Element));
        }
    }

    #[test]
    fn duplicates_avoided_versus_naive_counts() {
        // Experiment 1's premise: the naive approach produces one copy of a
        // shared ancestor per context node; staircase join produces one
        // total.
        let doc = figure1();
        let ctx = Context::from_unsorted(vec![6, 7]); // g, h share f, e, a
        let naive_total: usize = ctx
            .iter()
            .map(|c| {
                doc.pres()
                    .filter(|&v| Axis::Ancestor.contains(&doc, c, v))
                    .count()
            })
            .sum();
        let (got, _) = ancestor(&doc, &ctx, Variant::Skipping);
        assert_eq!(naive_total, 6);
        assert_eq!(got.len(), 3);
    }
}
