//! `descendant`-axis staircase join (Algorithms 2, 3, and 4).

use staircase_accel::{Context, Doc, Pre};

use crate::batch::Scratch;
use crate::mask::ScanTest;
use crate::prune::{prune_and_scan, prune_descendant_into};
use crate::stats::StepStats;
use crate::{subtree_ends, Variant};

/// Evaluates `context/descendant::node()` with the staircase join:
/// [`descendant_pooled`] with the `node()` test on a fresh scratch pool.
///
/// The context is pruned (covered subtrees removed), then the plane is
/// scanned partition by partition: partition `i` spans the pre ranks
/// `(cᵢ, cᵢ₊₁)`; the staircase boundary inside it is `post(cᵢ)`. The three
/// [`Variant`]s differ only in how much of each partition they touch:
///
/// * [`Variant::Basic`] — scan to the partition's end (Algorithm 2),
/// * [`Variant::Skipping`] — stop at the first node outside the boundary;
///   the rest of the partition is a provably empty Z-region (Algorithm 3),
/// * [`Variant::EstimationSkipping`] — *copy* the step's subtree
///   `(c, end(c)]` without comparisons and skip the rest of the partition
///   (Algorithm 4 with Equation 1 exact: no scan phase is left).
///
/// Results arrive duplicate-free in document order; attribute nodes are
/// filtered out (no axis except `attribute` yields them).
pub fn descendant(doc: &Doc, context: &Context, variant: Variant) -> (Context, StepStats) {
    descendant_pooled(
        doc,
        context,
        variant,
        &ScanTest::node(doc),
        &mut Scratch::new(),
    )
}

/// Evaluates `context/descendant::test`: the staircase join with the
/// step's node test riding the scan (§4.4 pushes the name test *through*
/// the join), the pruned boundary list and the result drawn from
/// `scratch`, so a long-lived evaluator reuses both allocations across
/// steps. The scan reads exactly the positions [`descendant`] reads —
/// every [`StepStats`] field but `result_size` is the same whatever
/// `test` keeps — but only the kept nodes are ever written out.
pub fn descendant_pooled(
    doc: &Doc,
    context: &Context,
    variant: Variant,
    test: &ScanTest<'_>,
    scratch: &mut Scratch,
) -> (Context, StepStats) {
    let n = doc.len() as Pre;
    prune_and_scan(
        doc,
        context,
        scratch,
        prune_descendant_into,
        |steps, out, stats| descendant_partitions(doc, steps, n, variant, test, out, stats),
    )
}

/// Evaluates the partitions induced by `steps` (a pruned, staircase-shaped
/// context slice); the last partition ends at `end` (exclusive).
fn descendant_partitions(
    doc: &Doc,
    steps: &[Pre],
    end: Pre,
    variant: Variant,
    test: &ScanTest<'_>,
    result: &mut Vec<Pre>,
    stats: &mut StepStats,
) {
    let post = doc.post_column();
    let end_of = subtree_ends(doc);
    // Governed scans stop cooperatively: every touched position is
    // ticked and every partition polled, long comparison-free ranges are
    // chunked so a deadline cannot hide behind one huge partition, and a
    // trip abandons the scan mid-flight (the caller discards `result`).
    let mut gov = crate::governor::Ticker::ambient();

    // The steps' subtrees are disjoint, so Equation 1 sizes the region
    // exactly; the test's cardinality caps it, so a selective test does
    // not reserve the plane for a handful of hits.
    let region: usize = steps.iter().map(|&c| (end_of(c) - c) as usize).sum();
    result.reserve(test.reserve_for(region));

    for (i, &c) in steps.iter().enumerate() {
        let part_end = steps.get(i + 1).copied().unwrap_or(end);
        debug_assert!(
            part_end > end_of(c),
            "a pruned step's subtree ends in its partition"
        );
        stats.partitions += 1;
        crate::faults::fail_point("core::desc::partition");
        if gov.poll() {
            return;
        }
        let bound = post[c as usize];
        match variant {
            Variant::Basic => {
                // Algorithm 2: inspect the entire partition. Every
                // position is charged regardless of the per-node test,
                // so the counter is arithmetic and the filter runs
                // through the 64-lane mask kernel.
                if gov.charged_run(c + 1, part_end, &mut stats.nodes_scanned, |lo, hi| {
                    crate::mask::select_where(lo, hi, result, |v| {
                        post[v as usize] < bound && test.keeps(v)
                    })
                }) {
                    return;
                }
            }
            Variant::Skipping => {
                // Algorithm 3: the first node v with post(v) ≥ post(c)
                // follows c, so c and v share no descendants — the rest
                // of the partition is empty (Z-region, Figure 7(b)). The
                // comparisons find where the descendants end; what the
                // test keeps of them is one range select.
                let mut v = c + 1;
                while v < part_end {
                    stats.nodes_scanned += 1;
                    if gov.tick(1) {
                        return;
                    }
                    if post[v as usize] >= bound {
                        stats.nodes_skipped += u64::from(part_end - v - 1);
                        break;
                    }
                    v += 1;
                }
                test.select_range(c + 1, v, result);
            }
            Variant::EstimationSkipping => {
                // Algorithm 4, Equation 1 exact: the subtree (c, end(c)]
                // is copied without postorder comparisons — one range
                // select, charged per position whatever the test keeps —
                // and the rest of the partition is the empty Z-region.
                let last = end_of(c);
                if gov.charged_run(c + 1, last + 1, &mut stats.nodes_copied, |lo, hi| {
                    test.select_range(lo, hi, result)
                }) {
                    return;
                }
                stats.nodes_skipped += u64::from(part_end - last - 1);
            }
        }
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
    fn figure1_descendants_of_f() {
        let doc = figure1();
        for variant in ALL {
            let (got, stats) = descendant(&doc, &Context::singleton(5), variant);
            assert_eq!(got.as_slice(), &[6, 7], "{variant:?}"); // g, h
            assert_eq!(stats.result_size, 2);
        }
    }

    #[test]
    fn root_step_yields_everything_else() {
        let doc = figure1();
        for variant in ALL {
            let (got, _) = descendant(&doc, &Context::singleton(0), variant);
            assert_eq!(got.len(), doc.len() - 1, "{variant:?}");
        }
    }

    #[test]
    fn variants_agree_with_reference_on_random_docs() {
        for seed in 0..25 {
            let doc = random_doc(seed, 400);
            let ctx = random_context(&doc, seed ^ 0xBEEF, 30);
            let want = reference(&doc, &ctx, Axis::Descendant);
            for variant in ALL {
                let (got, stats) = descendant(&doc, &ctx, variant);
                assert_eq!(got.as_slice(), &want[..], "seed {seed}, {variant:?}");
                assert_eq!(stats.result_size, want.len());
            }
        }
    }

    #[test]
    fn no_duplicates_and_document_order() {
        for seed in 0..10 {
            let doc = random_doc(seed, 500);
            let ctx = random_context(&doc, seed, 50);
            let (got, _) = descendant(&doc, &ctx, Variant::EstimationSkipping);
            assert!(
                got.as_slice().windows(2).all(|w| w[0] < w[1]),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn skipping_touches_at_most_result_plus_context() {
        // §3.3: for each context node we either hit a result node or a
        // single node that triggers a skip.
        for seed in 0..15 {
            let doc = random_doc(seed, 600);
            let ctx = random_context(&doc, seed ^ 0xF00D, 40);
            let (got, stats) = descendant(&doc, &ctx, Variant::Skipping);
            // Attribute nodes inside subtrees are scanned but filtered from
            // the result, so compare against the unfiltered region size.
            let region = doc
                .pres()
                .filter(|&v| ctx.iter().any(|c| v > c && doc.post(v) < doc.post(c)))
                .count() as u64;
            assert!(
                stats.nodes_touched() <= region + stats.context_out as u64,
                "seed {seed}: touched {} > region {} + context {} (result {})",
                stats.nodes_touched(),
                region,
                stats.context_out,
                got.len(),
            );
        }
    }

    #[test]
    fn estimation_scan_phase_bounded_by_height() {
        // The paper bounds Algorithm 4's scan phase by h + 1 per
        // partition; with Equation 1 exact there is none: each partition
        // copies its step's subtree and compares nothing.
        for seed in 0..15 {
            let doc = random_doc(seed, 600);
            let ctx = random_context(&doc, seed ^ 0xAAAA, 40);
            let (_, stats) = descendant(&doc, &ctx, Variant::EstimationSkipping);
            assert_eq!(stats.nodes_scanned, 0, "seed {seed}");
        }
    }

    #[test]
    fn basic_scans_rest_of_plane() {
        let doc = figure1();
        // Context (b): Algorithm 2 scans from b+1 to the end of the plane.
        let (_, stats) = descendant(&doc, &Context::singleton(1), Variant::Basic);
        assert_eq!(stats.nodes_scanned, (doc.len() - 2) as u64);
        assert_eq!(stats.nodes_skipped, 0);
    }

    #[test]
    fn skipping_skips_rest_of_plane_for_leaf_context() {
        let doc = figure1();
        // Context (c): a leaf early in the document; skipping bails on the
        // first scanned node.
        let (got, stats) = descendant(&doc, &Context::singleton(2), Variant::Skipping);
        assert!(got.is_empty());
        assert_eq!(stats.nodes_scanned, 1);
        assert_eq!(stats.nodes_skipped, (doc.len() - 4) as u64);
    }

    #[test]
    fn attributes_never_in_result() {
        let doc =
            staircase_accel::Doc::from_xml(r#"<a x="1"><b y="2"><c z="3"/></b></a>"#).unwrap();
        for variant in ALL {
            let (got, _) = descendant(&doc, &Context::singleton(0), variant);
            assert!(
                got.iter().all(|v| doc.kind(v) != NodeKind::Attribute),
                "{variant:?}"
            );
            assert_eq!(got.len(), 2); // b, c
        }
    }

    #[test]
    fn empty_context_empty_result() {
        let doc = figure1();
        for variant in ALL {
            let (got, stats) = descendant(&doc, &Context::empty(), variant);
            assert!(got.is_empty());
            assert_eq!(stats.partitions, 0);
            assert_eq!(stats.nodes_touched(), 0);
        }
    }

    #[test]
    fn unpruned_context_same_result_as_pruned() {
        let doc = figure1();
        let unpruned = Context::from_unsorted(vec![4, 5, 6, 8]); // e covers f,g,i
        let pruned = Context::singleton(4);
        for variant in ALL {
            let (a, sa) = descendant(&doc, &unpruned, variant);
            let (b, _) = descendant(&doc, &pruned, variant);
            assert_eq!(a, b, "{variant:?}");
            assert_eq!(sa.context_out, 1);
            assert_eq!(sa.pruned(), 3);
        }
    }

    #[test]
    fn stats_copied_dominates_for_root_query() {
        // (root)/descendant is almost pure copy phase (§4.3's bandwidth
        // experiment relies on this).
        let doc = random_doc(7, 2000);
        let (got, stats) = descendant(&doc, &Context::singleton(0), Variant::EstimationSkipping);
        assert_eq!(stats.nodes_copied, (doc.len() - 1) as u64);
        assert_eq!(stats.nodes_scanned, 0);
        assert!(got.len() < doc.len());
    }
}
