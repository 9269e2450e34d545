//! Property tests: on arbitrary documents and contexts, every staircase
//! join variant must agree with the brute-force axis semantics and respect
//! the paper's access-count guarantees.

use proptest::prelude::*;
use staircase_accel::{Axis, Context, Doc, EncodingBuilder, Pre};
use staircase_core::{
    ancestor, ancestor_on_list, ancestor_on_list_many, ancestor_on_list_many_par,
    ancestor_parallel, descendant, descendant_on_list, descendant_on_list_many,
    descendant_on_list_many_par, descendant_parallel, following, has_child_in, has_child_in_many,
    has_child_in_many_par, has_descendant_in, has_descendant_in_many, has_descendant_in_many_par,
    preceding, prune, try_axis_step, Scratch, TagIndex, Variant, WorkerPool,
};

fn arb_doc() -> impl Strategy<Value = Doc> {
    (proptest::collection::vec(0u8..4, 1..300)).prop_map(|ops| {
        let tags = ["p", "q", "r"];
        let mut b = EncodingBuilder::new();
        b.open_element("root");
        let mut depth = 1;
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                0 | 3 => {
                    b.open_element(tags[i % tags.len()]);
                    depth += 1;
                }
                1 if depth > 1 => {
                    b.close_element();
                    depth -= 1;
                }
                _ => {
                    b.comment("leaf");
                }
            }
        }
        while depth > 0 {
            b.close_element();
            depth -= 1;
        }
        b.finish()
    })
}

fn arb_doc_and_context() -> impl Strategy<Value = (Doc, Context)> {
    arb_doc().prop_flat_map(|doc| {
        let n = doc.len() as u32;
        let ctx = proptest::collection::vec(0..n, 0..24).prop_map(Context::from_unsorted);
        (Just(doc), ctx)
    })
}

fn reference(doc: &Doc, ctx: &Context, axis: Axis) -> Vec<Pre> {
    doc.pres()
        .filter(|&v| ctx.iter().any(|c| axis.contains(doc, c, v)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_variants_match_reference((doc, ctx) in arb_doc_and_context()) {
        for axis in Axis::PARTITIONING {
            let want = reference(&doc, &ctx, axis);
            for variant in [Variant::Basic, Variant::Skipping, Variant::EstimationSkipping] {
                let (got, stats) = try_axis_step(&doc, &ctx, axis, variant).unwrap();
                prop_assert_eq!(got.as_slice(), &want[..], "{}/{:?}", axis, variant);
                prop_assert_eq!(stats.result_size, want.len());
            }
        }
    }

    #[test]
    fn results_sorted_and_unique((doc, ctx) in arb_doc_and_context()) {
        for axis in Axis::PARTITIONING {
            let (got, _) = try_axis_step(&doc, &ctx, axis, Variant::default()).unwrap();
            prop_assert!(got.as_slice().windows(2).all(|w| w[0] < w[1]), "{}", axis);
        }
    }

    #[test]
    fn pruning_never_changes_results((doc, ctx) in arb_doc_and_context()) {
        for axis in Axis::PARTITIONING {
            let pruned = prune(&doc, &ctx, axis);
            prop_assert!(pruned.len() <= ctx.len());
            prop_assert_eq!(
                reference(&doc, &ctx, axis),
                reference(&doc, &pruned, axis),
                "{}", axis
            );
        }
    }

    /// §3.3: with skipping, descendant touches ≤ |region| + |context| nodes.
    #[test]
    fn skipping_access_bound((doc, ctx) in arb_doc_and_context()) {
        let (_, stats) = descendant(&doc, &ctx, Variant::Skipping);
        let region = doc
            .pres()
            .filter(|&v| ctx.iter().any(|c| v > c && doc.post(v) < doc.post(c)))
            .count() as u64;
        prop_assert!(stats.nodes_touched() <= region + stats.context_out as u64);
    }

    /// Estimation skipping performs at most (h+1) comparisons per partition.
    #[test]
    fn estimation_comparison_bound((doc, ctx) in arb_doc_and_context()) {
        let (_, stats) = descendant(&doc, &ctx, Variant::EstimationSkipping);
        prop_assert!(
            stats.nodes_scanned <= (doc.height() as u64 + 1) * stats.partitions as u64
        );
    }

    /// The closure property: feeding a step result back in as context is
    /// always legal (sorted, unique, in-bounds).
    #[test]
    fn results_compose((doc, ctx) in arb_doc_and_context()) {
        let (step1, _) = descendant(&doc, &ctx, Variant::default());
        let (step2, _) = ancestor(&doc, &step1, Variant::default());
        let want = reference(&doc, &step1, Axis::Ancestor);
        prop_assert_eq!(step2.as_slice(), &want[..]);
    }

    #[test]
    fn parallel_equals_serial((doc, ctx) in arb_doc_and_context()) {
        let (sd, _) = descendant(&doc, &ctx, Variant::EstimationSkipping);
        let (pd, _) = descendant_parallel(&doc, &ctx, Variant::EstimationSkipping, 3);
        prop_assert_eq!(sd, pd);
        let (sa, _) = ancestor(&doc, &ctx, Variant::Skipping);
        let (pa, _) = ancestor_parallel(&doc, &ctx, Variant::Skipping, 3);
        prop_assert_eq!(sa, pa);
    }

    /// Name-test pushdown (list join) ≡ join then name test.
    #[test]
    fn pushdown_equivalence((doc, ctx) in arb_doc_and_context()) {
        let idx = TagIndex::build(&doc);
        let (full, _) = descendant(&doc, &ctx, Variant::default());
        for tag in ["p", "q"] {
            let late = full.name_test(&doc, tag);
            let (early, _) = descendant_on_list(&doc, idx.fragment_by_name(&doc, tag), &ctx);
            prop_assert_eq!(late, early, "{}", tag);
        }
    }

    /// single ≡ `_many` ≡ `_many_par` for every operator that moves a
    /// fragment cursor: same nodes, and the same [`StepStats`] field for
    /// field — `seeks` included.
    #[test]
    fn fragment_cursor_forms_agree_on_every_counter((doc, ctx) in arb_doc_and_context()) {
        let idx = TagIndex::build(&doc);
        let pool = WorkerPool::new(3);
        let refs = [&ctx];
        let (mut s1, mut s2) = (Scratch::new(), Scratch::new());
        for tag in ["p", "q"] {
            let list = idx.fragment_by_name(&doc, tag);
            let single = descendant_on_list(&doc, list, &ctx);
            prop_assert_eq!(&descendant_on_list_many(&doc, list, &refs, &mut s1)[0], &single);
            prop_assert_eq!(
                &descendant_on_list_many_par(&doc, list, &refs, &pool, &mut s2)[0],
                &single
            );
            let single = ancestor_on_list(&doc, list, &ctx);
            prop_assert_eq!(&ancestor_on_list_many(&doc, list, &refs, &mut s1)[0], &single);
            prop_assert_eq!(
                &ancestor_on_list_many_par(&doc, list, &refs, &pool, &mut s2)[0],
                &single
            );
            let single = has_descendant_in(&doc, &ctx, list);
            prop_assert_eq!(single.1.seeks, ctx.len() as u64, "one gallop a candidate");
            prop_assert_eq!(&has_descendant_in_many(&doc, &refs, list)[0], &single);
            prop_assert_eq!(&has_descendant_in_many_par(&doc, &refs, list, &pool)[0], &single);
            let single = has_child_in(&doc, &ctx, list);
            prop_assert_eq!(&has_child_in_many(&doc, &refs, list)[0], &single);
            prop_assert_eq!(&has_child_in_many_par(&doc, &refs, list, &pool)[0], &single);
        }
    }

    /// following/preceding of a singleton partition the plane with the
    /// descendant/ancestor results.
    #[test]
    fn singleton_partitions_add_up((doc, c) in arb_doc().prop_flat_map(|d| {
        let n = d.len() as u32;
        (Just(d), 0..n)
    })) {
        let ctx = Context::singleton(c);
        let (d, _) = descendant(&doc, &ctx, Variant::default());
        let (a, _) = ancestor(&doc, &ctx, Variant::default());
        let (f, _) = following(&doc, &ctx);
        let (p, _) = preceding(&doc, &ctx);
        // Attribute-free documents here, so counts add to |doc| - 1.
        prop_assert_eq!(d.len() + a.len() + f.len() + p.len(), doc.len() - 1);
    }
}
