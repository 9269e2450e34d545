//! Pool parity of the single-lane plane scans.
//!
//! A staircase join runs in parallel by handing [`crate::descendant_many`]
//! or [`crate::ancestor_many`] a [`crate::WorkerPool`]: the one-lane case
//! is split into morsels (see `morsel`). Splitting changes who scans a
//! partition, never which nodes are scanned, so the tests here hold the
//! pooled join node- and counter-identical to the sequential kernels.

#[cfg(test)]
mod tests {
    use staircase_accel::{Context, Doc};

    use crate::batch::Scratch;
    use crate::testutil::{random_context, random_doc};
    use crate::{
        ancestor, ancestor_many, descendant, descendant_many, StepStats, Variant, WorkerPool,
    };

    // Big enough that the morsel gate opens on a root or random context.
    const DOC_SIZE: usize = 9000;

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
            let doc = random_doc(seed, DOC_SIZE);
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
            let doc = random_doc(seed, DOC_SIZE);
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
        let doc = random_doc(42, 3 * DOC_SIZE);
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
            let doc = random_doc(seed, DOC_SIZE);
            let ctx = random_context(&doc, 0xFADE ^ seed, 60);
            let (serial_d, _) = descendant(&doc, &ctx, Variant::EstimationSkipping);
            let (serial_a, _) = ancestor(&doc, &ctx, Variant::Skipping);
            let (par_d, _) = pooled_descendant(&doc, &ctx, Variant::EstimationSkipping, &pool);
            assert_eq!(serial_d, par_d, "seed {seed}");
            let (par_a, _) = pooled_ancestor(&doc, &ctx, Variant::Skipping, &pool);
            assert_eq!(serial_a, par_a, "seed {seed}");
        }
    }
}
