//! Access-pattern statistics reported by every join.

/// Exact node-access counts for one axis step.
///
/// The paper's Experiments 1 and 2 (Figure 11(a)/(c)) are plots of these
/// counters, so they are first-class results rather than debug output.
/// Invariants maintained by all join variants:
///
/// * `nodes_touched() = nodes_scanned + nodes_copied` — every touched node
///   is either visited on its own (scanned: compared against the
///   staircase boundary, or one of `preceding`'s ancestor probes) or lies
///   in a comparison-free run (copied). `nodes_copied` charges every
///   **position** of such a run — the Equation-1 subtree copy,
///   `following`'s suffix, the gaps between `preceding`'s ancestors —
///   whether or not the step's node test keeps it: the test rides the scan
///   ([`crate::ScanTest`]), so a selective test writes fewer nodes
///   out but reads, and is charged for, exactly what `node()` reads.
///   Every field but `result_size` is therefore independent of the test
///   (`suite/tests/bounds.rs`, the parity proptests).
/// * With skipping enabled, `descendant` touches at most `result_size +
///   context_out + A` nodes, where `A` is the number of attribute nodes
///   below the pruned context: a partition reads its step's descendants
///   — [`crate::Variant::Skipping`] also compares the one node that ends
///   them (paper §3.3: `|result| + |context|`), while
///   [`crate::Variant::EstimationSkipping`] copies exactly the subtree —
///   and an attribute is read like any descendant but filtered from the
///   result. On an attribute-free document the paper's bound holds
///   exactly; XMark's attributes put the ratio at ≈ 1.09
///   (`suite/tests/bounds.rs`).
/// * The fragment joins ([`crate::descendant_on_list`],
///   [`crate::ancestor_on_list`], [`crate::child_on_list`]) are **range
///   joins** over two forward cursors, one on the list and one on the
///   context, and their counters say what each cursor did:
///   - `descendant` brackets `list ∩ (c, end(c)]` with two gallops and
///     copies the slice: `nodes_scanned == 0`, `nodes_copied ==
///     result_size`, `seeks ≤ 4 · partitions`; a root context is one
///     partition and one copy.
///   - `ancestor` is driven from the list — one look per entry, a jump
///     over a barren entry's subtree block — so `nodes_touched() + seeks
///     ≤ 3 · |list|` however long the context is.
///   - `child` looks only at list entries below the context:
///     `nodes_touched() ≤ |list ∩ subtrees(context)|`.
///   - `context_out` (= `partitions`) is the number of context nodes a
///     join *stopped at*; the others — nodes nested in an opened one, or
///     that the list-driven cursor galloped past — were never read, which
///     is what pruning is here: no pass over the context precedes a join.
///   - all three are merges: `nodes_touched() + seeks ≤ 2 · (context_out +
///     |list|)` (`suite/tests/bounds.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Context size before pruning.
    pub context_in: usize,
    /// Context size after pruning (the staircase's steps). For the range
    /// joins over a tag fragment: the context nodes the join stopped at —
    /// pruning there is the cursor galloping past the rest.
    pub context_out: usize,
    /// Nodes inspected with a postorder-rank comparison.
    pub nodes_scanned: u64,
    /// Positions of comparison-free runs (Algorithm 4's subtree copy and
    /// its horizontal counterparts), kept by the node test or not; for the
    /// descendant range join, the list entries of the copied slices.
    pub nodes_copied: u64,
    /// Nodes jumped over without being touched at all (for the range
    /// joins: list entries a gallop passed).
    pub nodes_skipped: u64,
    /// Number of result nodes.
    pub result_size: usize,
    /// Number of plane partitions visited (one per staircase step); for
    /// the range joins, the context nodes opened (`descendant`, `child`)
    /// or stopped at (`ancestor`).
    pub partitions: usize,
    /// Cursor repositionings over a sorted input: one per
    /// [`crate::cursor::advance`] that moved its cursor — the range joins
    /// and the `has_*_in` probes (which are those joins with the roles
    /// swapped) gallop over the list *and* over the context, and a cursor
    /// found in place was only looked at — and one per
    /// [`crate::cursor::seek_from`] call of the twig cursors. The
    /// comparisons inside a gallop are not counted, and neither
    /// `nodes_scanned` nor the governor sees them. Zero for the plane
    /// scans, whose movement is all sequential.
    pub seeks: u64,
}

impl StepStats {
    /// Total nodes the join touched (read from memory).
    pub fn nodes_touched(&self) -> u64 {
        self.nodes_scanned + self.nodes_copied
    }

    /// Context nodes removed by pruning.
    pub fn pruned(&self) -> usize {
        self.context_in - self.context_out
    }

    /// The step's *observed* cost in the cost model's unit (nodes
    /// touched), directly comparable to the pre-execution estimates of
    /// [`crate::cost::DocStats`] — `EXPLAIN` output next to what
    /// actually happened.
    pub fn observed_cost(&self) -> f64 {
        self.nodes_touched() as f64
    }

    /// Merges another run's counters into these (a join's local
    /// counters).
    pub fn merge(&mut self, other: &StepStats) {
        self.nodes_scanned += other.nodes_scanned;
        self.nodes_copied += other.nodes_copied;
        self.nodes_skipped += other.nodes_skipped;
        self.result_size += other.result_size;
        self.partitions += other.partitions;
        self.seeks += other.seeks;
    }
}

impl std::fmt::Display for StepStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ctx {}→{}, scanned {}, copied {}, skipped {}, result {}, partitions {}, seeks {}",
            self.context_in,
            self.context_out,
            self.nodes_scanned,
            self.nodes_copied,
            self.nodes_skipped,
            self.result_size,
            self.partitions,
            self.seeks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touched_is_scanned_plus_copied() {
        let s = StepStats {
            nodes_scanned: 10,
            nodes_copied: 32,
            ..Default::default()
        };
        assert_eq!(s.nodes_touched(), 42);
    }

    #[test]
    fn pruned_counts_removed_context() {
        let s = StepStats {
            context_in: 10,
            context_out: 4,
            ..Default::default()
        };
        assert_eq!(s.pruned(), 6);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = StepStats {
            context_in: 5,
            context_out: 5,
            nodes_scanned: 1,
            nodes_copied: 2,
            nodes_skipped: 3,
            result_size: 4,
            partitions: 1,
            seeks: 7,
        };
        let b = StepStats {
            nodes_scanned: 10,
            nodes_copied: 20,
            nodes_skipped: 30,
            result_size: 40,
            partitions: 2,
            seeks: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.nodes_scanned, 11);
        assert_eq!(a.nodes_copied, 22);
        assert_eq!(a.nodes_skipped, 33);
        assert_eq!(a.result_size, 44);
        assert_eq!(a.partitions, 3);
        assert_eq!(a.seeks, 12);
        assert_eq!(a.context_in, 5); // context fields not merged
    }

    #[test]
    fn display_is_informative() {
        let s = StepStats {
            context_in: 2,
            context_out: 1,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("ctx 2→1"));
    }
}
