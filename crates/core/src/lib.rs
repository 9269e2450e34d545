//! # staircase-core
//!
//! The **staircase join** (Grust, van Keulen, Teubner: *Staircase Join:
//! Teach a Relational DBMS to Watch its (Axis) Steps*, VLDB 2003) — a
//! tree-aware join operator that evaluates the four partitioning XPath axes
//! over the pre/post-plane encoding of [`staircase_accel`].
//!
//! The operator encapsulates three pieces of "tree knowledge":
//!
//! 1. **Pruning** (§3.1, [`prune`]) — context nodes whose result region is
//!    covered by another context node are removed; what remains traces a
//!    *staircase* through the plane. For `following`/`preceding` the
//!    context degenerates to a single node.
//! 2. **Partitioned scanning** (§3.2, [`Variant::Basic`]) — one sequential
//!    scan of the `doc` table per step, visiting each partition
//!    `[cᵢ, cᵢ₊₁)` once. The result is produced duplicate-free and in
//!    document order, so no `unique`/`sort` post-processing is needed.
//! 3. **Skipping** (§3.3/§4.2, [`Variant::Skipping`] and
//!    [`Variant::EstimationSkipping`]) — empty-region analysis ends each
//!    partition scan at the first miss; Equation (1) turns the bulk of the
//!    `descendant` scan into a comparison-free copy phase. The join then
//!    touches at most `|result| + |context|` nodes.
//!
//! Every join returns [`StepStats`] alongside the result so experiments can
//! report exact node-access counts (paper Figure 11(a)/(c)), not just
//! wall-clock times.
//!
//! ## Quick example
//!
//! Axis-specific entry points ([`descendant`], [`ancestor`], …) or the
//! generic, fallible [`try_axis_step`]:
//!
//! ```
//! use staircase_accel::{Axis, Context, Doc};
//! use staircase_core::{descendant, try_axis_step, Variant};
//!
//! let doc = Doc::from_xml("<a><b><c/></b><d/></a>").unwrap();
//! let ctx = Context::singleton(doc.root());
//! let (result, stats) = descendant(&doc, &ctx, Variant::EstimationSkipping);
//! assert_eq!(result.len(), 3); // b, c, d
//! assert_eq!(stats.result_size, 3);
//!
//! let (same, _) = try_axis_step(&doc, &ctx, Axis::Descendant, Variant::default())
//!     .expect("descendant is a partitioning axis");
//! assert_eq!(result, same);
//! assert!(try_axis_step(&doc, &ctx, Axis::Child, Variant::default()).is_err());
//! ```
//!
//! Full XPath evaluation — engine selection, prepared queries, cached
//! auxiliary structures — lives in `staircase-xpath`'s `Session` type;
//! this crate is the operator library underneath it.
//!
//! ## Data layout & hot loops
//!
//! Every operator here bottoms out in a scan of dense, parallel
//! columns: `Doc::post_column()` for the staircase comparisons,
//! `Doc::kind_column()` (`&[u8]`, one kind byte per pre rank) and
//! `Doc::tag_column()` (`&[TagId]`) for the step's node test. The node
//! test is compiled once per step into a [`ScanTest`] — `node()` (today's
//! `kind != Attribute`), a kind, a `(kind, tag)` name test, or the empty
//! test for a name the dictionary lacks — and **rides the scan**: every
//! plane-scan kernel ([`descendant_tested`], [`ancestor_tested`],
//! [`following_tested`], [`preceding_tested`] and their `_many` forms,
//! which take K lanes and an optional [`WorkerPool`] to split each lane's
//! scan into morsels) takes it, and [`descendant`], [`ancestor`], [`following`],
//! [`preceding`] are its `node()` case. One
//! test is asked in three shapes (details in [`mask`]):
//!
//! * `keeps(v)` where positions are visited one by one (ancestor jumps);
//! * `select_range(lo, hi, out)` over every comparison-free run — the
//!   Equation-1 copy phase, the descendants a skipping scan has just
//!   delimited, `following`'s suffix, `preceding`'s subtree blocks: 64
//!   kind bytes per SWAR mask word, or 32 tags per any-compare with
//!   `kind` read only on a hit, so `/descendant::profile` under the
//!   plain join reads the tag column once and writes 1 270 nodes instead
//!   of writing a 456 294-node region out and gathering it back;
//! * `select_candidates(list, out)` for the operators with no scan to
//!   ride (structural axes, the naive and plain SQL joins).
//!
//! Every comparison-free run goes through **one** helper,
//! [`governor::Ticker::charged_run`]: the arithmetic charge and, under a
//! budget, the [`governor::SCAN_CHUNK`] chunking.
//!
//! **Why statistics parity holds.** The range kernels replace only loops
//! whose [`StepStats`] counters are *arithmetic*: a copy phase charges
//! `nodes_copied` per **position** of the range whatever the test keeps,
//! and a Basic-variant window scan charges `nodes_scanned` for the whole
//! window. The test changes which positions are written out, never how
//! many are charged, so every [`StepStats`] field but `result_size` is
//! identical to join-then-filter by construction (proptested, and
//! `tests/bounds.rs`): a selective test buys less memory traffic, not a
//! smaller counter. The positions whose *extent* is data-dependent — the
//! skipping variants' first-miss early-outs, the ancestor subtree jumps —
//! are found by scalar comparisons, as their counters depend on *where*
//! the scan stopped.
//!
//! ## Failure model
//!
//! The kernels themselves are infallible over valid planes — they
//! neither allocate fallibly nor touch I/O — but two *external* stop
//! conditions thread through them:
//!
//! * **Governed stops** ([`governor`]): when an ambient
//!   [`governor::Budget`] is installed, every scan checks it at
//!   amortized boundaries (partitions, [`governor::SCAN_CHUNK`]-sized
//!   pieces of comparison-free runs, scanned positions, twig seeks) and **abandons the
//!   pass** on a trip, returning partial state. Partial results are
//!   *garbage by contract*: only the layer that installed the budget
//!   (the lane executor upstairs) may interpret them, and it discards
//!   them and reports the typed trip cause instead. A budget trips at
//!   most once (latched) and never un-trips.
//! * **Panics** ([`WorkerPool`]): a panicking pooled job is caught at
//!   the task boundary. [`WorkerPool::run`] re-raises the first payload
//!   after the batch drains (legacy contract);
//!   [`WorkerPool::run_caught`] returns per-job `Result`s so a caller
//!   can fail one job's query and keep its siblings — either way the
//!   pool's threads survive and the pool stays reusable. Scratch
//!   buffers held by a panicked task are dropped, not poisoned; the
//!   bounded [`Scratch`] pools simply re-grow.
//!
//! What survives what: a governed trip loses only the tripped pass's
//! partial output; a pooled panic loses only that task's batch slot;
//! the [`WorkerPool`], [`ScratchPool`], cached [`TagIndex`], and the
//! document itself remain valid in every case. Fault-injection hooks
//! for exercising these paths live in [`faults`] (compiled out unless
//! `--cfg stair_faults`).

#![warn(missing_docs)]
#![cfg_attr(stair_simd, feature(portable_simd))]
#![allow(unexpected_cfgs)]

mod anc;
mod batch;
pub mod cost;
pub mod cursor;
mod desc;
mod exists;
pub mod faults;
pub mod governor;
mod horiz;
mod list;
pub mod mask;
mod morsel;
mod pool;
mod prune;
mod stats;
pub mod twig;

pub use anc::{ancestor, ancestor_tested};
pub use batch::{
    ancestor_many, ancestor_on_list_many, child_on_list_many, descendant_many,
    descendant_on_list_many, ScanLane, Scratch,
};
pub use cost::{Calibrator, DocStats, RuntimeStats, TwigLegCost};
pub use desc::{descendant, descendant_fused, descendant_tested, guaranteed_result_estimate};
pub use exists::{
    has_ancestor_in, has_ancestor_in_many, has_child_in, has_child_in_many, has_descendant_in,
    has_descendant_in_many,
};
pub use governor::{Budget, Trip};
pub use horiz::{
    following, following_many, following_tested, preceding, preceding_many, preceding_tested,
};
pub use list::{ancestor_on_list, child_on_list, descendant_on_list, TagIndex};
pub use mask::ScanTest;
pub use pool::{ScratchPool, WorkerPool};
pub use prune::{
    prune, prune_ancestor, prune_ancestor_into, prune_descendant, prune_descendant_into,
    prune_following, prune_preceding,
};
pub use stats::StepStats;
pub use twig::{twig_match, ChainStep, SpineLeg, TwigEdge};

use staircase_accel::{Axis, Context, Doc};

/// Which staircase-join refinement to run.
///
/// `Basic` is Algorithm 2 (no skipping), `Skipping` adds the early-out of
/// Algorithm 3, and `EstimationSkipping` adds the Equation (1) copy phase
/// of Algorithm 4. All three compute identical results; they differ only
/// in how many nodes they touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Variant {
    /// Algorithm 2: scan every partition to its end.
    Basic,
    /// Algorithm 3: stop a partition scan at the first miss.
    Skipping,
    /// Algorithm 4: comparison-free copy phase, then a bounded scan.
    #[default]
    EstimationSkipping,
}

/// The error of [`try_axis_step`]: the axis handed in is not one of the
/// four partitioning axes the staircase join evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedAxis(pub Axis);

impl std::fmt::Display for UnsupportedAxis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "staircase join evaluates partitioning axes only, got {}",
            self.0
        )
    }
}

impl std::error::Error for UnsupportedAxis {}

/// Evaluates one partitioning-axis step with the staircase join.
///
/// `axis` must be one of `descendant`, `ancestor`, `following`,
/// `preceding` (use [`axis_is_supported`] to check); the or-self variants
/// and the remaining axes are layered on top by `staircase-xpath`.
///
/// # Errors
///
/// [`UnsupportedAxis`] if `axis` is not a partitioning axis.
pub fn try_axis_step(
    doc: &Doc,
    context: &Context,
    axis: Axis,
    variant: Variant,
) -> Result<(Context, StepStats), UnsupportedAxis> {
    match axis {
        Axis::Descendant => Ok(descendant(doc, context, variant)),
        Axis::Ancestor => Ok(ancestor(doc, context, variant)),
        Axis::Following => Ok(following(doc, context)),
        Axis::Preceding => Ok(preceding(doc, context)),
        other => Err(UnsupportedAxis(other)),
    }
}

/// `true` if [`try_axis_step`] accepts `axis`.
pub fn axis_is_supported(axis: Axis) -> bool {
    axis.is_partitioning()
}

#[cfg(test)]
pub(crate) mod testutil {
    use staircase_accel::{Axis, Context, Doc, Pre};

    /// The paper's running example: a(b(c),d,e(f(g,h),i(j))).
    pub fn figure1() -> Doc {
        Doc::from_xml("<a><b><c/></b><d/><e><f><g/><h/></f><i><j/></i></e></a>").unwrap()
    }

    /// Brute-force reference step evaluation (duplicate-free, document
    /// order) straight from the axis predicate.
    pub fn reference(doc: &Doc, ctx: &Context, axis: Axis) -> Vec<Pre> {
        doc.pres()
            .filter(|&v| ctx.iter().any(|c| axis.contains(doc, c, v)))
            .collect()
    }

    /// A small deterministic pseudo-random document for exhaustive checks.
    pub fn random_doc(seed: u64, size_hint: usize) -> Doc {
        use staircase_accel::EncodingBuilder;
        let mut b = EncodingBuilder::new();
        let tags = ["p", "q", "r", "s"];
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        b.open_element("root");
        let mut depth = 1usize;
        let mut last_was_text = false;
        for _ in 0..size_hint {
            match next() % 5 {
                0 | 1 => {
                    b.open_element(tags[(next() % 4) as usize]);
                    depth += 1;
                    last_was_text = false;
                }
                2 if depth > 1 => {
                    b.close_element();
                    depth -= 1;
                    last_was_text = false;
                }
                3 => {
                    if !last_was_text {
                        b.text("x");
                        last_was_text = true;
                    }
                }
                _ => {
                    if next() % 3 == 0 {
                        b.open_element(tags[(next() % 4) as usize]);
                        b.attribute("id", "a");
                        b.close_element();
                    } else {
                        b.comment("c");
                    }
                    last_was_text = false;
                }
            }
        }
        while depth > 0 {
            b.close_element();
            depth -= 1;
        }
        b.finish()
    }

    /// Deterministic pseudo-random context over `doc`.
    pub fn random_context(doc: &Doc, seed: u64, approx: usize) -> Context {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = doc.len() as u64;
        let pres: Vec<Pre> = (0..approx).map(|_| (next() % n) as Pre).collect();
        Context::from_unsorted(pres)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn axis_step_dispatches_all_partitioning_axes() {
        let doc = figure1();
        let ctx = Context::singleton(5); // f
        for axis in Axis::PARTITIONING {
            let (got, _) = try_axis_step(&doc, &ctx, axis, Variant::default()).unwrap();
            assert_eq!(got.as_slice(), &reference(&doc, &ctx, axis)[..], "{axis}");
        }
    }

    #[test]
    fn try_axis_step_rejects_child() {
        let doc = figure1();
        let err = try_axis_step(&doc, &Context::singleton(0), Axis::Child, Variant::Basic);
        assert_eq!(err.unwrap_err(), UnsupportedAxis(Axis::Child));
    }

    #[test]
    fn supported_axis_predicate() {
        assert!(axis_is_supported(Axis::Descendant));
        assert!(axis_is_supported(Axis::Preceding));
        assert!(!axis_is_supported(Axis::Child));
        assert!(!axis_is_supported(Axis::SelfAxis));
    }
}
