//! Cost model: pricing candidate physical operators from document
//! statistics.
//!
//! The paper's central observation is that no single evaluator wins
//! everywhere — the staircase join dominates the partitioning axes
//! (§3–§4) and tag-name fragmentation wins highly selective name tests
//! (§6). A planner choosing between them per step needs *estimates* of
//! what each candidate would touch, before any of them runs. The
//! tree-unaware baselines (the §3.1 naive strategy, the Figure-3 SQL
//! plan) are priced too, for the fixed engines that run them, but are
//! no planner candidates: they scan every context node's unpruned
//! window and then sort away the duplicates.
//!
//! [`DocStats`] is the estimator: a cheap (one pass at most, cached by
//! the session layer) snapshot of the statistics every estimate derives
//! from —
//!
//! * node / element counts and the document height `h`,
//! * the average node depth (which by a standard identity equals the
//!   average subtree size minus one:
//!   `Σ_v |subtree(v)| = Σ_v (depth(v) + 1)`), giving the Equation-1
//!   context-window estimate for a context of known cardinality but
//!   unknown identity,
//! * per-tag fragment sizes, read in O(1) from the tag interner's
//!   element counts (maintained at document-loading time), so planning
//!   never forces the fragment index to be built,
//! * per-tag mean child counts (one number per tag, from a — on large
//!   documents sampled — histogram of the `parent` column), so a
//!   `child::` step out of `person` elements is priced with a `person`'s
//!   fan-out, not the document's.
//!
//! Costs are expressed in the unit the paper plots in Figure 11(a)/(c):
//! **nodes (or index entries) touched**. That makes an estimate directly
//! comparable to the [`StepStats::nodes_touched`](crate::StepStats)
//! the join reports after the fact.
//!
//! The model is deliberately simple — every formula is a first-order
//! account of the corresponding algorithm's access pattern, not a fitted
//! curve. It only has to *rank* candidates correctly, and the candidates
//! differ by orders of magnitude exactly when the choice matters.

use staircase_accel::{Axis, Doc, NodeKind, TagId, NO_PARENT};

use crate::Variant;

/// Document statistics snapshot used to price candidate operators.
///
/// Build once per document with [`DocStats::from_doc`] (one pass over the
/// `level`/`kind` columns) and reuse for every plan.
#[derive(Debug, Clone, PartialEq)]
pub struct DocStats {
    nodes: usize,
    elements: usize,
    attributes: usize,
    height: f64,
    avg_depth: f64,
    /// Mean number of children (attributes included: the child hop walks
    /// over them) of an element, by the element's tag.
    child_fanout: Vec<f64>,
}

impl DocStats {
    /// Gathers the statistics with one pass over the document's columns.
    pub fn from_doc(doc: &Doc) -> DocStats {
        let n = doc.len();
        let mut attributes = 0usize;
        let mut depth_sum = 0u64;
        let kinds = doc.kind_column();
        let attr = NodeKind::Attribute as u8;
        for v in doc.pres() {
            if kinds[v as usize] == attr {
                attributes += 1;
            }
            depth_sum += u64::from(doc.level(v));
        }
        DocStats {
            nodes: n,
            elements: doc.tags().total_elements(),
            attributes,
            height: f64::from(doc.height()),
            avg_depth: if n == 0 {
                0.0
            } else {
                depth_sum as f64 / n as f64
            },
            child_fanout: child_fanout(doc),
        }
    }

    /// The document-wide fan-out: `(nodes − 1) / elements` children an
    /// element.
    pub fn avg_fanout(&self) -> f64 {
        if self.elements == 0 {
            0.0
        } else {
            (self.nodes.saturating_sub(1)) as f64 / self.elements as f64
        }
    }

    /// Total node count of the document.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Element node count.
    pub fn elements(&self) -> usize {
        self.elements
    }

    /// Document height `h` (longest root-to-leaf path, in edges).
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Average node depth `d̄`; the expected subtree size of a uniformly
    /// random node is `d̄ + 1` (sum both sides of `Σ_v |subtree(v)| =
    /// Σ_v (depth(v) + 1)` and divide by `n`).
    pub fn avg_depth(&self) -> f64 {
        self.avg_depth
    }

    /// Expected subtree size of one context node.
    pub fn avg_subtree(&self) -> f64 {
        self.avg_depth + 1.0
    }

    /// The §6 fragment size of `tag`: how many element nodes carry it
    /// (`None` — a name absent from the document — has an empty
    /// fragment).
    pub fn fragment_size(&self, doc: &Doc, tag: Option<TagId>) -> usize {
        tag.map(|t| doc.tags().element_count(t)).unwrap_or(0)
    }

    /// Expected number of nodes a `child::` hop walks over from `card`
    /// context nodes (attributes included). `context_tag` is the tag
    /// the context nodes are known to carry — the previous step's name
    /// test — and selects that tag's mean child count; an unknown tag
    /// (`None`) falls back to the document-wide fan-out.
    pub fn child_reach(&self, card: f64, context_tag: Option<TagId>) -> f64 {
        let per_node = context_tag
            .and_then(|t| self.child_fanout.get(t as usize).copied())
            .unwrap_or_else(|| self.avg_fanout());
        card * per_node
    }

    /// Fraction of window nodes surviving a node test that keeps
    /// `keep_count` of the document's nodes.
    pub fn selectivity(&self, keep_count: usize) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            keep_count as f64 / self.nodes as f64
        }
    }

    // ── Context-window estimates ────────────────────────────────────────

    /// Equation-1 context-window estimate for a `descendant` step: the
    /// expected total size of the context's descendant regions, *after*
    /// pruning (covered subtrees counted once). `from_root` marks the
    /// one case where the window is known exactly — an absolute path's
    /// first step, whose region is the whole document minus the root.
    pub fn descendant_window(&self, card: f64, from_root: bool) -> f64 {
        if from_root {
            return (self.nodes.saturating_sub(1)) as f64;
        }
        (card * self.avg_subtree()).min(self.nodes as f64)
    }

    /// Context-window estimate for an `ancestor` step: at most `d̄`
    /// ancestors per pruned context node, and never more than the
    /// document.
    pub fn ancestor_window(&self, card: f64) -> f64 {
        (card * self.avg_depth.max(1.0)).min(self.nodes as f64)
    }

    /// The *unpruned* window — what tree-unaware strategies (naive
    /// region queries, the Figure-3 SQL plan) pay, because without
    /// pruning every context node's region is visited even when covered
    /// by another's.
    pub fn unpruned_window(&self, card: f64, descendant: bool, from_root: bool) -> f64 {
        if descendant {
            if from_root {
                (self.nodes.saturating_sub(1)) as f64
            } else {
                card * self.avg_subtree()
            }
        } else {
            card * self.avg_depth.max(1.0)
        }
    }

    // ── Operator pricing (nodes / index entries touched) ────────────────

    /// The plain staircase join over the whole plane.
    ///
    /// * [`Variant::Basic`] (Algorithm 2) scans every partition to its
    ///   end — essentially the rest of the plane.
    /// * [`Variant::Skipping`] / [`Variant::EstimationSkipping`]
    ///   (Algorithms 3/4) are priced at `|window|` plus `card · (1 + h)`:
    ///   the paper's height-bounded scan phase per partition (§3.3 /
    ///   Equation 1).
    ///
    /// With `level` stored, Equation 1 is exact and the kernels no longer
    /// pay that term: `EstimationSkipping` touches the window and nothing
    /// else, `Skipping` one miss per partition past it. The price keeps
    /// the term anyway, because every `auto` choice between this join
    /// and its alternatives was fitted against it; dropping it alone
    /// would move plans. Re-pricing every operator by its exact bound is
    /// ROADMAP item 4.
    pub fn staircase_cost(&self, variant: Variant, card: f64, window: f64) -> f64 {
        let basic = (self.nodes as f64).max(window);
        match variant {
            Variant::Basic => basic,
            // Skipping never touches more than the basic scan does.
            Variant::Skipping | Variant::EstimationSkipping => {
                (window + card * (1.0 + self.height)).min(basic)
            }
        }
    }

    /// The on-list (fragment) join on its two vertical edges (`child` is
    /// [`DocStats::child_fragment_cost`]): touches only fragment nodes — the in-window share of the
    /// fragment plus the cursor work of merging `card` context nodes into
    /// it, `card · (1 + log2(f/card + 2))` — and, with `prescan` (§4.4
    /// query-time pushdown), a full selection scan to *produce* the list
    /// first.
    ///
    /// Since the joins became range joins the in-window term over-charges
    /// the vertical edges: a descendant slice is copied without a
    /// compare, and the list-driven ancestor join is bounded by
    /// `3 · |list|` whatever `card` is. The terms were left as fitted so
    /// that no vertical step changes operator with the kernels; the
    /// re-fit is a ROADMAP follow-up (item 5c).
    pub fn fragment_cost(&self, fragment: usize, card: f64, window: f64, prescan: bool) -> f64 {
        let f = fragment as f64;
        let n = (self.nodes as f64).max(1.0);
        let in_window = f * (window / n).min(1.0);
        let probes = merge_probes(card, f);
        let join = (in_window + probes).min(f + probes);
        if prescan {
            self.nodes as f64 + join
        } else {
            join
        }
    }

    /// The on-list `child` join ([`crate::child_on_list`]) out of `card`
    /// context nodes with `reach` children between them
    /// ([`DocStats::child_reach`]), in what the join reports — entries
    /// looked at plus cursor repositionings:
    ///
    /// * a child hit needs both a list entry and a child, so at most
    ///   `min(fragment, reach)` entries are looked at (an entry deeper
    ///   than a child has its subtree jumped);
    /// * the two cursors leapfrog: the shorter input seeks into the
    ///   longer, `m · log2(N / m)` for `m = min(card, fragment)`,
    ///   `N = max(…)` — nothing when they are the same length and every
    ///   move is a step (1 270 `person`s against 1 270 `profile`s: 1 270
    ///   entries, no seek);
    /// * bracketing the fragment's context window first costs two binary
    ///   searches over the built fragment
    ///   ([`crate::TagIndex::fragment_window`]) — noise beside any join
    ///   worth planning, but what decides a step out of a one-node
    ///   context, where hop and join are both a handful of units and the
    ///   hop needs no list at all.
    ///
    /// The vertical edges keep [`DocStats::fragment_cost`] as it was
    /// fitted; `child` is a new edge and is priced from its own loop.
    pub fn child_fragment_cost(&self, fragment: usize, card: f64, reach: f64) -> f64 {
        let f = fragment as f64;
        let (m, big) = (card.min(f), card.max(f));
        let seeks = if m > 0.0 { m * (big / m).log2() } else { 0.0 };
        let lookup = 2.0 * ((f + 1.0).log2() + 1.0);
        f.min(reach) + seeks + lookup
    }

    /// The §3.1 naive strategy: one unpruned region scan per context
    /// node, plus sort/unique over everything produced.
    pub fn naive_cost(&self, unpruned_window: f64) -> f64 {
        unpruned_window * (1.0 + (unpruned_window + 2.0).log2() / 4.0)
    }

    /// The Figure-3 B-tree plan: with the Equation-1 window predicate it
    /// scans the (unpruned) window entries after one index probe per
    /// context node, then pays the plan's `sort distinct`; without the
    /// window hint the index scan degenerates to a full scan per context
    /// node.
    pub fn sql_cost(&self, card: f64, unpruned_window: f64, eq1_window: bool) -> f64 {
        let n = (self.nodes as f64).max(2.0);
        if !eq1_window {
            return card.max(1.0) * n;
        }
        let probes = card * n.log2();
        unpruned_window + probes + unpruned_window * (unpruned_window + 2.0).log2() / 4.0
    }

    /// The horizontal staircase scan (`following`/`preceding`): pruning
    /// collapses the context to one node (§3.1) and the region is a
    /// contiguous half-plane — on average half the document.
    pub fn horiz_cost(&self) -> f64 {
        self.nodes as f64 / 2.0
    }

    /// The structural axes (`self`, `child`, `parent`, `attribute`, the
    /// sibling axes), priced from their actual access patterns in the
    /// evaluator.
    ///
    /// `child` hops over every child of every context node
    /// ([`DocStats::child_reach`], from the per-tag fan-out when
    /// `context_tag` is known) and, when the step's test is not `node()`
    /// (`filtered`), runs the residual filter pass over all of them —
    /// twice the reach. That is what a `child::name` step out of a
    /// selective context loses to [`DocStats::child_fragment_cost`] on: 1 270
    /// `person` elements have 8 160 children and one `profile` each. The
    /// other axes ignore both arguments.
    pub fn structural_cost(
        &self,
        axis: Axis,
        card: f64,
        context_tag: Option<TagId>,
        filtered: bool,
    ) -> f64 {
        let n = self.nodes as f64;
        match axis {
            Axis::Child => {
                let reach = self.child_reach(card, context_tag);
                if filtered {
                    reach + self.apply_test_cost(reach)
                } else {
                    reach
                }
            }
            Axis::Attribute => {
                let per_elem = if self.elements == 0 {
                    0.0
                } else {
                    self.attributes as f64 / self.elements as f64
                };
                card * (per_elem + 1.0)
            }
            // Sibling axes scan the whole plane once, whatever the context.
            Axis::FollowingSibling | Axis::PrecedingSibling => n,
            // self/parent touch the context only.
            _ => card,
        }
    }

    /// Cost of applying a node test to `base_rows` positions: one unit
    /// per row.
    ///
    /// For the operators that filter afterwards (naive, plain SQL,
    /// structural axes) this is the separate pass over the join's base
    /// result ([`crate::ScanTest::select_candidates`]). For the
    /// plane scans, whose test rides the scan since the fused-test
    /// refactor, the planner still adds the term to the scan's price: it
    /// now stands for the select's share of the scan — the `kind` / `tag`
    /// column read that decides what is written out — and is priced as
    /// before so that no plan changes with the executor. Re-fitting it
    /// (a fused name test reads a quarter of what the filter pass read)
    /// is a ROADMAP follow-up.
    pub fn apply_test_cost(&self, base_rows: f64) -> f64 {
        base_rows
    }

    /// Cost of a semijoin predicate probe (§3.3's empty-region argument:
    /// one fragment lookup per candidate, the candidates ascending so the
    /// lookups are one forward merge, priced like the fragment join's
    /// gallops) against a fragment of `fragment` nodes; `prescan` adds
    /// the query-time selection scan that produces the list when no
    /// prebuilt index is used.
    pub fn semijoin_cost(&self, candidates: f64, fragment: usize, prescan: bool) -> f64 {
        let probe = merge_probes(candidates, fragment as f64);
        if prescan {
            self.nodes as f64 + probe
        } else {
            probe
        }
    }

    /// Cost of evaluating a predicate path as a nested loop: the whole
    /// sub-plan (`steps` steps, touching `per_candidate` nodes) is
    /// interpreted once per candidate. Unlike every join above, the
    /// loop's bill is mostly not nodes: each interpreted step sets up a
    /// context, dispatches its operator and renders its trace whatever
    /// it then touches, priced at [`NESTED_STEP_OVERHEAD`] touches.
    pub fn nested_loop_cost(&self, candidates: f64, per_candidate: f64, steps: usize) -> f64 {
        candidates * (per_candidate + steps as f64 * NESTED_STEP_OVERHEAD)
    }

    // ── Twig pricing (worst-case-optimal vs. step-at-a-time) ───────────

    /// Predicted touched-work of the leapfrog twig operator
    /// ([`crate::twig::twig_match`]) over a region whose predicate chains
    /// arrive reduced to one step each: pivot anchoring (the smallest
    /// spine fragment, one height-bounded upward sweep of gallops per
    /// candidate) and the on-list descent below the pivot. Reducing a
    /// longer chain is the semijoin work a step plan's predicate pays
    /// too, priced by the planner beside this. `Engine::auto` fuses a
    /// region only when the step plan's peak join rows exceed the sum.
    pub fn twig_frontier_cost(&self, legs: &[TwigLegCost]) -> f64 {
        if legs.is_empty() {
            return 0.0;
        }
        let n = (self.nodes as f64).max(1.0);
        let h = self.height.max(1.0);
        let lg = |f: f64| (f + 2.0).log2();
        // Pivot anchoring: per candidate, the pivot's own chain probes
        // plus an ancestor sweep of at most `h` positions, each a
        // fragment-membership gallop and its leg's chain probes.
        let pivot_idx = (0..legs.len())
            .min_by_key(|&j| legs[j].fragment)
            .expect("non-empty leg set");
        let pivot = legs[pivot_idx].fragment as f64;
        let max_lg = legs
            .iter()
            .map(|l| lg(l.fragment as f64))
            .fold(1.0, f64::max);
        let chain_count: f64 = legs.iter().map(|l| l.chains as f64).sum();
        let mut cost = pivot * (h + 1.0) * (max_lg + chain_count);
        // Descent below the pivot: one on-list join per remaining leg.
        let mut card = pivot;
        for leg in &legs[pivot_idx + 1..] {
            let f = leg.fragment as f64;
            let reach = if leg.child_edge {
                card * self.avg_subtree().min(8.0)
            } else {
                (card * self.avg_subtree()).min(n)
            };
            cost += self.fragment_cost(leg.fragment, card, reach, false);
            card = (reach * f / n).min(f).max(1.0);
        }
        cost
    }
}

/// Mean child count per element tag: a histogram of the `parent` column
/// (`tag(parent(v))` for every node `v`) over the elements carrying each
/// tag. It is a statistic, so a large document is *sampled* — runs of 64
/// consecutive nodes (sequential reads), one run in every `n / 2¹⁴`,
/// scaled back up — where the full histogram, a gather and a scatter per
/// node, would triple [`DocStats::from_doc`] on a 489 k-node document.
/// Documents up to 16 384 nodes are counted exactly.
fn child_fanout(doc: &Doc) -> Vec<f64> {
    const RUN: usize = 64;
    let (tags, parents) = (doc.tag_column(), doc.parent_column());
    let n = doc.len();
    let keep_one_in = (n >> 14).max(1);
    let mut children = vec![0u64; doc.tags().len()];
    for start in (0..n).step_by(RUN * keep_one_in) {
        for &parent in &parents[start..n.min(start + RUN)] {
            if parent != NO_PARENT {
                children[tags[parent as usize] as usize] += 1;
            }
        }
    }
    children
        .iter()
        .enumerate()
        .map(|(tag, &kids)| {
            (kids * keep_one_in as u64) as f64
                / doc.tags().element_count(tag as TagId).max(1) as f64
        })
        .collect()
}

/// Cursor work of merging `m` ascending probes into a sorted list of `f`
/// entries with [`crate::cursor::seek_from`] — Leapfrog Triejoin's
/// amortised bound `m · (1 + log2(f/m + 2))`: each gallop pays for the
/// distance it moves, not for the length of the list.
fn merge_probes(m: f64, f: f64) -> f64 {
    if m <= 0.0 {
        return 0.0;
    }
    m * (1.0 + (f / m + 2.0).log2())
}

/// Per-leg inputs to [`DocStats::twig_frontier_cost`]: sizes only, so
/// the planner can price a twig region without resolving any fragment
/// list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwigLegCost {
    /// Fragment size of the leg's tag (element count for wildcards).
    pub fragment: usize,
    /// `true` for a `child::` edge from the previous leg (or context),
    /// `false` for `descendant::`.
    pub child_edge: bool,
    /// The leg's predicate chains: one probe each per candidate.
    pub chains: usize,
}

/// What interpreting one nested-loop sub-plan step for one candidate
/// costs besides the nodes it touches, in touched-node units
/// ([`DocStats::nested_loop_cost`]). Measured on a 489 k-node XMark
/// document: a two-step `child`/`child` predicate over 1 070 candidates
/// takes ≈ 375 ns per candidate and step in the plan interpreter, while
/// the semijoin probes [`DocStats::semijoin_cost`] prices run at
/// ≈ 2.6 ns per unit — ≈ 140 units, rounded down to a power of two.
pub const NESTED_STEP_OVERHEAD: f64 = 128.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{figure1, random_doc};

    #[test]
    fn stats_reflect_the_document() {
        let doc = figure1();
        let s = DocStats::from_doc(&doc);
        assert_eq!(s.nodes(), 10);
        assert_eq!(s.elements(), 10);
        assert_eq!(s.height(), 3.0);
        // Levels are [0,1,2,1,1,2,3,3,2,3] → mean 1.8.
        assert!((s.avg_depth() - 1.8).abs() < 1e-9);
        assert!((s.avg_subtree() - 2.8).abs() < 1e-9);
    }

    #[test]
    fn fragment_sizes_come_from_the_interner() {
        let doc = random_doc(3, 300);
        let s = DocStats::from_doc(&doc);
        for tag in ["p", "q", "r", "zzz"] {
            let id = doc.tag_id(tag);
            assert_eq!(
                s.fragment_size(&doc, id),
                id.map(|t| doc.elements_with_tag(t).len()).unwrap_or(0),
                "{tag}"
            );
        }
    }

    #[test]
    fn child_steps_are_priced_from_the_context_tags_fan_out() {
        // The `wide` element has five children, each `thin` one a single
        // child: 11 nodes, all elements.
        let doc = Doc::from_xml(
            "<site><wide><x/><x/><x/><x/><x/></wide><thin><x/></thin><thin><x/></thin></site>",
        )
        .unwrap();
        let s = DocStats::from_doc(&doc);
        assert_eq!(s.child_reach(2.0, doc.tag_id("wide")), 10.0);
        assert_eq!(s.child_reach(2.0, doc.tag_id("thin")), 2.0);
        assert_eq!(s.child_reach(1.0, doc.tag_id("site")), 3.0);
        assert_eq!(s.child_reach(1.0, doc.tag_id("x")), 0.0);
        // Unknown context tag: the document-wide (nodes − 1) / elements.
        assert!((s.child_reach(3.0, None) - 3.0 * 10.0 / 11.0).abs() < 1e-9);
        // The filter pass is charged on top of the hop; `node()` has none.
        let wide = doc.tag_id("wide");
        assert_eq!(s.structural_cost(Axis::Child, 2.0, wide, true), 20.0);
        assert_eq!(s.structural_cost(Axis::Child, 2.0, wide, false), 10.0);
        // The other structural axes ignore the context tag.
        assert_eq!(
            s.structural_cost(Axis::Parent, 4.0, wide, true),
            s.structural_cost(Axis::Parent, 4.0, None, false)
        );
    }

    #[test]
    fn root_window_is_exact() {
        let doc = random_doc(1, 500);
        let s = DocStats::from_doc(&doc);
        assert_eq!(s.descendant_window(1.0, true), (doc.len() - 1) as f64);
        assert!(s.descendant_window(10.0, false) <= doc.len() as f64);
    }

    #[test]
    fn skipping_beats_basic_beats_nothing() {
        let doc = random_doc(2, 800);
        let s = DocStats::from_doc(&doc);
        let w = s.descendant_window(5.0, false);
        let est = s.staircase_cost(Variant::EstimationSkipping, 5.0, w);
        let basic = s.staircase_cost(Variant::Basic, 5.0, w);
        assert!(est <= basic, "estimation {est} > basic {basic}");
        assert!(est > 0.0);
    }

    #[test]
    fn small_fragments_undercut_the_full_scan() {
        // The §6 claim the planner banks on: a selective name test via a
        // prebuilt fragment is priced far below the plain join plus a
        // post-filter.
        let doc = random_doc(7, 2000);
        let s = DocStats::from_doc(&doc);
        let w = s.descendant_window(1.0, true);
        let staircase =
            s.staircase_cost(Variant::EstimationSkipping, 1.0, w) + s.apply_test_cost(w);
        let fragment = s.fragment_cost(25, 1.0, w, false);
        assert!(
            fragment * 4.0 < staircase,
            "fragment {fragment} not ≪ staircase {staircase}"
        );
        // …but the query-time prescan variant pays the selection scan.
        assert!(s.fragment_cost(25, 1.0, w, true) > s.nodes() as f64);
    }

    #[test]
    fn tree_unaware_plans_price_their_duplicates() {
        let doc = random_doc(9, 1500);
        let s = DocStats::from_doc(&doc);
        let card = 40.0;
        let pruned = s.descendant_window(card, false);
        let unpruned = s.unpruned_window(card, true, false);
        let staircase = s.staircase_cost(Variant::EstimationSkipping, card, pruned);
        assert!(s.naive_cost(unpruned) > staircase);
        assert!(s.sql_cost(card, unpruned, true) > staircase);
        assert!(s.sql_cost(card, unpruned, false) > s.sql_cost(card, unpruned, true));
    }

    #[test]
    fn twig_estimators_handle_degenerate_inputs() {
        let doc = random_doc(4, 600);
        let s = DocStats::from_doc(&doc);
        assert_eq!(s.twig_frontier_cost(&[]), 0.0);
        let legs = [TwigLegCost {
            fragment: 0,
            child_edge: true,
            chains: 0,
        }];
        assert!(s.twig_frontier_cost(&legs).is_finite());
        // Every chain a leg carries is one more probe per candidate.
        let probed = |chains| {
            s.twig_frontier_cost(&[TwigLegCost {
                fragment: 50,
                child_edge: false,
                chains,
            }])
        };
        assert!(probed(2) > probed(1));
    }

    #[test]
    fn empty_documents_price_to_zero_ish() {
        let s = DocStats::from_doc(&staircase_accel::EncodingBuilder::new().finish());
        assert_eq!(s.nodes(), 0);
        assert_eq!(s.descendant_window(1.0, true), 0.0);
        assert_eq!(s.selectivity(0), 0.0);
        assert!(s.structural_cost(Axis::Child, 1.0, None, true).is_finite());
    }
}
