//! Cost model: pricing candidate physical operators from document
//! statistics.
//!
//! The paper's central observation is that no single evaluator wins
//! everywhere — the staircase join dominates the partitioning axes
//! (§3–§4), tag-name fragmentation wins highly selective name tests
//! (§6), and even the tree-unaware SQL plan of Figure 3 is competitive
//! on tiny contexts. A planner choosing between them per step needs
//! *estimates* of what each candidate would touch, before any of them
//! runs. [`DocStats`] is that estimator: a cheap (one pass at most,
//! cached by the session layer) snapshot of the statistics every
//! estimate derives from —
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
//! (via [`StepStats::observed_cost`](crate::StepStats::observed_cost))
//! the join reports after the fact.
//!
//! The model is deliberately simple — every formula is a first-order
//! account of the corresponding algorithm's access pattern, not a fitted
//! curve. It only has to *rank* candidates correctly, and the candidates
//! differ by orders of magnitude exactly when the choice matters.

use std::sync::atomic::{AtomicU64, Ordering};

use staircase_accel::{Axis, Doc, NodeKind, Pre, TagId, NO_PARENT};

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
    ///   (Algorithms 3/4) touch at most `|window| + |context|` nodes plus
    ///   a height-bounded scan phase per partition (§3.3 / Equation 1).
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
    /// result ([`crate::mask::ScanTest::select_candidates`]). For the
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

    /// Predicted **peak intermediate result** (materialized rows) of
    /// evaluating a twig region step-at-a-time: the frontier after each
    /// spine step, estimated from per-tag fragment sizes and
    /// containment selectivity exactly like the step planner does
    /// (existential predicates halve the frontier). This is the blowup
    /// a multiway plan avoids — the step plan must materialize and
    /// probe every one of these rows, so the peak is directly
    /// comparable to [`DocStats::twig_frontier_cost`]'s touched-work
    /// estimate.
    pub fn step_blowup_estimate(
        &self,
        context_card: f64,
        from_root: bool,
        legs: &[TwigLegCost],
    ) -> f64 {
        let n = (self.nodes as f64).max(1.0);
        let mut rows = context_card.max(1.0);
        let mut peak = 0.0f64;
        for (i, leg) in legs.iter().enumerate() {
            let f = leg.fragment as f64;
            let reach = if leg.child_edge {
                rows * self.avg_fanout()
            } else {
                self.descendant_window(rows, from_root && i == 0)
            };
            let out = (reach * f / n).min(f);
            peak = peak.max(out);
            rows = out / 2.0f64.powi(leg.chains.len() as i32);
        }
        peak
    }

    /// Predicted touched-work of the leapfrog twig operator
    /// ([`crate::twig::twig_match`]) over the same region: bottom-up
    /// chain closure (multi-step chains walk every list above the
    /// last), pivot anchoring (the smallest spine fragment, one
    /// height-bounded upward sweep of gallops per candidate), and the
    /// on-list descent below the pivot. `Engine::auto` picks the twig
    /// plan only when [`DocStats::step_blowup_estimate`] exceeds this.
    pub fn twig_frontier_cost(&self, _context_card: f64, legs: &[TwigLegCost]) -> f64 {
        if legs.is_empty() {
            return 0.0;
        }
        let n = (self.nodes as f64).max(1.0);
        let h = self.height.max(1.0);
        let lg = |f: f64| (f + 2.0).log2();
        let mut cost = 0.0;
        // Chain closure: list j is walked with one gallop per entry
        // into list j+1; single-step chains close for free.
        for leg in legs {
            for chain in &leg.chains {
                for w in chain.windows(2) {
                    cost += w[0] as f64 * lg(w[1] as f64);
                }
            }
        }
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
        let chain_count: f64 = legs.iter().map(|l| l.chains.len() as f64).sum();
        cost += pivot * (h + 1.0) * (max_lg + chain_count);
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

    /// `true` when a step estimated to touch `cost` nodes carries enough
    /// work to amortize handing morsels to a worker pool
    /// ([`MIN_FANOUT_COST`]). The planner records this as the step's
    /// parallelism hint; small steps stay sequential however wide the
    /// session's pool is, because the per-morsel handoff (queue push,
    /// wake, result concat — microseconds) would dominate their
    /// microsecond-scale scans.
    pub fn fanout_worthwhile(&self, cost: f64) -> bool {
        cost >= MIN_FANOUT_COST
    }
}

/// Runtime overlay over a [`DocStats`] snapshot: observed quantities
/// shadow the static estimates.
///
/// The static planner estimates the context cardinality of every step
/// from global averages — exactly the assumption skewed documents break
/// ("Skew Strikes Back"). Once a step has *run*, the frontier
/// cardinality is not an estimate any more: the executor hands the
/// actual context list size (and the step's
/// [`StepStats::observed_cost`](crate::StepStats::observed_cost)) to a
/// `RuntimeStats`, and every window/operator formula below re-prices
/// with the observed value where the static path would have used the
/// Equation-1 guess. A [`Calibrator`] factor (session-lifetime, fitted
/// from real seek counts) scales the twig constants the same way.
///
/// The overlay borrows the base snapshot and the frontier itself;
/// building one is free, so the executor constructs a fresh overlay
/// wherever it re-prices a step.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeStats<'a> {
    base: &'a DocStats,
    /// The document the frontier lives in.
    doc: &'a Doc,
    /// The observed frontier: the next step's context list.
    frontier: &'a [Pre],
    /// Observed context cardinality for the next step — exact, not the
    /// planner's estimate.
    observed_card: f64,
    /// Session-lifetime multiplier on the twig seek constants (1.0
    /// until the calibrator has seen real seek counts).
    twig_seek_factor: f64,
}

impl<'a> RuntimeStats<'a> {
    /// Overlays `base` with the observed frontier `ctx` of `doc`: its
    /// cardinality, and the exact unpruned window
    /// ([`RuntimeStats::unpruned_window`]).
    pub fn observed(base: &'a DocStats, doc: &'a Doc, ctx: &'a [Pre]) -> RuntimeStats<'a> {
        RuntimeStats {
            base,
            doc,
            frontier: ctx,
            observed_card: ctx.len() as f64,
            twig_seek_factor: 1.0,
        }
    }

    /// Applies a [`Calibrator`]'s fitted twig-seek factor.
    pub fn calibrated(mut self, calibrator: &Calibrator) -> RuntimeStats<'a> {
        self.twig_seek_factor = calibrator.twig_seek_factor();
        self
    }

    /// The underlying static snapshot.
    pub fn base(&self) -> &DocStats {
        self.base
    }

    /// The observed frontier cardinality shadowing the estimate.
    pub fn card(&self) -> f64 {
        self.observed_card
    }

    /// Equation-1 descendant window, from the *observed* cardinality.
    pub fn descendant_window(&self, from_root: bool) -> f64 {
        self.base.descendant_window(self.observed_card, from_root)
    }

    /// Ancestor window, from the *observed* cardinality.
    pub fn ancestor_window(&self) -> f64 {
        self.base.ancestor_window(self.observed_card)
    }

    /// The unpruned window of a mid-path step — every context node's
    /// own region, covered by another's or not — read off the frontier
    /// exactly: the sum of Equation-1 subtree sizes (`descendant`) or of
    /// levels (`ancestor`) over the context. The static
    /// [`DocStats::unpruned_window`] scales the average subtree by the
    /// cardinality instead, which misses by the nesting depth on a
    /// frontier whose nodes nest.
    pub fn unpruned_window(&self, descendant: bool) -> f64 {
        let (doc, ctx) = (self.doc, self.frontier);
        let sum: u64 = if descendant {
            ctx.iter().map(|&c| u64::from(doc.subtree_size(c))).sum()
        } else {
            ctx.iter().map(|&c| u64::from(doc.level(c))).sum()
        };
        sum as f64
    }

    /// [`DocStats::staircase_cost`] with the observed cardinality.
    pub fn staircase_cost(&self, variant: Variant, window: f64) -> f64 {
        self.base
            .staircase_cost(variant, self.observed_card, window)
    }

    /// [`DocStats::fragment_cost`] with the observed cardinality.
    pub fn fragment_cost(&self, fragment: usize, window: f64, prescan: bool) -> f64 {
        self.base
            .fragment_cost(fragment, self.observed_card, window, prescan)
    }

    /// [`DocStats::sql_cost`] with the observed cardinality.
    pub fn sql_cost(&self, unpruned_window: f64, eq1_window: bool) -> f64 {
        self.base
            .sql_cost(self.observed_card, unpruned_window, eq1_window)
    }

    /// [`DocStats::twig_frontier_cost`] with the calibrated seek factor:
    /// the pivot-anchoring term (the seek bill the calibrator fits) is
    /// scaled by the session's observed seeks-per-prediction ratio.
    pub fn twig_frontier_cost(&self, legs: &[TwigLegCost]) -> f64 {
        self.base.twig_frontier_cost(self.observed_card, legs) * self.twig_seek_factor
    }
}

/// Session-lifetime cost-constant calibrator.
///
/// The static twig constants predict the leapfrog's seek bill from
/// first principles; the executor reports the *actual*
/// [`StepStats::seeks`](crate::StepStats) after every twig step. The
/// calibrator keeps an exponentially weighted ratio of observed to
/// predicted seeks and exposes it as a multiplicative factor
/// ([`Calibrator::twig_seek_factor`]) that [`RuntimeStats`] (and any
/// planner holding the calibrator) applies to
/// [`DocStats::twig_frontier_cost`]. The factor is clamped to
/// `[0.25, 4.0]` so one pathological sample can never invert every
/// later twig-vs-step decision.
///
/// All state is atomic; sessions share one calibrator across threads.
#[derive(Debug)]
pub struct Calibrator {
    /// EWMA of observed/predicted seek ratios, stored as `f64` bits.
    twig_seek: AtomicU64,
    /// Number of twig observations folded in.
    samples: AtomicU64,
}

/// EWMA weight of each new observation.
const CALIBRATOR_ALPHA: f64 = 0.25;
/// Clamp range for the fitted factor.
const CALIBRATOR_CLAMP: (f64, f64) = (0.25, 4.0);

impl Calibrator {
    /// A fresh calibrator: factor 1.0 (trust the static constants).
    pub fn new() -> Calibrator {
        Calibrator {
            twig_seek: AtomicU64::new(1.0f64.to_bits()),
            samples: AtomicU64::new(0),
        }
    }

    /// The fitted twig-seek factor (1.0 until observations arrive).
    pub fn twig_seek_factor(&self) -> f64 {
        f64::from_bits(self.twig_seek.load(Ordering::Relaxed))
    }

    /// How many twig steps have been folded into the fit.
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// Folds one twig step's real seek count against the cost the
    /// planner predicted for it. Zero or non-finite inputs are ignored.
    pub fn observe_twig(&self, predicted_cost: f64, observed_seeks: u64) {
        if predicted_cost <= 0.0 || observed_seeks == 0 {
            return;
        }
        let ratio =
            (observed_seeks as f64 / predicted_cost).clamp(CALIBRATOR_CLAMP.0, CALIBRATOR_CLAMP.1);
        // Lock-free EWMA: retry on concurrent writers.
        let mut current = self.twig_seek.load(Ordering::Relaxed);
        loop {
            let old = f64::from_bits(current);
            let next = (old + CALIBRATOR_ALPHA * (ratio - old))
                .clamp(CALIBRATOR_CLAMP.0, CALIBRATOR_CLAMP.1);
            match self.twig_seek.compare_exchange_weak(
                current,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
        self.samples.fetch_add(1, Ordering::Relaxed);
    }
}

impl Default for Calibrator {
    fn default() -> Calibrator {
        Calibrator::new()
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

/// Per-leg inputs to the twig estimators
/// ([`DocStats::step_blowup_estimate`] /
/// [`DocStats::twig_frontier_cost`]): sizes only, so the planner can
/// price a twig region without resolving any fragment list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwigLegCost {
    /// Fragment size of the leg's tag (element count for wildcards).
    pub fragment: usize,
    /// `true` for a `child::` edge from the previous leg (or context),
    /// `false` for `descendant::`.
    pub child_edge: bool,
    /// Per predicate chain, the fragment sizes of its steps, outermost
    /// first.
    pub chains: Vec<Vec<usize>>,
}

/// Minimum estimated touched-work (nodes / index entries, the cost
/// model's unit) before fanning a step's execution out across the worker
/// pool pays for the morsel handoff. Matches the executor-side floor the
/// core kernels enforce per morsel.
pub const MIN_FANOUT_COST: f64 = 4096.0;

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
    fn skewed_twigs_price_the_leapfrog_below_the_blowup() {
        // A skew-shaped document: tall, with a huge first spine
        // fragment and a tiny second one — the step plan materializes
        // the whole first fragment, the leapfrog pivots on the tiny one.
        let s = DocStats {
            nodes: 2_000_000,
            elements: 1_900_000,
            attributes: 0,
            height: 14.0,
            avg_depth: 8.0,
            child_fanout: Vec::new(),
        };
        let legs = [
            TwigLegCost {
                fragment: 600_000,
                child_edge: false,
                chains: vec![vec![500_000]],
            },
            TwigLegCost {
                fragment: 800,
                child_edge: false,
                chains: vec![vec![700]],
            },
        ];
        let blowup = s.step_blowup_estimate(1.0, true, &legs);
        let frontier = s.twig_frontier_cost(1.0, &legs);
        assert!(
            blowup > frontier,
            "skew: blowup {blowup} must exceed frontier {frontier}"
        );
        // …while a uniform region with comparable fragment sizes keeps
        // stepping cheaper than anchoring the pivot.
        let uniform = [
            TwigLegCost {
                fragment: 9_000,
                child_edge: false,
                chains: vec![vec![12_000]],
            },
            TwigLegCost {
                fragment: 11_000,
                child_edge: false,
                chains: vec![vec![8_000]],
            },
        ];
        let blowup = s.step_blowup_estimate(1.0, true, &uniform);
        let frontier = s.twig_frontier_cost(1.0, &uniform);
        assert!(
            blowup < frontier,
            "uniform: blowup {blowup} must stay below frontier {frontier}"
        );
    }

    #[test]
    fn twig_estimators_handle_degenerate_inputs() {
        let doc = random_doc(4, 600);
        let s = DocStats::from_doc(&doc);
        assert_eq!(s.twig_frontier_cost(1.0, &[]), 0.0);
        let legs = [TwigLegCost {
            fragment: 0,
            child_edge: true,
            chains: vec![],
        }];
        assert!(s.step_blowup_estimate(0.0, false, &legs) >= 0.0);
        assert!(s.twig_frontier_cost(0.0, &legs).is_finite());
        // Multi-step chains charge their closure walk.
        let deep = [TwigLegCost {
            fragment: 50,
            child_edge: false,
            chains: vec![vec![200, 100]],
        }];
        let shallow = [TwigLegCost {
            fragment: 50,
            child_edge: false,
            chains: vec![vec![100]],
        }];
        assert!(s.twig_frontier_cost(1.0, &deep) > s.twig_frontier_cost(1.0, &shallow));
    }

    #[test]
    fn runtime_overlay_shadows_the_estimated_cardinality() {
        let doc = random_doc(11, 1200);
        let s = DocStats::from_doc(&doc);
        // The static path would estimate a large frontier; the overlay
        // observed a tiny one and every formula re-prices from it.
        let few: Vec<Pre> = (0..3).collect();
        let rt = RuntimeStats::observed(&s, &doc, &few);
        assert_eq!(rt.card(), 3.0);
        let w = rt.descendant_window(false);
        assert_eq!(w, s.descendant_window(3.0, false));
        assert_eq!(
            rt.staircase_cost(Variant::EstimationSkipping, w),
            s.staircase_cost(Variant::EstimationSkipping, 3.0, w)
        );
        assert_eq!(
            rt.fragment_cost(40, w, false),
            s.fragment_cost(40, 3.0, w, false)
        );
        // Observed-small frontiers price probes below the scan the
        // static estimate would have bought.
        let many: Vec<Pre> = (0..800).collect();
        let big = RuntimeStats::observed(&s, &doc, &many);
        assert!(
            rt.fragment_cost(40, w, false)
                < big.fragment_cost(40, big.descendant_window(false), false)
        );
    }

    #[test]
    fn observed_frontiers_price_their_exact_unpruned_window() {
        // A chain nests every node in the one before it: the card-scaled
        // average guesses 3 · s̄, the regions really hold 9 + 8 + 7.
        let doc = Doc::from_xml(&format!("{}{}", "<a>".repeat(10), "</a>".repeat(10))).unwrap();
        let s = DocStats::from_doc(&doc);
        let ctx: [Pre; 3] = [0, 1, 2];
        let rt = RuntimeStats::observed(&s, &doc, &ctx);
        assert_eq!(rt.card(), 3.0);
        assert_eq!(rt.unpruned_window(true), 24.0);
        assert_eq!(rt.unpruned_window(false), 3.0);
    }

    #[test]
    fn calibrator_fits_the_twig_seek_factor_from_observed_seeks() {
        let c = Calibrator::new();
        assert_eq!(c.twig_seek_factor(), 1.0);
        assert_eq!(c.samples(), 0);
        // Seeks keep coming in at half the predicted bill: the factor
        // converges below 1 (and the clamp bounds it).
        for _ in 0..32 {
            c.observe_twig(1000.0, 500);
        }
        assert!(c.twig_seek_factor() < 0.75, "{}", c.twig_seek_factor());
        assert!(c.twig_seek_factor() >= 0.25);
        assert_eq!(c.samples(), 32);
        // Degenerate observations are ignored.
        c.observe_twig(0.0, 10);
        c.observe_twig(100.0, 0);
        assert_eq!(c.samples(), 32);
        // A calibrated overlay scales the frontier cost by the factor.
        let doc = random_doc(2, 900);
        let s = DocStats::from_doc(&doc);
        let legs = [TwigLegCost {
            fragment: 50,
            child_edge: false,
            chains: vec![vec![100]],
        }];
        let root = [doc.root()];
        let plain = RuntimeStats::observed(&s, &doc, &root).twig_frontier_cost(&legs);
        let fitted = RuntimeStats::observed(&s, &doc, &root)
            .calibrated(&c)
            .twig_frontier_cost(&legs);
        assert!((fitted - plain * c.twig_seek_factor()).abs() < 1e-9);
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
