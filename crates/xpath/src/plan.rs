//! Physical plans: the typed IR between parsing and execution.
//!
//! [`plan_union`] lowers a parsed [`UnionExpr`] into a [`PhysicalPlan`]:
//! per union branch, a pipeline of [`PlannedStep`]s, each carrying the
//! chosen join operator ([`StepOp`]), the node-test operator
//! ([`TestOp`]), the lowered predicate operators ([`PredOp`]), and the
//! cost model's estimates ([`StepEstimate`]). The evaluator
//! ([`crate::eval`]) is a pure interpreter of this IR; the batch layer
//! ([`crate::batch`]) groups lanes by the *planned operator*, so neither
//! re-derives engine decisions at run time.
//!
//! Fixed engines are trivial planning policies — every step lowers to
//! the operator that engine always uses, exactly reproducing the
//! pre-split dispatch (asserted by the cross-engine equivalence tests).
//! [`Engine::auto`] is the interesting policy: for every partitioning
//! step it prices the candidate operators with
//! [`staircase_core::cost::DocStats`] — plain staircase join, prebuilt
//! tag fragment (§6), and the Figure-3 SQL plan — and keeps the
//! cheapest, the way worst-case-optimal join systems pick per-variable
//! strategies from cardinality bounds.

use std::fmt;
use std::sync::Arc;

use staircase_accel::{Axis, Doc, TagId};
use staircase_core::cost::{DocStats, RuntimeStats, TwigLegCost};
use staircase_core::{TwigEdge, Variant};

use crate::ast::{NodeTest, Path, Predicate, Step, UnionExpr};
use crate::engine::{Engine, EngineKind};

// ── Shared axis classification (used by eval and batch too) ─────────────

/// The four partitioning axes, as a closed enum so axis dispatch needs no
/// unreachable arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PartAxis {
    Descendant,
    Ancestor,
    Following,
    Preceding,
}

/// The two axes with a plane-scan staircase join and its multi-context
/// (batched) form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VertAxis {
    Descendant,
    Ancestor,
}

/// The three edges with an on-list (fragment) join: the two vertical
/// axes and `child`, which joins the same list slices with the parent
/// column as its keep test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ListEdge {
    Descendant,
    Ancestor,
    Child,
}

/// The partitioning axis evaluated by `axis` (or-self variants map to
/// their base axis; the self-merge is layered on top by the evaluator).
pub(crate) fn part_axis_of(axis: Axis) -> Option<PartAxis> {
    match axis {
        Axis::Descendant | Axis::DescendantOrSelf => Some(PartAxis::Descendant),
        Axis::Ancestor | Axis::AncestorOrSelf => Some(PartAxis::Ancestor),
        Axis::Following => Some(PartAxis::Following),
        Axis::Preceding => Some(PartAxis::Preceding),
        _ => None,
    }
}

/// The vertical axis evaluated by `axis`, if any.
pub(crate) fn vert_axis_of(axis: Axis) -> Option<VertAxis> {
    match part_axis_of(axis)? {
        PartAxis::Descendant => Some(VertAxis::Descendant),
        PartAxis::Ancestor => Some(VertAxis::Ancestor),
        _ => None,
    }
}

/// The on-list join edge evaluated by `axis`, if any.
pub(crate) fn list_edge_of(axis: Axis) -> Option<ListEdge> {
    match axis {
        Axis::Child => Some(ListEdge::Child),
        _ => match vert_axis_of(axis)? {
            VertAxis::Descendant => Some(ListEdge::Descendant),
            VertAxis::Ancestor => Some(ListEdge::Ancestor),
        },
    }
}

pub(crate) fn axis_of(paxis: PartAxis) -> Axis {
    match paxis {
        PartAxis::Descendant => Axis::Descendant,
        PartAxis::Ancestor => Axis::Ancestor,
        PartAxis::Following => Axis::Following,
        PartAxis::Preceding => Axis::Preceding,
    }
}

// ── The IR ──────────────────────────────────────────────────────────────

/// A fully lowered union expression: one [`PathPlan`] per branch.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    pub(crate) branches: Vec<PathPlan>,
    /// Planned under the auto policy ([`Engine::auto`](crate::Engine::auto)):
    /// the lane executor re-prices a pending step at a step boundary
    /// from the *observed* frontier
    /// ([`staircase_core::cost::RuntimeStats`]) and may switch its
    /// operator ([`replan_step`]). Fixed engines and `twig` never do.
    pub(crate) auto: bool,
}

/// A lowered location path: a pipeline of planned steps.
#[derive(Debug, Clone, PartialEq)]
pub struct PathPlan {
    pub(crate) absolute: bool,
    pub(crate) steps: Vec<PlannedStep>,
}

/// One lowered step: the chosen join operator, the node-test operator,
/// the predicate operators, and the cost model's estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedStep {
    pub(crate) axis: Axis,
    pub(crate) test: NodeTest,
    pub(crate) op: StepOp,
    pub(crate) test_op: TestOp,
    pub(crate) predicates: Vec<PredOp>,
    pub(crate) estimate: StepEstimate,
    /// Parallelism hint: the cost model judged this step's estimated
    /// work large enough to amortize fanning morsels out across the
    /// session's worker pool (see
    /// [`staircase_core::cost::DocStats::fanout_worthwhile`]).
    pub(crate) fanout: bool,
    /// Set by the executor when the runtime re-pricing pass
    /// switched this step's operator away from the planned one; the
    /// planner itself always emits `false`. Rendered as `[replan]`.
    pub(crate) replanned: bool,
    /// Rendered (normalised) step (axis, test, predicates) for traces.
    pub(crate) rendered: String,
    /// What the user wrote, when normalisation rewrote the step
    /// ([`crate::ast::Step::origin`]).
    pub(crate) origin: Option<String>,
}

/// The join operator chosen for one step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOp {
    /// Staircase join over the whole plane (vertical axes).
    Staircase {
        /// Skipping refinement.
        variant: Variant,
    },
    /// On-list range join over a per-tag node list — `descendant`,
    /// `ancestor`, and (under the auto policy, where it is a priced
    /// candidate against [`StepOp::Structural`]) `child`. `prescan` means
    /// the list is produced by a query-time selection scan (§4.4
    /// name-test pushdown) instead of the prebuilt [`staircase_core::TagIndex`].
    Fragment {
        /// Query-time selection scan instead of the prebuilt index.
        prescan: bool,
    },
    /// Horizontal staircase scan: pruning collapses the context to one
    /// node and `following`/`preceding` become one region copy.
    Horiz,
    /// Per-context region queries + duplicate elimination (§3.1).
    Naive,
    /// Tree-unaware B-tree plan (Figure 3).
    Sql {
        /// Paper line-7 window predicate.
        eq1_window: bool,
        /// Filter by tag during the index scan.
        early_nametest: bool,
    },
    /// Structural axis (`self`, `child`, `parent`, `attribute`, the
    /// sibling axes): what every fixed engine runs them as, and what
    /// auto keeps `child` as unless the fragment join is priced below it.
    Structural,
    /// Worst-case-optimal twig region: a run of vertical name-test steps
    /// whose predicates are themselves vertical existential paths, fused
    /// into one multiway leapfrog intersection over the per-tag
    /// fragments ([`staircase_core::twig_match`]). The step binds the
    /// *last* spine leg only, in document order; no intermediate step
    /// result is ever materialized.
    Twig(Arc<TwigSpec>),
}

/// The fused twig region evaluated by [`StepOp::Twig`]: the spine legs
/// (tag plus containment edge from the previous leg) and, per leg, the
/// existential chains hanging off it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwigSpec {
    /// Spine legs in path order; the last leg is the output binding.
    pub(crate) spine: Vec<TwigSpecLeg>,
}

/// One spine leg of a fused twig region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TwigSpecLeg {
    /// Containment edge from the previous leg (for the first leg: from
    /// the context).
    pub(crate) edge: TwigEdge,
    /// The leg's tag name.
    pub(crate) name: String,
    /// Existential predicate chains below this leg, outermost step
    /// first; every chain is non-empty.
    pub(crate) chains: Vec<Vec<(TwigEdge, String)>>,
}

impl TwigSpec {
    /// The root-to-leaf paths of the pattern tree, rendered with `>` for
    /// descendant edges and `.` for child edges (`a>b`, `a>c.d`).
    fn leaf_paths(&self) -> Vec<String> {
        let sep = |e: TwigEdge| if e == TwigEdge::Child { '.' } else { '>' };
        let mut prefix = String::new();
        let mut paths = Vec::new();
        for (i, leg) in self.spine.iter().enumerate() {
            if i > 0 {
                prefix.push(sep(leg.edge));
            }
            prefix.push_str(&leg.name);
            for chain in &leg.chains {
                let mut p = prefix.clone();
                for (edge, name) in chain {
                    p.push(sep(*edge));
                    p.push_str(name);
                }
                paths.push(p);
            }
        }
        // The spine itself is a leaf path unless the output leg's chains
        // already extend it.
        if self.spine.last().is_none_or(|l| l.chains.is_empty()) {
            paths.push(prefix);
        }
        paths
    }
}

impl fmt::Display for TwigSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "twig[{}]", self.leaf_paths().join(", "))
    }
}

/// How the step's node test is evaluated.
///
/// Fusion is a property of the join operator, so this field is
/// *derived* from [`StepOp`] by the planner (the only constructor of
/// plans) and recorded here for `EXPLAIN` output and plan inspection.
/// The operators that **fuse**: fragment and twig joins (the list *is*
/// the name test), SQL's early name test, and every plane scan —
/// staircase and horizontal steps hand the test down to the
/// kernel as a [`staircase_core::ScanTest`], which reads the region once
/// and writes out only what the test keeps. The operators that still
/// **filter afterwards**: the naive join, plain SQL, and the structural
/// axes, whose candidate lists have no scan for the test to ride.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestOp {
    /// The join already yields exactly the tested nodes: no separate
    /// pass.
    Fused,
    /// A filter pass over the join's base result.
    ApplyTest,
}

impl TestOp {
    /// The test operator `op` implies for a step whose test is a name
    /// test (`is_name`) or not.
    fn of(op: &StepOp, is_name: bool) -> TestOp {
        match *op {
            StepOp::Naive | StepOp::Structural => TestOp::ApplyTest,
            StepOp::Sql { early_nametest, .. } if !(early_nametest && is_name) => TestOp::ApplyTest,
            _ => TestOp::Fused,
        }
    }
}

/// The axes a semijoin predicate probe supports (§3.3's empty-region
/// argument: the first list node in the candidate's region decides the
/// predicate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemijoinAxis {
    /// `[descendant::t]`.
    Descendant,
    /// `[child::t]` (also the abbreviated `[t]`).
    Child,
    /// `[ancestor::t]`.
    Ancestor,
}

/// An existential predicate path in semijoin form: every step a
/// `child`/`descendant`/`ancestor` name test whose own predicates are
/// chains again. It is evaluated leaf to root, one semijoin per edge —
/// the last link's node list is reduced by that link's predicates, the
/// link before it keeps the nodes with a survivor on the next link's
/// axis, and so on — so the candidates are probed against the first
/// link's reduced list exactly as against a plain tag list. Each link's
/// list is resolved once per evaluation, whatever the candidate count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemijoinChain {
    /// The path's steps in order; never empty.
    pub(crate) links: Vec<ChainLink>,
}

/// One step of a [`SemijoinChain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ChainLink {
    /// The step's axis: from the candidates for the first link, from
    /// the previous link's nodes otherwise.
    pub(crate) axis: SemijoinAxis,
    /// The step's name test.
    pub(crate) name: String,
    /// The step's own predicates.
    pub(crate) preds: Vec<SemijoinChain>,
}

impl SemijoinChain {
    /// Probe direction from the candidates to the first link.
    pub fn axis(&self) -> SemijoinAxis {
        self.links[0].axis
    }

    /// Is this today's one-step probe (`[t]`, `[descendant::t]`)?
    pub fn is_single(&self) -> bool {
        self.links.len() == 1 && self.links[0].preds.is_empty()
    }

    /// Appends the pattern's root-to-leaf paths, each prefixed with
    /// `prefix`: `.` a child edge, `>` descendant, `^` ancestor (the
    /// twig notation plus the upward edge).
    fn leaf_paths(&self, prefix: &str, out: &mut Vec<String>) {
        let mut path = prefix.to_string();
        for (i, link) in self.links.iter().enumerate() {
            // The edge out of the candidates stays implicit, so a
            // one-step probe renders as its tag name alone.
            if i > 0 || !prefix.is_empty() {
                path.push(match link.axis {
                    SemijoinAxis::Child => '.',
                    SemijoinAxis::Descendant => '>',
                    SemijoinAxis::Ancestor => '^',
                });
            }
            path.push_str(&link.name);
            for pred in &link.preds {
                pred.leaf_paths(&path, out);
            }
        }
        if self.links.last().is_some_and(|l| l.preds.is_empty()) {
            out.push(path);
        }
    }
}

impl fmt::Display for SemijoinChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut paths = Vec::new();
        self.leaf_paths("", &mut paths);
        write!(f, "semijoin[{}]", paths.join(", "))
    }
}

/// A lowered step predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum PredOp {
    /// One semijoin probe per candidate against a per-tag node list —
    /// for a multi-step predicate path, the list its chain reduces to;
    /// `prebuilt` selects the cached fragment index over query-time
    /// selection scans.
    Semijoin {
        /// The predicate path; a single link for `[t]`.
        chain: SemijoinChain,
        /// Read the prebuilt [`staircase_core::TagIndex`] fragments.
        prebuilt: bool,
    },
    /// Nested-loop fallback: evaluate the lowered predicate path from
    /// each candidate and keep candidates with non-empty results.
    Filter(PathPlan),
}

/// Cost-model estimates for one planned step, in the cost model's unit
/// (expected nodes / index entries touched) plus expected output
/// cardinality. Estimates assume evaluation from the document root —
/// the session's default — and are heuristics, not bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepEstimate {
    /// Expected nodes / index entries touched by this step.
    pub cost: f64,
    /// Expected result cardinality after tests and predicates.
    pub rows: f64,
}

impl PhysicalPlan {
    /// The per-branch plans (one per `|` branch of the union).
    pub fn branches(&self) -> &[PathPlan] {
        &self.branches
    }

    /// Total planned steps across all branches.
    pub fn step_count(&self) -> usize {
        self.branches.iter().map(|b| b.steps.len()).sum()
    }

    /// Sum of the per-step cost estimates.
    pub fn estimated_cost(&self) -> f64 {
        self.branches
            .iter()
            .flat_map(|b| &b.steps)
            .map(|s| s.estimate.cost)
            .sum()
    }

    /// Was this plan lowered under the auto policy, whose lanes re-plan
    /// pending steps from what they observe?
    pub fn is_auto(&self) -> bool {
        self.auto
    }

    /// Does executing this plan require the prebuilt tag-fragment index?
    ///
    /// Only the planned operators decide: a runtime switch to a fragment
    /// join is offered only to a plan that needs the index anyway
    /// ([`replan_step`]), so re-planning never forces the index into
    /// existence.
    pub(crate) fn needs_tag_index(&self) -> bool {
        self.branches.iter().any(path_needs_tags)
    }

    /// Does executing this plan require the SQL engine's B-tree?
    pub(crate) fn needs_sql_engine(&self) -> bool {
        self.branches.iter().any(path_needs_sql)
    }
}

fn path_needs_tags(path: &PathPlan) -> bool {
    path.steps.iter().any(|s| {
        matches!(s.op, StepOp::Fragment { prescan: false } | StepOp::Twig(_))
            || s.predicates.iter().any(|p| match p {
                PredOp::Semijoin { prebuilt, .. } => *prebuilt,
                PredOp::Filter(sub) => path_needs_tags(sub),
            })
    })
}

fn path_needs_sql(path: &PathPlan) -> bool {
    path.steps.iter().any(|s| {
        matches!(s.op, StepOp::Sql { .. })
            || s.predicates.iter().any(|p| match p {
                PredOp::Filter(sub) => path_needs_sql(sub),
                PredOp::Semijoin { .. } => false,
            })
    })
}

impl PathPlan {
    /// The planned steps, in evaluation order.
    pub fn steps(&self) -> &[PlannedStep] {
        &self.steps
    }
}

/// The multi-context ("lane") executor a planned step is served by.
///
/// Batchability is a **declared property of the planned operator**:
/// every [`StepOp`] either provides a multi-context form — dispatched by
/// the lane executor so K lanes whose current steps agree on this key
/// advance together — or names [`LaneForm::PerLane`], the sequential
/// fallback. Grouping therefore never re-derives engine decisions at
/// run time, and the planner can reason about which steps of a batch
/// will advance together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneForm<'s> {
    /// Plain staircase join over the whole plane, one partition loop per
    /// distinct (context, test) lane:
    /// [`staircase_core::descendant_many`] / [`staircase_core::ancestor_many`].
    Staircase(VertAxis, Variant),
    /// On-list (fragment) join over a shared per-tag node list:
    /// [`staircase_core::descendant_on_list_many`] /
    /// [`staircase_core::ancestor_on_list_many`] /
    /// [`staircase_core::child_on_list_many`]. Lanes naming the same tag
    /// share the list resolution, lanes with the same context the join.
    Fragment {
        /// Join edge.
        edge: ListEdge,
        /// The name test's tag (fused into the join), borrowed from the
        /// step — deriving the lane form allocates nothing.
        name: &'s str,
        /// Query-time selection scan instead of the prebuilt index.
        prescan: bool,
    },
    /// Horizontal scan: [`staircase_core::following_many`] /
    /// [`staircase_core::preceding_many`] (one suffix/prefix pass for
    /// the whole group).
    Horiz(HorizAxis),
    /// No multi-context form: the lane falls back to the sequential
    /// plan interpreter for this step.
    PerLane,
}

/// The two horizontal axes, as their own enum so a horizontal lane form
/// cannot name a vertical axis by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HorizAxis {
    Following,
    Preceding,
}

impl HorizAxis {
    pub(crate) fn axis(self) -> Axis {
        match self {
            HorizAxis::Following => Axis::Following,
            HorizAxis::Preceding => Axis::Preceding,
        }
    }
}

impl PlannedStep {
    /// The chosen join operator.
    pub fn operator(&self) -> &StepOp {
        &self.op
    }

    /// The declared multi-context form of this step (see [`LaneForm`]).
    ///
    /// Semijoin predicates (chains included) do not block lane
    /// execution — the executor probes them group-wise through the
    /// `*_in_many` operators — but a nested-loop [`PredOp::Filter`]
    /// recurses into full path evaluation, so it forces the sequential
    /// fallback.
    pub(crate) fn lane_form(&self) -> LaneForm<'_> {
        if self
            .predicates
            .iter()
            .any(|p| matches!(p, PredOp::Filter(_)))
        {
            return LaneForm::PerLane;
        }
        if let (StepOp::Fragment { prescan }, Some(edge)) = (&self.op, list_edge_of(self.axis)) {
            return match &self.test {
                NodeTest::Name(name) => LaneForm::Fragment {
                    edge,
                    name,
                    prescan: *prescan,
                },
                // The planner only emits fragment joins for name tests;
                // a hand-built plan without one falls back (exactly as
                // the sequential interpreter does).
                _ => LaneForm::PerLane,
            };
        }
        let Some(paxis) = part_axis_of(self.axis) else {
            return LaneForm::PerLane; // structural axes
        };
        match (&self.op, vert_axis_of(self.axis)) {
            (StepOp::Staircase { variant }, Some(vert)) => LaneForm::Staircase(vert, *variant),
            // The horizontal scan ignores the variant (pruning collapses
            // the context to one node), so Staircase-planned horizontal
            // steps batch too.
            (StepOp::Staircase { .. } | StepOp::Horiz, None) => match paxis {
                PartAxis::Following => LaneForm::Horiz(HorizAxis::Following),
                PartAxis::Preceding => LaneForm::Horiz(HorizAxis::Preceding),
                // vert_axis_of returned None, so paxis is horizontal;
                // stay total without asserting it.
                PartAxis::Descendant | PartAxis::Ancestor => LaneForm::PerLane,
            },
            _ => LaneForm::PerLane,
        }
    }

    /// Does this step provide a multi-context (batched) form?
    ///
    /// When `true`, [`crate::Session::run_many`] serves every lane whose
    /// current step shares this step's lane form from **one** pass;
    /// when `false`, the step is the per-lane residue (nested-loop
    /// predicates, structural axes, and the naive/SQL/twig operators,
    /// which have no multi-context form).
    pub fn batchable(&self) -> bool {
        self.lane_form() != LaneForm::PerLane
    }

    /// How the node test is applied: fused into the join (fragment and
    /// twig joins, SQL's early name test, every plane scan) or as a
    /// filter pass afterwards (naive, plain SQL, structural axes) — see
    /// [`TestOp`]. `--explain` prints `+ apply-test [mask]` for the
    /// latter only.
    pub fn test_operator(&self) -> TestOp {
        self.test_op
    }

    /// The lowered predicate operators.
    pub fn predicate_operators(&self) -> &[PredOp] {
        &self.predicates
    }

    /// The cost model's estimates for this step.
    pub fn estimate(&self) -> StepEstimate {
        self.estimate
    }

    /// The planner's parallelism hint: `true` when this step's estimated
    /// work amortizes fanning morsels out across the session's worker
    /// pool. The executor only splits a hinted step (and only on a pool
    /// wider than one); un-hinted steps stay sequential so small queries
    /// never pay worker handoff. `xq --explain` marks hinted steps
    /// `[par]`.
    pub fn fanout(&self) -> bool {
        self.fanout
    }

    /// The axis this step traverses.
    pub fn axis(&self) -> Axis {
        self.axis
    }

    /// The step as planned, after normalisation
    /// (`descendant::bidder[child::increase]`).
    pub fn source(&self) -> &str {
        &self.rendered
    }

    /// What the user wrote (`//bidder[increase]`), when normalisation
    /// rewrote it into [`PlannedStep::source`].
    pub fn origin(&self) -> Option<&str> {
        self.origin.as_deref()
    }
}

// ── Rendering (one line per step; `xq --explain`) ───────────────────────

impl fmt::Display for StepOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepOp::Staircase { variant } => write!(f, "staircase({variant:?})"),
            StepOp::Fragment { prescan: false } => write!(f, "fragment"),
            StepOp::Fragment { prescan: true } => write!(f, "fragment(prescan)"),
            StepOp::Horiz => write!(f, "horiz-scan"),
            StepOp::Naive => write!(f, "naive"),
            StepOp::Sql {
                eq1_window,
                early_nametest,
            } => {
                write!(f, "sql(")?;
                match (eq1_window, early_nametest) {
                    (false, false) => write!(f, "plain")?,
                    (true, false) => write!(f, "eq1-window")?,
                    (false, true) => write!(f, "early-nametest")?,
                    (true, true) => write!(f, "eq1-window, early-nametest")?,
                }
                write!(f, ")")
            }
            StepOp::Structural => write!(f, "structural"),
            StepOp::Twig(spec) => write!(f, "{spec}"),
        }
    }
}

impl fmt::Display for PlannedStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut ops = self.op.to_string();
        if self.test_op == TestOp::ApplyTest && !matches!(self.test, NodeTest::AnyNode) {
            // The operator has no scan for the test to ride: a residual
            // filter pass through the chunked 64-lane bitmask kernels
            // (`staircase_core::mask`).
            ops.push_str(" + apply-test [mask]");
        }
        for pred in &self.predicates {
            match pred {
                PredOp::Semijoin { chain, .. } => {
                    ops.push_str(" + ");
                    ops.push_str(&chain.to_string());
                }
                PredOp::Filter(_) => ops.push_str(" + filter-pred"),
            }
        }
        if self.batchable() {
            // This step has a multi-context form: in a batch, lanes that
            // agree on it advance together.
            ops.push_str(" [lane]");
        }
        if self.fanout {
            // Estimated work amortizes the worker pool: on a session
            // with threads > 1 this step's execution fans out.
            ops.push_str(" [par]");
        }
        if self.replanned {
            // The executor switched this operator at a step
            // boundary, against the observed frontier cardinality.
            ops.push_str(" [replan]");
        }
        let step = match &self.origin {
            Some(origin) => format!("{}  (from {origin})", self.rendered),
            None => self.rendered.clone(),
        };
        write!(
            f,
            "step {:<36} op {:<44} est cost {:>12.0}  est rows {:>9.0}",
            step, ops, self.estimate.cost, self.estimate.rows
        )
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let many = self.branches.len() > 1;
        for (i, branch) in self.branches.iter().enumerate() {
            if many {
                writeln!(f, "branch {}:", i + 1)?;
            }
            for step in &branch.steps {
                writeln!(f, "{step}")?;
            }
        }
        Ok(())
    }
}

// ── The planner ─────────────────────────────────────────────────────────

/// The planning policy behind an [`Engine`].
#[derive(Debug, Clone, Copy)]
enum Policy {
    Fixed(EngineKind),
    Auto,
    /// [`Engine::twig`]: fuse **every** eligible twig region; steps
    /// outside a region run as §6 fragment joins.
    Twig,
}

/// Planner configuration: the policy plus the session-calibrated cost
/// factors (currently the fitted twig-seek multiplier).
#[derive(Debug, Clone, Copy)]
struct Planner {
    policy: Policy,
    /// Session-fitted multiplier on the twig frontier cost
    /// ([`staircase_core::cost::Calibrator::twig_seek_factor`]): 1.0
    /// until twig steps have actually run and reported their seeks.
    twig_seek: f64,
}

/// Lowers a parsed union expression into a physical plan for `engine`.
/// `twig_seek` is the session calibrator's fitted twig-seek factor
/// (pass 1.0 for an uncalibrated plan).
pub(crate) fn plan_union(
    expr: &UnionExpr,
    doc: &Doc,
    stats: &DocStats,
    engine: Engine,
    twig_seek: f64,
) -> PhysicalPlan {
    let policy = match engine.kind {
        EngineKind::Auto => Policy::Auto,
        EngineKind::Twig => Policy::Twig,
        kind => Policy::Fixed(kind),
    };
    let pl = Planner { policy, twig_seek };
    PhysicalPlan {
        branches: expr
            .branches
            .iter()
            .map(|p| plan_path(p, doc, stats, pl, 1.0, true))
            .collect(),
        auto: matches!(policy, Policy::Auto),
    }
}

/// Lowers one location path. `in_rows`/`at_root` seed the cardinality
/// propagation: the session evaluates from the document root, so both
/// absolute and relative paths start with one context node.
fn plan_path(
    path: &Path,
    doc: &Doc,
    stats: &DocStats,
    pl: Planner,
    in_rows: f64,
    at_root: bool,
) -> PathPlan {
    let mut rows = in_rows;
    let mut root = at_root;
    // The tag every context node of the next step is known to carry: the
    // name test of the step that produced them.
    let mut ctx_tag: Option<TagId> = None;
    let mut steps = Vec::with_capacity(path.steps.len());
    let mut i = 0;
    while i < path.steps.len() {
        // Twig-capable policies look for a region starting here; the
        // auto policy additionally demands that the cost model predict a
        // step-at-a-time intermediate blowup above the leapfrog frontier
        // cost before fusing.
        if matches!(pl.policy, Policy::Twig | Policy::Auto) {
            if let Some(spec) = twig_region(&path.steps[i..]) {
                let len = spec.spine.len();
                if let Some((planned, out_rows)) =
                    plan_twig(spec, &path.steps[i..i + len], doc, stats, pl, rows, root)
                {
                    rows = out_rows;
                    root = false;
                    ctx_tag = element_tag(&path.steps[i + len - 1], doc);
                    steps.push(planned);
                    i += len;
                    continue;
                }
            }
        }
        let (planned, out_rows) = plan_step(&path.steps[i], doc, stats, pl, rows, root, ctx_tag);
        rows = out_rows;
        root = false;
        ctx_tag = element_tag(&path.steps[i], doc);
        steps.push(planned);
        i += 1;
    }
    PathPlan {
        absolute: path.absolute,
        steps,
    }
}

/// The element tag every result of `step` carries, when its test says so.
fn element_tag(step: &Step, doc: &Doc) -> Option<TagId> {
    match &step.test {
        NodeTest::Name(name) if step.axis != Axis::Attribute => doc.tag_id(name),
        _ => None,
    }
}

// ── Twig-region recognition and lowering ────────────────────────────────

/// Recognizes the maximal *twig region* starting at `steps[0]`: a run of
/// at least two vertical name-test steps — the first on the descendant
/// axis, later ones descendant or child — whose predicates are all
/// relative vertical existential paths (descendant/child name-test steps
/// with no nested predicates). Returns `None` when no region starts
/// here; single eligible steps stay on the step-at-a-time operators,
/// which already touch no more than the twig would.
fn twig_region(steps: &[Step]) -> Option<TwigSpec> {
    let mut spine = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        match twig_leg(step, i == 0) {
            Some(leg) => spine.push(leg),
            None => break,
        }
    }
    if spine.len() < 2 {
        return None;
    }
    Some(TwigSpec { spine })
}

/// One step's twig-leg form, if it has one.
fn twig_leg(step: &Step, first: bool) -> Option<TwigSpecLeg> {
    let edge = match step.axis {
        Axis::Descendant => TwigEdge::Descendant,
        // A child-axis *first* leg would need the structural child
        // dispatch; regions start on the partitioning descendant axis so
        // the fused step replaces a partitioning join.
        Axis::Child if !first => TwigEdge::Child,
        _ => return None,
    };
    let NodeTest::Name(name) = &step.test else {
        return None;
    };
    let mut chains = Vec::with_capacity(step.predicates.len());
    for pred in &step.predicates {
        let Predicate::Exists(path) = pred;
        chains.push(vertical_chain(path)?);
    }
    Some(TwigSpecLeg {
        edge,
        name: name.clone(),
        chains,
    })
}

/// A predicate path's chain form: relative, non-empty, every step a
/// predicate-free descendant/child name test.
fn vertical_chain(path: &Path) -> Option<Vec<(TwigEdge, String)>> {
    if path.absolute || path.steps.is_empty() {
        return None;
    }
    let mut chain = Vec::with_capacity(path.steps.len());
    for step in &path.steps {
        if !step.predicates.is_empty() {
            return None;
        }
        let edge = match step.axis {
            Axis::Descendant => TwigEdge::Descendant,
            Axis::Child => TwigEdge::Child,
            _ => return None,
        };
        let NodeTest::Name(name) = &step.test else {
            return None;
        };
        chain.push((edge, name.clone()));
    }
    Some(chain)
}

/// Lowers a recognized region to one fused [`StepOp::Twig`] step.
/// Returns `None` when the policy is [`Policy::Auto`] and the cost model
/// prices the step-at-a-time intermediates *below* the leapfrog frontier
/// — stepping through a uniform document is cheaper than running one
/// cursor per leg, so auto declines the fusion there.
fn plan_twig(
    spec: TwigSpec,
    source: &[Step],
    doc: &Doc,
    stats: &DocStats,
    pl: Planner,
    in_rows: f64,
    at_root: bool,
) -> Option<(PlannedStep, f64)> {
    let legs: Vec<TwigLegCost> = spec
        .spine
        .iter()
        .map(|leg| TwigLegCost {
            fragment: stats.fragment_size(doc, doc.tag_id(&leg.name)),
            child_edge: leg.edge == TwigEdge::Child,
            chains: leg
                .chains
                .iter()
                .map(|c| {
                    c.iter()
                        .map(|(_, n)| stats.fragment_size(doc, doc.tag_id(n)))
                        .collect()
                })
                .collect(),
        })
        .collect();
    // The calibrated frontier: the session's fitted seek factor scales
    // the static prediction, so a session whose twig steps kept seeking
    // more (or less) than predicted shifts later twig-vs-step picks.
    let frontier = stats.twig_frontier_cost(in_rows, &legs) * pl.twig_seek;
    if matches!(pl.policy, Policy::Auto)
        && stats.step_blowup_estimate(in_rows, at_root, &legs) <= frontier
    {
        return None;
    }
    // Output cardinality: the step plan's final rows, so downstream
    // estimates are unchanged by splicing the twig in.
    let rows = twig_rows_estimate(stats, in_rows, at_root, &legs);
    let rendered = source
        .iter()
        .map(Step::to_string)
        .collect::<Vec<_>>()
        .join("/");
    // The region as written, if normalisation rewrote any of its steps
    // (a rewritten step's origin carries its own leading slashes).
    let origin = source.iter().any(|s| s.origin.is_some()).then(|| {
        let mut written = String::new();
        for step in source {
            match &step.origin {
                Some(origin) => written.push_str(origin),
                None => {
                    if !written.is_empty() {
                        written.push('/');
                    }
                    written.push_str(&step.to_string());
                }
            }
        }
        written
    });
    let test = NodeTest::Name(spec.spine[spec.spine.len() - 1].name.clone());
    let planned = PlannedStep {
        // The fused step replaces the region's first (descendant-axis)
        // step in the pipeline; the evaluator dispatches it through the
        // partitioning path like any descendant step.
        axis: Axis::Descendant,
        test,
        op: StepOp::Twig(Arc::new(spec)),
        test_op: TestOp::Fused,
        predicates: Vec::new(),
        estimate: StepEstimate {
            cost: frontier,
            rows,
        },
        fanout: false,
        replanned: false,
        rendered,
        origin,
    };
    Some((planned, rows))
}

/// The step plan's output-cardinality recursion over a region (the
/// `rows` half of [`DocStats::step_blowup_estimate`]), so the fused step
/// reports the same expected rows the step pipeline would.
fn twig_rows_estimate(stats: &DocStats, in_rows: f64, at_root: bool, legs: &[TwigLegCost]) -> f64 {
    let n = (stats.nodes() as f64).max(1.0);
    let mut rows = in_rows.max(1.0);
    for (i, leg) in legs.iter().enumerate() {
        let f = leg.fragment as f64;
        let reach = if leg.child_edge {
            rows * stats.avg_fanout()
        } else {
            stats.descendant_window(rows, at_root && i == 0)
        };
        let out = (reach * f / n).min(f);
        rows = out / 2.0f64.powi(leg.chains.len() as i32);
    }
    rows
}

/// Fraction of window nodes surviving `test` (rough: name tests use the
/// per-tag fragment size, `*` the element fraction, the rare non-element
/// kind tests an arbitrary sliver).
fn test_selectivity(test: &NodeTest, doc: &Doc, stats: &DocStats) -> f64 {
    match test {
        NodeTest::AnyNode => 1.0,
        NodeTest::AnyPrincipal => stats.selectivity(stats.elements()),
        NodeTest::Name(name) => stats.selectivity(stats.fragment_size(doc, doc.tag_id(name))),
        NodeTest::Text | NodeTest::Comment | NodeTest::Pi(_) => {
            let rest = stats.nodes().saturating_sub(stats.elements());
            stats.selectivity(rest) / 2.0
        }
    }
}

/// Lowers one step under `policy`; returns the planned step and the
/// estimated output cardinality feeding the next step. `ctx_tag` is the
/// tag the context nodes are known to carry, if the previous step's
/// name test says so.
fn plan_step(
    step: &Step,
    doc: &Doc,
    stats: &DocStats,
    pl: Planner,
    in_rows: f64,
    at_root: bool,
    ctx_tag: Option<TagId>,
) -> (PlannedStep, f64) {
    let sel = test_selectivity(&step.test, doc, stats);
    let fragment = match &step.test {
        NodeTest::Name(name) => stats.fragment_size(doc, doc.tag_id(name)),
        _ => 0,
    };

    let (op, test_op, mut cost, mut rows) = match part_axis_of(step.axis) {
        Some(paxis) => plan_partitioning(
            step, paxis, pl.policy, stats, sel, fragment, in_rows, at_root,
        ),
        None => plan_structural(step, pl.policy, doc, stats, sel, in_rows, ctx_tag),
    };

    // Or-self merges the surviving context nodes back in.
    if matches!(step.axis, Axis::DescendantOrSelf | Axis::AncestorOrSelf) {
        rows += in_rows * sel;
    }

    let mut predicates = Vec::with_capacity(step.predicates.len());
    for pred in &step.predicates {
        let Predicate::Exists(path) = pred;
        let (lowered, pred_cost) = plan_predicate(path, doc, stats, pl, rows);
        cost += pred_cost;
        // The classic existential-predicate guess: half the candidates
        // survive.
        rows /= 2.0;
        predicates.push(lowered);
    }

    // The hint is for the operators with a morsel form; the structural
    // hops have none, whatever their (now honest) price.
    let fanout = op != StepOp::Structural && stats.fanout_worthwhile(cost);
    let planned = PlannedStep {
        axis: step.axis,
        test: step.test.clone(),
        op,
        test_op,
        predicates,
        estimate: StepEstimate { cost, rows },
        fanout,
        replanned: false,
        rendered: step.to_string(),
        origin: step.origin.clone(),
    };
    (planned, rows)
}

/// Lowers a structural-axis step. Every fixed engine runs these as
/// [`StepOp::Structural`]; the auto policy additionally prices a
/// `child::name` step's on-list join
/// ([`DocStats::child_fragment_cost`]) against the hop over every child
/// plus its filter pass ([`DocStats::structural_cost`]) and keeps the
/// cheaper — ties stay structural. A name no element carries plans the empty
/// prescan fragment, as on the vertical axes.
fn plan_structural(
    step: &Step,
    policy: Policy,
    doc: &Doc,
    stats: &DocStats,
    sel: f64,
    in_rows: f64,
    ctx_tag: Option<TagId>,
) -> (StepOp, TestOp, f64, f64) {
    let filtered = !matches!(step.test, NodeTest::AnyNode);
    let structural = stats.structural_cost(step.axis, in_rows, ctx_tag, filtered);
    if step.axis != Axis::Child {
        return (
            StepOp::Structural,
            TestOp::ApplyTest,
            structural,
            structural * sel,
        );
    }
    let reach = stats.child_reach(in_rows, ctx_tag);
    let rows = reach * sel;
    let (NodeTest::Name(name), Policy::Auto) = (&step.test, policy) else {
        return (StepOp::Structural, TestOp::ApplyTest, structural, rows);
    };
    let fragment = stats.fragment_size(doc, doc.tag_id(name));
    if fragment == 0 {
        return (
            StepOp::Fragment { prescan: true },
            TestOp::Fused,
            in_rows,
            rows,
        );
    }
    let on_list = stats.child_fragment_cost(fragment, in_rows, reach);
    if on_list < structural {
        (
            StepOp::Fragment { prescan: false },
            TestOp::Fused,
            on_list,
            rows,
        )
    } else {
        (StepOp::Structural, TestOp::ApplyTest, structural, rows)
    }
}

/// Lowers a partitioning-axis step: the policy picks the join operator,
/// the cost model prices it (and, for [`Engine::auto`], the candidates).
#[allow(clippy::too_many_arguments)]
fn plan_partitioning(
    step: &Step,
    paxis: PartAxis,
    policy: Policy,
    stats: &DocStats,
    sel: f64,
    fragment: usize,
    in_rows: f64,
    at_root: bool,
) -> (StepOp, TestOp, f64, f64) {
    let is_name = matches!(step.test, NodeTest::Name(_));
    let vert = vert_axis_of(step.axis);
    let desc = matches!(paxis, PartAxis::Descendant);
    let horiz = vert.is_none();

    // Window estimates the candidates are priced from.
    let window = match paxis {
        PartAxis::Descendant => stats.descendant_window(in_rows, at_root),
        PartAxis::Ancestor => stats.ancestor_window(in_rows),
        PartAxis::Following | PartAxis::Preceding => stats.nodes() as f64 / 2.0,
    };
    let unpruned = if horiz {
        window
    } else {
        stats.unpruned_window(in_rows, desc, at_root)
    };
    let base_rows = window * sel;

    let price = |op: &StepOp| -> f64 {
        match *op {
            StepOp::Staircase { variant } => {
                stats.staircase_cost(variant, in_rows, window) + stats.apply_test_cost(window)
            }
            // An empty fragment makes the step provably empty: the
            // prescan variant skips the selection scan entirely when the
            // name is absent, so only the per-partition probes remain.
            StepOp::Fragment { prescan: true } if fragment == 0 => in_rows,
            StepOp::Fragment { prescan } => stats.fragment_cost(fragment, in_rows, window, prescan),
            StepOp::Horiz => stats.horiz_cost() + stats.apply_test_cost(window),
            StepOp::Naive => stats.naive_cost(unpruned) + stats.apply_test_cost(unpruned),
            StepOp::Sql {
                eq1_window,
                early_nametest,
            } => {
                let scan = stats.sql_cost(in_rows, unpruned, eq1_window);
                if early_nametest && is_name {
                    scan
                } else {
                    scan + stats.apply_test_cost(unpruned)
                }
            }
            StepOp::Structural => f64::INFINITY,
            // Twig steps are priced at region level (`plan_twig`), never
            // as per-step candidates.
            StepOp::Twig(_) => f64::INFINITY,
        }
    };

    let op = match policy {
        Policy::Fixed(kind) => fixed_op(kind, is_name, vert.is_some(), horiz),
        // Steps outside a fused region run as §6 fragment joins under
        // the twig engine.
        Policy::Twig => fixed_op(
            EngineKind::Fragmented {
                variant: Variant::EstimationSkipping,
            },
            is_name,
            vert.is_some(),
            horiz,
        ),
        Policy::Auto => {
            if horiz {
                StepOp::Horiz
            } else if is_name && fragment == 0 {
                // No element carries this name: the result is provably
                // empty. The prescan fragment join gets there without
                // forcing the prebuilt index to be built (the empty-name
                // selection scan is free).
                StepOp::Fragment { prescan: true }
            } else {
                // Candidate set for vertical axes: plain staircase join,
                // prebuilt fragment (name tests only), and the SQL plan.
                // First-cheapest wins; ties keep the earlier (more
                // robust) candidate.
                let mut candidates = vec![StepOp::Staircase {
                    variant: Variant::EstimationSkipping,
                }];
                if is_name {
                    candidates.push(StepOp::Fragment { prescan: false });
                }
                candidates.push(StepOp::Sql {
                    eq1_window: true,
                    early_nametest: true,
                });
                let mut best = candidates[0].clone();
                let mut best_cost = price(&candidates[0]);
                for cand in &candidates[1..] {
                    let c = price(cand);
                    if c < best_cost {
                        best = cand.clone();
                        best_cost = c;
                    }
                }
                best
            }
        }
    };

    let cost = price(&op);
    let test_op = TestOp::of(&op, is_name);
    (op, test_op, cost, base_rows)
}

/// The operator a fixed engine always uses for a partitioning step —
/// exactly the pre-split dispatch of the monolithic evaluator.
fn fixed_op(kind: EngineKind, is_name: bool, vertical: bool, horiz: bool) -> StepOp {
    match kind {
        EngineKind::Staircase { variant, pushdown } => {
            if pushdown && is_name && vertical {
                StepOp::Fragment { prescan: true }
            } else if horiz {
                StepOp::Horiz
            } else {
                StepOp::Staircase { variant }
            }
        }
        EngineKind::Fragmented { variant } => {
            if is_name && vertical {
                StepOp::Fragment { prescan: false }
            } else if horiz {
                StepOp::Horiz
            } else {
                StepOp::Staircase { variant }
            }
        }
        EngineKind::Naive => StepOp::Naive,
        EngineKind::Sql {
            eq1_window,
            early_nametest,
        } => StepOp::Sql {
            eq1_window,
            early_nametest,
        },
        EngineKind::Auto => unreachable!("auto resolves to Policy::Auto"),
        EngineKind::Twig => unreachable!("twig resolves to Policy::Twig"),
    }
}

/// Re-prices one pending step against the **observed** frontier —
/// [`Engine::auto`](crate::Engine::auto)'s mid-query loop — and returns
/// the now-cheapest operator (with its fused-test flag and re-priced
/// cost) when the observed-cost ranking disagrees with the planned pick.
///
/// Only vertical partitioning steps already carrying an operator from
/// the auto candidate set (plain staircase, prebuilt fragment, SQL) are
/// re-chosen: twig regions, horizontal scans, and structural axes have
/// no runtime alternative the overlay prices. A switch only ever
/// targets a structure the lane's own plan already needs:
/// `tags_available` gates the fragment join and `sql_available` the SQL
/// plan. A mid-query build would cost more than it saves, and a lane
/// that borrowed a batch partner's structure would switch differently
/// batched than alone.
pub(crate) fn replan_step(
    step: &PlannedStep,
    doc: &Doc,
    rt: &RuntimeStats<'_>,
    tags_available: bool,
    sql_available: bool,
) -> Option<(StepOp, TestOp, f64)> {
    let vert = vert_axis_of(step.axis)?;
    if !matches!(
        step.op,
        StepOp::Staircase { .. } | StepOp::Fragment { .. } | StepOp::Sql { .. }
    ) {
        return None;
    }
    let stats = rt.base();
    let is_name = matches!(step.test, NodeTest::Name(_));
    let fragment = match &step.test {
        NodeTest::Name(name) => stats.fragment_size(doc, doc.tag_id(name)),
        _ => 0,
    };
    if is_name && fragment == 0 {
        // The result is provably empty; the planned operator already
        // gets there without building anything.
        return None;
    }
    // Replanning fires mid-path, after at least one step has run, so
    // the from-root window special case never applies.
    let desc = vert == VertAxis::Descendant;
    let window = if desc {
        rt.descendant_window(false)
    } else {
        rt.ancestor_window()
    };
    let price = |op: &StepOp| -> f64 {
        match *op {
            StepOp::Staircase { variant } => {
                rt.staircase_cost(variant, window) + stats.apply_test_cost(window)
            }
            StepOp::Fragment { prescan } => rt.fragment_cost(fragment, window, prescan),
            StepOp::Sql {
                eq1_window,
                early_nametest,
            } => {
                // SQL scans every context node's region, covered or
                // not: the observed frontier's own unpruned window.
                let unpruned = rt.unpruned_window(desc);
                let scan = rt.sql_cost(unpruned, eq1_window);
                if early_nametest && is_name {
                    scan
                } else {
                    scan + stats.apply_test_cost(unpruned)
                }
            }
            _ => f64::INFINITY,
        }
    };
    // The same candidate set (and tie-breaking order) as the static
    // auto policy, priced through the runtime overlay instead of the
    // Equation-1 cardinality guess: the plain staircase join, then the
    // operators whose structures the lane holds.
    let mut best = StepOp::Staircase {
        variant: Variant::EstimationSkipping,
    };
    let mut best_cost = price(&best);
    let optional = [
        (is_name && tags_available).then_some(StepOp::Fragment { prescan: false }),
        (sql_available || matches!(step.op, StepOp::Sql { .. })).then_some(StepOp::Sql {
            eq1_window: true,
            early_nametest: true,
        }),
    ];
    for op in optional.into_iter().flatten() {
        let cost = price(&op);
        if cost < best_cost {
            (best, best_cost) = (op, cost);
        }
    }
    if best == step.op {
        return None;
    }
    let test_op = TestOp::of(&best, is_name);
    Some((best, test_op, best_cost))
}

/// Lowers a predicate path over an estimated `candidates` rows and
/// prices it: the semijoin chain when the shape allows and the policy's
/// engine family supports it, the nested-loop filter otherwise.
///
/// The fixed semijoin-family engines take the chain whenever the shape
/// allows. [`Engine::auto`] does the same for a one-step predicate (one
/// probe per candidate always beats one interpreted step per candidate)
/// and prices a longer chain — whose cost grows with the *lists* —
/// against the nested loop — whose cost grows with the *candidates* —
/// keeping the cheaper.
fn plan_predicate(
    path: &Path,
    doc: &Doc,
    stats: &DocStats,
    pl: Planner,
    candidates: f64,
) -> (PredOp, f64) {
    let nested_loop = || {
        let sub = plan_path(path, doc, stats, pl, 1.0, false);
        let per_candidate: f64 = sub.steps.iter().map(|s| s.estimate.cost).sum();
        let cost = stats.nested_loop_cost(candidates, per_candidate, sub.steps.len());
        (PredOp::Filter(sub), cost)
    };
    // `Some(prebuilt)` for the engine families with a semijoin form.
    let family = match pl.policy {
        Policy::Auto | Policy::Twig | Policy::Fixed(EngineKind::Fragmented { .. }) => Some(true),
        Policy::Fixed(EngineKind::Staircase { .. }) => Some(false),
        Policy::Fixed(_) => None,
    };
    let Some((prebuilt, chain)) = family.zip(semijoin_chain(path)) else {
        return nested_loop();
    };
    let priced = matches!(pl.policy, Policy::Auto) && !chain.is_single();
    let cost = chain_cost(&chain, doc, stats, candidates, !prebuilt);
    let chained = (PredOp::Semijoin { chain, prebuilt }, cost);
    if !priced {
        return chained;
    }
    let looped = nested_loop();
    if chained.1 <= looped.1 {
        chained
    } else {
        looped
    }
}

/// The semijoin chain's price: one [`DocStats::semijoin_cost`] per edge,
/// each link's full list probing the next link's (the reduction runs
/// right to left, so no list is smaller than its tag fragment when it
/// is probed).
fn chain_cost(
    chain: &SemijoinChain,
    doc: &Doc,
    stats: &DocStats,
    candidates: f64,
    prescan: bool,
) -> f64 {
    let mut probing = candidates;
    let mut cost = 0.0;
    for link in &chain.links {
        let fragment = stats.fragment_size(doc, doc.tag_id(&link.name));
        cost += stats.semijoin_cost(probing, fragment, prescan);
        probing = fragment as f64;
        for pred in &link.preds {
            cost += chain_cost(pred, doc, stats, probing, prescan);
        }
    }
    cost
}

/// The semijoin form of a predicate path (§3.3's empty-region argument,
/// applied per edge): relative, every step a name test on the
/// descendant/child/ancestor axis, every step's own predicates of the
/// same shape.
fn semijoin_chain(path: &Path) -> Option<SemijoinChain> {
    if path.absolute || path.steps.is_empty() {
        return None;
    }
    let mut links = Vec::with_capacity(path.steps.len());
    for step in &path.steps {
        let axis = match step.axis {
            Axis::Descendant => SemijoinAxis::Descendant,
            Axis::Child => SemijoinAxis::Child,
            Axis::Ancestor => SemijoinAxis::Ancestor,
            _ => return None,
        };
        let NodeTest::Name(name) = &step.test else {
            return None;
        };
        let mut preds = Vec::with_capacity(step.predicates.len());
        for Predicate::Exists(inner) in &step.predicates {
            preds.push(semijoin_chain(inner)?);
        }
        links.push(ChainLink {
            axis,
            name: name.clone(),
            preds,
        });
    }
    Some(SemijoinChain { links })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;
    use crate::parser::parse_union;

    fn fixture() -> (Doc, DocStats) {
        let doc = Doc::from_xml(
            "<site><a><b/><b/><c/></a><a><b/><rare/></a>\
             <a><b/><b/><b/><c/><c/></a></site>",
        )
        .unwrap();
        let stats = DocStats::from_doc(&doc);
        (doc, stats)
    }

    fn plan_for(expr: &str, engine: Engine) -> PhysicalPlan {
        let (doc, stats) = fixture();
        let parsed = normalize(&parse_union(expr).unwrap());
        plan_union(&parsed, &doc, &stats, engine, 1.0)
    }

    fn ops(plan: &PhysicalPlan) -> Vec<StepOp> {
        plan.branches()
            .iter()
            .flat_map(|b| b.steps())
            .map(|s| s.operator().clone())
            .collect()
    }

    #[test]
    fn fixed_engines_are_trivial_policies() {
        let q = "/descendant::b/ancestor::node()/following::c";
        assert_eq!(
            ops(&plan_for(q, Engine::default())),
            [
                StepOp::Staircase {
                    variant: Variant::EstimationSkipping
                },
                StepOp::Staircase {
                    variant: Variant::EstimationSkipping
                },
                StepOp::Horiz,
            ]
        );
        assert_eq!(
            ops(&plan_for(q, Engine::naive())),
            [StepOp::Naive, StepOp::Naive, StepOp::Naive]
        );
        let sql = Engine::sql().eq1_window(true).build().unwrap();
        assert!(ops(&plan_for(q, sql)).iter().all(|op| matches!(
            op,
            StepOp::Sql {
                eq1_window: true,
                ..
            }
        )));
    }

    #[test]
    fn fragment_policies_follow_the_name_test() {
        let fragmented = Engine::staircase().fragmented(true).build().unwrap();
        let pushdown = Engine::staircase().pushdown(true).build().unwrap();
        // Name tests on vertical axes take the on-list join…
        assert_eq!(
            ops(&plan_for("/descendant::b", fragmented)),
            [StepOp::Fragment { prescan: false }]
        );
        assert_eq!(
            ops(&plan_for("/descendant::b", pushdown)),
            [StepOp::Fragment { prescan: true }]
        );
        // …while node() steps stay on the plain staircase join.
        assert_eq!(
            ops(&plan_for("/descendant::node()", fragmented)),
            [StepOp::Staircase {
                variant: Variant::EstimationSkipping
            }]
        );
    }

    #[test]
    fn auto_picks_fragments_for_selective_name_tests() {
        let plan = plan_for("/descendant::rare/ancestor::a", Engine::auto());
        assert_eq!(
            ops(&plan),
            [
                StepOp::Fragment { prescan: false },
                StepOp::Fragment { prescan: false }
            ]
        );
        // Fused name test: no separate filter pass.
        assert_eq!(plan.branches()[0].steps()[0].test_operator(), TestOp::Fused);
        assert!(plan.needs_tag_index());
        assert!(!plan.needs_sql_engine());
    }

    #[test]
    fn auto_keeps_the_staircase_join_for_unselective_steps() {
        let plan = plan_for("/descendant::node()/following::node()", Engine::auto());
        assert_eq!(
            ops(&plan),
            [
                StepOp::Staircase {
                    variant: Variant::EstimationSkipping
                },
                StepOp::Horiz,
            ]
        );
        assert!(!plan.needs_tag_index());
        assert!(!plan.needs_sql_engine());
    }

    #[test]
    fn semijoin_predicates_lower_by_family() {
        let q = "/descendant::a[b]";
        let auto = plan_for(q, Engine::auto());
        let steps = &auto.branches()[0].steps()[0];
        let PredOp::Semijoin { chain, prebuilt } = &steps.predicate_operators()[0] else {
            panic!("expected a semijoin: {auto}");
        };
        assert!(chain.is_single() && *prebuilt, "{auto}");
        assert_eq!(chain.axis(), SemijoinAxis::Child);
        // The plain staircase engine probes a query-time scan list…
        let plain = plan_for(q, Engine::default());
        assert!(matches!(
            plain.branches()[0].steps()[0].predicate_operators()[0],
            PredOp::Semijoin {
                prebuilt: false,
                ..
            }
        ));
        assert!(!plain.needs_tag_index());
        // …and the SQL engine has no semijoin fast path at all.
        let sql = plan_for(q, Engine::sql().build().unwrap());
        assert!(matches!(
            sql.branches()[0].steps()[0].predicate_operators()[0],
            PredOp::Filter(_)
        ));
    }

    fn chain_of(step: &PlannedStep) -> Option<&SemijoinChain> {
        match step.predicate_operators() {
            [PredOp::Semijoin { chain, .. }] => Some(chain),
            _ => None,
        }
    }

    #[test]
    fn abbreviated_paths_plan_as_their_explicit_axis_form() {
        for engine in [Engine::auto(), Engine::default(), Engine::naive()] {
            let abbreviated = plan_for("//a//b", engine);
            let explicit = plan_for("/descendant::a/descendant::b", engine);
            assert_eq!(ops(&abbreviated), ops(&explicit), "{engine:?}");
            assert!(!ops(&abbreviated).contains(&StepOp::Structural));
            for (a, e) in abbreviated.branches()[0]
                .steps()
                .iter()
                .zip(explicit.branches()[0].steps())
            {
                assert_eq!(a.estimate(), e.estimate(), "{engine:?}");
                assert_eq!(a.source(), e.source());
                assert!(a.origin().is_some() && e.origin().is_none());
            }
        }
        // Under auto both steps are the fragment joins `point_warm` runs.
        assert_eq!(
            ops(&plan_for("//a//b", Engine::auto())),
            [
                StepOp::Fragment { prescan: false },
                StepOp::Fragment { prescan: false }
            ]
        );
        // `.//x` in a predicate is an ordinary one-step semijoin.
        let dotted = plan_for("//a[.//b]", Engine::default());
        let chain = chain_of(&dotted.branches()[0].steps()[0]).expect("semijoin");
        assert!(chain.is_single());
        assert_eq!(chain.axis(), SemijoinAxis::Descendant);
    }

    #[test]
    fn unfusable_abbreviations_keep_their_scan() {
        // (`y` is no element's name: under auto the `child::y` steps
        // plan the empty prescan fragment, as a vertical step would.)
        for (expr, steps, second) in [
            (
                "descendant-or-self::node()[x]/child::y",
                2,
                StepOp::Fragment { prescan: true },
            ),
            (
                "descendant-or-self::*/child::y",
                2,
                StepOp::Fragment { prescan: true },
            ),
            ("descendant-or-self::*/child::*", 2, StepOp::Structural),
            ("//@id", 2, StepOp::Structural),
        ] {
            let plan = plan_for(expr, Engine::auto());
            assert_eq!(plan.step_count(), steps, "{expr}: {plan}");
            assert_eq!(
                plan.branches()[0].steps()[0].axis(),
                Axis::DescendantOrSelf,
                "{expr}"
            );
            assert_eq!(ops(&plan)[1], second, "{expr}");
        }
    }

    #[test]
    fn multi_step_predicates_lower_to_chains_by_family() {
        let fragmented = Engine::staircase().fragmented(true).build().unwrap();
        for (engine, indexed) in [
            (Engine::default(), false),
            (fragmented, true),
            (Engine::twig(), true),
        ] {
            let plan = plan_for("//a[b/c]", engine);
            let step = &plan.branches()[0].steps()[0];
            let [PredOp::Semijoin { chain, prebuilt }] = step.predicate_operators() else {
                panic!("{engine:?}: expected one chained semijoin: {plan}");
            };
            assert_eq!(*prebuilt, indexed, "{engine:?}");
            assert_eq!(chain.links.len(), 2);
            assert!(chain.links.iter().all(|l| l.axis == SemijoinAxis::Child));
            assert_eq!(plan.needs_tag_index(), indexed, "{engine:?}");
            assert!(plan.to_string().contains("+ semijoin[b.c]"), "{plan}");
        }
        for engine in [Engine::naive(), Engine::sql().build().unwrap()] {
            let plan = plan_for("//a[b/c]", engine);
            assert!(matches!(
                plan.branches()[0].steps()[0].predicate_operators(),
                [PredOp::Filter(_)]
            ));
        }
        // Nested predicates and upward steps stay inside the chain…
        let plan = plan_for("//a[.//b[c]/ancestor::a[rare]]", Engine::default());
        let chain = chain_of(&plan.branches()[0].steps()[0]).expect("chain");
        assert_eq!(
            chain.to_string(),
            "semijoin[b.c, b^a.rare]",
            "leaf paths: `.` child, `>` descendant, `^` ancestor"
        );
        // …and only shapes a chain cannot express keep the nested loop.
        for expr in [
            "//a[b/@id]",
            "//a[b/following::c]",
            "//a[/site/a]",
            "//a[b/*]",
            "//a[b[text()]]",
            "//a[b/..]",
        ] {
            let plan = plan_for(expr, Engine::default());
            assert!(
                matches!(
                    plan.branches()[0].steps()[0].predicate_operators(),
                    [PredOp::Filter(_)]
                ),
                "{expr}: {plan}"
            );
        }
    }

    #[test]
    fn auto_prices_the_chain_against_the_nested_loop() {
        // 300 `b`s with a `c` child each, one `rare` with the same below
        // it: probing the `b` list against the `c` list costs the same
        // whoever asks, the nested loop costs per candidate.
        let xml = format!(
            "<site>{}<rare><b><c/></b></rare></site>",
            "<a><b><c/></b></a>".repeat(300)
        );
        let doc = Doc::from_xml(&xml).unwrap();
        let stats = DocStats::from_doc(&doc);
        let plan = |expr: &str| {
            let parsed = normalize(&parse_union(expr).unwrap());
            plan_union(&parsed, &doc, &stats, Engine::auto(), 1.0)
        };
        let many = plan("//a[b/c]");
        assert!(
            chain_of(&many.branches()[0].steps()[0]).is_some(),
            "300 candidates: one reduction beats 300 interpreted sub-plans: {many}"
        );
        let few = plan("//rare[b/c]");
        assert!(
            matches!(
                few.branches()[0].steps()[0].predicate_operators(),
                [PredOp::Filter(_)]
            ),
            "one candidate: the loop touches one subtree, the chain two whole lists: {few}"
        );
        // A one-step predicate is a semijoin whatever the candidates.
        let single = plan("//rare[b]");
        assert!(chain_of(&single.branches()[0].steps()[0]).is_some_and(SemijoinChain::is_single));
    }

    #[test]
    fn explain_shows_the_normalised_step_and_its_origin() {
        let text = plan_for("//a//b", Engine::auto()).to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines[0].starts_with("step descendant::a  (from //a)"),
            "{text}"
        );
        assert!(
            lines[1].starts_with("step descendant::b  (from //b)"),
            "{text}"
        );
        // Steps planned as written say nothing.
        let plain = plan_for("/descendant::a/descendant::b", Engine::auto()).to_string();
        assert!(!plain.contains("(from"), "{plain}");
        // A fused twig region reports the region as written.
        let twig = plan_for("//a[b]//c", Engine::twig());
        assert_eq!(twig.step_count(), 1, "{twig}");
        assert_eq!(twig.branches()[0].steps()[0].origin(), Some("//a[b]//c"));
    }

    #[test]
    fn replan_switches_when_the_observed_cardinality_explodes() {
        let (doc, stats) = fixture();
        // Auto plans //b as a fragment join on this fixture; pretend a
        // hand-planned staircase step instead and replan it with a tiny
        // observed context — the fragment join must win.
        let plan = plan_for("/descendant::b/descendant::b", Engine::adaptive());
        let step = &plan.branches()[0].steps()[1];
        // One observed context node: the first `b`.
        let ctx = [2];
        let rt = RuntimeStats::observed(&stats, &doc, &ctx);
        match step.operator() {
            StepOp::Fragment { .. } => {
                // Already the observed-cost winner at card 1: no switch.
                assert!(replan_step(step, &doc, &rt, true, false).is_none());
            }
            other => panic!("fixture surprise: {other}"),
        }
        // A staircase-planned step with a selective observed context
        // switches to the fragment join.
        let fixed = plan_for("/descendant::b/descendant::b", Engine::default());
        let stair = &fixed.branches()[0].steps()[1];
        let (op, test_op, cost) = replan_step(stair, &doc, &rt, true, false)
            .expect("staircase should lose to the fragment");
        assert_eq!(op, StepOp::Fragment { prescan: false });
        assert_eq!(test_op, TestOp::Fused);
        assert!(cost.is_finite() && cost >= 0.0);
        // Horizontal and structural steps never replan.
        let horiz = plan_for("/following::b", Engine::default());
        assert!(replan_step(&horiz.branches()[0].steps()[0], &doc, &rt, true, true).is_none());
        let structural = plan_for("child::b", Engine::default());
        assert!(replan_step(&structural.branches()[0].steps()[0], &doc, &rt, true, true).is_none());
    }

    #[test]
    fn replan_offers_only_the_operators_the_lane_holds() {
        let (doc, stats) = fixture();
        // One observed context node: the first `b`.
        let ctx = [2];
        let rt = RuntimeStats::observed(&stats, &doc, &ctx);
        let fixed = plan_for("/descendant::b/descendant::b", Engine::default());
        let stair = &fixed.branches()[0].steps()[1];
        // The fragment join wins at card 1, but without the index in
        // hand it is no candidate, and the plane scan stands.
        assert!(replan_step(stair, &doc, &rt, true, false).is_some());
        assert!(replan_step(stair, &doc, &rt, false, false).is_none());
    }

    #[test]
    fn replan_never_builds_fragments_for_absent_names() {
        let (doc, stats) = fixture();
        let plan = plan_for("/descendant::zzz/descendant::zzz", Engine::default());
        // One observed context node: the first `b`.
        let ctx = [2];
        let rt = RuntimeStats::observed(&stats, &doc, &ctx);
        // An absent name is provably empty: whatever the planned
        // operator, switching could only force an index build.
        for step in plan.branches()[0].steps() {
            assert!(replan_step(step, &doc, &rt, true, true).is_none());
        }
    }

    #[test]
    fn replanned_steps_render_the_marker() {
        let plan = plan_for("/descendant::b", Engine::default());
        let mut step = plan.branches()[0].steps()[0].clone();
        assert!(!step.to_string().contains("[replan]"));
        step.replanned = true;
        assert!(step.to_string().contains("[replan]"), "{step}");
    }

    #[test]
    fn estimates_are_positive_and_ordered() {
        let (doc, stats) = fixture();
        let parsed = parse_union("/descendant::b").unwrap();
        let frag = plan_union(&parsed, &doc, &stats, Engine::auto(), 1.0);
        let naive = plan_union(&parsed, &doc, &stats, Engine::naive(), 1.0);
        assert!(frag.estimated_cost() > 0.0);
        assert!(
            frag.estimated_cost() < naive.estimated_cost(),
            "fragment {} !< naive {}",
            frag.estimated_cost(),
            naive.estimated_cost()
        );
    }

    #[test]
    fn display_prints_one_line_per_step() {
        let plan = plan_for("/descendant::b/ancestor::a", Engine::auto());
        let text = plan.to_string();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.contains("op "), "{line}");
            assert!(line.contains("est cost"), "{line}");
        }
        // Union plans label their branches.
        let union = plan_for("//b | //c", Engine::auto());
        assert!(union.to_string().contains("branch 2:"));
    }

    #[test]
    fn lane_forms_are_declared_per_operator() {
        let step = |expr: &str, engine: Engine| -> PlannedStep {
            plan_for(expr, engine).branches()[0].steps()[0].clone()
        };
        // Plain staircase joins and fragment joins have lane forms…
        assert_eq!(
            step("/descendant::node()", Engine::default()).lane_form(),
            LaneForm::Staircase(VertAxis::Descendant, Variant::EstimationSkipping)
        );
        let fragmented = Engine::staircase().fragmented(true).build().unwrap();
        assert_eq!(
            step("/ancestor::b", fragmented).lane_form(),
            LaneForm::Fragment {
                edge: ListEdge::Ancestor,
                name: "b",
                prescan: false
            }
        );
        // …as do horizontal scans…
        assert_eq!(
            step("/following::c", Engine::default()).lane_form(),
            LaneForm::Horiz(HorizAxis::Following)
        );
        // …and steps whose predicates lower to semijoins, chains
        // included…
        assert!(step("/descendant::a[b]", Engine::default()).batchable());
        assert!(step("/descendant::a[b/c]", Engine::default()).batchable());
        // …while nested-loop predicates, structural axes, and operators
        // without a multi-context form name the per-lane fallback.
        assert!(!step("/descendant::a[b/@id]", Engine::default()).batchable());
        assert!(!step("child::b", Engine::default()).batchable());
        assert!(!step("/descendant::b", Engine::naive()).batchable());
        assert!(!step("/descendant::b", Engine::sql().build().unwrap()).batchable());
    }

    #[test]
    fn explain_marks_batchable_steps() {
        let text = plan_for("/descendant::b/child::c", Engine::default()).to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("[lane]"), "{text}");
        assert!(!lines[1].contains("[lane]"), "{text}");
    }

    #[test]
    fn explain_marks_masked_node_tests() {
        // A plane scan carries its name test (no residual pass); the
        // structural step after it has no scan to ride, so its test is
        // applied through the mask kernels…
        let plan = plan_for("/descendant::b/child::c", Engine::default());
        let text = plan.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines[0].contains("apply-test"), "{text}");
        assert!(lines[1].contains("apply-test [mask]"), "{text}");
        let steps = plan.branches()[0].steps();
        assert_eq!(steps[0].test_operator(), TestOp::Fused);
        assert_eq!(steps[1].test_operator(), TestOp::ApplyTest);
        // …as is the naive join's and plain SQL's, but not SQL's early
        // name test, the horizontal and ancestor scans, or the fragment
        // join; and a node() step has no test to apply anywhere.
        let residual =
            |expr: &str, engine: Engine| plan_for(expr, engine).to_string().contains("[mask]");
        assert!(residual("/descendant::b", Engine::naive()));
        assert!(residual("/descendant::b", Engine::sql().build().unwrap()));
        let early = Engine::sql().early_nametest(true).build().unwrap();
        assert!(!residual("/descendant::b", early));
        assert!(!residual("/descendant::b/following::c", Engine::default()));
        assert!(!residual("/descendant::b/ancestor::*", Engine::default()));
        let fragmented = Engine::staircase().fragmented(true).build().unwrap();
        assert!(!residual("/descendant::b", fragmented));
        assert!(!residual("/descendant::node()", Engine::naive()));
    }

    #[test]
    fn twig_engine_fuses_eligible_regions() {
        // Two descendant name-test steps with vertical existential
        // predicates: one fused leapfrog step.
        let plan = plan_for("/descendant::a[b]/descendant::c", Engine::twig());
        let steps = plan.branches()[0].steps();
        assert_eq!(steps.len(), 1, "{plan}");
        let StepOp::Twig(spec) = steps[0].operator() else {
            panic!("expected a fused twig step, got {}", steps[0].operator());
        };
        assert_eq!(spec.spine.len(), 2);
        assert_eq!(spec.spine[0].name, "a");
        assert_eq!(spec.spine[0].chains, [[(TwigEdge::Child, "b".to_string())]]);
        assert_eq!(spec.spine[1].edge, TwigEdge::Descendant);
        // Fused output binding: no residual test or predicates.
        assert_eq!(steps[0].test_operator(), TestOp::Fused);
        assert!(steps[0].predicate_operators().is_empty());
        // The fused step needs the prebuilt fragments.
        assert!(plan.needs_tag_index());
    }

    #[test]
    fn twig_regions_stop_at_ineligible_steps() {
        // The ancestor step ends the region; the remaining steps run as
        // fragment joins under the twig engine.
        let plan = plan_for("/descendant::a/child::b/ancestor::c", Engine::twig());
        let planned_ops = ops(&plan);
        assert_eq!(planned_ops.len(), 2, "{plan}");
        assert!(matches!(planned_ops[0], StepOp::Twig(_)), "{plan}");
        assert_eq!(
            planned_ops[1],
            StepOp::Fragment { prescan: false },
            "{plan}"
        );
        // A lone eligible step is no region at all.
        let single = plan_for("/descendant::b", Engine::twig());
        assert_eq!(ops(&single), [StepOp::Fragment { prescan: false }]);
        // Positional ineligibility: a nested predicate blocks the chain.
        let nested = plan_for("/descendant::a[b[c]]/descendant::c", Engine::twig());
        assert!(
            !ops(&nested).iter().any(|op| matches!(op, StepOp::Twig(_))),
            "{nested}"
        );
    }

    #[test]
    fn twig_display_renders_leaf_paths() {
        let plan = plan_for(
            "/descendant::a[descendant::b]/descendant::c[child::d]",
            Engine::twig(),
        );
        let text = plan.to_string();
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.contains("twig[a>b, a>c.d]"), "{text}");
        // Chain-free spines render the spine itself.
        let bare = plan_for("/descendant::a/child::b", Engine::twig());
        assert!(bare.to_string().contains("twig[a.b]"), "{bare}");
    }

    #[test]
    fn auto_declines_twig_on_uniform_fixture() {
        // On the tiny uniform fixture the step plan's intermediates never
        // exceed the leapfrog frontier, so auto keeps stepping.
        let plan = plan_for("/descendant::a[b]/descendant::c", Engine::auto());
        assert!(
            !ops(&plan).iter().any(|op| matches!(op, StepOp::Twig(_))),
            "{plan}"
        );
    }

    #[test]
    fn twig_steps_are_per_lane() {
        let plan = plan_for("/descendant::a[b]/descendant::c", Engine::twig());
        let step = &plan.branches()[0].steps()[0];
        assert_eq!(step.lane_form(), LaneForm::PerLane);
        assert!(!step.batchable());
    }

    #[test]
    fn structural_axes_are_engine_independent() {
        for engine in [Engine::default(), Engine::naive(), Engine::auto()] {
            assert_eq!(
                ops(&plan_for("child::b/..", engine)),
                [StepOp::Structural, StepOp::Structural],
                "{engine:?}"
            );
        }
    }

    /// 200 `person`s with six children each, one of them a `profile`; a
    /// `regions` element beside them.
    fn people() -> (Doc, DocStats) {
        let person = "<person><name/><email/><phone/><address/><profile/><watches/></person>";
        let xml = format!(
            "<site><regions/><people>{}</people></site>",
            person.repeat(200)
        );
        let doc = Doc::from_xml(&xml).unwrap();
        let stats = DocStats::from_doc(&doc);
        (doc, stats)
    }

    #[test]
    fn auto_prices_a_child_name_step_as_a_fragment_join() {
        let (doc, stats) = people();
        let plan = |expr: &str, engine: Engine| {
            let parsed = normalize(&parse_union(expr).unwrap());
            plan_union(&parsed, &doc, &stats, engine, 1.0)
        };
        let fragment = StepOp::Fragment { prescan: false };
        // 200 context nodes with 1 200 children between them against a
        // 200-entry list: the join wins, under auto and adaptive alike.
        for engine in [Engine::auto(), Engine::adaptive()] {
            let p = plan("/descendant::person/child::profile", engine);
            assert_eq!(ops(&p), [fragment.clone(), fragment.clone()], "{p}");
            let child = &p.branches()[0].steps()[1];
            assert_eq!(child.test_operator(), TestOp::Fused);
            assert_eq!(
                child.lane_form(),
                LaneForm::Fragment {
                    edge: ListEdge::Child,
                    name: "profile",
                    prescan: false
                }
            );
            assert!(p.needs_tag_index());
            let text = p.to_string();
            assert_eq!(text.matches("op fragment").count(), 2, "{text}");
            assert!(!text.contains("apply-test"), "{text}");
        }
        // The structural price it beat: the hop over six children a
        // person (the per-tag fan-out, not the document's) plus the
        // filter pass over them.
        let person = doc.tag_id("person");
        assert_eq!(
            stats.structural_cost(Axis::Child, 200.0, person, true),
            2400.0
        );
        // The join's: one entry a person, no seek, the window lookup.
        let auto = plan("/descendant::person/child::profile", Engine::auto());
        let est = auto.branches()[0].steps()[1].estimate().cost;
        assert!((200.0..240.0).contains(&est), "{est}");
        // One context node with a handful of children, and every test
        // that is not a name, stay structural…
        for expr in [
            "/child::regions",
            "/child::people/child::person",
            "/descendant::person/child::node()",
            "/descendant::person/child::*",
            "/descendant::person/child::text()",
        ] {
            let p = plan(expr, Engine::auto());
            assert_eq!(ops(&p).last(), Some(&StepOp::Structural), "{expr}: {p}");
        }
        // …a name the dictionary lacks plans the empty prescan fragment,
        // as on the vertical axes…
        let absent = plan("/descendant::node()/child::nosuch", Engine::auto());
        assert_eq!(ops(&absent)[1], StepOp::Fragment { prescan: true });
        assert!(!path_needs_tags(&PathPlan {
            absolute: true,
            steps: vec![absent.branches()[0].steps()[1].clone()],
        }));
        // …and every fixed engine keeps `child` structural.
        let fragmented = Engine::staircase().fragmented(true).build().unwrap();
        let pushdown = Engine::staircase().pushdown(true).build().unwrap();
        for engine in [
            Engine::default(),
            pushdown,
            fragmented,
            Engine::naive(),
            Engine::sql().build().unwrap(),
            Engine::twig(),
        ] {
            let p = plan("/descendant::person/child::profile", engine);
            let last = p.branches()[0].steps().last().unwrap();
            if !matches!(last.operator(), StepOp::Twig(_)) {
                assert_eq!(last.operator(), &StepOp::Structural, "{engine:?}: {p}");
                assert!(p.to_string().contains("structural + apply-test [mask]"));
            }
        }
    }
}
