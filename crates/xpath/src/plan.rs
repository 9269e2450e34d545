//! Physical plans: the typed IR between parsing and execution.
//!
//! [`plan_union`] lowers a parsed [`UnionExpr`] into a [`PhysicalPlan`]:
//! per union branch, a pipeline of [`PlannedStep`]s, each carrying the
//! chosen join operator ([`StepOp`]), the node-test operator
//! ([`TestOp`]), the lowered predicate operators ([`PredOp`]), and the
//! cost model's estimates ([`StepEstimate`]). The evaluator
//! ([`crate::eval`]) is a pure interpreter of this IR and never
//! re-derives engine decisions at run time; the batch layer
//! ([`crate::batch`]) shares repeated steps by their path text, whatever
//! operator they were planned as.
//!
//! Fixed engines are trivial planning policies — every step lowers to
//! the operator that engine always uses, exactly reproducing the
//! pre-split dispatch (asserted by the cross-engine equivalence tests).
//! [`Engine::auto`] is the interesting policy: for every vertical step
//! it prices the candidate operators with
//! [`staircase_core::cost::DocStats`] — plain staircase join and
//! prebuilt tag fragment (§6) — and keeps the cheaper, the way
//! worst-case-optimal join systems pick per-variable strategies from
//! cardinality bounds. The Figure-3 SQL plan stays a fixed engine, the
//! paper's baseline, and is never a candidate.

use std::fmt;
use std::sync::Arc;

use staircase_accel::{Axis, Doc, TagId};
use staircase_core::cost::{DocStats, TwigLegCost};
use staircase_core::Variant;

use crate::ast::{NodeTest, Path, Predicate, Step, UnionExpr};
use crate::engine::{Engine, EngineKind};

#[cfg(test)]
thread_local! {
    /// Steps lowered by `plan_step` on this thread.
    static STEPS_PLANNED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

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

/// The on-list (fragment) join edge evaluated by `axis`, if any: the two
/// vertical axes, and `child`, which joins the same list slices with the
/// parent column as its keep test — a semijoin probe's three edges.
pub(crate) fn list_edge_of(axis: Axis) -> Option<SemijoinAxis> {
    match axis {
        Axis::Child => Some(SemijoinAxis::Child),
        _ => match part_axis_of(axis)? {
            PartAxis::Descendant => Some(SemijoinAxis::Descendant),
            PartAxis::Ancestor => Some(SemijoinAxis::Ancestor),
            PartAxis::Following | PartAxis::Preceding => None,
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
    /// Worst-case-optimal twig region: a run of descendant/child
    /// name-test steps whose predicates probe downward, fused into one
    /// multiway leapfrog intersection over the per-tag fragments
    /// ([`staircase_core::twig_match`]). The region is a
    /// [`SemijoinChain`]: its links are the spine legs, each link's
    /// predicates that leg's. The step binds the *last* leg only, in
    /// document order; no intermediate step result is ever materialized.
    Twig(Arc<SemijoinChain>),
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

    /// The pattern's root-to-leaf paths, comma-separated: `.` a child
    /// edge, `>` descendant, `^` ancestor (`a>b, a>c.d`).
    fn paths(&self) -> String {
        let mut paths = Vec::new();
        self.leaf_paths("", &mut paths);
        paths.join(", ")
    }

    /// Appends the pattern's root-to-leaf paths, each prefixed with
    /// `prefix`.
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
        write!(f, "semijoin[{}]", self.paths())
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

    /// Does executing this plan require the prebuilt tag-fragment index?
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

impl PlannedStep {
    /// The chosen join operator.
    pub fn operator(&self) -> &StepOp {
        &self.op
    }

    /// How the node test is applied: fused into the join (fragment and
    /// twig joins, SQL's early name test, every plane scan) or as a
    /// filter pass afterwards (naive, plain SQL, structural axes) — see
    /// [`TestOp`]. `--explain` prints `+ apply-test` for the latter
    /// only.
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
            StepOp::Twig(region) => write!(f, "twig[{}]", region.paths()),
        }
    }
}

impl fmt::Display for PlannedStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut ops = self.op.to_string();
        if self.test_op == TestOp::ApplyTest && !matches!(self.test, NodeTest::AnyNode) {
            // The operator has no scan for the test to ride: a residual
            // filter pass over its result (`ScanTest::select_candidates`).
            ops.push_str(" + apply-test");
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

/// Lowers a parsed union expression into a physical plan for `engine`.
pub(crate) fn plan_union(
    expr: &UnionExpr,
    doc: &Doc,
    stats: &DocStats,
    engine: Engine,
) -> PhysicalPlan {
    let policy = match engine.kind {
        EngineKind::Auto => Policy::Auto,
        EngineKind::Twig => Policy::Twig,
        kind => Policy::Fixed(kind),
    };
    PhysicalPlan {
        branches: expr
            .branches
            .iter()
            .map(|p| plan_path(p, doc, stats, policy, 1.0, true))
            .collect(),
    }
}

/// Lowers one location path. `in_rows`/`at_root` seed the cardinality
/// propagation: the session evaluates from the document root, so both
/// absolute and relative paths start with one context node.
///
/// Every step is planned once, in order, as it runs unfused; twig-capable
/// policies then fuse the twig regions of that plan (`plan_twig`). A
/// fused region's output rows are its last step's, and the next step's
/// inputs (rows, root, context tag) are the same whether or not the
/// region fuses, so no step is planned twice.
fn plan_path(
    path: &Path,
    doc: &Doc,
    stats: &DocStats,
    policy: Policy,
    in_rows: f64,
    at_root: bool,
) -> PathPlan {
    let (mut rows, mut root) = (in_rows, at_root);
    // The tag every context node of the next step is known to carry: the
    // name test of the step that produced them.
    let mut ctx_tag: Option<TagId> = None;
    // Per step: its plan and the rows its join hands its predicates.
    let mut planned = Vec::with_capacity(path.steps.len());
    for step in &path.steps {
        let (step_plan, joined) = plan_step(step, doc, stats, policy, rows, root, ctx_tag);
        rows = step_plan.estimate.rows;
        root = false;
        ctx_tag = element_tag(step, doc);
        planned.push((step_plan, joined));
    }
    let mut planned = planned.into_iter();
    let mut steps = Vec::with_capacity(path.steps.len());
    while planned.len() > 0 {
        let rest = &path.steps[path.steps.len() - planned.len()..];
        match plan_twig(rest, planned.as_slice(), doc, stats, policy) {
            Some((twig, len)) => {
                steps.push(twig);
                planned.nth(len - 1);
            }
            None => steps.extend(planned.next().map(|(step, _)| step)),
        }
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
/// at least two steps in [`semijoin_chain`]'s link form — the first on
/// the descendant axis, later ones descendant or child — whose
/// predicates all start downward (an upward first link is no probe the
/// leapfrog can run per binding). Returns `None` when no region starts
/// here; single eligible steps stay on the step-at-a-time operators,
/// which already touch no more than the twig would.
fn twig_region(steps: &[Step]) -> Option<SemijoinChain> {
    let links: Vec<ChainLink> = steps
        .iter()
        .enumerate()
        .map_while(|(i, step)| chain_link(step).filter(|link| is_twig_leg(link, i == 0)))
        .collect();
    (links.len() >= 2).then_some(SemijoinChain { links })
}

/// Can the leapfrog bind `link` as a spine leg? A child-axis *first* leg
/// would need the structural child dispatch; regions start on the
/// partitioning descendant axis so the fused step replaces a
/// partitioning join.
fn is_twig_leg(link: &ChainLink, first: bool) -> bool {
    let edge = match link.axis {
        SemijoinAxis::Descendant => true,
        SemijoinAxis::Child => !first,
        SemijoinAxis::Ancestor => false,
    };
    edge && link
        .preds
        .iter()
        .all(|p| p.axis() != SemijoinAxis::Ancestor)
}

/// Fuses the twig region starting at `steps[0]`, if one does, into one
/// [`StepOp::Twig`] step; returns it and the number of steps it
/// replaces. `planned` holds, per step, its step-at-a-time plan and the
/// rows its join hands its predicates. The last step's output rows
/// become the fused step's, so downstream estimates do not depend on the
/// fusion; the peak join rows — the largest intermediate the step plan
/// carries into its predicates — are what fusion saves. Returns `None`
/// under a fixed policy, and under [`Policy::Auto`] where that peak is
/// no more than the leapfrog's price:
/// [`DocStats::twig_frontier_cost`] plus reducing the legs' longer
/// predicate chains. Stepping through a uniform document is cheaper than
/// running one cursor per leg, so auto declines the fusion there.
fn plan_twig(
    steps: &[Step],
    planned: &[(PlannedStep, f64)],
    doc: &Doc,
    stats: &DocStats,
    policy: Policy,
) -> Option<(PlannedStep, usize)> {
    let region = matches!(policy, Policy::Twig | Policy::Auto)
        .then(|| twig_region(steps))
        .flatten()?;
    let len = region.links.len();
    let source = &steps[..len];
    let peak = planned[..len]
        .iter()
        .fold(0.0f64, |peak, (_, joined)| peak.max(*joined));
    let rows = planned[len - 1].0.estimate.rows;
    let legs: Vec<TwigLegCost> = region
        .links
        .iter()
        .map(|link| TwigLegCost {
            fragment: stats.fragment_size(doc, doc.tag_id(&link.name)),
            child_edge: link.axis == SemijoinAxis::Child,
            chains: link.preds.len(),
        })
        .collect();
    let reductions: f64 = region
        .links
        .iter()
        .flat_map(|link| &link.preds)
        .map(|pred| reduction_cost(pred, doc, stats, false))
        .sum();
    let frontier = stats.twig_frontier_cost(&legs) + reductions;
    if matches!(policy, Policy::Auto) && peak <= frontier {
        return None;
    }
    let rendered = source
        .iter()
        .map(Step::to_string)
        .collect::<Vec<_>>()
        .join("/");
    // The region as written, if normalisation rewrote any of its steps
    // (a rewritten step's origin carries its own leading slashes).
    let origin = source.iter().any(|s| s.origin.is_some()).then(|| {
        let written = |(i, step): (usize, &Step)| match &step.origin {
            Some(origin) => origin.clone(),
            None if i == 0 => step.to_string(),
            None => format!("/{step}"),
        };
        source.iter().enumerate().map(written).collect::<String>()
    });
    let test = NodeTest::Name(region.links[len - 1].name.clone());
    let planned = PlannedStep {
        // The fused step replaces the region's first (descendant-axis)
        // step in the pipeline; the evaluator dispatches it through the
        // partitioning path like any descendant step.
        axis: Axis::Descendant,
        test,
        op: StepOp::Twig(Arc::new(region)),
        test_op: TestOp::Fused,
        predicates: Vec::new(),
        estimate: StepEstimate {
            cost: frontier,
            rows,
        },
        rendered,
        origin,
    };
    Some((planned, len))
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

/// Lowers one step under `policy`; returns the planned step (whose
/// estimated rows feed the next step) and the rows its join hands its
/// predicates. `ctx_tag` is the tag the context nodes are known to
/// carry, if the previous step's name test says so.
fn plan_step(
    step: &Step,
    doc: &Doc,
    stats: &DocStats,
    policy: Policy,
    in_rows: f64,
    at_root: bool,
    ctx_tag: Option<TagId>,
) -> (PlannedStep, f64) {
    #[cfg(test)]
    STEPS_PLANNED.with(|n| n.set(n.get() + 1));
    let sel = test_selectivity(&step.test, doc, stats);
    let fragment = match &step.test {
        NodeTest::Name(name) => stats.fragment_size(doc, doc.tag_id(name)),
        _ => 0,
    };

    let (op, test_op, mut cost, mut rows) = match part_axis_of(step.axis) {
        Some(paxis) => {
            plan_partitioning(step, paxis, policy, stats, sel, fragment, in_rows, at_root)
        }
        None => plan_structural(step, policy, doc, stats, sel, in_rows, ctx_tag),
    };

    // Or-self merges the surviving context nodes back in.
    if matches!(step.axis, Axis::DescendantOrSelf | Axis::AncestorOrSelf) {
        rows += in_rows * sel;
    }

    // The classic existential-predicate guess: half the candidates
    // survive a predicate. A conjunction keeps no more than its most
    // selective leg, so the step's predicates together halve its rows
    // once (the minimum over the legs), not once each: the product of
    // independent guesses is what misprices correlated predicates. The
    // first predicate probes the step's rows, every later one the
    // survivors.
    let joined = rows;
    let mut predicates = Vec::with_capacity(step.predicates.len());
    let mut candidates = rows;
    for pred in &step.predicates {
        let Predicate::Exists(path) = pred;
        let (lowered, pred_cost) = plan_predicate(path, doc, stats, policy, candidates);
        cost += pred_cost;
        candidates = rows / 2.0;
        predicates.push(lowered);
    }
    if !predicates.is_empty() {
        rows /= 2.0;
    }

    let planned = PlannedStep {
        axis: step.axis,
        test: step.test.clone(),
        op,
        test_op,
        predicates,
        estimate: StepEstimate { cost, rows },
        rendered: step.to_string(),
        origin: step.origin.clone(),
    };
    (planned, joined)
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
    let desc = matches!(paxis, PartAxis::Descendant);
    let horiz = matches!(paxis, PartAxis::Following | PartAxis::Preceding);

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
        Policy::Fixed(kind) => fixed_op(kind, is_name, horiz),
        // Steps outside a fused region run as §6 fragment joins under
        // the twig engine.
        Policy::Twig => fixed_op(
            EngineKind::Fragmented {
                variant: Variant::EstimationSkipping,
            },
            is_name,
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
                choose_vertical(stats, in_rows, window, is_name, fragment)
            }
        }
    };

    let cost = price(&op);
    let test_op = TestOp::of(&op, is_name);
    (op, test_op, cost, base_rows)
}

/// The operator a fixed engine always uses for a partitioning step —
/// exactly the pre-split dispatch of the monolithic evaluator.
fn fixed_op(kind: EngineKind, is_name: bool, horiz: bool) -> StepOp {
    match kind {
        EngineKind::Staircase { variant, pushdown } => {
            if pushdown && is_name && !horiz {
                StepOp::Fragment { prescan: true }
            } else if horiz {
                StepOp::Horiz
            } else {
                StepOp::Staircase { variant }
            }
        }
        EngineKind::Fragmented { variant } => {
            if is_name && !horiz {
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

/// The operator [`Engine::auto`] runs a vertical step as: the plain
/// staircase join, or the prebuilt fragment join when the step tests a
/// name and the join is priced below the scan. `card` is the estimated
/// context cardinality and `window` the context window priced from it.
/// Ties keep the staircase join.
///
/// The Figure-3 SQL plan is no candidate: it scans every context node's
/// *unpruned* window and then sorts away the duplicates (§3), so it can
/// win only where it is mispriced.
fn choose_vertical(
    stats: &DocStats,
    card: f64,
    window: f64,
    is_name: bool,
    fragment: usize,
) -> StepOp {
    let staircase = StepOp::Staircase {
        variant: Variant::EstimationSkipping,
    };
    if !is_name {
        return staircase;
    }
    let scan = stats.staircase_cost(Variant::EstimationSkipping, card, window)
        + stats.apply_test_cost(window);
    if stats.fragment_cost(fragment, card, window, false) < scan {
        StepOp::Fragment { prescan: false }
    } else {
        staircase
    }
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
    policy: Policy,
    candidates: f64,
) -> (PredOp, f64) {
    let nested_loop = || {
        let sub = plan_path(path, doc, stats, policy, 1.0, false);
        let per_candidate: f64 = sub.steps.iter().map(|s| s.estimate.cost).sum();
        let cost = stats.nested_loop_cost(candidates, per_candidate, sub.steps.len());
        (PredOp::Filter(sub), cost)
    };
    // `Some(prebuilt)` for the engine families with a semijoin form.
    let family = match policy {
        Policy::Auto | Policy::Twig | Policy::Fixed(EngineKind::Fragmented { .. }) => Some(true),
        Policy::Fixed(EngineKind::Staircase { .. }) => Some(false),
        Policy::Fixed(_) => None,
    };
    let Some((prebuilt, chain)) = family.zip(semijoin_chain(path)) else {
        return nested_loop();
    };
    let priced = matches!(policy, Policy::Auto) && !chain.is_single();
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

/// The semijoin chain's price over `candidates`: their probe into the
/// reduced first-link list, plus the reduction.
fn chain_cost(
    chain: &SemijoinChain,
    doc: &Doc,
    stats: &DocStats,
    candidates: f64,
    prescan: bool,
) -> f64 {
    let first = stats.fragment_size(doc, doc.tag_id(&chain.links[0].name));
    stats.semijoin_cost(candidates, first, prescan) + reduction_cost(chain, doc, stats, prescan)
}

/// The price of reducing a chain to its first link's list, whoever
/// probes it: one [`DocStats::semijoin_cost`] per edge, each link's full
/// list probing the next link's (the reduction runs right to left, so no
/// list is smaller than its tag fragment when it is probed), and each
/// link's own predicates over that list. A one-link chain without
/// predicates is its tag's list: 0.
fn reduction_cost(chain: &SemijoinChain, doc: &Doc, stats: &DocStats, prescan: bool) -> f64 {
    let mut probing: Option<f64> = None;
    let mut cost = 0.0;
    for link in &chain.links {
        let fragment = stats.fragment_size(doc, doc.tag_id(&link.name));
        if let Some(probing) = probing {
            cost += stats.semijoin_cost(probing, fragment, prescan);
        }
        probing = Some(fragment as f64);
        for pred in &link.preds {
            cost += chain_cost(pred, doc, stats, fragment as f64, prescan);
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
    let links = path.steps.iter().map(chain_link).collect::<Option<_>>()?;
    Some(SemijoinChain { links })
}

/// One step's [`ChainLink`] form, if it has one.
fn chain_link(step: &Step) -> Option<ChainLink> {
    let axis = match step.axis {
        Axis::Descendant => SemijoinAxis::Descendant,
        Axis::Child => SemijoinAxis::Child,
        Axis::Ancestor => SemijoinAxis::Ancestor,
        _ => return None,
    };
    let NodeTest::Name(name) = &step.test else {
        return None;
    };
    let preds = step
        .predicates
        .iter()
        .map(|Predicate::Exists(inner)| semijoin_chain(inner))
        .collect::<Option<_>>()?;
    Some(ChainLink {
        axis,
        name: name.clone(),
        preds,
    })
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
        plan_union(&parsed, &doc, &stats, engine)
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
            plan_union(&parsed, &doc, &stats, Engine::auto())
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
    fn stacked_predicates_halve_the_rows_once() {
        let rows = |expr: &str| {
            plan_for(expr, Engine::auto()).branches()[0].steps()[0]
                .estimate()
                .rows
        };
        let bare = rows("/descendant::a");
        assert!(bare > 0.0);
        for k in [1, 2, 15] {
            let expr = format!("/descendant::a{}", "[b]".repeat(k));
            assert_eq!(rows(&expr), bare / 2.0, "{expr}");
        }
    }

    #[test]
    fn estimates_are_positive_and_ordered() {
        let (doc, stats) = fixture();
        let parsed = parse_union("/descendant::b").unwrap();
        let frag = plan_union(&parsed, &doc, &stats, Engine::auto());
        let naive = plan_union(&parsed, &doc, &stats, Engine::naive());
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
    fn explain_marks_masked_node_tests() {
        // A plane scan carries its name test (no residual pass); the
        // structural step after it has no scan to ride, so its test is
        // applied by a filter pass…
        let plan = plan_for("/descendant::b/child::c", Engine::default());
        let text = plan.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines[0].contains("apply-test"), "{text}");
        assert!(lines[1].contains("apply-test"), "{text}");
        let steps = plan.branches()[0].steps();
        assert_eq!(steps[0].test_operator(), TestOp::Fused);
        assert_eq!(steps[1].test_operator(), TestOp::ApplyTest);
        // …as is the naive join's and plain SQL's, but not SQL's early
        // name test, the horizontal and ancestor scans, or the fragment
        // join; and a node() step has no test to apply anywhere.
        let residual =
            |expr: &str, engine: Engine| plan_for(expr, engine).to_string().contains("apply-test");
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
        let StepOp::Twig(region) = steps[0].operator() else {
            panic!("expected a fused twig step, got {}", steps[0].operator());
        };
        assert_eq!(region.links.len(), 2);
        assert_eq!(region.links[0].name, "a");
        let [pred] = &region.links[0].preds[..] else {
            panic!("one predicate on the first leg: {plan}");
        };
        assert!(pred.is_single() && pred.axis() == SemijoinAxis::Child);
        assert_eq!(region.links[1].axis, SemijoinAxis::Descendant);
        // Fused output binding: no residual test or predicates.
        assert_eq!(steps[0].test_operator(), TestOp::Fused);
        assert!(steps[0].predicate_operators().is_empty());
        // The fused step needs the prebuilt fragments.
        assert!(plan.needs_tag_index());
        // A leg's predicate is any chain that starts downward: nested
        // predicates and inner upward links are reduced before the
        // leapfrog probes them.
        for (expr, rendered) in [
            ("/descendant::a[b[c]]/descendant::c", "twig[a.b.c, a>c]"),
            (
                "/descendant::a[descendant::c/ancestor::b]/child::b",
                "twig[a>c^b, a.b]",
            ),
        ] {
            let plan = plan_for(expr, Engine::twig());
            assert_eq!(ops(&plan).len(), 1, "{plan}");
            assert_eq!(ops(&plan)[0].to_string(), rendered, "{plan}");
        }
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
        // A predicate that starts upward is no probe the leapfrog can
        // run per binding: it ends the region.
        let upward = plan_for("/descendant::a[ancestor::x]/descendant::c", Engine::twig());
        assert!(
            !ops(&upward).iter().any(|op| matches!(op, StepOp::Twig(_))),
            "{upward}"
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

    /// The same region on two documents. On the skewed one 2 000 `a`s
    /// hold one `c` between them: the step plan carries every `a` into
    /// the next step, the leapfrog pivots on the lone `c`, and auto fuses.
    /// On the uniform fixture auto keeps stepping. Where no element
    /// carries the names, the peak is 0: auto steps, twig still fuses,
    /// and every estimate stays finite.
    #[test]
    fn auto_fuses_a_skewed_twig_and_declines_a_uniform_one() {
        let expr = "/descendant::a[b]/descendant::c[d]";
        let planned = |xml: &str, engine: Engine| {
            let doc = Doc::from_xml(xml).unwrap();
            let stats = DocStats::from_doc(&doc);
            plan_union(&parse_union(expr).unwrap(), &doc, &stats, engine)
        };
        let fused = |plan: &PhysicalPlan| matches!(ops(plan)[..], [StepOp::Twig(_)]);
        let skewed = format!(
            "<site>{}<a><b/><c><d/></c></a></site>",
            "<a><b/></a>".repeat(2000)
        );
        let plan = planned(&skewed, Engine::auto());
        assert!(fused(&plan), "{plan}");
        let step_rows = planned(&skewed, Engine::default()).branches()[0].steps()[1]
            .estimate()
            .rows;
        assert_eq!(plan.branches()[0].steps()[0].estimate().rows, step_rows);
        assert!(!fused(&plan_for(expr, Engine::auto())));
        let absent = "<site><x/></site>";
        assert!(!fused(&planned(absent, Engine::auto())));
        let forced = planned(absent, Engine::twig());
        assert!(fused(&forced), "{forced}");
        let estimate = forced.branches()[0].steps()[0].estimate();
        assert!(
            estimate.cost.is_finite() && estimate.rows >= 0.0,
            "{forced}"
        );
    }

    /// A twig region whose last leg nests the same region in its
    /// predicate, as deep as the parser allows. Auto declines every level
    /// (no element carries the names), and each of the query's steps is
    /// planned exactly once: deciding a fusion never replans the region.
    #[test]
    fn a_deeply_nested_twig_predicate_plans_each_step_once() {
        let depth = crate::parser::MAX_PREDICATE_DEPTH;
        let expr = format!(
            "/descendant::b/child::c{}{}",
            "[descendant::b/child::c".repeat(depth),
            "]".repeat(depth)
        );
        let doc = Doc::from_xml("<site><x/></site>").unwrap();
        let stats = DocStats::from_doc(&doc);
        let parsed = parse_union(&expr).unwrap();
        let before = STEPS_PLANNED.with(|n| n.get());
        let plan = plan_union(&parsed, &doc, &stats, Engine::auto());
        let planned = STEPS_PLANNED.with(|n| n.get()) - before;
        assert_eq!(planned, 2 * (depth + 1));
        assert!(!ops(&plan).iter().any(|op| matches!(op, StepOp::Twig(_))));
        // Forced, the outermost region fuses over the same nesting.
        let forced = plan_union(&parsed, &doc, &stats, Engine::twig());
        assert!(matches!(ops(&forced)[..], [StepOp::Twig(_)]), "{forced}");
    }

    #[test]
    fn twig_steps_are_per_lane() {
        let plan = plan_for("/descendant::a[b]/descendant::c", Engine::twig());
        // One fused step, evaluated on its lane alone.
        let step = &plan.branches()[0].steps()[0];
        assert!(matches!(step.operator(), StepOp::Twig(_)), "{plan}");
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
            plan_union(&parsed, &doc, &stats, engine)
        };
        let fragment = StepOp::Fragment { prescan: false };
        // 200 context nodes with 1 200 children between them against a
        // 200-entry list: the join wins, under auto and adaptive alike.
        for engine in [Engine::auto(), Engine::adaptive()] {
            let p = plan("/descendant::person/child::profile", engine);
            assert_eq!(ops(&p), [fragment.clone(), fragment.clone()], "{p}");
            let child = &p.branches()[0].steps()[1];
            assert_eq!(child.test_operator(), TestOp::Fused);
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
                assert!(p.to_string().contains("structural + apply-test"));
            }
        }
    }
}
