//! The sequential plan interpreter: the lane executor's per-lane
//! residue.
//!
//! Since the lane-native refactor, **all** evaluation enters through
//! the lane executor in [`crate::batch`] ([`Executor::run`], under
//! [`crate::Session::execute`]; single-query `run` is the K = 1 batch).
//! This module holds the [`Executor`] itself — the document paired with
//! whichever auxiliary structures the plans at hand require, resolved by
//! [`crate::Session`] against its caches — plus the *sequential* step
//! interpreter
//! ([`Executor::exec_step`]) that serves the genuinely unbatchable
//! residue: steps whose planned operator declares no multi-context form
//! (naive/SQL joins, twig steps, structural axes) and nested-loop
//! predicate evaluation. It makes no engine decisions: every step
//! arrives as a [`PlannedStep`] whose operator was chosen by
//! [`crate::plan`] (trivially, for fixed engines; cost-based, for
//! [`crate::Engine::auto`]), and the interpreter merely dispatches on
//! it. Everything below the session's resolution step is total: no
//! panics, no `unwrap`.

use std::sync::{Arc, Mutex};

use staircase_accel::{Axis, Context, Doc, NodeKind, Pre, TagId};
use staircase_baselines::{naive_step, SqlEngine, SqlPlanOptions};
use staircase_core::{
    ancestor_on_list, ancestor_tested, child_on_list,
    cost::{Calibrator, DocStats},
    descendant_on_list, descendant_tested, following_tested, has_ancestor_in, has_child_in,
    has_descendant_in, preceding_tested, twig_match, ChainStep, ScanTest, ScratchPool, SpineLeg,
    TagIndex, WorkerPool,
};

use crate::ast::NodeTest;
use crate::plan::{
    axis_of, list_edge_of, ListEdge, PartAxis, PathPlan, PlannedStep, PredOp, SemijoinAxis,
    SemijoinChain, StepOp, TwigSpec,
};

/// Per-step trace of an evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct StepTrace {
    /// Rendered step (`descendant::profile`).
    pub step: String,
    /// Rendered join operator that actually ran (`fragment`,
    /// `staircase(EstimationSkipping)`, …) — suffixed ` [replan]` when
    /// auto's executor switched it at a step boundary.
    pub op: String,
    /// Result size after node test and predicates.
    pub result_size: usize,
    /// Nodes/index entries the engine touched for this step.
    pub nodes_touched: u64,
    /// Tuples produced before duplicate elimination (naive/SQL engines;
    /// equals `result_size` for the staircase join, which never produces
    /// duplicates).
    pub tuples_produced: u64,
    /// Galloping cursor repositionings over sorted inputs: the fragment
    /// joins' moves of their list and context cursors
    /// ([`staircase_core::StepStats::seeks`]), the leapfrog twig
    /// operator's probes. Zero for the plane scans, whose movement is
    /// all sequential.
    pub seeks: u64,
    /// The cost model's estimate for this step at the moment it ran
    /// (re-priced by auto's executor when it switched operators).
    pub est_cost: f64,
    /// Did auto's re-planner switch this step's operator before
    /// running it?
    pub replanned: bool,
}

impl StepTrace {
    /// The step's observed cost in the cost model's unit: nodes/index
    /// entries touched plus cursor seeks — the runtime quantity the
    /// estimate ([`StepTrace::est_cost`]) tries to predict.
    pub fn observed_cost(&self) -> f64 {
        (self.nodes_touched + self.seeks) as f64
    }
}

/// Evaluation statistics: one trace per step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvalStats {
    /// Traces in evaluation order (predicate evaluations excluded).
    pub steps: Vec<StepTrace>,
}

impl EvalStats {
    /// Total nodes touched across steps.
    pub fn total_touched(&self) -> u64 {
        self.steps.iter().map(|s| s.nodes_touched).sum()
    }

    /// Total cursor seeks across steps (fragment joins and leapfrog twig
    /// steps; zero for plans made of plane scans only).
    pub fn total_seeks(&self) -> u64 {
        self.steps.iter().map(|s| s.seeks).sum()
    }

    /// Total duplicates generated (and removed) across steps.
    pub fn total_duplicates(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| s.tuples_produced.saturating_sub(s.result_size as u64))
            .sum()
    }
}

/// The plan interpreter: a document plus exactly the auxiliary
/// structures the plan at hand requires (resolved by
/// [`crate::Session`]).
pub(crate) struct Executor<'a> {
    pub(crate) doc: &'a Doc,
    /// Prebuilt per-tag fragments; `Some` whenever the plan contains a
    /// prebuilt fragment join or semijoin.
    pub(crate) tags: Option<&'a TagIndex>,
    /// The SQL baseline's B-tree; `Some` whenever the plan contains an
    /// SQL step.
    pub(crate) sql: Option<&'a SqlEngine>,
    /// The session's persistent worker pool; width 1 means fully
    /// sequential execution (no handoff anywhere on the path).
    pub(crate) pool: &'a WorkerPool,
    /// The session's sharded scratch pools: concurrent rounds and
    /// queries each sweep out their own shard.
    pub(crate) scratch: &'a ScratchPool,
    /// The session's cached document statistics; at evaluation time
    /// they price auto's re-planning and the pool fanout.
    pub(crate) stats: &'a DocStats,
    /// The session-lifetime cost calibrator: every twig step reports
    /// its real seek count here, and auto's re-planner prices
    /// through the fitted factors.
    pub(crate) calibrator: &'a Calibrator,
    /// The node lists this evaluation has derived so far.
    pub(crate) lists: Mutex<ListMemo>,
}

/// Node lists derived from the whole document — query-time selection
/// scans (`nametest(doc, n)`) and reduced semijoin chains — kept for the
/// length of one evaluation. Either costs a pass over the document or
/// over whole tag lists, so a predicate sub-plan interpreted once per
/// candidate must not repeat it: each is derived at most once per
/// evaluation and shared from here afterwards.
#[derive(Default)]
pub(crate) struct ListMemo {
    scans: Vec<(TagId, Arc<Vec<Pre>>)>,
    /// Keyed by the chain itself and its list source (`prebuilt`).
    chains: Vec<(SemijoinChain, bool, Arc<Vec<Pre>>)>,
}

/// A sorted per-tag node list, wherever it came from: borrowed from the
/// tag index, owned (a reduced semijoin chain), or shared with the
/// evaluation's memo ([`Executor::lists`]).
pub(crate) enum NodeList<'a> {
    Borrowed(&'a [Pre]),
    Owned(Vec<Pre>),
    Shared(Arc<Vec<Pre>>),
}

impl NodeList<'_> {
    fn into_vec(self) -> Vec<Pre> {
        match self {
            NodeList::Owned(list) => list,
            shared => shared.to_vec(),
        }
    }
}

impl std::ops::Deref for NodeList<'_> {
    type Target = [Pre];
    fn deref(&self) -> &[Pre] {
        match self {
            NodeList::Borrowed(list) => list,
            NodeList::Owned(list) => list,
            NodeList::Shared(list) => list,
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Whole-document selection scans run on this thread (regression
    /// proxy for the per-candidate rescan).
    pub(crate) static SCANS_RUN: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Semijoin-chain edges reduced on this thread (proxy for how often
    /// a chain shared by several lanes is actually evaluated).
    pub(crate) static EDGES_REDUCED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl<'a> Executor<'a> {
    /// Interprets one branch plan from an explicit context — the
    /// nested-loop predicate path ([`PredOp::Filter`] recurses into full
    /// path evaluation per candidate).
    fn run_branch(&self, branch: &PathPlan, context: &Context) -> Context {
        let mut ctx = if branch.absolute {
            Context::singleton(self.doc.root())
        } else {
            context.clone()
        };
        for step in &branch.steps {
            ctx = self.exec_step(&ctx, step).0;
        }
        ctx
    }

    /// Interprets one planned step (join, node test, predicates); also
    /// the per-lane fallback of the batch evaluator.
    pub(crate) fn exec_step(&self, ctx: &Context, step: &PlannedStep) -> (Context, StepTrace) {
        let (mut out, touched, produced, seeks) = self.exec_join_and_test(ctx, step);
        for pred in &step.predicates {
            out = self.exec_predicate(&out, pred);
        }
        let trace = StepTrace {
            step: step.rendered.clone(),
            op: rendered_op(step),
            result_size: out.len(),
            nodes_touched: touched,
            tuples_produced: produced.max(out.len() as u64),
            seeks,
            est_cost: step.estimate.cost,
            replanned: step.replanned,
        };
        (out, trace)
    }

    /// The prebuilt fragment index (resolved by the session whenever the
    /// plan calls for it; the scan fallback keeps this total even if a
    /// hand-built plan slips through without one).
    pub(crate) fn fragment_list(&self, name: &str) -> NodeList<'a> {
        match self.tags {
            Some(idx) => NodeList::Borrowed(idx.fragment_by_name(self.doc, name)),
            None => self.scan_list(name),
        }
    }

    /// The fragment entries a windowed on-list join can actually use: a
    /// subslice of the built fragment ([`TagIndex::fragment_window`]).
    ///
    /// The window is result-safe by the join kernels' own reasoning:
    /// the descendant and child joins only ever emit entries of the
    /// slices `(c, end(c)]`, all of which lie after the first context
    /// node; for the ancestor join, ancestors precede their context node
    /// in pre order, so `[0, max)` covers every probe.
    pub(crate) fn fragment_list_windowed(
        &self,
        name: &str,
        edge: ListEdge,
        contexts: &[&Context],
    ) -> NodeList<'a> {
        let Some(idx) = self.tags else {
            return self.scan_list(name);
        };
        let Some(tag) = self.doc.tag_id(name) else {
            return NodeList::Borrowed(&[]);
        };
        let window = match edge {
            ListEdge::Descendant | ListEdge::Child => contexts
                .iter()
                .filter_map(|c| c.as_slice().first())
                .min()
                .map(|&first| idx.fragment_window(tag, first + 1, Pre::MAX)),
            ListEdge::Ancestor => contexts
                .iter()
                .filter_map(|c| c.as_slice().last())
                .max()
                .map(|&last| idx.fragment_window(tag, 0, last)),
        };
        NodeList::Borrowed(window.unwrap_or(&[]))
    }

    /// `nametest(doc, name)` as a query-time selection scan, run at
    /// most once per name per evaluation ([`Executor::lists`]).
    pub(crate) fn scan_list(&self, name: &str) -> NodeList<'a> {
        let Some(tag) = self.doc.tag_id(name) else {
            return NodeList::Borrowed(&[]);
        };
        // Held across the scan: a sibling task after the same name
        // waits for this scan instead of repeating it.
        let mut memo = self.lists.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, list)) = memo.scans.iter().find(|(t, _)| *t == tag) {
            return NodeList::Shared(Arc::clone(list));
        }
        #[cfg(test)]
        SCANS_RUN.with(|n| n.set(n.get() + 1));
        let list = Arc::new(self.doc.elements_with_tag(tag));
        memo.scans.push((tag, Arc::clone(&list)));
        NodeList::Shared(list)
    }

    /// The list a semijoin predicate's candidates are probed against:
    /// the chain's first link's nodes, reduced leaf to root so that
    /// only those with a complete match below (or above) them remain.
    /// For a one-step predicate that is the tag's list itself.
    ///
    /// Right to left, `reduced_i` keeps the nodes of link `i`'s list
    /// that have a `reduced_{i+1}` node on link `i + 1`'s axis and pass
    /// link `i`'s own predicates — one semijoin per edge, every list
    /// resolved once, nothing done per candidate, and the result kept
    /// for the rest of the evaluation ([`Executor::lists`]). Shared by
    /// the sequential interpreter and the lane executor.
    pub(crate) fn semijoin_list(&self, chain: &SemijoinChain, prebuilt: bool) -> NodeList<'a> {
        let link_list = |name: &str| {
            if prebuilt {
                self.fragment_list(name)
            } else {
                self.scan_list(name)
            }
        };
        if chain.is_single() {
            return link_list(&chain.links[0].name);
        }
        // The lock is not held across the reduction, which re-enters
        // for nested predicates; two tasks racing on one chain both
        // reduce it, to the same list.
        {
            let memo = self.lists.lock().unwrap_or_else(|e| e.into_inner());
            let known = memo
                .chains
                .iter()
                .find(|(c, p, _)| *p == prebuilt && c == chain);
            if let Some((_, _, list)) = known {
                return NodeList::Shared(Arc::clone(list));
            }
        }
        let mut next: Option<(SemijoinAxis, NodeList<'a>)> = None;
        for link in chain.links.iter().rev() {
            let mut list = link_list(&link.name);
            if let Some((axis, reduced)) = next.take() {
                list = self.keep_with(axis, list, &reduced);
            }
            for pred in &link.preds {
                let reduced = self.semijoin_list(pred, prebuilt);
                list = self.keep_with(pred.axis(), list, &reduced);
            }
            let exhausted = list.is_empty();
            next = Some((link.axis, list));
            if exhausted {
                break; // nothing left to witness any link above this one
            }
        }
        let reduced = Arc::new(next.map_or_else(Vec::new, |(_, list)| list.into_vec()));
        self.lists
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .chains
            .push((chain.clone(), prebuilt, Arc::clone(&reduced)));
        NodeList::Shared(reduced)
    }

    /// The nodes of `list` with a node of `witnesses` on `axis`.
    fn keep_with(&self, axis: SemijoinAxis, list: NodeList<'a>, witnesses: &[Pre]) -> NodeList<'a> {
        #[cfg(test)]
        EDGES_REDUCED.with(|n| n.set(n.get() + 1));
        if list.is_empty() || witnesses.is_empty() {
            return NodeList::Borrowed(&[]);
        }
        let nodes = Context::from_sorted(list.into_vec());
        NodeList::Owned(self.probe(axis, &nodes, witnesses).into_vec())
    }

    /// One sequential semijoin probe.
    fn probe(&self, axis: SemijoinAxis, candidates: &Context, list: &[Pre]) -> Context {
        match axis {
            SemijoinAxis::Descendant => has_descendant_in(self.doc, candidates, list),
            SemijoinAxis::Child => has_child_in(self.doc, candidates, list),
            SemijoinAxis::Ancestor => has_ancestor_in(self.doc, candidates, list),
        }
        .0
    }

    /// Applies the node test to an **owned** intermediate sequence:
    /// the survivors land in a buffer swept out of the session scratch
    /// pool and the input's allocation is recycled back into it, so
    /// steady-state filtering allocates nothing.
    fn test_pooled(&self, base: Context, test: &NodeTest, axis: Axis) -> Context {
        if matches!(test, NodeTest::AnyNode) {
            return base;
        }
        self.scratch.with(|s| {
            let mut buf = s.take();
            apply_test_into(self.doc, &base, test, axis, &mut buf);
            s.recycle(base);
            Context::from_sorted(buf)
        })
    }

    /// Executes one lowered predicate against the candidate set.
    fn exec_predicate(&self, candidates: &Context, pred: &PredOp) -> Context {
        match pred {
            PredOp::Semijoin { chain, prebuilt } => {
                let list = self.semijoin_list(chain, *prebuilt);
                self.probe(chain.axis(), candidates, &list)
            }
            PredOp::Filter(sub) => Context::from_sorted(
                candidates
                    .iter()
                    .filter(|&v| !self.run_branch(sub, &Context::singleton(v)).is_empty())
                    .collect::<Vec<Pre>>(),
            ),
        }
    }

    /// Executes the step's join operator and node test; returns
    /// (result, nodes touched, tuples produced before dedup, seeks).
    fn exec_join_and_test(&self, ctx: &Context, step: &PlannedStep) -> (Context, u64, u64, u64) {
        let doc = self.doc;
        match step.axis {
            Axis::Descendant => self.partitioning(ctx, PartAxis::Descendant, step),
            Axis::Ancestor => self.partitioning(ctx, PartAxis::Ancestor, step),
            Axis::Following => self.partitioning(ctx, PartAxis::Following, step),
            Axis::Preceding => self.partitioning(ctx, PartAxis::Preceding, step),
            Axis::DescendantOrSelf => {
                let (base, touched, produced, seeks) =
                    self.partitioning(ctx, PartAxis::Descendant, step);
                let selves = apply_test(doc, ctx, &step.test, Axis::SelfAxis);
                (merge(&base, &selves), touched, produced, seeks)
            }
            Axis::AncestorOrSelf => {
                let (base, touched, produced, seeks) =
                    self.partitioning(ctx, PartAxis::Ancestor, step);
                let selves = apply_test(doc, ctx, &step.test, Axis::SelfAxis);
                (merge(&base, &selves), touched, produced, seeks)
            }
            Axis::SelfAxis => {
                let out = apply_test(doc, ctx, &step.test, Axis::SelfAxis);
                (out, ctx.len() as u64, 0, 0)
            }
            Axis::Parent => {
                let mut parents: Vec<Pre> = ctx
                    .iter()
                    .map(|c| doc.parent(c))
                    .filter(|&p| p != staircase_accel::NO_PARENT)
                    .collect();
                parents.sort_unstable();
                parents.dedup();
                let out = self.test_pooled(Context::from_sorted(parents), &step.test, Axis::Parent);
                (out, ctx.len() as u64, 0, 0)
            }
            Axis::Child => {
                // Planned as an on-list join (auto, `child::name`)?
                if let Some(joined) = self.fragment_join(ctx, step) {
                    return joined;
                }
                // Per-context children via subtree jumps: O(Σ #children),
                // not O(|doc|). Nested context nodes can interleave their
                // child ranges, so sort afterwards (children sets are
                // disjoint — every node has one parent — so no dedup).
                let mut kids: Vec<Pre> = Vec::new();
                let mut touched = 0u64;
                for c in ctx.iter() {
                    for child in doc.children(c) {
                        touched += 1;
                        if doc.kind(child) != NodeKind::Attribute {
                            kids.push(child);
                        }
                    }
                }
                kids.sort_unstable();
                let out = self.test_pooled(Context::from_sorted(kids), &step.test, Axis::Child);
                (out, touched, 0, 0)
            }
            Axis::Attribute => {
                let mut attrs = Vec::new();
                let mut touched = 0u64;
                for c in ctx.iter() {
                    let mut v = c + 1;
                    while (v as usize) < doc.len() && doc.kind(v) == NodeKind::Attribute {
                        touched += 1;
                        if doc.parent(v) == c {
                            attrs.push(v);
                        }
                        v += 1;
                    }
                }
                let out =
                    self.test_pooled(Context::from_sorted(attrs), &step.test, Axis::Attribute);
                (out, touched, 0, 0)
            }
            Axis::FollowingSibling | Axis::PrecedingSibling => {
                // Per parent, the extremal context child bounds the sibling
                // range.
                use std::collections::HashMap;
                let mut extremal: HashMap<Pre, Pre> = HashMap::new();
                for c in ctx.iter() {
                    let p = doc.parent(c);
                    if p == staircase_accel::NO_PARENT {
                        continue;
                    }
                    let e = extremal.entry(p).or_insert(c);
                    if step.axis == Axis::FollowingSibling {
                        *e = (*e).min(c);
                    } else {
                        *e = (*e).max(c);
                    }
                }
                let mut sibs = Vec::new();
                let mut touched = 0u64;
                for v in doc.pres() {
                    touched += 1;
                    if doc.kind(v) == NodeKind::Attribute {
                        continue;
                    }
                    let p = doc.parent(v);
                    let Some(&e) = extremal.get(&p) else { continue };
                    let hit = if step.axis == Axis::FollowingSibling {
                        v > e
                    } else {
                        v < e
                    };
                    if hit {
                        sibs.push(v);
                    }
                }
                let out = self.test_pooled(Context::from_sorted(sibs), &step.test, step.axis);
                (out, touched, 0, 0)
            }
        }
    }

    /// Executes a partitioning-axis step with the planned operator.
    fn partitioning(
        &self,
        ctx: &Context,
        paxis: PartAxis,
        step: &PlannedStep,
    ) -> (Context, u64, u64, u64) {
        let doc = self.doc;
        match step.op {
            // The planner only emits fragment joins for name-tested
            // steps; anything else falls through to the plain join so a
            // hand-built plan stays total.
            StepOp::Fragment { .. } => self.fragment_join(ctx, step).unwrap_or_else(|| {
                self.plain_staircase(ctx, paxis, step, staircase_core::Variant::default())
            }),
            StepOp::Staircase { variant } => self.plain_staircase(ctx, paxis, step, variant),
            // The horizontal scan ignores the variant: pruning collapses
            // the context to one node and the region is contiguous.
            StepOp::Horiz => {
                self.plain_staircase(ctx, paxis, step, staircase_core::Variant::default())
            }
            StepOp::Naive | StepOp::Structural => {
                // Structural never reaches a partitioning axis from the
                // planner; route it through the naive region scan so a
                // hand-built plan still evaluates correctly.
                let (base, stats) = naive_step(doc, ctx, axis_of(paxis));
                let out = self.test_pooled(base, &step.test, axis_of(paxis));
                (out, stats.nodes_scanned, stats.tuples_produced, 0)
            }
            StepOp::Sql {
                eq1_window,
                early_nametest,
            } => {
                let pushed_tag = match (early_nametest, &step.test) {
                    (true, NodeTest::Name(name)) => doc.tag_id(name),
                    _ => None,
                };
                if early_nametest && matches!(step.test, NodeTest::Name(_)) && pushed_tag.is_none()
                {
                    // Name never occurs in the document: empty result.
                    return (Context::empty(), 0, 0, 0);
                }
                let Some(sql) = self.sql else {
                    // Resolution always provides the B-tree for SQL plans;
                    // stay total for hand-built plans.
                    let (base, stats) = naive_step(doc, ctx, axis_of(paxis));
                    let out = self.test_pooled(base, &step.test, axis_of(paxis));
                    return (out, stats.nodes_scanned, stats.tuples_produced, 0);
                };
                let opts = SqlPlanOptions {
                    eq1_window,
                    early_nametest: pushed_tag,
                };
                let (base, stats) = sql.axis_step(ctx, axis_of(paxis), opts);
                let out = if pushed_tag.is_some() {
                    base
                } else {
                    self.test_pooled(base, &step.test, axis_of(paxis))
                };
                (out, stats.index_entries_scanned, stats.tuples_produced, 0)
            }
            StepOp::Twig(ref spec) => {
                // The planner only emits twig steps on the descendant
                // axis; any other pairing (hand-built plan) falls back
                // to the plain join plus the step's residual test.
                if paxis != PartAxis::Descendant {
                    return self.plain_staircase(
                        ctx,
                        paxis,
                        step,
                        staircase_core::Variant::default(),
                    );
                }
                self.twig_step(ctx, spec, step.estimate.cost)
            }
        }
    }

    /// The step's on-list join, if it is planned as one: a
    /// [`StepOp::Fragment`] over a name test on an axis with a list edge.
    fn fragment_join(&self, ctx: &Context, step: &PlannedStep) -> Option<(Context, u64, u64, u64)> {
        let StepOp::Fragment { prescan } = step.op else {
            return None;
        };
        let (Some(edge), NodeTest::Name(name)) = (list_edge_of(step.axis), &step.test) else {
            return None;
        };
        Some(if prescan {
            // nametest(doc, n) selection scan at query time; its cost is
            // the whole plane (§4.4) — except for names absent from the
            // dictionary, where no scan runs.
            let scan_cost = if self.doc.tag_id(name).is_some() {
                self.doc.len() as u64
            } else {
                0
            };
            let list = self.scan_list(name);
            on_list_join(self.doc, edge, &list, ctx, scan_cost)
        } else {
            let list = self.fragment_list_windowed(name, edge, &[ctx]);
            on_list_join(self.doc, edge, &list, ctx, 0)
        })
    }

    /// Executes a fused twig region: resolves one sorted list per spine
    /// leg and chain step (prebuilt fragments when the session provides
    /// the index, selection scans otherwise) and hands them to the
    /// multiway leapfrog intersection [`staircase_core::twig_match`].
    /// The result is the output (last) leg's binding in document order.
    fn twig_step(&self, ctx: &Context, spec: &TwigSpec, est_cost: f64) -> (Context, u64, u64, u64) {
        let mut leg_lists = Vec::with_capacity(spec.spine.len());
        let mut chain_lists = Vec::with_capacity(spec.spine.len());
        for leg in &spec.spine {
            leg_lists.push(self.fragment_list(&leg.name));
            let per_leg: Vec<Vec<NodeList<'a>>> = leg
                .chains
                .iter()
                .map(|chain| chain.iter().map(|(_, n)| self.fragment_list(n)).collect())
                .collect();
            chain_lists.push(per_leg);
        }
        let spine: Vec<SpineLeg<'_>> = spec
            .spine
            .iter()
            .enumerate()
            .map(|(i, leg)| SpineLeg {
                edge: leg.edge,
                list: &leg_lists[i],
                chains: leg
                    .chains
                    .iter()
                    .enumerate()
                    .map(|(j, chain)| {
                        chain
                            .iter()
                            .enumerate()
                            .map(|(k, (edge, _))| ChainStep {
                                edge: *edge,
                                list: &chain_lists[i][j][k],
                            })
                            .collect()
                    })
                    .collect(),
            })
            .collect();
        let (out, stats) = twig_match(self.doc, &spine, ctx);
        // Session-lifetime feedback: fold this step's *actual* seek
        // count against the frontier cost the planner predicted, so
        // later twig-vs-step decisions price from measured constants.
        self.calibrator.observe_twig(est_cost, stats.seeks);
        (out, stats.nodes_touched(), 0, stats.seeks)
    }

    /// The serial staircase join over the whole plane, the step's node
    /// test riding the scan.
    fn plain_staircase(
        &self,
        ctx: &Context,
        paxis: PartAxis,
        step: &PlannedStep,
        variant: staircase_core::Variant,
    ) -> (Context, u64, u64, u64) {
        let doc = self.doc;
        let test = scan_test(doc, &step.test, axis_of(paxis));
        let (out, stats) = match paxis {
            PartAxis::Descendant => descendant_tested(doc, ctx, variant, &test),
            PartAxis::Ancestor => ancestor_tested(doc, ctx, variant, &test),
            PartAxis::Following => following_tested(doc, ctx, &test),
            PartAxis::Preceding => preceding_tested(doc, ctx, &test),
        };
        (out, stats.nodes_touched(), 0, 0)
    }
}

/// The trace's rendered operator: the planned operator, suffixed with
/// the `[replan]` marker when auto's executor switched it.
pub(crate) fn rendered_op(step: &PlannedStep) -> String {
    if step.replanned {
        format!("{} [replan]", step.op)
    } else {
        step.op.to_string()
    }
}

/// The on-list (fragment) join of one edge with its name-test scan cost
/// folded in.
fn on_list_join(
    doc: &Doc,
    edge: ListEdge,
    list: &[Pre],
    ctx: &Context,
    scan_cost: u64,
) -> (Context, u64, u64, u64) {
    let (out, stats) = match edge {
        ListEdge::Descendant => descendant_on_list(doc, list, ctx),
        ListEdge::Ancestor => ancestor_on_list(doc, list, ctx),
        ListEdge::Child => child_on_list(doc, list, ctx),
    };
    (out, stats.nodes_touched() + scan_cost, 0, stats.seeks)
}

/// The principal node kind of an axis (attributes for `attribute::`,
/// elements everywhere else).
fn principal_kind(axis: Axis) -> NodeKind {
    if axis == Axis::Attribute {
        NodeKind::Attribute
    } else {
        NodeKind::Element
    }
}

/// Compiles a step's node test against the document: the
/// [`ScanTest`] a plane scan carries, or a candidate list is filtered
/// through. Names compare as interned ids — one dictionary lookup per
/// step instead of one string comparison per node; a
/// processing-instruction target is interned like any name. `node()`
/// compiles to the partitioning axes' `kind != Attribute`, so the
/// candidate-list callers (whose lists may *be* attributes) keep
/// `node()` to themselves.
pub(crate) fn scan_test<'d>(doc: &'d Doc, test: &NodeTest, axis: Axis) -> ScanTest<'d> {
    match test {
        NodeTest::AnyNode => ScanTest::node(doc),
        NodeTest::Name(name) => ScanTest::named(doc, principal_kind(axis), name),
        NodeTest::AnyPrincipal => ScanTest::kind(doc, principal_kind(axis)),
        NodeTest::Text => ScanTest::kind(doc, NodeKind::Text),
        NodeTest::Comment => ScanTest::kind(doc, NodeKind::Comment),
        NodeTest::Pi(None) => ScanTest::kind(doc, NodeKind::Pi),
        NodeTest::Pi(Some(target)) => ScanTest::named(doc, NodeKind::Pi, target),
    }
}

/// Applies a node test to a candidate list — the residual filter of the
/// operators with no scan for the test to ride (naive, plain SQL,
/// structural axes, an or-self step's context nodes) — appending the
/// survivors to `out` (cleared first): gathered column loads, 64
/// candidates per mask word ([`ScanTest::select_candidates`]).
pub(crate) fn apply_test_into(
    doc: &Doc,
    ctx: &Context,
    test: &NodeTest,
    axis: Axis,
    out: &mut Vec<Pre>,
) {
    out.clear();
    match test {
        NodeTest::AnyNode => out.extend_from_slice(ctx.as_slice()),
        _ => scan_test(doc, test, axis).select_candidates(ctx.as_slice(), out),
    }
}

/// Applies a node test to a node sequence into a fresh allocation; the
/// executor's hot paths go through [`Executor::test_pooled`] instead,
/// which draws the buffer from the session scratch pool.
pub(crate) fn apply_test(doc: &Doc, ctx: &Context, test: &NodeTest, axis: Axis) -> Context {
    // node() keeps everything: one memcpy instead of a per-node loop.
    if matches!(test, NodeTest::AnyNode) {
        return ctx.clone();
    }
    let mut out = Vec::new();
    apply_test_into(doc, ctx, test, axis, &mut out);
    Context::from_sorted(out)
}

/// Merges two sorted, duplicate-free sequences.
pub(crate) fn merge(a: &Context, b: &Context) -> Context {
    let (a, b) = (a.as_slice(), b.as_slice());
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    Context::from_sorted(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::session::{QueryOutput, Session};
    use staircase_accel::NodeKind;
    use staircase_core::Variant;

    fn figure1() -> Doc {
        Doc::from_xml("<a><b><c/></b><d/><e><f><g/><h/></f><i><j/></i></e></a>").unwrap()
    }

    fn auction_doc() -> Doc {
        Doc::from_xml(
            "<site><open_auctions>\
             <open_auction id='a0'><bidder><increase>1</increase></bidder>\
             <bidder><increase>2</increase></bidder></open_auction>\
             <open_auction id='a1'><bidder><date/></bidder></open_auction>\
             </open_auctions>\
             <people><person id='p0'><profile><education>College</education></profile></person>\
             <person id='p1'><profile/></person></people></site>",
        )
        .unwrap()
    }

    fn engines() -> [Engine; 7] {
        [
            Engine::staircase().variant(Variant::Basic).build().unwrap(),
            Engine::staircase()
                .variant(Variant::EstimationSkipping)
                .build()
                .unwrap(),
            Engine::staircase().pushdown(true).build().unwrap(),
            Engine::staircase().fragmented(true).build().unwrap(),
            Engine::naive(),
            Engine::sql()
                .eq1_window(true)
                .early_nametest(true)
                .build()
                .unwrap(),
            Engine::auto(),
        ]
    }

    /// `expr` evaluated from the single context node `pre`.
    fn from(session: &Session, expr: &str, pre: Pre) -> QueryOutput {
        let query = session.prepare(expr).unwrap();
        let context = Context::singleton(pre);
        session
            .execute(&[(&query, None)], Engine::default(), Some(&context))
            .remove(0)
            .unwrap()
    }

    fn names(doc: &Doc, ctx: &Context) -> Vec<String> {
        ctx.iter()
            .map(|v| doc.tag_name(v).unwrap_or("#text").to_string())
            .collect()
    }

    #[test]
    fn q1_on_auction_doc_all_engines() {
        let session = Session::new(auction_doc());
        for engine in engines() {
            let out = session
                .run("/descendant::profile/descendant::education", engine)
                .unwrap();
            assert_eq!(
                names(session.doc(), out.nodes()),
                ["education"],
                "{engine:?}"
            );
        }
    }

    #[test]
    fn q2_on_auction_doc_all_engines() {
        let session = Session::new(auction_doc());
        for engine in engines() {
            let out = session
                .run("/descendant::increase/ancestor::bidder", engine)
                .unwrap();
            assert_eq!(out.len(), 2, "{engine:?}");
            assert_eq!(
                names(session.doc(), out.nodes()),
                ["bidder", "bidder"],
                "{engine:?}"
            );
        }
    }

    #[test]
    fn q2_rewrite_equivalence() {
        // §4.4: /descendant::increase/ancestor::bidder ≡
        // /descendant::bidder[descendant::increase].
        let session = Session::new(auction_doc());
        let direct = session
            .prepare("/descendant::increase/ancestor::bidder")
            .unwrap();
        let rewrite = session
            .prepare("/descendant::bidder[descendant::increase]")
            .unwrap();
        for engine in engines() {
            assert_eq!(
                direct.run(engine).nodes(),
                rewrite.run(engine).nodes(),
                "{engine:?}"
            );
        }
    }

    #[test]
    fn figure3_following_descendant() {
        let session = Session::new(figure1());
        // (c)/following/descendant — but the session's default context is
        // the root, so phrase it as a path from c.
        let out = from(&session, "following::node()/descendant::node()", 2);
        assert_eq!(names(session.doc(), out.nodes()), ["f", "g", "h", "i", "j"]);
    }

    #[test]
    fn child_and_parent_axes() {
        let session = Session::new(figure1());
        let out = from(&session, "child::node()", 4);
        assert_eq!(names(session.doc(), out.nodes()), ["f", "i"]);
        let out = from(&session, "..", 5);
        assert_eq!(names(session.doc(), out.nodes()), ["e"]);
    }

    #[test]
    fn or_self_axes() {
        let session = Session::new(figure1());
        let out = from(&session, "ancestor-or-self::node()", 6);
        assert_eq!(names(session.doc(), out.nodes()), ["a", "e", "f", "g"]);
        let out = from(&session, "descendant-or-self::node()", 5);
        assert_eq!(names(session.doc(), out.nodes()), ["f", "g", "h"]);
    }

    #[test]
    fn sibling_axes() {
        let session = Session::new(figure1());
        let out = from(&session, "following-sibling::node()", 1);
        assert_eq!(names(session.doc(), out.nodes()), ["d", "e"]);
        let out = from(&session, "preceding-sibling::node()", 4);
        assert_eq!(names(session.doc(), out.nodes()), ["b", "d"]);
    }

    #[test]
    fn attribute_axis_and_abbreviation() {
        let session = Session::new(auction_doc());
        let out = session
            .run("/descendant::person/@id", Engine::default())
            .unwrap();
        assert_eq!(out.len(), 2);
        for v in &out {
            assert_eq!(session.doc().kind(v), NodeKind::Attribute);
            assert_eq!(session.doc().tag_name(v), Some("id"));
        }
    }

    #[test]
    fn double_slash_everything() {
        let session = Session::new(auction_doc());
        for engine in engines() {
            let out = session.run("//bidder", engine).unwrap();
            assert_eq!(out.len(), 3, "{engine:?}");
        }
    }

    #[test]
    fn text_node_test() {
        let session = Session::new(auction_doc());
        let out = session
            .run("/descendant::increase/child::text()", Engine::default())
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(session.doc().content(out.nodes().as_slice()[0]), Some("1"));
    }

    #[test]
    fn star_matches_elements_only() {
        let session = Session::parse_xml("<a x='1'>text<b/><!--c--></a>").unwrap();
        let out = session.run("/descendant::*", Engine::default()).unwrap();
        assert_eq!(out.len(), 1); // only <b>
    }

    #[test]
    fn stats_track_steps() {
        let session = Session::new(auction_doc());
        let out = session
            .run("/descendant::increase/ancestor::bidder", Engine::default())
            .unwrap();
        assert_eq!(out.stats().steps.len(), 2);
        assert_eq!(out.stats().steps[0].step, "descendant::increase");
        assert!(out.stats().total_touched() > 0);
        // Staircase join never generates duplicates.
        assert_eq!(out.stats().total_duplicates(), 0);
    }

    #[test]
    fn naive_engine_reports_duplicates() {
        let session = Session::new(auction_doc());
        let out = session
            .run("/descendant::increase/ancestor::node()", Engine::naive())
            .unwrap();
        assert!(out.stats().total_duplicates() > 0);
    }

    #[test]
    fn unknown_name_yields_empty() {
        let session = Session::new(figure1());
        for engine in engines() {
            let out = session.run("/descendant::zzz", engine).unwrap();
            assert!(out.is_empty(), "{engine:?}");
        }
    }

    #[test]
    fn parse_errors_propagate() {
        let session = Session::new(figure1());
        assert!(session.run("///", Engine::default()).is_err());
        assert!(session.prepare("//[").is_err());
    }

    #[test]
    fn engines_agree_on_composite_query() {
        let session = Session::new(auction_doc());
        let query = session
            .prepare("//open_auction[bidder/increase]/@id")
            .unwrap();
        let reference = query.run(Engine::naive());
        assert_eq!(reference.len(), 1);
        for engine in engines() {
            let out = query.run(engine);
            assert_eq!(out.nodes(), reference.nodes(), "{engine:?}");
        }
    }

    /// Whole-document selection scans one run of `expr` performs on a
    /// width-1 session (scans run on the calling thread there).
    fn scans_run(session: &Session, expr: &str, engine: Engine) -> (usize, usize) {
        let query = session.prepare(expr).unwrap();
        let before = SCANS_RUN.with(|n| n.get());
        let out = query.run(engine);
        (SCANS_RUN.with(|n| n.get()) - before, out.len())
    }

    #[test]
    fn predicate_lists_are_scanned_once_not_once_per_candidate() {
        // Six candidates, every one with a matching bidder.
        let xml = format!(
            "<site>{}</site>",
            "<open_auction id='x'><bidder><increase/></bidder></open_auction>".repeat(6)
        );
        let session = Session::parse_xml(&xml).unwrap().with_threads(1);
        // The plain staircase engine has no index: every predicate list
        // is a scan of the whole document. A chain scans each name once…
        for expr in [
            "/descendant::open_auction[child::bidder[child::increase]]/attribute::id",
            "//open_auction[bidder/increase]/@id",
        ] {
            assert_eq!(
                scans_run(&session, expr, Engine::default()),
                (2, 6),
                "{expr}: one scan per predicate name"
            );
        }
        // …and so does a semijoin (or a pushed-down name test) nested
        // inside a predicate that has to stay a per-candidate loop.
        assert_eq!(
            scans_run(
                &session,
                "//open_auction[bidder[increase]/..]",
                Engine::default()
            ),
            (1, 6)
        );
        let pushdown = Engine::staircase().pushdown(true).build().unwrap();
        assert_eq!(
            scans_run(
                &session,
                "//open_auction[bidder/../descendant::increase]",
                pushdown
            ),
            (2, 6),
            "open_auction for the step, increase for all six candidates"
        );
        // A name no element carries ends the reduction before the
        // links above it are scanned at all.
        assert_eq!(
            scans_run(&session, "//open_auction[bidder/nosuch]", Engine::default()),
            (0, 0)
        );
    }

    #[test]
    fn a_chain_inside_a_nested_loop_is_reduced_once() {
        let xml = format!(
            "<site>{}</site>",
            "<open_auction><bidder><increase><x/></increase></bidder></open_auction>".repeat(6)
        );
        let session = Session::parse_xml(&xml).unwrap().with_threads(1);
        let query = session
            .prepare("//open_auction[bidder[increase/x]/..]")
            .unwrap();
        for engine in [
            Engine::default(),
            Engine::staircase().fragmented(true).build().unwrap(),
        ] {
            let before = EDGES_REDUCED.with(|n| n.get());
            assert_eq!(query.run(engine).len(), 6);
            assert_eq!(
                EDGES_REDUCED.with(|n| n.get()) - before,
                1,
                "{engine:?}: `increase` against `x`, once for all six candidates"
            );
        }
    }

    #[test]
    fn chains_match_the_nested_loop_on_the_fixture() {
        let session = Session::new(auction_doc());
        for query in [
            "//open_auction[bidder/increase]",
            "//open_auction[bidder/date]/@id",
            "//open_auctions[.//bidder[increase]/date]",
            "//increase[ancestor::open_auction/bidder/date]",
            "//bidder[ancestor::open_auction[bidder/date]/bidder/increase]",
            "//person[profile[education]]",
            "//site[people/person/profile/education][open_auctions/open_auction/bidder]",
            "//site[people/person/nosuch/education]",
        ] {
            let reference = session.run(query, Engine::naive()).unwrap();
            for engine in engines() {
                let out = session.run(query, engine).unwrap();
                assert_eq!(out.nodes(), reference.nodes(), "{query} {engine:?}");
            }
        }
    }

    #[test]
    fn auto_matches_default_on_every_fixture_query() {
        let session = Session::new(auction_doc());
        for query in [
            "/descendant::profile/descendant::education",
            "/descendant::increase/ancestor::bidder",
            "//open_auction[bidder/increase]/@id",
            "//bidder/following::node()",
            "/descendant::node()/preceding::increase",
        ] {
            let auto = session.run(query, Engine::auto()).unwrap();
            let fixed = session.run(query, Engine::default()).unwrap();
            assert_eq!(auto.nodes(), fixed.nodes(), "{query}");
        }
    }
}
