//! The plan interpreter.
//!
//! Every evaluation enters through [`Executor::run`] (in
//! [`crate::batch`], under [`crate::Session::execute`]), which walks
//! each query's steps through the one step interpreter here,
//! [`Executor::exec_step`]. This module holds the [`Executor`] itself —
//! the document paired with whichever auxiliary structures the plans at
//! hand require, resolved by [`crate::Session`] against its caches —
//! and the interpreter: one planned step is its join with the node test
//! ([`Executor::exec_join`]), then its predicates
//! ([`Executor::exec_predicates`]); a nested-loop predicate recurses into
//! the same interpreter per candidate. It makes no engine decisions:
//! every step arrives as a [`PlannedStep`] whose operator was chosen by
//! [`crate::plan`] (trivially, for fixed engines; cost-based, for
//! [`crate::Engine::auto`]), and the interpreter merely dispatches on
//! it. Every step runs on the calling thread. Everything below the
//! session's resolution step is total: no panics, no `unwrap`.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use staircase_accel::{Axis, Context, Doc, NodeKind, Pre, TagId};
use staircase_baselines::{naive_step, SqlEngine, SqlPlanOptions};
use staircase_core::{
    ancestor_on_list_pooled, ancestor_pooled, child_on_list_pooled, descendant_on_list_pooled,
    descendant_pooled, following_pooled, governor, has_ancestor_in, has_child_in,
    has_descendant_in, preceding_pooled, twig_match, ChainStep, ScanTest, Scratch, ScratchPool,
    SpineLeg, StepStats, TagIndex, TwigEdge, Variant,
};

use crate::ast::NodeTest;
use crate::plan::{
    axis_of, list_edge_of, part_axis_of, PartAxis, PathPlan, PlannedStep, PredOp, SemijoinAxis,
    SemijoinChain, StepOp,
};

/// Per-step trace of an evaluation: its join's and its predicates'
/// [`StepStats`] apart. A query's budget is charged exactly the sum of
/// its steps' `nodes_touched + pred_touched`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepTrace {
    /// Rendered step (`descendant::profile`).
    pub step: String,
    /// Rendered join operator (`fragment`,
    /// `staircase(EstimationSkipping)`, …): the planned one, which is
    /// the one that ran.
    pub op: String,
    /// Result size after node test and predicates.
    pub result_size: usize,
    /// Nodes/index entries the step's join touched (a selection scan it
    /// ran included); zero for a join the batch memo served.
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
    /// Nodes the step's predicates touched: semijoin probes, the chain
    /// reductions (a twig leg's too) and selection scans they ran, and
    /// nested-loop sub-plans; a list already derived counts 0.
    pub pred_touched: u64,
    /// Cursor seeks of the same predicate work.
    pub pred_seeks: u64,
    /// The cost model's estimate for this step.
    pub est_cost: f64,
    /// Always `false`; kept for the frozen benchmark's `xpath.replans`.
    pub replanned: bool,
}

impl StepTrace {
    /// The trace of `step` before it runs: every counter zero.
    pub(crate) fn of(step: &PlannedStep) -> StepTrace {
        StepTrace {
            step: step.rendered.clone(),
            op: step.op.to_string(),
            est_cost: step.estimate.cost,
            ..StepTrace::default()
        }
    }

    /// Adds a join's work.
    pub(crate) fn join(&mut self, stats: &StepStats) {
        self.nodes_touched += stats.nodes_touched();
        self.seeks += stats.seeks;
    }

    /// Adds predicate work.
    pub(crate) fn pred(&mut self, stats: &StepStats) {
        self.pred_touched += stats.nodes_touched();
        self.pred_seeks += stats.seeks;
    }

    /// Closes the trace at the step's output size.
    pub(crate) fn finish(mut self, result_size: usize) -> StepTrace {
        self.result_size = result_size;
        self.tuples_produced = self.tuples_produced.max(result_size as u64);
        self
    }

    /// The step's observed cost in the cost model's unit: nodes/index
    /// entries its join touched plus cursor seeks — the runtime quantity
    /// the estimate ([`StepTrace::est_cost`]) tries to predict.
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
    /// Total nodes the steps' joins touched (predicates excluded).
    pub fn total_touched(&self) -> u64 {
        self.steps.iter().map(|s| s.nodes_touched).sum()
    }

    /// Total cursor seeks of the steps' joins (fragment joins and
    /// leapfrog twig steps; zero for plans made of plane scans only).
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
    /// The session's sharded scratch pools: concurrent batches each
    /// sweep out their own shard.
    pub(crate) scratch: &'a ScratchPool,
    /// The node lists this evaluation has derived so far.
    pub(crate) lists: RefCell<ListMemo>,
    /// Predicate work — semijoin probes and chain reductions, the
    /// selection scans they ran, nested-loop sub-plans — not yet claimed
    /// by the trace of the step that owns it.
    pub(crate) pred: Cell<StepStats>,
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
    /// a chain shared by several queries is actually evaluated).
    pub(crate) static EDGES_REDUCED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl<'a> Executor<'a> {
    /// Interprets one branch plan from an explicit context — the
    /// nested-loop predicate path ([`PredOp::Filter`] recurses into full
    /// path evaluation per candidate).
    fn run_branch(&self, branch: &PathPlan, context: &Context, scratch: &mut Scratch) -> Context {
        let mut ctx = if branch.absolute {
            Context::singleton(self.doc.root())
        } else {
            context.clone()
        };
        for step in &branch.steps {
            let next = self.exec_step(&ctx, step, scratch);
            scratch.recycle(std::mem::replace(&mut ctx, next));
        }
        ctx
    }

    /// Interprets one step of a nested-loop predicate's sub-plan: its
    /// join, then its predicates — all of it the owning step's predicate
    /// work ([`Executor::pred`]).
    fn exec_step(&self, ctx: &Context, step: &PlannedStep, scratch: &mut Scratch) -> Context {
        let mut trace = StepTrace::default();
        let joined = self.exec_join(ctx, step, scratch, &mut trace);
        self.add_pred(&StepStats {
            nodes_scanned: trace.nodes_touched,
            seeks: trace.seeks,
            ..StepStats::default()
        });
        match self.exec_predicates(&joined, step, scratch) {
            Some(out) => {
                scratch.recycle(joined);
                out
            }
            None => joined,
        }
    }

    /// Adds predicate work to [`Executor::pred`].
    fn add_pred(&self, stats: &StepStats) {
        let mut pred = self.pred.get();
        pred.merge(stats);
        self.pred.set(pred);
    }

    /// Applies `step`'s predicates to its join output; `None` when the
    /// step has none (the join output is the step's output). Each
    /// intermediate candidate set is recycled.
    pub(crate) fn exec_predicates(
        &self,
        joined: &Context,
        step: &PlannedStep,
        scratch: &mut Scratch,
    ) -> Option<Context> {
        let (first, rest) = step.predicates.split_first()?;
        let mut out = self.exec_predicate(joined, first, scratch);
        for pred in rest {
            let kept = self.exec_predicate(&out, pred, scratch);
            scratch.recycle(std::mem::replace(&mut out, kept));
        }
        Some(out)
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
        edge: SemijoinAxis,
        context: &Context,
    ) -> NodeList<'a> {
        let Some(idx) = self.tags else {
            return self.scan_list(name);
        };
        let Some(tag) = self.doc.tag_id(name) else {
            return NodeList::Borrowed(&[]);
        };
        let window = match edge {
            SemijoinAxis::Descendant | SemijoinAxis::Child => context
                .as_slice()
                .first()
                .map(|&first| idx.fragment_window(tag, first + 1, Pre::MAX)),
            SemijoinAxis::Ancestor => context
                .as_slice()
                .last()
                .map(|&last| idx.fragment_window(tag, 0, last)),
        };
        NodeList::Borrowed(window.unwrap_or(&[]))
    }

    /// `nametest(doc, name)` as a query-time selection scan, run at
    /// most once per name per evaluation ([`Executor::lists`]); a run is
    /// charged and added to [`Executor::pred`] (a fragment join claims it).
    pub(crate) fn scan_list(&self, name: &str) -> NodeList<'a> {
        let Some(tag) = self.doc.tag_id(name) else {
            return NodeList::Borrowed(&[]);
        };
        let mut memo = self.lists.borrow_mut();
        if let Some((_, list)) = memo.scans.iter().find(|(t, _)| *t == tag) {
            return NodeList::Shared(Arc::clone(list));
        }
        #[cfg(test)]
        SCANS_RUN.with(|n| n.set(n.get() + 1));
        let list = Arc::new(self.doc.elements_with_tag(tag));
        self.add_pred(&charged(self.doc.len() as u64));
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
    /// for the rest of the evaluation ([`Executor::lists`]), so every
    /// query of a batch carrying the same chain shares one reduction.
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
        // Not borrowed across the reduction, which re-enters for nested
        // predicates.
        {
            let memo = self.lists.borrow();
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
        let entry = (chain.clone(), prebuilt, Arc::clone(&reduced));
        self.lists.borrow_mut().chains.push(entry);
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

    /// One sequential semijoin probe, its work added to [`Executor::pred`].
    fn probe(&self, axis: SemijoinAxis, candidates: &Context, list: &[Pre]) -> Context {
        let (kept, stats) = match axis {
            SemijoinAxis::Descendant => has_descendant_in(self.doc, candidates, list),
            SemijoinAxis::Child => has_child_in(self.doc, candidates, list),
            SemijoinAxis::Ancestor => has_ancestor_in(self.doc, candidates, list),
        };
        self.add_pred(&stats);
        kept
    }

    /// Applies the node test to an **owned** intermediate sequence:
    /// the survivors land in a buffer from the executor's scratch pool
    /// and the input's allocation is recycled back into it, so
    /// steady-state filtering allocates nothing.
    fn test_pooled(
        &self,
        base: Context,
        test: &NodeTest,
        axis: Axis,
        scratch: &mut Scratch,
    ) -> Context {
        if matches!(test, NodeTest::AnyNode) {
            return base;
        }
        let mut buf = scratch.take();
        apply_test_into(self.doc, &base, test, axis, &mut buf);
        scratch.recycle(base);
        Context::from_sorted(buf)
    }

    /// Executes one lowered predicate against the candidate set.
    fn exec_predicate(
        &self,
        candidates: &Context,
        pred: &PredOp,
        scratch: &mut Scratch,
    ) -> Context {
        match pred {
            PredOp::Semijoin { chain, prebuilt } => {
                let list = self.semijoin_list(chain, *prebuilt);
                self.probe(chain.axis(), candidates, &list)
            }
            PredOp::Filter(sub) => Context::from_sorted(
                candidates
                    .iter()
                    .filter(|&v| {
                        let found = self.run_branch(sub, &Context::singleton(v), scratch);
                        let keep = !found.is_empty();
                        scratch.recycle(found);
                        keep
                    })
                    .collect::<Vec<Pre>>(),
            ),
        }
    }

    /// Executes the step's join operator and node test — everything but
    /// its predicates — adding its work and the tuples it produced
    /// before dedup to `trace`.
    pub(crate) fn exec_join(
        &self,
        ctx: &Context,
        step: &PlannedStep,
        scratch: &mut Scratch,
        trace: &mut StepTrace,
    ) -> Context {
        let doc = self.doc;
        if let Some(paxis) = part_axis_of(step.axis) {
            let base = self.partitioning(ctx, paxis, step, scratch, trace);
            return match step.axis {
                Axis::DescendantOrSelf | Axis::AncestorOrSelf => {
                    self.or_self(ctx, base, step, scratch)
                }
                _ => base,
            };
        }
        let (out, touched) = match step.axis {
            Axis::SelfAxis => {
                let mut out = scratch.take();
                apply_test_into(doc, ctx, &step.test, Axis::SelfAxis, &mut out);
                (Context::from_sorted(out), ctx.len() as u64)
            }
            Axis::Parent => {
                let mut parents: Vec<Pre> = ctx
                    .iter()
                    .map(|c| doc.parent(c))
                    .filter(|&p| p != staircase_accel::NO_PARENT)
                    .collect();
                parents.sort_unstable();
                parents.dedup();
                let parents = Context::from_sorted(parents);
                let out = self.test_pooled(parents, &step.test, Axis::Parent, scratch);
                (out, ctx.len() as u64)
            }
            Axis::Child => {
                // Planned as an on-list join (auto, `child::name`)?
                if let Some((joined, stats)) = self.fragment_join(ctx, step, scratch) {
                    trace.join(&stats);
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
                let out =
                    self.test_pooled(Context::from_sorted(kids), &step.test, Axis::Child, scratch);
                (out, touched)
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
                let attrs = Context::from_sorted(attrs);
                let out = self.test_pooled(attrs, &step.test, Axis::Attribute, scratch);
                (out, touched)
            }
            // The sibling axes (the partitioning ones returned above).
            _ => {
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
                let out =
                    self.test_pooled(Context::from_sorted(sibs), &step.test, step.axis, scratch);
                (out, touched)
            }
        };
        trace.join(&charged(touched));
        out
    }

    /// Merges an or-self step's tested context nodes into its axis
    /// result.
    fn or_self(
        &self,
        ctx: &Context,
        base: Context,
        step: &PlannedStep,
        scratch: &mut Scratch,
    ) -> Context {
        let mut buf = scratch.take();
        apply_test_into(self.doc, ctx, &step.test, Axis::SelfAxis, &mut buf);
        let selves = Context::from_sorted(buf);
        let merged = merge(&base, &selves);
        scratch.recycle(selves);
        scratch.recycle(base);
        merged
    }

    /// Executes a partitioning-axis step with the planned operator.
    fn partitioning(
        &self,
        ctx: &Context,
        paxis: PartAxis,
        step: &PlannedStep,
        scratch: &mut Scratch,
        trace: &mut StepTrace,
    ) -> Context {
        let doc = self.doc;
        let (out, stats) = match (&step.op, self.sql) {
            // The planner only emits fragment joins for name-tested
            // steps; anything else falls through to the plain join so a
            // hand-built plan stays total.
            (StepOp::Fragment { .. }, _) => {
                self.fragment_join(ctx, step, scratch).unwrap_or_else(|| {
                    self.plain_staircase(ctx, paxis, step, Variant::default(), scratch)
                })
            }
            (StepOp::Staircase { variant }, _) => {
                self.plain_staircase(ctx, paxis, step, *variant, scratch)
            }
            // The horizontal scan ignores the variant: pruning collapses
            // the context to one node and the region is contiguous.
            (StepOp::Horiz, _) => {
                self.plain_staircase(ctx, paxis, step, Variant::default(), scratch)
            }
            (
                StepOp::Sql {
                    eq1_window,
                    early_nametest,
                },
                Some(sql),
            ) => {
                let (eq1_window, early_nametest) = (*eq1_window, *early_nametest);
                let pushed_tag = match (early_nametest, &step.test) {
                    (true, NodeTest::Name(name)) => doc.tag_id(name),
                    _ => None,
                };
                if early_nametest && matches!(step.test, NodeTest::Name(_)) && pushed_tag.is_none()
                {
                    // Name never occurs in the document: empty result.
                    return Context::empty();
                }
                let opts = SqlPlanOptions {
                    eq1_window,
                    early_nametest: pushed_tag,
                };
                let (base, stats) = sql.axis_step(ctx, axis_of(paxis), opts);
                trace.tuples_produced = stats.tuples_produced;
                let out = if pushed_tag.is_some() {
                    base
                } else {
                    self.test_pooled(base, &step.test, axis_of(paxis), scratch)
                };
                (out, charged(stats.index_entries_scanned))
            }
            // Structural never reaches a partitioning axis from the
            // planner, and resolution always provides the B-tree for SQL
            // plans; route a hand-built plan through the naive region
            // scan so it still evaluates correctly.
            (StepOp::Naive | StepOp::Structural | StepOp::Sql { .. }, _) => {
                let (base, stats) = naive_step(doc, ctx, axis_of(paxis));
                trace.tuples_produced = stats.tuples_produced;
                let out = self.test_pooled(base, &step.test, axis_of(paxis), scratch);
                (out, charged(stats.nodes_scanned))
            }
            // The planner only emits twig steps on the descendant axis,
            // over downward legs; any other region (hand-built plan)
            // falls back to the plain join plus the step's residual test.
            (StepOp::Twig(region), _) => match paxis {
                PartAxis::Descendant => self.twig_step(ctx, region),
                _ => None,
            }
            .unwrap_or_else(|| self.plain_staircase(ctx, paxis, step, Variant::default(), scratch)),
        };
        trace.join(&stats);
        out
    }

    /// The step's on-list join, if it is planned as one: a
    /// [`StepOp::Fragment`] over a name test on an axis with a list edge.
    /// A selection scan it runs is part of its work.
    fn fragment_join(
        &self,
        ctx: &Context,
        step: &PlannedStep,
        scratch: &mut Scratch,
    ) -> Option<(Context, StepStats)> {
        let StepOp::Fragment { prescan } = step.op else {
            return None;
        };
        let (Some(edge), NodeTest::Name(name)) = (list_edge_of(step.axis), &step.test) else {
            return None;
        };
        // nametest(doc, n) selection scan at query time (§4.4), run once
        // per evaluation, or the prebuilt fragment: a scan that runs is
        // this join's work, not a predicate's.
        let pending = self.pred.take();
        let list = if prescan {
            self.scan_list(name)
        } else {
            self.fragment_list_windowed(name, edge, ctx)
        };
        let scan = self.pred.replace(pending);
        let (out, mut stats) = match edge {
            SemijoinAxis::Descendant => descendant_on_list_pooled(self.doc, &list, ctx, scratch),
            SemijoinAxis::Ancestor => ancestor_on_list_pooled(self.doc, &list, ctx, scratch),
            SemijoinAxis::Child => child_on_list_pooled(self.doc, &list, ctx, scratch),
        };
        stats.merge(&scan);
        Some((out, stats))
    }

    /// Executes a fused twig region: one sorted list per spine leg (the
    /// prebuilt fragment when the session provides the index, a
    /// selection scan otherwise) and, per predicate, the list
    /// [`Executor::semijoin_list`] reduces its chain to — the list a step
    /// predicate over the same chain probes, so a batch reduces it once
    /// for both — handed to the multiway leapfrog intersection
    /// [`staircase_core::twig_match`] as one-step chains. The result is
    /// the output (last) leg's binding in document order; `None` for a
    /// leg or predicate that starts upward, which no planned region has.
    /// The reductions are the step's predicate work ([`Executor::pred`]);
    /// the legs' lists are the index's, which a twig plan always has.
    fn twig_step(&self, ctx: &Context, region: &SemijoinChain) -> Option<(Context, StepStats)> {
        let edge = |axis| match axis {
            SemijoinAxis::Descendant => Some(TwigEdge::Descendant),
            SemijoinAxis::Child => Some(TwigEdge::Child),
            SemijoinAxis::Ancestor => None,
        };
        let mut legs = Vec::with_capacity(region.links.len());
        for link in &region.links {
            let preds = link
                .preds
                .iter()
                .map(|pred| Some((edge(pred.axis())?, self.semijoin_list(pred, true))))
                .collect::<Option<Vec<_>>>()?;
            legs.push((edge(link.axis)?, self.fragment_list(&link.name), preds));
        }
        let spine: Vec<SpineLeg<'_>> = legs
            .iter()
            .map(|(edge, list, preds)| SpineLeg {
                edge: *edge,
                list,
                chains: preds
                    .iter()
                    .map(|(edge, list)| vec![ChainStep { edge: *edge, list }])
                    .collect(),
            })
            .collect();
        Some(twig_match(self.doc, &spine, ctx))
    }

    /// The staircase join over the whole plane, the step's node test
    /// riding the scan.
    fn plain_staircase(
        &self,
        ctx: &Context,
        paxis: PartAxis,
        step: &PlannedStep,
        variant: Variant,
        scratch: &mut Scratch,
    ) -> (Context, StepStats) {
        let doc = self.doc;
        let test = scan_test(doc, &step.test, axis_of(paxis));
        match paxis {
            PartAxis::Descendant => descendant_pooled(doc, ctx, variant, &test, scratch),
            PartAxis::Ancestor => ancestor_pooled(doc, ctx, variant, &test, scratch),
            PartAxis::Following => following_pooled(doc, ctx, &test, scratch),
            PartAxis::Preceding => preceding_pooled(doc, ctx, &test, scratch),
        }
    }
}

/// The counters of `touched` nodes read where no kernel ticked — a
/// structural hop, a naive or SQL step, a selection scan — charged to
/// the ambient budget as a kernel charges its own.
fn charged(touched: u64) -> StepStats {
    governor::current().inspect(|budget| budget.add_touched(touched));
    StepStats {
        nodes_scanned: touched,
        ..StepStats::default()
    }
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
/// survivors to `out` (cleared first) through
/// [`ScanTest::select_candidates`]. The executor draws `out` from its
/// scratch pool.
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

    /// A selection scan is the work of the step that runs it: the second
    /// `bidder` step reuses the first one's scan and reports only its
    /// join, what the prebuilt fragment's join reports.
    #[test]
    fn a_prescan_reports_its_selection_scan_once() {
        let session = Session::new(auction_doc());
        let n = session.doc().len() as u64;
        let expr = "/descendant::bidder/descendant::bidder";
        let pushdown = Engine::staircase().pushdown(true).build().unwrap();
        let fragmented = Engine::staircase().fragmented(true).build().unwrap();
        let touched = |engine| -> Vec<u64> {
            let out = session.run(expr, engine).unwrap();
            out.stats().steps.iter().map(|s| s.nodes_touched).collect()
        };
        let (scanned, prebuilt) = (touched(pushdown), touched(fragmented));
        assert_eq!(prebuilt, [3, 0]);
        assert_eq!(scanned, [n + prebuilt[0], prebuilt[1]]);
    }

    /// A step's predicate work is reported beside its join's, on every
    /// engine: `[bidder/increase]` probes the candidates and reduces the
    /// chain (or, as a nested loop, runs the sub-plan per candidate).
    #[test]
    fn a_predicate_chain_reports_its_work() {
        let session = Session::new(auction_doc());
        for engine in engines() {
            let out = session
                .run("//open_auction[bidder/increase]/@id", engine)
                .unwrap();
            assert_eq!(out.len(), 1, "{engine:?}");
            let step = &out.stats().steps[0];
            assert!(step.step.ends_with("increase]"), "{step:?}");
            assert!(step.pred_touched > 0, "{engine:?}: {step:?}");
            let rest = &out.stats().steps[1..];
            assert!(rest.iter().all(|s| s.pred_touched == 0), "{engine:?}");
        }
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

    /// Whole-document selection scans one run of `expr` performs (on
    /// the calling thread, which owns the counter).
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
        let session = Session::parse_xml(&xml).unwrap();
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
        let session = Session::parse_xml(&xml).unwrap();
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
