//! The lane executor: multi-context execution as the **native form**.
//!
//! Every evaluation arrives here through
//! [`Session::execute`](crate::Session::execute) as a batch of
//! [`PhysicalPlan`]s and is split into *lanes* (one per union branch per
//! query); single-query `run` is simply the K = 1 batch. Evaluation
//! proceeds in rounds: each round, every unfinished lane advances by
//! exactly one step, and lanes whose current steps **declare the same
//! lane form** ([`LaneForm`], a property of the planned operator)
//! advance together through the multi-context operators of
//! `staircase_core`:
//!
//! * [`LaneForm::Staircase`] → [`descendant_many`] / [`ancestor_many`]:
//!   each distinct (context, test) lane runs the single-context
//!   partition loop once, its node test riding the scan as a
//!   [`ScanTest`] (lanes that share a context — every query from the
//!   root — share its pruning and run once per distinct test);
//! * [`LaneForm::Fragment`] → [`descendant_on_list_many`] /
//!   [`ancestor_on_list_many`] / [`child_on_list_many`]: lanes naming
//!   the same tag share the list resolution (prebuilt fragment or one
//!   query-time selection scan), lanes with the same context one range
//!   join over it;
//! * [`LaneForm::Horiz`] → [`following_many`] / [`preceding_many`]: the
//!   group's nested suffix/prefix regions come out of one scan, one
//!   range select per distinct node test;
//! * semijoin predicates on any of the above — one-step probes and
//!   whole chains alike — are probed group-wise through
//!   [`has_descendant_in_many`] and friends, resolving (and, for a
//!   chain, reducing) each predicate's node list once per group.
//!
//! Only the genuinely unbatchable residue — nested-loop (filter)
//! predicates, structural axes, and the naive/SQL/twig operators —
//! falls back to the sequential plan interpreter, one lane at a time
//! ([`Executor::exec_step`]).
//!
//! **Rounds are parallel.** On a session whose worker pool is wider
//! than one, a round's independent pieces — each lane-form group's
//! shared pass, plus every fallback lane — execute as concurrent pool
//! tasks (each sweeping out its own scratch shard), and a group whose
//! planned step carries the cost model's fanout hint additionally
//! splits each lane's pass into morsels (the plane-scan `_many` kernels,
//! handed the session's pool): disjoint pre-ranges in the paper's
//! Figure-8 sense — cuts of a descendant lane's touched intervals,
//! contiguous chunks of an ancestor lane's pruned boundary list — so
//! per-worker results concatenate in document order and per-worker
//! statistics sum to the sequential counters exactly. A width-1 session never touches the
//! pool — the sequential path is byte-for-byte the pre-pool executor.
//!
//! Because the grouping key is read straight off the plan, no engine
//! decision is re-derived at run time, and [`crate::Engine::auto`]'s
//! steps batch exactly like the fixed engines'. Statistics count
//! **incremental** cost: a vertical lane reports its cost alone, and
//! only a lane repeating an earlier one (or asking a further test of a
//! context already open) reports zero; the horizontal scans attribute a
//! suffix/prefix several lanes share to the first that needed it. A
//! [`Scratch`] pool — owned by the
//! session, so it persists across batches — recycles result and context
//! allocations instead of paying for them per round.

//! ## Governed execution
//!
//! [`Executor::run`] threads an optional per-query [`Budget`] through
//! the rounds. Enforcement is **lane-local**:
//!
//! * before each round every governed lane's budget is checked, so an
//!   expired deadline or exhausted ceiling fails the query at a round
//!   boundary;
//! * a pass whose lanes all share *one* budget (always true for a
//!   governed single-query batch) runs with that budget installed
//!   ambiently ([`governor::enter`]), so the core kernels tick and the
//!   pass stops mid-scan with bounded overshoot;
//! * a pass mixing budgets (or mixing governed and ungoverned lanes)
//!   runs exactly as an ungoverned pass — sibling lanes stay node- and
//!   order-identical to an ungoverned run — and each governed lane is
//!   charged its incremental touches afterwards, so the overshoot is
//!   bounded by one round;
//! * every pass and fallback step runs under `catch_unwind`: a panic
//!   fails the affected queries with [`Error::Internal`] (a shared
//!   pass's blast radius is the queries of that pass; fallback lanes
//!   fail alone) and leaves the session, pool, and sibling queries
//!   usable.
//!
//! A failed query's remaining lanes are retired at the next round
//! boundary; its partial results are discarded, never returned.

use std::borrow::Cow;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use staircase_accel::{Axis, Context};
use staircase_core::cost::RuntimeStats;
use staircase_core::governor::{self, Budget};
use staircase_core::{
    ancestor_many, ancestor_on_list_many, child_on_list_many, descendant_many,
    descendant_on_list_many, faults, following_many, has_ancestor_in_many, has_child_in_many,
    has_descendant_in_many, preceding_many, ScanTest, Scratch, Variant, WorkerPool,
};

use crate::error::Error;
use crate::eval::{apply_test_into, merge, rendered_op, scan_test, EvalStats, Executor, StepTrace};
use crate::plan::{
    replan_step, HorizAxis, LaneForm, ListEdge, PhysicalPlan, PlannedStep, PredOp, SemijoinAxis,
    VertAxis,
};
use crate::session::QueryOutput;

/// Maps a budget trip to the typed error a governed query fails with.
pub(crate) fn trip_error(trip: governor::Trip) -> Error {
    match trip {
        governor::Trip::Deadline => Error::DeadlineExceeded,
        governor::Trip::Cost => Error::BudgetExhausted,
        governor::Trip::Cancelled => Error::Cancelled,
    }
}

/// Renders a caught panic payload for [`Error::Internal`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "execution task panicked".to_string()
    }
}

/// The one budget every lane of `group` shares, if they all share one:
/// the condition under which a pass may run with that budget installed
/// ambiently without governing (or mis-attributing charges to) a
/// sibling lane.
fn shared_budget(lanes: &[Lane<'_>], group: &[usize]) -> Option<Arc<Budget>> {
    let first = lanes[group[0]].budget.as_ref()?;
    group
        .iter()
        .all(|&i| {
            lanes[i]
                .budget
                .as_ref()
                .is_some_and(|b| Arc::ptr_eq(b, first))
        })
        .then(|| Arc::clone(first))
}

/// How far (multiplicatively, either direction) the observed frontier
/// cardinality must stray from the planner's estimate before an auto
/// lane re-prices the pending step. Below the factor the
/// static ranking stands and the lane advances with zero re-planning
/// overhead; the misleading workloads this exists for miss by orders of
/// magnitude.
const REPLAN_DISAGREE_FACTOR: f64 = 8.0;

/// One union branch of one query, advancing step by step.
struct Lane<'p> {
    /// Index of the owning query in the batch.
    query: usize,
    /// The steps this lane executes: borrowed from the plan until the
    /// re-planner first switches an operator, owned (a clone of the
    /// branch's steps) afterwards. Lanes that do not re-plan never leave
    /// the borrowed state.
    steps: Cow<'p, [PlannedStep]>,
    /// How the lane re-plans: `None` runs the plan as planned.
    replan: Option<Holds>,
    /// Context after `step` steps.
    ctx: Context,
    /// Number of steps already evaluated.
    step: usize,
    stats: EvalStats,
    /// The owning query's budget, if it runs governed. Lanes of one
    /// query share the same `Arc`, so a trip on any lane fails them
    /// all; lanes of different queries never share one.
    budget: Option<Arc<Budget>>,
}

impl Lane<'_> {
    fn pending(&self) -> Option<&PlannedStep> {
        self.steps.get(self.step)
    }
}

/// The auxiliary structures a re-planning lane may switch to: those its
/// own query's plan needs. The executor may hold more for the batch's
/// other queries, but a lane that switched to one of those would pick
/// (and report) a different operator batched than alone.
#[derive(Clone, Copy)]
struct Holds {
    tags: bool,
    sql: bool,
}

impl Holds {
    /// `Some` for a plan lowered under the auto policy
    /// ([`PhysicalPlan::is_auto`]), whose lanes re-price the pending
    /// step from the observed frontier after every advance.
    fn of(plan: &PhysicalPlan) -> Option<Holds> {
        plan.is_auto().then(|| Holds {
            tags: plan.needs_tag_index(),
            sql: plan.needs_sql_engine(),
        })
    }
}

/// A round's grouping key: [`LaneForm`] with the fragment name owned,
/// so the key survives re-planning lanes mutating their pending steps
/// between rounds (the borrowed form would pin `lanes` immutably).
#[derive(Clone, PartialEq, Eq)]
enum GroupKey {
    Staircase(VertAxis, Variant),
    Fragment {
        edge: ListEdge,
        name: String,
        prescan: bool,
    },
    Horiz(HorizAxis),
}

/// The owned grouping key of a lane form; `None` for the per-lane
/// fallback.
fn group_key(form: LaneForm<'_>) -> Option<GroupKey> {
    match form {
        LaneForm::Staircase(vert, variant) => Some(GroupKey::Staircase(vert, variant)),
        LaneForm::Fragment {
            edge,
            name,
            prescan,
        } => Some(GroupKey::Fragment {
            edge,
            name: name.to_string(),
            prescan,
        }),
        LaneForm::Horiz(haxis) => Some(GroupKey::Horiz(haxis)),
        LaneForm::PerLane => None,
    }
}

/// One lane's share of a group pass: (result, incremental touches,
/// cursor seeks).
type LaneOut = (Context, u64, u64);

/// The outcome of one round task: a whole group's [`LaneOut`]s, or a
/// single fallback lane's step.
enum RoundOut {
    Group(Vec<LaneOut>),
    Lane(Context, StepTrace),
}

impl Executor<'_> {
    /// Evaluates every job's plan from one shared starting context, the
    /// job's budget (if any) governing it — the executor's one entry
    /// point, under every [`crate::Session::execute`] call (`run` is the
    /// K = 1 batch). Passes are shared wherever planned steps agree on a
    /// lane form, and independent round pieces fan out across the
    /// session's worker pool. A query that trips its budget — or whose
    /// lane panics — comes back as `Err` while its batch siblings
    /// complete normally (see the module docs for the enforcement
    /// points).
    pub(crate) fn run(
        &self,
        jobs: &[(Arc<PhysicalPlan>, Option<Arc<Budget>>)],
        context: &Context,
    ) -> Vec<Result<QueryOutput, Error>> {
        self.scratch
            .with(|scratch| self.run_rounds(jobs, context, scratch))
    }

    fn run_rounds(
        &self,
        jobs: &[(Arc<PhysicalPlan>, Option<Arc<Budget>>)],
        context: &Context,
        scratch: &mut Scratch,
    ) -> Vec<Result<QueryOutput, Error>> {
        let mut lanes: Vec<Lane<'_>> = Vec::new();
        for (query, (plan, budget)) in jobs.iter().enumerate() {
            let replan = Holds::of(plan);
            for path in plan.branches() {
                let ctx = if path.absolute {
                    Context::singleton(self.doc.root())
                } else {
                    context.clone()
                };
                lanes.push(Lane {
                    query,
                    steps: Cow::Borrowed(path.steps()),
                    replan,
                    ctx,
                    step: 0,
                    stats: EvalStats::default(),
                    budget: budget.clone(),
                });
            }
        }
        // First governed failure per query; `Some` retires the query's
        // remaining lanes and turns into the `Err` arm on reassembly.
        let mut failed: Vec<Option<Error>> = jobs.iter().map(|_| None).collect();

        // Rounds: every unfinished lane advances one step per round;
        // lanes whose current steps declare the same lane form advance
        // together through one multi-context pass.
        loop {
            // Round boundary: fail governed queries whose budget has
            // tripped (deadline passed while other queries ran, client
            // cancelled, ceiling hit by a previous round) and retire
            // every lane of a failed query before grouping.
            for lane in lanes.iter_mut() {
                if lane.pending().is_none() {
                    continue;
                }
                if failed[lane.query].is_none() {
                    if let Some(budget) = &lane.budget {
                        if let Some(trip) = budget.check() {
                            failed[lane.query] = Some(trip_error(trip));
                        }
                    }
                }
                if failed[lane.query].is_some() {
                    lane.step = lane.steps.len();
                }
            }

            let mut groups: Vec<(GroupKey, Vec<usize>)> = Vec::new();
            let mut fallback: Vec<usize> = Vec::new();
            for (i, lane) in lanes.iter().enumerate() {
                let Some(step) = lane.pending() else { continue };
                match group_key(step.lane_form()) {
                    None => fallback.push(i),
                    Some(key) => match groups.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, members)) => members.push(i),
                        None => groups.push((key, vec![i])),
                    },
                }
            }
            if groups.is_empty() && fallback.is_empty() {
                break;
            }

            // A round with several independent pieces fans them out
            // across the pool; a width-1 session (or a single-piece
            // round) takes the sequential path, which is exactly the
            // pre-pool executor.
            if self.pool.width() > 1 && groups.len() + fallback.len() > 1 {
                self.round_parallel(&mut lanes, groups, fallback, scratch, &mut failed);
            } else {
                self.round_sequential(&mut lanes, groups, fallback, scratch, &mut failed);
            }
        }

        // Reassemble per-query outputs: branches merge in declaration
        // order, step traces concatenate in the same order as a
        // branch-by-branch evaluation would produce them. A failed
        // query's lanes are dropped — partial results never escape.
        let mut outputs: Vec<Option<QueryOutput>> = jobs.iter().map(|_| None).collect();
        for lane in lanes {
            if failed[lane.query].is_some() {
                continue;
            }
            let branch = QueryOutput {
                result: lane.ctx,
                stats: lane.stats,
            };
            match &mut outputs[lane.query] {
                slot @ None => *slot = Some(branch),
                Some(acc) => {
                    acc.result = merge(&acc.result, &branch.result);
                    acc.stats.steps.extend(branch.stats.steps);
                }
            }
        }
        outputs
            .into_iter()
            .zip(failed)
            .map(|(o, f)| match f {
                Some(e) => Err(e),
                // The parser guarantees at least one branch; an empty
                // union is harmlessly empty rather than a panic.
                None => Ok(o.unwrap_or_default()),
            })
            .collect()
    }

    /// One round, sequentially: fallback lanes through the plan
    /// interpreter, then each group's shared pass. Fallback lanes and
    /// group passes run under `catch_unwind` with the lane (or shared)
    /// budget installed ambiently; see the module docs.
    fn round_sequential(
        &self,
        lanes: &mut [Lane<'_>],
        groups: Vec<(GroupKey, Vec<usize>)>,
        fallback: Vec<usize>,
        scratch: &mut Scratch,
        failed: &mut [Option<Error>],
    ) {
        // The residue: one lane at a time through the sequential plan
        // interpreter.
        for i in fallback {
            let outcome = {
                let lane = &lanes[i];
                let _guard = lane.budget.clone().map(governor::enter);
                std::panic::catch_unwind(AssertUnwindSafe(|| {
                    faults::fail_point("xpath::lane");
                    self.exec_step(&lane.ctx, &lane.steps[lane.step])
                }))
            };
            self.apply_lane_outcome(lanes, i, outcome, scratch, failed);
        }
        for (form, group) in groups {
            let shared = shared_budget(lanes, &group);
            let outcome = {
                let _guard = shared.clone().map(governor::enter);
                std::panic::catch_unwind(AssertUnwindSafe(|| {
                    faults::fail_point("xpath::round");
                    self.group_outs(lanes, &group, &form, scratch)
                }))
            };
            match outcome {
                Ok(outs) => self.advance(lanes, &group, outs, scratch, failed, shared.is_some()),
                Err(payload) => self.fail_group(lanes, &group, payload, failed),
            }
        }
    }

    /// Applies one fallback lane's caught outcome: a panic fails the
    /// owning query with [`Error::Internal`]; a tripped budget (the
    /// lane ran with it installed ambiently) fails it with the trip's
    /// typed error and discards the partial context; otherwise the lane
    /// advances exactly as an ungoverned one.
    fn apply_lane_outcome(
        &self,
        lanes: &mut [Lane<'_>],
        i: usize,
        outcome: std::thread::Result<(Context, StepTrace)>,
        scratch: &mut Scratch,
        failed: &mut [Option<Error>],
    ) {
        let lane = &mut lanes[i];
        match outcome {
            Ok((next, trace)) => {
                let tripped = lane.budget.as_ref().and_then(|b| b.check());
                if let Some(trip) = tripped {
                    if failed[lane.query].is_none() {
                        failed[lane.query] = Some(trip_error(trip));
                    }
                    scratch.recycle(next);
                    lane.step = lane.steps.len();
                } else {
                    lane.stats.steps.push(trace);
                    scratch.recycle(std::mem::replace(&mut lane.ctx, next));
                    lane.step += 1;
                    self.maybe_replan(&mut lanes[i]);
                }
            }
            Err(payload) => {
                if failed[lane.query].is_none() {
                    failed[lane.query] = Some(Error::Internal(panic_message(payload)));
                }
                lane.step = lane.steps.len();
            }
        }
    }

    /// Fails every query with a lane in `group` after its shared pass
    /// panicked: the pass's blast radius is exactly its member queries.
    fn fail_group(
        &self,
        lanes: &mut [Lane<'_>],
        group: &[usize],
        payload: Box<dyn std::any::Any + Send>,
        failed: &mut [Option<Error>],
    ) {
        let msg = panic_message(payload);
        for &i in group {
            let lane = &mut lanes[i];
            if failed[lane.query].is_none() {
                failed[lane.query] = Some(Error::Internal(msg.clone()));
            }
            lane.step = lane.steps.len();
        }
    }

    /// One round, fanned out: every group's shared pass and every
    /// fallback lane becomes a pool task (each sweeping out its own
    /// scratch shard); results are applied in task order afterwards, so
    /// traces and recycling match the sequential round exactly.
    fn round_parallel(
        &self,
        lanes: &mut Vec<Lane<'_>>,
        groups: Vec<(GroupKey, Vec<usize>)>,
        fallback: Vec<usize>,
        scratch: &mut Scratch,
        failed: &mut [Option<Error>],
    ) {
        let results = {
            let lanes_ref: &[Lane<'_>] = lanes;
            let mut tasks: Vec<Box<dyn FnOnce() -> RoundOut + Send + '_>> =
                Vec::with_capacity(fallback.len() + groups.len());
            for &i in &fallback {
                tasks.push(Box::new(move || {
                    let lane = &lanes_ref[i];
                    // The lane's own budget governs the task (nested
                    // pool jobs — morsel workers — inherit it from
                    // here); the pool catches any panic.
                    let _guard = lane.budget.clone().map(governor::enter);
                    faults::fail_point("xpath::lane");
                    let step = &lane.steps[lane.step];
                    let (next, trace) = self.exec_step(&lane.ctx, step);
                    RoundOut::Lane(next, trace)
                }));
            }
            for (form, group) in &groups {
                tasks.push(Box::new(move || {
                    let _guard = shared_budget(lanes_ref, group).map(governor::enter);
                    faults::fail_point("xpath::round");
                    RoundOut::Group(
                        self.scratch
                            .with(|shard| self.group_outs(lanes_ref, group, form, shard)),
                    )
                }));
            }
            self.pool.run_caught(tasks)
        };

        let mut results = results.into_iter();
        for i in fallback {
            let outcome = match results.next() {
                Some(Ok(RoundOut::Lane(next, trace))) => Ok((next, trace)),
                Some(Err(payload)) => Err(payload),
                _ => unreachable!("fallback tasks come back first, in order"),
            };
            self.apply_lane_outcome(lanes, i, outcome, scratch, failed);
        }
        for (_, group) in groups {
            // Recomputed over lanes the tasks left untouched, so it
            // matches what the task installed.
            let ambient_ran = shared_budget(lanes, &group).is_some();
            match results.next() {
                Some(Ok(RoundOut::Group(outs))) => {
                    self.advance(lanes, &group, outs, scratch, failed, ambient_ran);
                }
                Some(Err(payload)) => self.fail_group(lanes, &group, payload, failed),
                _ => unreachable!("one group task per group, in order"),
            }
        }
    }

    /// One group's shared pass: the form-specific join, then the
    /// group-wise predicate probes. Pure with respect to `lanes` — the
    /// produced contexts are applied by [`advance`] afterwards, which is
    /// what lets groups of one round run concurrently.
    fn group_outs(
        &self,
        lanes: &[Lane<'_>],
        group: &[usize],
        form: &GroupKey,
        scratch: &mut Scratch,
    ) -> Vec<LaneOut> {
        let mut outs = match form {
            GroupKey::Staircase(vert, variant) => {
                self.staircase_outs(lanes, group, *vert, *variant, scratch)
            }
            GroupKey::Fragment {
                edge,
                name,
                prescan,
            } => self.fragment_outs(lanes, group, *edge, name.as_str(), *prescan, scratch),
            GroupKey::Horiz(haxis) => self.horiz_outs(lanes, group, *haxis, scratch),
        };
        self.predicate_rounds(lanes, group, &mut outs, scratch);
        outs
    }

    /// The session's pool when this group's planned step carries the
    /// cost model's fanout hint (and the pool is wider than one): what
    /// the plane-scan kernels split their morsels across. The kernels
    /// themselves re-check the actual work.
    fn fanout(&self, lanes: &[Lane<'_>], group: &[usize]) -> Option<&WorkerPool> {
        let hinted = group
            .iter()
            .any(|&i| lanes[i].steps[lanes[i].step].fanout());
        (hinted && self.pool.width() > 1).then_some(self.pool)
    }

    /// Each group lane's context paired with its pending step's node
    /// test, compiled for `axis`: what the plane-scan `_many` kernels
    /// take.
    fn scan_lanes<'l>(
        &self,
        lanes: &'l [Lane<'_>],
        group: &[usize],
        axis: Axis,
    ) -> Vec<(&'l Context, ScanTest<'_>)> {
        group
            .iter()
            .map(|&i| {
                let test = &lanes[i].steps[lanes[i].step].test;
                (&lanes[i].ctx, scan_test(self.doc, test, axis))
            })
            .collect()
    }

    /// Merges an or-self step's tested context nodes into `out` (the
    /// context is a candidate list, not a scan: a residual filter into a
    /// buffer from the round's scratch shard).
    fn or_self(&self, lane: &Lane<'_>, out: &mut Context, scratch: &mut Scratch) {
        let step = &lane.steps[lane.step];
        if matches!(step.axis(), Axis::DescendantOrSelf | Axis::AncestorOrSelf) {
            let mut buf = scratch.take();
            apply_test_into(self.doc, &lane.ctx, &step.test, Axis::SelfAxis, &mut buf);
            let selves = Context::from_sorted(buf);
            let merged = merge(out, &selves);
            scratch.recycle(selves);
            scratch.recycle(std::mem::replace(out, merged));
        }
    }

    /// The plain staircase join for every lane in `group`, each lane's
    /// node test riding the scan, plus or-self merging. The kernel dedups
    /// identical (context, test) lanes, lets lanes that share a context
    /// share its pruning, and charges every distinct lane its own pass.
    fn staircase_outs(
        &self,
        lanes: &[Lane<'_>],
        group: &[usize],
        vert: VertAxis,
        variant: staircase_core::Variant,
        scratch: &mut Scratch,
    ) -> Vec<LaneOut> {
        let pool = self.fanout(lanes, group);
        let joined = match vert {
            VertAxis::Descendant => {
                let tested = self.scan_lanes(lanes, group, Axis::Descendant);
                descendant_many(self.doc, &tested, variant, pool, scratch)
            }
            VertAxis::Ancestor => {
                let tested = self.scan_lanes(lanes, group, Axis::Ancestor);
                ancestor_many(self.doc, &tested, variant, pool, scratch)
            }
        };
        group
            .iter()
            .zip(joined)
            .map(|(&i, (mut out, jstats))| {
                self.or_self(&lanes[i], &mut out, scratch);
                (out, jstats.nodes_touched(), 0)
            })
            .collect()
    }

    /// One tag fragment (prebuilt or one query-time selection scan)
    /// resolved for every lane in `group`, and one range join per
    /// distinct context over it. The fragment join fuses the name test,
    /// so the join result *is* the tested result.
    fn fragment_outs(
        &self,
        lanes: &[Lane<'_>],
        group: &[usize],
        edge: ListEdge,
        name: &str,
        prescan: bool,
        scratch: &mut Scratch,
    ) -> Vec<LaneOut> {
        // Resolve the shared list once for the whole group. The prescan
        // variant's selection scan costs one pass over the plane (§4.4) —
        // paid once per group, attributed to its first lane — except for
        // names absent from the dictionary, where no scan runs.
        let (list, scan_cost) = if prescan {
            let cost = if self.doc.tag_id(name).is_some() {
                self.doc.len() as u64
            } else {
                0
            };
            (self.scan_list(name), cost)
        } else {
            // The window the whole group can actually reach.
            let contexts: Vec<&Context> = group.iter().map(|&i| &lanes[i].ctx).collect();
            (self.fragment_list_windowed(name, edge, &contexts), 0)
        };
        // A range join has no morsel form (two gallops and a copy per
        // context node): the fanout hint does not apply.
        let joined = {
            let contexts: Vec<&Context> = group.iter().map(|&i| &lanes[i].ctx).collect();
            match edge {
                ListEdge::Descendant => {
                    descendant_on_list_many(self.doc, &list, &contexts, scratch)
                }
                ListEdge::Ancestor => ancestor_on_list_many(self.doc, &list, &contexts, scratch),
                ListEdge::Child => child_on_list_many(self.doc, &list, &contexts, scratch),
            }
        };
        let mut outs: Vec<LaneOut> = Vec::with_capacity(group.len());
        for (gi, (mut out, jstats)) in joined.into_iter().enumerate() {
            self.or_self(&lanes[group[gi]], &mut out, scratch);
            let touched = jstats.nodes_touched() + if gi == 0 { scan_cost } else { 0 };
            outs.push((out, touched, jstats.seeks));
        }
        outs
    }

    /// One shared suffix/prefix scan for every lane in `group`, each
    /// lane's node test riding it.
    fn horiz_outs(
        &self,
        lanes: &[Lane<'_>],
        group: &[usize],
        haxis: HorizAxis,
        scratch: &mut Scratch,
    ) -> Vec<LaneOut> {
        let tested = self.scan_lanes(lanes, group, haxis.axis());
        let pool = self.fanout(lanes, group);
        let joined = match haxis {
            HorizAxis::Following => following_many(self.doc, &tested, pool, scratch),
            HorizAxis::Preceding => preceding_many(self.doc, &tested, pool, scratch),
        };
        joined
            .into_iter()
            .map(|(out, jstats)| (out, jstats.nodes_touched(), 0))
            .collect()
    }

    /// Applies the group's (all-semijoin, by construction of the lane
    /// forms) predicates wave by wave: the `w`-th predicates of every
    /// lane are sub-grouped by the whole predicate (chain and list
    /// source) and probed through one `*_in_many` call each, so lanes
    /// carrying the same predicate share one list resolution — for a
    /// chain, one reduction ([`Executor::semijoin_list`]).
    fn predicate_rounds(
        &self,
        lanes: &[Lane<'_>],
        group: &[usize],
        outs: &mut [LaneOut],
        scratch: &mut Scratch,
    ) {
        let waves = group
            .iter()
            .map(|&i| lanes[i].steps[lanes[i].step].predicate_operators().len())
            .max()
            .unwrap_or(0);
        for w in 0..waves {
            // Sub-group the wave's probes by predicate: the predicate
            // and the group-relative indices of the lanes carrying it.
            let mut specs: Vec<(&PredOp, Vec<usize>)> = Vec::new();
            for (gi, &i) in group.iter().enumerate() {
                let step = &lanes[i].steps[lanes[i].step];
                let Some(pred) = step.predicate_operators().get(w) else {
                    continue;
                };
                match specs.iter_mut().find(|(p, _)| *p == pred) {
                    Some((_, members)) => members.push(gi),
                    None => specs.push((pred, vec![gi])),
                }
            }
            for (pred, members) in specs {
                let PredOp::Semijoin { chain, prebuilt } = pred else {
                    continue; // filter predicates never reach a lane form
                };
                let list = self.semijoin_list(chain, *prebuilt);
                let probed = {
                    let candidates: Vec<&Context> = members.iter().map(|&gi| &outs[gi].0).collect();
                    match chain.axis() {
                        SemijoinAxis::Descendant => {
                            has_descendant_in_many(self.doc, &candidates, &list)
                        }
                        SemijoinAxis::Child => has_child_in_many(self.doc, &candidates, &list),
                        SemijoinAxis::Ancestor => {
                            has_ancestor_in_many(self.doc, &candidates, &list)
                        }
                    }
                };
                for (gi, (kept, _)) in members.into_iter().zip(probed) {
                    scratch.recycle(std::mem::replace(&mut outs[gi].0, kept));
                }
            }
        }
    }

    /// Records each lane's step trace and advances it to the next step,
    /// recycling the previous context's allocation; lanes planned under
    /// auto then re-price their next pending step against the frontier
    /// they just observed ([`Executor::maybe_replan`]).
    ///
    /// Governed lanes settle their budget here. `ambient_ran` says the
    /// pass executed with the group's shared budget installed: the core
    /// kernels already charged it, so the budget is only *checked* — a
    /// trip means the pass bailed early and every out of the group
    /// (same budget ⇒ same blast radius) is garbage to discard. A pass
    /// without ambient governance ran to completion ungoverned; each
    /// governed lane is charged its incremental touches now, and a trip
    /// fails just that lane's query (overshoot: one round).
    fn advance(
        &self,
        lanes: &mut [Lane<'_>],
        group: &[usize],
        outs: Vec<LaneOut>,
        scratch: &mut Scratch,
        failed: &mut [Option<Error>],
        ambient_ran: bool,
    ) {
        for (&i, (out, touched, seeks)) in group.iter().zip(outs) {
            let lane = &mut lanes[i];
            if failed[lane.query].is_none() {
                if let Some(budget) = &lane.budget {
                    let trip = if ambient_ran {
                        budget.check()
                    } else {
                        budget.charge(touched)
                    };
                    if let Some(trip) = trip {
                        failed[lane.query] = Some(trip_error(trip));
                    }
                }
            }
            if failed[lane.query].is_some() {
                scratch.recycle(out);
                lane.step = lane.steps.len();
                continue;
            }
            let step = &lane.steps[lane.step];
            lane.stats.steps.push(StepTrace {
                step: step.source().to_string(),
                op: rendered_op(step),
                est_cost: step.estimate.cost,
                replanned: step.replanned,
                result_size: out.len(),
                nodes_touched: touched,
                tuples_produced: out.len() as u64,
                seeks,
            });
            scratch.recycle(std::mem::replace(&mut lane.ctx, out));
            lane.step += 1;
            self.maybe_replan(&mut lanes[i]);
        }
    }

    /// [`crate::Engine::auto`]'s re-planning hook, run after every lane
    /// advance. When the observed frontier is at least
    /// [`REPLAN_DISAGREE_FACTOR`] off the planner's estimate, overlay it
    /// (and the session calibrator's fitted constants) on the document
    /// statistics, re-price the pending step's operator candidates among
    /// those the lane's own plan holds ([`Holds`], [`replan_step`]), and
    /// switch the step's operator in place when the observed ranking
    /// disagrees with the planned choice. Switched steps carry the
    /// `[replan]` marker into their traces. Lanes of every fixed engine
    /// and of `twig` never enter.
    fn maybe_replan(&self, lane: &mut Lane<'_>) {
        let Some(holds) = lane.replan else {
            return;
        };
        if lane.ctx.is_empty() {
            return;
        }
        let Some(next) = lane.steps.get(lane.step) else {
            return;
        };
        // Re-price only when the observed frontier materially
        // contradicts the planner's estimate: within the factor the
        // static ranking stands, and skipping keeps re-planning's
        // overhead near zero on well-estimated workloads.
        let observed = lane.ctx.len() as f64;
        let planned = match lane.step.checked_sub(1) {
            Some(prev) => lane.steps[prev].estimate.rows.max(1.0),
            None => 1.0,
        };
        if (observed / planned).max(planned / observed) < REPLAN_DISAGREE_FACTOR {
            return;
        }
        let rt = RuntimeStats::observed(self.stats, self.doc, lane.ctx.as_slice())
            .calibrated(self.calibrator);
        let Some((op, test_op, cost)) = replan_step(next, self.doc, &rt, holds.tags, holds.sql)
        else {
            return;
        };
        // First switch on this lane: clone the branch's steps so the
        // shared plan (and every other lane) stays untouched.
        let steps = lane.steps.to_mut();
        let s = &mut steps[lane.step];
        s.op = op;
        s.test_op = test_op;
        s.estimate.cost = cost;
        s.fanout = self.stats.fanout_worthwhile(cost);
        s.replanned = true;
    }
}

#[cfg(test)]
mod tests {
    use crate::eval::EDGES_REDUCED;
    use crate::{Engine, Query, Session};

    /// Chain edges reduced by one `run_many` over `exprs` (width 1: the
    /// whole batch runs on the calling thread).
    fn edges_reduced(session: &Session, exprs: &[&str], engine: Engine) -> usize {
        let queries: Vec<Query> = exprs.iter().map(|e| session.prepare(e).unwrap()).collect();
        let refs: Vec<&Query> = queries.iter().collect();
        let before = EDGES_REDUCED.with(|n| n.get());
        let outs = session.run_many(&refs, engine);
        assert!(outs.iter().all(|o| !o.is_empty()), "{exprs:?}");
        EDGES_REDUCED.with(|n| n.get()) - before
    }

    #[test]
    fn lanes_with_the_same_chain_share_one_reduction() {
        let session = Session::parse_xml(
            "<site><open_auction id='a'><bidder><increase/></bidder><date/></open_auction>\
             <open_auction id='b'><bidder><date/></bidder></open_auction></site>",
        )
        .unwrap()
        .with_threads(1);
        let fragmented = Engine::staircase().fragmented(true).build().unwrap();
        for engine in [Engine::default(), fragmented, Engine::auto()] {
            // `[bidder/increase]` is one edge to reduce (bidder against
            // increase); the candidates' own probe is not a reduction.
            let one = edges_reduced(&session, &["//open_auction[bidder/increase]"], engine);
            assert_eq!(one, 1, "{engine:?}");
            // Three lanes, one chain: still one reduction…
            let shared = edges_reduced(
                &session,
                &[
                    "//open_auction[bidder/increase]",
                    "//open_auction[bidder/increase]/@id",
                    "/descendant::open_auction[child::bidder/child::increase]/date",
                ],
                engine,
            );
            assert_eq!(shared, 1, "{engine:?}");
            // …and a lane with a different chain pays for its own.
            let mixed = edges_reduced(
                &session,
                &[
                    "//open_auction[bidder/increase]",
                    "//open_auction[bidder/date]",
                    "//open_auction[bidder/increase]/@id",
                ],
                engine,
            );
            assert_eq!(mixed, 2, "{engine:?}");
        }
    }
}
