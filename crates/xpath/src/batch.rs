//! Batch execution: one interpreter, and a memo of repeated steps.
//!
//! [`Executor::run`] — under every [`crate::Session::execute`] call —
//! runs a batch's queries in batch order on the calling thread. Each
//! query installs its own budget ambiently, runs under `catch_unwind`,
//! and advances each union branch (a *lane*) step by step through the
//! plan interpreter ([`Executor::exec_join`],
//! [`Executor::exec_predicates`]) as it was planned. `run` is the batch
//! of one.
//!
//! What the queries of a batch share is a per-call memo. A pre-pass over
//! the plans marks the keys at least two lanes will ask; only marked keys
//! are stored, so a batch of one query, or one where no key repeats,
//! stores nothing, and the last reader of an entry takes it by move. The
//! keys name paths and regions, not operators, so every operator shares:
//!
//! * **step key** — the branch's `absolute` flag and its steps `0..=i` —
//!   maps to step `i`'s output: an exact-prefix repeat;
//! * **join key** — the same prefix through step `i − 1` plus step `i`'s
//!   axis and node test — maps to the output before predicates, so
//!   `/descendant::bidder` and `/descendant::bidder[increase]` share one
//!   root scan (a predicate-free step's join key *is* its step key);
//! * **region key** — `following` or `preceding` plus the node test —
//!   holds the widest region a plane scan has read so far and its bound.
//!   The regions nest ([`following_from`], [`preceding_from`]): a
//!   narrower one is sliced out of it, a wider one reads only what it
//!   lacks and takes its place.
//!
//! Each key names work the batch does not repeat. Queries run in order
//! on one thread, so attribution is deterministic: a step- or join-key
//! hit reports 0 touched and 0 seeks with its own result size, a region
//! extension only the positions it read, and any other step — a plane
//! scan over a context an earlier query scanned under another node test
//! included — what its kernel did, exactly as it reports alone.
//!
//! A `preceding` region widened from a held bound `h` to a later bound
//! `b` reads `[h, b)` and probes the ancestors of `h` — each may precede
//! `b` without preceding `h` — so it charges exactly
//! `(b − h) + level(h)`: `level(h)` more than the difference of the two
//! regions read alone (`b` and `h`). A narrowed region reads nothing.
//!
//! The governor has one mechanism: the query's ambient budget, which the
//! kernels tick and the lane checks before and after every step (the
//! `xpath::lane` fail point fires before every step). A query that trips
//! or panics comes back as `Err`; its steps never enter the memo, so a
//! sibling asking the same key computes it.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use staircase_accel::{Axis, Context, Pre};
use staircase_core::governor::{self, Budget};
use staircase_core::{
    faults, following_from, following_start, preceding_bound, preceding_from, Scratch,
};

use crate::ast::NodeTest;
use crate::error::Error;
use crate::eval::{merge, scan_test, trace, EvalStats, Executor, StepTrace};
use crate::plan::{PathPlan, PhysicalPlan, PlannedStep, StepOp};
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
    match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_string(),
        None => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "query panicked".into()),
    }
}

/// What a lane carries from its query.
struct Lane<'b> {
    query: usize,
    branch_no: usize,
    /// The query has this one lane: its last step's output is the
    /// query's result.
    whole: bool,
    budget: Option<&'b Arc<Budget>>,
}

/// A path so far: the branch's `absolute` flag and the entry of its last
/// step's step key (`None` before the first step).
type Prefix = (bool, Option<usize>);

/// A memo key, borrowed from the batch's plans; see the module docs.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Key<'p> {
    /// A path's output: a step key, or a predicate-carrying step's join
    /// key.
    Path(Prefix, Last<'p>),
    /// The widest `following` (`true`) or `preceding` region read under
    /// a node test.
    Region(bool, &'p NodeTest),
}

/// A path's last step: its axis and node test when that is all it
/// renders (a predicate-free step, or any step's join), its rendering
/// otherwise.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Last<'p> {
    Join(Axis, &'p NodeTest),
    Step(&'p str),
}

/// The keys `step` asks after `prefix`: its step key, its join key and
/// its region key, where it has them.
fn step_keys(prefix: Prefix, step: &PlannedStep) -> [Option<Key<'_>>; 3] {
    let join = Last::Join(step.axis, &step.test);
    let plain = step.predicates.is_empty() && !matches!(step.op, StepOp::Twig(_));
    let last = if plain {
        join
    } else {
        Last::Step(&step.rendered)
    };
    let following = step.axis == Axis::Following;
    let horizontal = following || step.axis == Axis::Preceding;
    [
        Some(Key::Path(prefix, last)),
        (!step.predicates.is_empty()).then_some(Key::Path(prefix, join)),
        horizontal.then_some(Key::Region(following, &step.test)),
    ]
}

/// The marked keys one step of one lane asks, as memo entry indices, in
/// [`step_keys`] order: [`STEP`], [`JOIN`], [`REGION`].
type StepKeys = [Option<usize>; 3];
const STEP: usize = 0;
const JOIN: usize = 1;
const REGION: usize = 2;

/// Where a marked key's nodes live.
enum Held {
    /// A copy the memo owns.
    Owned(Context),
    /// The result of an earlier query of the batch, whose one lane's
    /// last step put them there: no copy is kept.
    Output(usize),
}

/// One marked key's state.
#[derive(Default)]
struct Entry {
    /// Lanes still to reach this key.
    readers: usize,
    /// A path key's output; a region key's widest region.
    nodes: Option<Held>,
    /// A region key's bound: the start of the `following` suffix, or the
    /// node the `preceding` region lies before.
    bound: Pre,
}

/// The results of the batch's queries run so far.
type Outputs = [Result<QueryOutput, Error>];

/// The per-call memo: the entries of the batch's keys, and each lane
/// step's marked keys into them — flat, in (query, branch, step) order,
/// with the first lane of each query and the first step of each lane
/// (all empty when nothing can repeat).
#[derive(Default)]
struct Memo {
    entries: Vec<Entry>,
    steps: Vec<StepKeys>,
    lanes: Vec<usize>,
    queries: Vec<usize>,
}

/// What a computed step may leave in the memo once its query has passed
/// the budget check.
#[derive(Default)]
struct Stash {
    /// The output before predicates, for the join key.
    joined: Option<Context>,
    /// The bound of a region wider than the one held: the step's output
    /// before predicates.
    region: Option<Pre>,
}

impl Memo {
    /// The pre-pass: counts every key every lane step will ask and marks
    /// those asked at least twice.
    fn plan(jobs: &[(Arc<PhysicalPlan>, Option<Arc<Budget>>)]) -> Memo {
        let mut memo = Memo::default();
        if jobs.len() < 2 {
            return memo;
        }
        let mut ids: HashMap<Key<'_>, usize> = HashMap::new();
        for (plan, _) in jobs {
            memo.queries.push(memo.lanes.len());
            for branch in plan.branches() {
                memo.lanes.push(memo.steps.len());
                let mut prefix = (branch.absolute, None);
                for step in &branch.steps {
                    let keys = step_keys(prefix, step).map(|key| {
                        let next = ids.len();
                        let k = *ids.entry(key?).or_insert(next);
                        if k == next {
                            memo.entries.push(Entry::default());
                        }
                        memo.entries[k].readers += 1;
                        Some(k)
                    });
                    prefix = (branch.absolute, keys[STEP]);
                    memo.steps.push(keys);
                }
            }
        }
        // A key asked once is never stored.
        for slot in memo.steps.iter_mut().flatten() {
            *slot = slot.filter(|&k| memo.entries[k].readers > 1);
        }
        memo
    }

    fn keys(&self, query: usize, branch: usize, step: usize) -> StepKeys {
        self.queries
            .get(query)
            .and_then(|&lane| self.steps.get(self.lanes[lane + branch] + step))
            .copied()
            .unwrap_or_default()
    }

    /// A lane reaches its step's keys, whether it reads them or not.
    fn arrive(&mut self, keys: StepKeys) {
        for k in keys.into_iter().flatten() {
            self.entries[k].readers -= 1;
        }
    }

    /// The nodes held under entry `k`, wherever they live.
    fn held<'a>(&'a self, k: usize, outputs: &'a Outputs) -> Option<&'a [Pre]> {
        match self.entries[k].nodes.as_ref()? {
            Held::Owned(nodes) => Some(nodes.as_slice()),
            Held::Output(q) => Some(outputs.get(*q)?.as_ref().ok()?.result.as_slice()),
        }
    }

    /// Entry `k`'s own copy, taken out of the memo.
    fn take_owned(&mut self, k: usize) -> Option<Context> {
        match self.entries[k].nodes.take() {
            Some(Held::Owned(nodes)) => Some(nodes),
            other => {
                self.entries[k].nodes = other;
                None
            }
        }
    }

    /// A path key's output: the memo's own copy moves out to its last
    /// reader; any other reader gets a copy in a pooled buffer.
    fn read(
        &mut self,
        key: Option<usize>,
        outputs: &Outputs,
        scratch: &mut Scratch,
    ) -> Option<Context> {
        let k = key?;
        if self.entries[k].readers == 0 {
            if let Some(nodes) = self.take_owned(k) {
                return Some(nodes);
            }
        }
        Some(copy(self.held(k, outputs)?, scratch))
    }

    /// Stores what a step left for the lanes still to come — by
    /// reference when the step's output is its query's result
    /// (`result_of`), by copy otherwise — and drops every entry of the
    /// step no lane will reach again.
    fn settle(
        &mut self,
        keys: StepKeys,
        out: &Context,
        stash: Stash,
        result_of: Option<usize>,
        scratch: &mut Scratch,
    ) {
        let Stash { joined, region } = stash;
        let wanted = |memo: &Memo, key: Option<usize>| {
            key.filter(|&k| memo.entries[k].readers > 0 && memo.entries[k].nodes.is_none())
        };
        if let (Some(k), Some(bound)) = (keys[REGION], region) {
            let held = match (&joined, result_of) {
                (None, Some(q)) => Held::Output(q),
                (joined, _) => {
                    Held::Owned(copy(joined.as_ref().unwrap_or(out).as_slice(), scratch))
                }
            };
            let entry = &mut self.entries[k];
            entry.bound = bound;
            if let Some(Held::Owned(old)) = entry.nodes.replace(held) {
                scratch.recycle(old);
            }
        }
        if let Some(joined) = joined {
            match wanted(self, keys[JOIN]) {
                Some(k) => self.entries[k].nodes = Some(Held::Owned(joined)),
                None => scratch.recycle(joined),
            }
        }
        if let Some(k) = wanted(self, keys[STEP]) {
            self.entries[k].nodes = Some(match result_of {
                Some(q) => Held::Output(q),
                None => Held::Owned(copy(out.as_slice(), scratch)),
            });
        }
        for k in keys.into_iter().flatten() {
            if self.entries[k].readers == 0 {
                if let Some(nodes) = self.take_owned(k) {
                    scratch.recycle(nodes);
                }
                self.entries[k].nodes = None;
            }
        }
    }
}

/// `nodes` copied into a pooled buffer.
fn copy(nodes: &[Pre], scratch: &mut Scratch) -> Context {
    let mut buf = scratch.take();
    buf.extend_from_slice(nodes);
    Context::from_sorted(buf)
}

impl Executor<'_> {
    /// Evaluates every job's plan from one shared starting context, the
    /// job's budget (if any) governing it — the executor's one entry
    /// point, under every [`crate::Session::execute`] call (`run` is the
    /// batch of one). Queries run in batch order and share repeated
    /// steps through the memo (see the module docs). A query that trips
    /// its budget — or panics — comes back as `Err` while its batch
    /// siblings complete normally.
    pub(crate) fn run(
        &self,
        jobs: &[(Arc<PhysicalPlan>, Option<Arc<Budget>>)],
        context: &Context,
    ) -> Vec<Result<QueryOutput, Error>> {
        let mut memo = Memo::plan(jobs);
        let mut outputs = Vec::with_capacity(jobs.len());
        self.scratch.with(|scratch| {
            for (q, (plan, budget)) in jobs.iter().enumerate() {
                let job = (q, plan.as_ref(), budget.as_ref());
                let out = self.run_query(job, context, &mut memo, &outputs, scratch);
                outputs.push(out);
            }
        });
        outputs
    }

    /// One query: its lanes in declaration order, their results merged
    /// and their step traces concatenated, under the query's budget.
    fn run_query(
        &self,
        (query, plan, budget): (usize, &PhysicalPlan, Option<&Arc<Budget>>),
        context: &Context,
        memo: &mut Memo,
        outputs: &Outputs,
        scratch: &mut Scratch,
    ) -> Result<QueryOutput, Error> {
        let _guard = budget.cloned().map(governor::enter);
        // A lone lane's last step output is the query's result.
        let whole = plan.branches().len() == 1;
        let mut output: Option<QueryOutput> = None;
        for (b, branch) in plan.branches().iter().enumerate() {
            let lane = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let lane = Lane {
                    query,
                    branch_no: b,
                    whole,
                    budget,
                };
                self.run_lane(&lane, branch, context, memo, outputs, scratch)
            }));
            let (result, stats) = lane.map_err(|p| Error::Internal(panic_message(p)))??;
            match &mut output {
                None => output = Some(QueryOutput { result, stats }),
                Some(acc) => {
                    acc.result = merge(&acc.result, &result);
                    acc.stats.steps.extend(stats.steps);
                }
            }
        }
        // The parser guarantees at least one branch; an empty union is
        // harmlessly empty rather than a panic.
        Ok(output.unwrap_or_default())
    }

    /// One lane, step by step: the budget is checked before and after
    /// every step, and only a step that passes the check settles its
    /// keys in the memo.
    fn run_lane(
        &self,
        lane: &Lane<'_>,
        branch: &PathPlan,
        context: &Context,
        memo: &mut Memo,
        outputs: &Outputs,
        scratch: &mut Scratch,
    ) -> Result<(Context, EvalStats), Error> {
        let tripped = || lane.budget.and_then(|b| b.check()).map(trip_error);
        let steps = branch.steps();
        let mut ctx = if branch.absolute {
            Context::singleton(self.doc.root())
        } else {
            context.clone()
        };
        let mut stats = EvalStats::default();
        for (i, step) in steps.iter().enumerate() {
            if let Some(err) = tripped() {
                return Err(err);
            }
            faults::fail_point("xpath::lane");
            let keys = memo.keys(lane.query, lane.branch_no, i);
            let (next, trace, stash) = self.memo_step(&ctx, step, keys, memo, outputs, scratch);
            if let Some(err) = tripped() {
                scratch.recycle(next);
                if let Some(joined) = stash.joined {
                    scratch.recycle(joined);
                }
                return Err(err);
            }
            let result_of = (lane.whole && i + 1 == steps.len()).then_some(lane.query);
            memo.settle(keys, &next, stash, result_of, scratch);
            stats.steps.push(trace);
            scratch.recycle(std::mem::replace(&mut ctx, next));
        }
        Ok((ctx, stats))
    }

    /// One step through the memo: an exact-prefix hit, else the join
    /// (itself a hit on the join key, a plane scan's region slice or
    /// extension, or the interpreter's join) followed by the step's
    /// predicates.
    fn memo_step(
        &self,
        ctx: &Context,
        step: &PlannedStep,
        keys: StepKeys,
        memo: &mut Memo,
        outputs: &Outputs,
        scratch: &mut Scratch,
    ) -> (Context, StepTrace, Stash) {
        memo.arrive(keys);
        if let Some(out) = memo.read(keys[STEP], outputs, scratch) {
            let trace = trace(step, out.len(), 0, 0, 0);
            return (out, trace, Stash::default());
        }
        let mut stash = Stash::default();
        let plane = matches!(step.op, StepOp::Staircase { .. } | StepOp::Horiz);
        let (joined, touched, produced, seeks) = match memo.read(keys[JOIN], outputs, scratch) {
            Some(joined) => (joined, 0, 0, 0),
            None => match keys[REGION].filter(|_| plane) {
                Some(k) => self.region_join(ctx, step, (memo, k), outputs, &mut stash, scratch),
                None => self.exec_join(ctx, step, scratch),
            },
        };
        let out = match self.exec_predicates(&joined, step, scratch) {
            Some(out) => {
                stash.joined = Some(joined);
                out
            }
            None => joined,
        };
        let trace = trace(step, out.len(), touched, produced, seeks);
        (out, trace, stash)
    }

    /// A horizontal plane scan served from the widest region held under
    /// its key: a narrower region is sliced out of it, a wider one reads
    /// only what the held one lacks and is stashed to replace it.
    fn region_join(
        &self,
        ctx: &Context,
        step: &PlannedStep,
        (memo, k): (&mut Memo, usize),
        outputs: &Outputs,
        stash: &mut Stash,
        scratch: &mut Scratch,
    ) -> (Context, u64, u64, u64) {
        let following = step.axis == Axis::Following;
        let bound = if following {
            following_start(self.doc, ctx)
        } else {
            preceding_bound(ctx)
        };
        let Some(bound) = bound else {
            return (Context::empty(), 0, 0, 0);
        };
        let last = memo.entries[k].readers == 0;
        if last && memo.entries[k].bound == bound {
            if let Some(nodes) = memo.take_owned(k) {
                return (nodes, 0, 0, 0);
            }
        }
        let held_bound = memo.entries[k].bound;
        let held = memo.held(k, outputs);
        let wider = match held {
            None => true,
            Some(_) if following => bound < held_bound,
            Some(_) => bound > held_bound,
        };
        let test = scan_test(self.doc, &step.test, step.axis);
        let (nodes, read) = match (following, held) {
            (true, Some(held)) => following_from(held_bound, held, bound, &test, scratch),
            (true, None) => {
                let n = self.doc.len() as Pre;
                following_from(n, &[], bound, &test, scratch)
            }
            (false, held) => {
                let (from, held) = held.map_or((0, &[][..]), |held| (held_bound, held));
                preceding_from(self.doc, from, held, bound, &test, scratch)
            }
        };
        if wider && !last {
            stash.region = Some(bound);
        }
        (Context::from_sorted(nodes), read.nodes_touched(), 0, 0)
    }
}

#[cfg(test)]
mod tests {
    use crate::eval::EDGES_REDUCED;
    use crate::{Engine, Query, Session};

    /// Chain edges reduced by one `run_many` over `exprs` (the whole
    /// batch runs on the calling thread, which owns the counter).
    fn edges_reduced(session: &Session, exprs: &[&str], engine: Engine) -> usize {
        let queries: Vec<Query> = exprs.iter().map(|e| session.prepare(e).unwrap()).collect();
        let refs: Vec<&Query> = queries.iter().collect();
        let before = EDGES_REDUCED.with(|n| n.get());
        let outs = session.run_many(&refs, engine);
        assert!(outs.iter().all(|o| !o.is_empty()), "{exprs:?}");
        EDGES_REDUCED.with(|n| n.get()) - before
    }

    /// A widened `preceding` region charges the gap between the bounds
    /// plus one probe per ancestor of the held bound.
    #[test]
    fn a_widened_preceding_region_charges_the_gap_and_the_held_bounds_ancestors() {
        // a0 b1 c2 d3 e4 f5 g6: `d` (level 2) is the held bound, `g` the
        // wider one.
        let session = Session::parse_xml("<a><b><c/><d/></b><e><f/></e><g/></a>").unwrap();
        let texts = ["//d/preceding::node()", "//g/preceding::node()"];
        let queries: Vec<Query> = texts.iter().map(|e| session.prepare(e).unwrap()).collect();
        let region = |out: &crate::QueryOutput| out.stats().steps[1].nodes_touched;
        let batch = session.run_many(&queries.iter().collect::<Vec<_>>(), Engine::default());
        let (held, bound) = (3u64, 6u64);
        let level = u64::from(session.doc().level(held as u32));
        assert_eq!(level, 2);
        assert_eq!(region(&queries[0].run(Engine::default())), held);
        assert_eq!(region(&queries[1].run(Engine::default())), bound);
        assert_eq!(region(&batch[0]), held);
        assert_eq!(region(&batch[1]), (bound - held) + level);
        assert_eq!(batch[1].nodes(), queries[1].run(Engine::default()).nodes());
    }

    #[test]
    fn lanes_with_the_same_chain_share_one_reduction() {
        let session = Session::parse_xml(
            "<site><open_auction id='a'><bidder><increase/></bidder><date/></open_auction>\
             <open_auction id='b'><bidder><date/></bidder></open_auction></site>",
        )
        .unwrap();
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

    /// A fused twig leg takes its predicate's list from the same memo as
    /// a step predicate: a batch reduces the chain once for both.
    #[test]
    fn twig_legs_share_the_reduction_of_a_step_predicate() {
        let session = Session::parse_xml(
            "<site><open_auction><bidder><increase/></bidder><date/></open_auction>\
             <open_auction><bidder/><date/></open_auction></site>",
        )
        .unwrap();
        let (step, fused) = (
            "/descendant::open_auction[bidder/increase]",
            "/descendant::open_auction[bidder/increase]/descendant::date",
        );
        let plan = session.explain(fused, Engine::twig()).unwrap().to_string();
        assert!(
            plan.contains("twig[open_auction.bidder.increase, "),
            "{plan}"
        );
        assert_eq!(edges_reduced(&session, &[fused], Engine::twig()), 1);
        assert_eq!(edges_reduced(&session, &[step, fused], Engine::twig()), 1);
    }
}
