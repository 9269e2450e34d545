//! # staircase-xpath
//!
//! An XPath subset — parser, AST, normaliser, **planner**, and plan
//! interpreter — over the XPath accelerator encoding, fronted by a
//! session API.
//!
//! ## Normalisation
//!
//! The parser emits the literal W3C expansion of the abbreviated syntax:
//! `//x` is `/descendant-or-self::node()/child::x`, `.` is
//! `self::node()`. Planned literally, `//x` scans the whole plane and
//! then runs the structural child loop over every node. One logical
//! pass between parse and plan ([`Session::prepare`] applies it once,
//! for every engine alike) rewrites each path — predicate paths
//! included — so that the planner sees the axis step the abbreviation
//! stands for:
//!
//! * a predicate-free `descendant-or-self::node()` followed by
//!   `child::T[p…]` or `descendant::T[p…]` becomes `descendant::T[p…]`;
//!   followed by `descendant-or-self::T[p…]` it becomes
//!   `descendant-or-self::T[p…]`;
//! * a predicate-free `self::node()` is dropped when another step
//!   remains (so `.//x` and `[.//x]` are `descendant::x`).
//!
//! **Precondition:** predicates are existential only. The parser
//! rejects positional predicates (`a[1]`), so whether `T[p…]` keeps a
//! node never depends on which context node reached it or on its rank
//! among its siblings — which is what makes testing the descendants
//! directly equal to testing the children of every descendant. A
//! grammar extension that adds `position()` must restrict the first
//! rule to steps without positional predicates. Nothing else is
//! rewritten: `descendant-or-self::node()[x]/child::y`,
//! `descendant-or-self::*/child::y` and `//@id` plan as written.
//!
//! [`Query::text`] keeps the user's text; [`PlannedStep::source`] and
//! `EXPLAIN` show the normalised step, with what was written
//! ([`PlannedStep::origin`]) next to it when the two differ:
//! `step descendant::item  (from //item)`.
//!
//! ## The plan/execute split
//!
//! Query evaluation is two phases. *Planning* lowers a parsed,
//! normalised expression into a [`PhysicalPlan`]: per step, a typed operator
//! ([`StepOp`] — plain staircase join, §6 tag-fragment join, §3.1
//! naive region scan, Figure-3 SQL plan, horizontal scan, structural
//! axis, twig region), a node-test operator ([`TestOp`]), lowered
//! predicate operators ([`PredOp`], including the §3.3 semijoin fast
//! path), and a cost estimate. *Execution* interprets the plan; it makes
//! no engine decisions of its own.
//!
//! An [`Engine`] is therefore a **planning policy**:
//!
//! * the fixed engines — `Engine::staircase().variant(..).pushdown(..)`,
//!   `.fragmented(true)`, `Engine::sql().eq1_window(..)`,
//!   [`Engine::naive`] — lower every step to the operator that engine
//!   always uses (builders validate configurations up front);
//! * [`Engine::auto`] prices the candidate operators per step from
//!   document statistics (node counts, per-tag fragment sizes,
//!   Equation-1 context-window estimates; see
//!   [`staircase_core::cost`]) and keeps the cheapest — fragment joins
//!   for selective name tests, the estimation-skipping staircase join
//!   for unselective steps. `child::name` is priced too: the on-list
//!   child join ([`staircase_core::child_on_list`]) against the
//!   structural hop over every child, which every fixed engine takes.
//!   The plan is where auto starts, not where it must finish: it
//!   re-prices pending steps mid-query from *observed* frontiers (see
//!   *Feedback loops* below). Results are node-identical to every fixed
//!   engine (property-tested); only the access pattern changes.
//!   [`Engine::adaptive`] is another name for it.
//!
//! [`Session::explain`] / [`Query::explain`] return the plan with
//! per-step cost estimates (`xq --explain` on the command line).
//!
//! ## Predicates as semijoin chains
//!
//! A relative predicate path whose steps are all `child`/`descendant`/
//! `ancestor` name tests — each step's own predicates of the same shape
//! again — is an existential tree pattern, and lowers to
//! [`PredOp::Semijoin`] carrying a [`SemijoinChain`] instead of the
//! nested-loop [`PredOp::Filter`]. The chain is evaluated leaf to root
//! with one semijoin per edge (the Yannakakis reduction of an acyclic
//! query): every step's node list is resolved **once** — the prebuilt
//! tag fragment, or one query-time selection scan — then, right to
//! left, each list keeps the nodes that have a survivor of the next
//! list on the next step's axis (`has_child_in` / `has_descendant_in` /
//! `has_ancestor_in`), and the candidates are finally probed against
//! the first step's reduced list exactly like a one-step `[t]`. Nothing
//! is evaluated per candidate, lanes of a batch carrying the same
//! predicate share one reduction, and such steps stay `[lane]`-batchable.
//! `EXPLAIN` renders a chain by its leaf paths, `+ semijoin[bidder.increase]`
//! (`.` a child edge, `>` descendant, `^` ancestor; the edge out of the
//! candidates is implicit).
//!
//! The staircase, fragmented and twig engines take the chain
//! whenever the shape allows. [`Engine::auto`] prices a multi-step
//! chain (one [`staircase_core::DocStats::semijoin_cost`] per edge: it
//! grows with the *lists*) against the nested loop
//! ([`staircase_core::DocStats::nested_loop_cost`]: it grows with the
//! *candidates*) and keeps the cheaper. [`Engine::naive`] and
//! [`Engine::sql`] keep the nested loop, as the paper's baselines, and
//! so does every predicate a chain cannot express (horizontal,
//! absolute, attribute or `parent` steps, tests other than a name).
//!
//! ## Twig planning
//!
//! Step-at-a-time evaluation has a worst case the paper's cost model
//! can see coming: a run of vertical steps whose intermediate results
//! dwarf the final answer (`//a[b]//c[d]` on a document where almost
//! every `a` has a `b` but almost none leads to a `c[d]`). For these
//! the planner recognizes **twig regions** — maximal runs of
//! `descendant::`/`child::` name-test steps, starting on a
//! `descendant::` step, whose predicates are themselves vertical
//! existential paths — and can fuse a whole region into one
//! [`StepOp::Twig`] operator ([`TwigSpec`] describes the shape): a
//! worst-case-optimal **multiway leapfrog intersection**
//! ([`staircase_core::twig_match`]) that runs one galloping cursor per
//! leg over the §6 per-tag pre/post fragments and never materializes an
//! intermediate step result. Output is the last leg's bindings in
//! document order, node-identical to the step-at-a-time plans
//! (property-tested), and the step's [`StepTrace`] reports the actual
//! cursor `seeks` next to the nodes touched — as fragment-join steps do
//! (one gallop per partition and per subtree jump); only the plane scans
//! report zero.
//!
//! Two engines reach the operator:
//!
//! * [`Engine::twig`] fuses *every* eligible region (steps outside a
//!   region run as fragment joins) — the forced form benchmarks use;
//! * [`Engine::auto`] prices each region both ways —
//!   [`staircase_core::DocStats::step_blowup_estimate`] (the peak
//!   intermediate a step plan would carry) against
//!   [`staircase_core::DocStats::twig_frontier_cost`] (the leapfrog's
//!   seek bill) — and fuses only where the blowup exceeds the frontier
//!   cost, so uniform workloads keep their step-at-a-time plans.
//!
//! In `EXPLAIN` output a fused region renders as its leaf paths, e.g.
//! `twig[a>b, a>c.d]` (`>` a descendant edge, `.` a child edge).
//!
//! ## Feedback loops
//!
//! Static planning trusts two things that can be wrong at run time:
//! the *cardinality model* (Equation-1 windows scaled by global tag
//! frequencies — misled whenever a tag's mass is clustered rather than
//! uniform) and the *cost constants* (the twig seek bill is predicted
//! from first principles). Two feedback loops correct for both without
//! giving up the plan/execute split:
//!
//! * **Re-planning at step boundaries** ([`Engine::auto`]). After each
//!   advance of a lane planned under auto, the executor compares the
//!   lane's *observed* frontier cardinality against the planner's
//!   estimate. When they disagree by 8× or more, the observed frontier
//!   is overlaid on the document statistics
//!   ([`staircase_core::RuntimeStats::observed`]: its cardinality, and
//!   the exact unpruned window the SQL plan would scan), the pending
//!   step's candidates are re-priced — among the operators whose
//!   structures the query's own plan already needs, so a switch never
//!   brings the fragment index or the B-tree into existence, and a query
//!   switches the same way alone as in [`Session::run_many`] — and the
//!   operator is switched in place if the observed
//!   ranking disagrees with the planned choice. Fixed engines and
//!   `twig` run their plans as planned. Switching
//!   is lane-local (the cached plan is copy-on-write, so other lanes
//!   and later runs are untouched), results stay node-identical to
//!   every fixed engine (property-tested at pool widths 1/2/4, through
//!   [`Session::run`] and [`Session::run_many`] alike), and switched
//!   steps carry a `[replan]` marker in their [`StepTrace`] and in the
//!   post-run report (`xq --explain --stats`). On well-estimated
//!   workloads the disagreement gate keeps the overhead near zero.
//! * **Constant calibration** ([`Session::calibrator`],
//!   [`staircase_core::Calibrator`]). Every executed twig step reports
//!   its actual leapfrog seek count ([`StepTrace::seeks`]) against the
//!   cost the planner predicted; the session keeps a clamped
//!   exponentially-weighted ratio and later plans scale
//!   [`staircase_core::DocStats::twig_frontier_cost`] by it — so the
//!   fuse-or-not decision sharpens with observed behaviour instead of
//!   drifting on mispredicted constants.
//!
//! The fragment index itself is no feedback loop: a session builds every
//! tag's fragment in one sweep over the columns the first time a plan
//! needs the index ([`Session::tag_index`]), or ahead of traffic with
//! [`Session::warm`] (the server's `--warm`).
//!
//! ## The session API
//!
//! * [`Session`] owns a loaded document plus lazily built, cached
//!   auxiliary structures (per-tag fragments, the SQL baseline's
//!   B-tree, document statistics), shared across queries and engines;
//!   executing a plan builds exactly what that plan needs.
//!   [`Session::warm`] builds everything eagerly (and concurrently)
//!   ahead of traffic;
//! * [`Query`] ([`Session::prepare`]) is parsed once and run many times,
//!   against any engine, yielding a [`QueryOutput`]; physical plans are
//!   cached per engine, so repeated runs skip re-planning;
//! * [`Session::execute`] is the one way in: a batch of queries, each
//!   with an optional [`Budget`], from the root or an explicit context.
//!   [`Query::run`], [`Session::run`] and [`Session::run_many`] are its
//!   ungoverned, from-the-root cases;
//! * every failure is a typed [`Error`]; nothing on the query path
//!   panics.
//!
//! ## Lane-native execution
//!
//! Multi-context execution is the **native form**: every evaluation is
//! a batch of *lanes* (one per union branch per query), advancing in
//! rounds, and [`Query::run`] is simply [`Session::run_many`] with
//! K = 1. Batchability is a *declared property of the planned operator*
//! ([`PlannedStep::batchable`]): plain staircase joins, fragment
//! (on-list) joins, horizontal scans, and semijoin predicate probes all
//! carry multi-context forms in `staircase_core`, so lanes whose
//! current steps agree — whatever engine planned them, including
//! [`Engine::auto`] — advance together each round (one pruning and
//! one partition loop per distinct plane-scan lane, one list resolution
//! per shared tag fragment, one suffix/prefix scan per horizontal
//! group, grouped predicate probes). Only the
//! genuinely unbatchable residue — nested-loop predicates, structural
//! axes, the naive/SQL/twig operators — drops to the sequential
//! per-lane interpreter. Per-query [`EvalStats`] count *incremental*
//! cost: a vertical step reports its cost alone unless an identical
//! step (or a further test over the same open context) already paid
//! for it; a horizontal scan's shared suffix/prefix is attributed to the
//! first lane that needed it.
//!
//! ## Threading model
//!
//! Every session owns a **persistent worker pool**
//! ([`staircase_core::WorkerPool`]), built once — width 1 by default,
//! [`Session::with_threads`] or the `STAIRCASE_THREADS` environment
//! variable to widen — and reused by every query, batch, and
//! [`Session::warm`]; nothing on the query path spawns threads per
//! call. Width `n` means `n` executors: `n − 1` pool threads plus the
//! querying thread itself, which drains the same work queue while it
//! waits, so a width-1 session is *exactly* the sequential executor
//! with zero handoff anywhere.
//!
//! On a wider pool the lane executor parallelises two ways:
//!
//! * **Across a round**: each lane-form group's shared pass — and each
//!   per-lane fallback step — is an independent piece of the round and
//!   runs as its own pool task, sweeping out its own scratch shard
//!   ([`staircase_core::ScratchPool`]).
//! * **Inside a pass**: a step whose cost estimate carries the
//!   planner's *fanout hint* ([`PlannedStep::fanout`], `[par]` in
//!   `EXPLAIN` output) splits its scan into **morsels** — contiguous
//!   chunks of the pruned boundary list, disjoint pre-ranges in the
//!   paper's §3.2/Figure-8 sense — so per-worker results concatenate in
//!   document order with no merge sort, and per-worker statistics sum
//!   to the sequential counters *exactly* (the plane-scan `_many`
//!   kernels, handed the pool, reproduce the sequential scans'
//!   per-position behaviour, asserted by equivalence tests at widths
//!   1/2/4). Steps below the cost
//!   model's fanout floor stay sequential however wide the pool is, so
//!   small queries never pay worker handoff.
//!
//! Sessions are [`Sync`]: concurrent callers share the same pool and
//! shards, which is the execution backbone the future query server
//! batches onto.
//!
//! ## Governance and the failure model
//!
//! Long or adversarial queries are kept on a leash by the **query
//! governor** ([`staircase_core::governor`]): a [`Budget`] carries an
//! optional wall-clock deadline, an optional touched-nodes cost
//! ceiling, and a cancellation flag, and is enforced *cooperatively* —
//! the core kernels tick it at partition/chunk/seek boundaries and the
//! lane executor checks it at round boundaries, so a governed query
//! stops with bounded overshoot and no locks held. A query is governed
//! by handing [`Session::execute`] a budget in its slot; ungoverned
//! slots pay nothing (one branch per kernel).
//!
//! What can fail, and what survives:
//!
//! * a tripped budget fails **only its own query** —
//!   [`Error::DeadlineExceeded`], [`Error::BudgetExhausted`], or
//!   [`Error::Cancelled`] — and its partial work is discarded, never
//!   returned;
//! * sibling queries of the same [`Session::execute`] batch
//!   complete **node- and order-identical to an ungoverned run**: a
//!   pass shared with a failing query runs ungoverned to completion and
//!   only the failing query is charged at the round boundary;
//! * a panic inside one query's evaluation (a bug, or a
//!   [`staircase_core::faults`] fail point) is caught at the lane/pass
//!   boundary and isolated as [`Error::Internal`] — the [`Session`],
//!   its worker pool, its cached auxiliary structures, and every other
//!   query remain fully usable.
//!
//! The supported grammar covers what the paper's experiments need and the
//! usual abbreviations:
//!
//! ```text
//! path      := '/'? step ('/' step)*             (also '//' abbreviation)
//! step      := (axis '::')? nodetest pred*  |  '.'  |  '..'  |  '@' name
//! nodetest  := name | '*' | 'node()' | 'text()' | 'comment()'
//!            | 'processing-instruction()'
//! pred      := '[' path ']'                      (existential semantics)
//! ```
//!
//! Predicates nest at most [`MAX_PREDICATE_DEPTH`] (64) levels deep; a
//! deeper expression is a [`ParseError`]. The parser, the normaliser,
//! the planner and the chain reduction all recurse once per level, so
//! that one limit bounds the stack every one of them can use, whatever
//! the length of the expression text.
//!
//! ## Example
//!
//! Cost-based planning end to end: inspect the plan, then run it.
//!
//! ```
//! use staircase_xpath::{Engine, Error, Session, StepOp};
//!
//! let session = Session::parse_xml(
//!     "<site><open_auctions><open_auction><bidder><increase/></bidder>\
//!      <bidder><increase/></bidder></open_auction></open_auctions></site>")?;
//!
//! // A selective name test plans as a prebuilt fragment join under auto…
//! let plan = session.explain("/descendant::increase/ancestor::bidder",
//!                            Engine::auto())?;
//! assert!(matches!(plan.branches()[0].steps()[0].operator(),
//!                  StepOp::Fragment { prescan: false }));
//!
//! // …and runs identically to every fixed engine.
//! let query = session.prepare("/descendant::increase/ancestor::bidder")?;
//! assert_eq!(query.run(Engine::auto()).nodes(),
//!            query.run(Engine::default()).nodes());
//!
//! // Batches still share plane passes wherever planned steps line up.
//! let batch = [
//!     session.prepare("/descendant::increase/ancestor::bidder")?,
//!     session.prepare("//bidder")?,
//! ];
//! let queries: Vec<&_> = batch.iter().collect();
//! let outputs = session.run_many(&queries, Engine::auto());
//! assert_eq!(outputs[1].len(), 2);
//! # Ok::<(), Error>(())
//! ```

#![warn(missing_docs)]

mod ast;
mod batch;
mod engine;
mod error;
mod eval;
mod normalize;
mod parser;
mod plan;
mod session;

pub use ast::{NodeTest, Path, Predicate, Step, UnionExpr};
pub use engine::{Engine, SqlBuilder, StaircaseBuilder};
pub use error::Error;
pub use eval::{EvalStats, StepTrace};
pub use parser::{parse, parse_union, ParseError, MAX_PREDICATE_DEPTH};
pub use plan::{
    PathPlan, PhysicalPlan, PlannedStep, PredOp, SemijoinAxis, SemijoinChain, StepEstimate, StepOp,
    TestOp, TwigSpec,
};
pub use session::{AuxBuilds, Query, QueryOutput, Session};
pub use staircase_core::faults;
pub use staircase_core::governor::{self, Budget, Trip};
