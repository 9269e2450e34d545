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
//!   [`staircase_core::cost`]) and keeps the cheapest. A vertical step
//!   chooses between two: the prebuilt fragment join for selective name
//!   tests, the estimation-skipping staircase join otherwise. The
//!   tree-unaware plans (naive, SQL) are never candidates: they scan
//!   every context node's unpruned window, so they win only where they
//!   are mispriced. `child::name` is priced too: the on-list
//!   child join ([`staircase_core::child_on_list`]) against the
//!   structural hop over every child, which every fixed engine takes.
//!   The plan is priced once and runs as priced (see *One plan* below).
//!   Results are node-identical to every fixed engine (property-tested);
//!   only the access pattern changes.
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
//! is evaluated per candidate, and the queries of a batch carrying the
//! same predicate share one reduction.
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
//! `descendant::` step, whose predicates are semijoin chains that start
//! downward — and can fuse a whole region into one [`StepOp::Twig`]
//! operator. The region is itself a [`SemijoinChain`] (its links the
//! spine legs, each link's predicates that leg's), so there is one
//! pattern type, one renderer and one reducer: each leg predicate's list
//! is reduced by the same memoised semijoins a step predicate over the
//! same chain uses, and shared with it in a batch. The operator is a
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
//!   region run as fragment joins): the forced form, which the tests
//!   and the oracle run to check the operator on every generated
//!   document;
//! * [`Engine::auto`] plans each region step at a time first and keeps
//!   that plan's row estimates. It fuses only where the step plan's peak
//!   join rows (the largest intermediate it carries into its
//!   predicates) exceed the leapfrog's price:
//!   [`staircase_core::DocStats::twig_frontier_cost`] (the seek bill)
//!   plus reducing the legs' longer predicate chains. Uniform workloads
//!   keep their step-at-a-time plans.
//!
//! In `EXPLAIN` output a fused region renders as its leaf paths, e.g.
//! `twig[a>b, a>c.d]` (`>` a descendant edge, `.` a child edge, `^` an
//! ancestor link inside a predicate), as a semijoin chain renders.
//!
//! ## One plan
//!
//! Planning trusts the *cardinality model* (Equation-1 windows scaled by
//! global tag frequencies, misled whenever a tag's mass is clustered
//! rather than uniform). The executor runs the plan it is handed, step
//! by step, and never switches an operator mid-query: the plan
//! [`Session::explain`] prints is the plan that runs, under every engine,
//! alone and in [`Session::run_many`]. Where the model multiplies guesses
//! it trusts least — stacked existential predicates on one step — it
//! takes the most selective leg instead of their product: a step's
//! predicates together halve its estimated rows once.
//! [`StepTrace::replanned`] is always `false`.
//!
//! Nothing a query does changes how a later one is planned: a twig
//! region is priced from the same document statistics as every step,
//! so a plan — and its EXPLAIN — depends only on the
//! document, the normalised expression and the engine, which is what
//! [`Query`]'s per-engine plan cache assumes.
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
//!   cached per engine, so repeated runs skip planning;
//! * [`Session::execute`] is the one way in: a batch of queries, each
//!   with an optional [`Budget`], from the root or an explicit context.
//!   [`Query::run`], [`Session::run`] and [`Session::run_many`] are its
//!   ungoverned, from-the-root cases;
//! * every failure is a typed [`Error`]; nothing on the query path
//!   panics.
//!
//! ## Batches
//!
//! Every evaluation is a batch: [`Session::execute`] runs its queries in
//! batch order through the one plan interpreter, and [`Query::run`] is
//! the batch of one. What a batch shares is a per-call memo of step
//! outputs, keyed by path text rather than by operator, so every
//! operator shares: a step whose path prefix an earlier query already
//! evaluated is a hit, a step that differs from an earlier one only in
//! its predicates reuses the join output before predicates, and the
//! nested `following`/`preceding` regions of a plane scan are read once
//! — a narrower region is sliced out of a wider one, a wider one reads
//! only what the held one lacks. Only keys that at least two branches of
//! the batch will ask are stored. Per-query [`EvalStats`] count
//! *incremental* cost: a hit reports zero touched and zero seeks with
//! its own result size, a region extension reports only the positions
//! it read, and every other step — a plane scan over a context an
//! earlier query scanned under another node test included — reports
//! what its kernel did, exactly as it does alone.

//! ## Threading model
//!
//! A query runs **sequentially on the thread that asked**: every step,
//! every kernel, and the queries of a batch one after another, so what
//! each query reports is deterministic. Nothing on the query path
//! spawns a thread; [`Session::warm`] alone overlaps its two index
//! builds on a scoped thread. ([`Session::with_threads`] is a no-op,
//! kept for existing callers.)
//!
//! Sessions are [`Sync`]: concurrent callers — the query server's
//! connection threads — share the document, its cached auxiliary
//! structures, and a small set of scratch-buffer shards.
//!
//! ## Governance and the failure model
//!
//! Long or adversarial queries are kept on a leash by the **query
//! governor** ([`staircase_core::governor`]): a [`Budget`] carries an
//! optional wall-clock deadline, an optional touched-nodes cost
//! ceiling, and a cancellation flag, and is enforced *cooperatively* —
//! it is installed ambiently around its own query, the core kernels
//! charge it every node they count (a query's steps' `nodes_touched +
//! pred_touched`), and the executor checks it before and after every
//! step, so a governed query stops with bounded overshoot and no locks
//! held. A query is governed by handing [`Session::execute`] a budget in
//! its slot; ungoverned slots pay nothing (one branch per kernel).
//!
//! What can fail, and what survives:
//!
//! * a tripped budget fails **only its own query** —
//!   [`Error::DeadlineExceeded`], [`Error::BudgetExhausted`], or
//!   [`Error::Cancelled`] — and its partial work is discarded, never
//!   returned;
//! * sibling queries of the same [`Session::execute`] batch
//!   complete **node- and order-identical to an ungoverned run**: a
//!   step of a failing query never enters the batch's memo, so a
//!   sibling asking the same step computes it;
//! * a panic inside one query's evaluation (a bug, or a
//!   [`staircase_core::faults`] fail point) is caught at the query
//!   boundary and isolated as [`Error::Internal`] — the [`Session`],
//!   its cached auxiliary structures, and every other query remain
//!   fully usable.
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
//! // A batch computes a step several queries ask once.
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
    TestOp,
};
pub use session::{AuxBuilds, Query, QueryOutput, Session};
pub use staircase_core::faults;
pub use staircase_core::governor::{self, Budget, Trip};
