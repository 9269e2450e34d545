//! The session façade: one typed entry point for every engine.
//!
//! A [`Session`] owns a loaded [`Doc`] plus lazily built, *cached*
//! auxiliary structures — the per-tag [`TagIndex`] fragments and the SQL
//! baseline's [`SqlEngine`] B-tree — shared across queries and engines.
//! A [`Query`] is parsed once ([`Session::prepare`]) and run many times,
//! against any [`Engine`]; results come back as a [`QueryOutput`] whose
//! node sequence iterates without cloning.
//!
//! ```
//! use staircase_xpath::{Engine, Error, Session};
//!
//! let session = Session::parse_xml(
//!     "<site><open_auctions><open_auction><bidder><increase/></bidder>\
//!      </open_auction></open_auctions></site>")?;
//! let query = session.prepare("/descendant::increase/ancestor::bidder")?;
//! let hits = query.run(Engine::default());
//! assert_eq!(hits.len(), 1);
//! // Same parsed query, different engine — auxiliary structures are
//! // built at most once and reused.
//! let via_sql = query.run(Engine::sql().eq1_window(true).build()?);
//! assert_eq!(hits.nodes(), via_sql.nodes());
//! # Ok::<(), Error>(())
//! ```
//!
//! Nothing on this path panics: document loading, expression parsing,
//! engine configuration, and evaluation all report through
//! [`Error`].

use std::path::Path as FsPath;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use staircase_accel::{Context, DecodeError, Doc, Pre};
use staircase_baselines::SqlEngine;
use staircase_core::cost::{Calibrator, DocStats};
use staircase_core::governor::Budget;
use staircase_core::{ScratchPool, TagIndex, WorkerPool};

use crate::ast::UnionExpr;
use crate::batch::trip_error;
use crate::engine::Engine;
use crate::error::Error;
use crate::eval::{EvalStats, Executor};
use crate::normalize::normalize;
use crate::parser::parse_union;
use crate::plan::{plan_union, PhysicalPlan};

/// A loaded document plus cached auxiliary structures, ready to answer
/// queries on any engine. See the [crate docs](crate) for an example.
pub struct Session {
    doc: Doc,
    tags: OnceLock<TagIndex>,
    sql: OnceLock<SqlEngine>,
    stats: OnceLock<DocStats>,
    tag_builds: AtomicUsize,
    sql_builds: AtomicUsize,
    /// Session-lifetime cost calibrator: every executed twig step feeds
    /// its (predicted cost, observed seeks) pair back in, and both the
    /// planner and auto's mid-query re-planner read the fitted seek
    /// constant out. See [`Calibrator`].
    calibrator: Calibrator,
    /// The lane executor's buffer pools, persisted across queries and
    /// batches so a steady-state session stops allocating per step.
    /// Sharded (two shards per pool executor): concurrent queries and
    /// parallel round tasks each sweep out their own shard instead of
    /// falling back to throwaway allocations.
    scratch: ScratchPool,
    /// The session's persistent worker pool: built once (at
    /// construction, from [`Session::with_threads`] or the
    /// `STAIRCASE_THREADS` environment default) and reused by every
    /// query, batch, and [`Session::warm`] — nothing on the session path
    /// spawns threads per call. Width 1 spawns no threads at all.
    workers: WorkerPool,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("nodes", &self.doc.len())
            .field("threads", &self.workers.width())
            .field("tag_index_built", &self.tags.get().is_some())
            .field("sql_engine_built", &self.sql.get().is_some())
            .finish()
    }
}

/// How many times each lazily built auxiliary structure was actually
/// constructed; see [`Session::aux_builds`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuxBuilds {
    /// Constructions of the per-tag fragment index.
    pub tag_index: usize,
    /// Constructions of the SQL engine's B-tree.
    pub sql_engine: usize,
}

impl Session {
    /// Wraps an already encoded document. The worker-pool width defaults
    /// to the `STAIRCASE_THREADS` environment variable when set (and ≥ 1),
    /// else to 1 — fully sequential; see [`Session::with_threads`].
    pub fn new(doc: Doc) -> Session {
        Session::with_pool_width(doc, default_threads())
    }

    /// Rebuilds this session's worker pool with `threads` executors
    /// (clamped to ≥ 1): `threads − 1` persistent worker threads plus the
    /// querying thread itself. Every engine's evaluation fans out on this
    /// pool wherever the planner's cost hint says the work amortizes the
    /// handoff; width 1 spawns nothing and keeps the whole path
    /// sequential. Configure before preparing queries:
    ///
    /// ```
    /// # use staircase_xpath::{Engine, Error, Session};
    /// let session = Session::parse_xml("<a><b/><b/></a>")?.with_threads(4);
    /// assert_eq!(session.threads(), 4);
    /// assert_eq!(session.run("//b", Engine::default())?.len(), 2);
    /// # Ok::<(), Error>(())
    /// ```
    pub fn with_threads(mut self, threads: usize) -> Session {
        let threads = threads.max(1);
        self.workers = WorkerPool::new(threads);
        self.scratch = ScratchPool::new(threads * 2);
        self
    }

    /// The worker-pool width queries of this session execute on.
    pub fn threads(&self) -> usize {
        self.workers.width()
    }

    fn with_pool_width(doc: Doc, threads: usize) -> Session {
        let threads = threads.max(1);
        Session {
            doc,
            tags: OnceLock::new(),
            sql: OnceLock::new(),
            stats: OnceLock::new(),
            tag_builds: AtomicUsize::new(0),
            sql_builds: AtomicUsize::new(0),
            calibrator: Calibrator::new(),
            scratch: ScratchPool::new(threads * 2),
            workers: WorkerPool::new(threads),
        }
    }

    /// Parses XML text and encodes it.
    ///
    /// # Errors
    ///
    /// [`Error::Xml`] when the text is not well-formed.
    pub fn parse_xml(xml: &str) -> Result<Session, Error> {
        Ok(Session::new(Doc::from_xml(xml)?))
    }

    /// Reads and parses an XML file.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the file cannot be read, [`Error::Xml`] when it
    /// is not well-formed.
    pub fn open_xml(path: impl AsRef<FsPath>) -> Result<Session, Error> {
        Session::parse_xml(&std::fs::read_to_string(path)?)
    }

    /// Decodes a document persisted with [`Doc::to_bytes`] and checks the
    /// encoding invariants ([`Doc::validate`]) before anything indexes it:
    /// the bytes may come from anywhere.
    ///
    /// # Errors
    ///
    /// [`Error::Decode`] when the bytes are not a valid encoded plane.
    pub fn from_encoded_bytes(bytes: &[u8]) -> Result<Session, Error> {
        let doc = Doc::from_bytes(bytes)?;
        doc.validate().map_err(DecodeError::Corrupt)?;
        Ok(Session::new(doc))
    }

    /// Reads a persisted (`.scj`) document.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the file cannot be read, [`Error::Decode`] when
    /// it does not decode or does not validate.
    pub fn open_encoded(path: impl AsRef<FsPath>) -> Result<Session, Error> {
        Session::from_encoded_bytes(&std::fs::read(path)?)
    }

    /// The encoded document.
    pub fn doc(&self) -> &Doc {
        &self.doc
    }

    /// Releases the session, handing the document back.
    pub fn into_doc(self) -> Doc {
        self.doc
    }

    /// Parses `expr` — and normalises it, once, for every engine alike
    /// (see *Normalisation* in the [crate docs](crate)) — into a
    /// reusable [`Query`] bound to this session.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] when the expression does not parse.
    pub fn prepare(&self, expr: &str) -> Result<Query<'_>, Error> {
        let parsed = normalize(&parse_union(expr)?);
        Ok(Query {
            session: self,
            parsed,
            text: expr.to_string(),
            plans: Mutex::new(Vec::new()),
        })
    }

    /// One-shot convenience: [`Session::prepare`] + [`Query::run`].
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] when the expression does not parse.
    pub fn run(&self, expr: &str, engine: Engine) -> Result<QueryOutput, Error> {
        Ok(self.prepare(expr)?.run(engine))
    }

    /// Evaluates a whole batch of prepared queries from the document
    /// root, **advancing together** wherever the queries' current steps
    /// agree on a planned operator: [`Session::execute`] with no budgets.
    ///
    /// Each round, lanes are grouped by the step's declared lane form
    /// ([`crate::PlannedStep::batchable`]): plain staircase joins prune
    /// each distinct context once and run one partition loop per
    /// distinct (context, test) lane
    /// ([`staircase_core::descendant_many`] /
    /// [`staircase_core::ancestor_many`]), fragment (on-list) joins
    /// naming the same tag share one cursor over its node list
    /// ([`staircase_core::descendant_on_list_many`] /
    /// [`staircase_core::ancestor_on_list_many`]), horizontal steps
    /// share one suffix/prefix scan
    /// ([`staircase_core::following_many`] /
    /// [`staircase_core::preceding_many`]), and semijoin predicates are
    /// probed group-wise ([`staircase_core::has_descendant_in_many`]
    /// and friends). Only the residue without a multi-context form —
    /// nested-loop predicates, structural axes, the naive/SQL/twig
    /// operators — evaluates per lane, so for every query
    /// `run_many(&[q])[0].nodes() == q.run(engine).nodes()` holds
    /// engine-independently (property-tested). [`Query::run`] itself is
    /// the K = 1 case: single queries and batches execute through the
    /// same lane executor.
    ///
    /// Outputs arrive in input order with per-query [`EvalStats`]. In a
    /// batch, statistics count *incremental* cost: a vertical step
    /// reports what it costs alone, except that a query repeating an
    /// earlier one's step (same context, same test) or asking a further
    /// test of a context already open reports zero touches — it shared
    /// that pass. Horizontal steps keep their nested-region sharing: a
    /// suffix or prefix read for several queries is attributed to the
    /// first one that needed it.
    pub fn run_many(&self, queries: &[&Query<'_>], engine: Engine) -> Vec<QueryOutput> {
        let jobs: Vec<_> = queries.iter().map(|&q| (q, None)).collect();
        self.execute(&jobs, engine, None)
            .into_iter()
            .map(ungoverned)
            .collect()
    }

    /// The one way into evaluation: runs every `(query, budget)` of
    /// `queries` on `engine` from the context sequence `from` — the
    /// document root when `None` — as one batch of the lane executor
    /// (see [`Session::run_many`] for what a batch shares). Outputs
    /// arrive in input order.
    ///
    /// A query with a [`Budget`] (deadline, cost ceiling, cancellation)
    /// is **governed**, and enforcement is lane-local: a query that trips
    /// its budget comes back as `Err` with its partial work discarded,
    /// while sibling queries of the same batch complete **node- and
    /// order-identical** to an ungoverned run — any pass shared between
    /// a failing and a surviving query runs ungoverned to completion and
    /// only the failing query is charged. A panic inside one query's lane
    /// is caught and isolated ([`Error::Internal`]): the session, its
    /// worker pool, and the sibling queries remain fully usable. `None`
    /// runs a query ungoverned, which costs one branch per kernel.
    ///
    /// Queries are evaluated against **this** session's document; a
    /// query prepared on a different session contributes its parsed
    /// expression only (and is re-planned against this document).
    ///
    /// # Errors
    ///
    /// Per slot: [`Error::ContextOutOfRange`] for every query when `from`
    /// names a node outside this session's document (e.g. a pre rank
    /// taken from a different or stale document) — rejected before any
    /// work runs; [`Error::DeadlineExceeded`], [`Error::BudgetExhausted`]
    /// or [`Error::Cancelled`] for a query whose budget trips (on an empty
    /// document, a budget that is already dead); [`Error::Internal`] for
    /// a query whose evaluation panicked.
    pub fn execute(
        &self,
        queries: &[(&Query<'_>, Option<Arc<Budget>>)],
        engine: Engine,
        from: Option<&Context>,
    ) -> Vec<Result<QueryOutput, Error>> {
        let len = self.doc.len();
        if let Some(pre) = from.and_then(|ctx| ctx.iter().find(|&v| v as usize >= len)) {
            return queries
                .iter()
                .map(|_| Err(Error::ContextOutOfRange { pre, len }))
                .collect();
        }
        if self.doc.is_empty() {
            // No rounds run, but a budget that is already dead (expired
            // deadline, cancelled) still fails its query, matching the
            // round-boundary check a non-empty document would hit.
            return queries
                .iter()
                .map(
                    |(_, budget)| match budget.as_ref().and_then(|b| b.check()) {
                        Some(trip) => Err(trip_error(trip)),
                        None => Ok(QueryOutput::default()),
                    },
                )
                .collect();
        }
        // Queries prepared on this session reuse their cached plans.
        let jobs: Vec<(Arc<PhysicalPlan>, Option<Arc<Budget>>)> = queries
            .iter()
            .map(|(q, budget)| {
                let plan = if std::ptr::eq(q.session, self) {
                    q.plan_for(engine)
                } else {
                    Arc::new(self.plan(&q.parsed, engine))
                };
                (plan, budget.clone())
            })
            .collect();
        let ex = Executor {
            doc: &self.doc,
            tags: jobs
                .iter()
                .any(|(p, _)| p.needs_tag_index())
                .then(|| self.tag_index()),
            sql: jobs
                .iter()
                .any(|(p, _)| p.needs_sql_engine())
                .then(|| self.sql_engine()),
            pool: &self.workers,
            scratch: &self.scratch,
            stats: self.doc_stats(),
            calibrator: &self.calibrator,
            lists: Mutex::default(),
        };
        match from {
            Some(context) => ex.run(&jobs, context),
            None => ex.run(&jobs, &Context::singleton(self.doc.root())),
        }
    }

    /// Lowers `expr` into the physical plan `engine` would execute,
    /// with per-step cost estimates — `EXPLAIN` for the staircase
    /// engine zoo. For fixed engines the plan simply spells out that
    /// engine's fixed policy; for [`Engine::auto`] it shows what the
    /// cost-based picker chose and why (the estimates). Planning builds
    /// no auxiliary structures.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] when the expression does not parse.
    pub fn explain(&self, expr: &str, engine: Engine) -> Result<PhysicalPlan, Error> {
        Ok(self.plan(&normalize(&parse_union(expr)?), engine))
    }

    /// Document statistics (node/element counts, height, average depth,
    /// per-tag fragment sizes), gathered on first use and cached.
    pub fn doc_stats(&self) -> &DocStats {
        self.stats.get_or_init(|| DocStats::from_doc(&self.doc))
    }

    /// Eagerly builds **both** cached auxiliary structures — the per-tag
    /// [`TagIndex`] and the SQL engine's B-tree — **concurrently**, so
    /// the first query of every engine family finds them ready. On a
    /// session whose pool is wider than one the two builds run on the
    /// worker pool (no threads are spawned for the call); a width-1
    /// session falls back to a scoped spawn so warm-up still overlaps
    /// the builds — the one deliberate exception to the
    /// nothing-spawns-per-call rule, since a sequential warm would
    /// silently double the documented warm-up latency.
    ///
    /// Idempotent and cheap to repeat: each structure is still built at
    /// most once per session ([`Session::aux_builds`] reports exactly
    /// one construction however often `warm` and queries race).
    pub fn warm(&self) {
        if self.workers.width() > 1 {
            let builds: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(|| {
                    self.tag_index();
                }),
                Box::new(|| {
                    self.sql_engine();
                }),
            ];
            self.workers.run(builds);
        } else {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    self.tag_index();
                });
                self.sql_engine();
            });
        }
    }

    /// The per-tag fragment index, built whole by one sweep over the
    /// columns ([`TagIndex::build`]) the first time a plan needs it or
    /// [`Session::warm`] runs, and cached for the session's lifetime. A
    /// session whose plans never name a tag never pays for it.
    pub fn tag_index(&self) -> &TagIndex {
        self.tags.get_or_init(|| {
            self.tag_builds.fetch_add(1, Ordering::Relaxed);
            TagIndex::build(&self.doc)
        })
    }

    /// The session's cost calibrator (see the crate docs' *feedback
    /// loops* section): executed twig steps feed observed seek counts
    /// in; planning reads the fitted constants out.
    pub fn calibrator(&self) -> &Calibrator {
        &self.calibrator
    }

    /// The SQL baseline's B-tree engine, built on first use and cached
    /// for the session's lifetime.
    pub fn sql_engine(&self) -> &SqlEngine {
        self.sql.get_or_init(|| {
            self.sql_builds.fetch_add(1, Ordering::Relaxed);
            SqlEngine::build(&self.doc)
        })
    }

    /// How many times each auxiliary structure has been constructed so
    /// far — at most once each, however many queries and engines the
    /// session served. Exposed so tests and benchmarks can assert the
    /// reuse this type exists to provide.
    pub fn aux_builds(&self) -> AuxBuilds {
        AuxBuilds {
            tag_index: self.tag_builds.load(Ordering::Relaxed),
            sql_engine: self.sql_builds.load(Ordering::Relaxed),
        }
    }

    /// Lowers a parsed expression into the plan `engine` executes.
    pub(crate) fn plan(&self, parsed: &UnionExpr, engine: Engine) -> PhysicalPlan {
        plan_union(
            parsed,
            &self.doc,
            self.doc_stats(),
            engine,
            self.calibrator.twig_seek_factor(),
        )
    }
}

/// The session's default worker-pool width: the `STAIRCASE_THREADS`
/// environment variable when set to a positive integer (how the CI
/// matrix forces every test through the parallel paths), else 1 —
/// parallelism is opt-in per session via [`Session::with_threads`].
fn default_threads() -> usize {
    std::env::var("STAIRCASE_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// An expression parsed once by [`Session::prepare`], runnable many
/// times against any engine. Physical plans are cached per engine, so
/// repeated runs (and batches) skip re-planning — the shape the async
/// query server will cache and batch by.
pub struct Query<'s> {
    session: &'s Session,
    /// The parsed expression after normalisation.
    parsed: UnionExpr,
    text: String,
    /// Per-engine plan cache (an engine's plan over a fixed document is
    /// deterministic). A `Vec` beats a map here: real query mixes touch
    /// a handful of engines at most.
    plans: Mutex<Vec<(Engine, Arc<PhysicalPlan>)>>,
}

impl Clone for Query<'_> {
    fn clone(&self) -> Self {
        Query {
            session: self.session,
            parsed: self.parsed.clone(),
            text: self.text.clone(),
            plans: Mutex::new(self.plans.lock().unwrap_or_else(|e| e.into_inner()).clone()),
        }
    }
}

impl std::fmt::Debug for Query<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Query").field("text", &self.text).finish()
    }
}

impl<'s> Query<'s> {
    /// The expression text this query was prepared from.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The session this query is bound to.
    pub fn session(&self) -> &'s Session {
        self.session
    }

    /// Evaluates from the document root on `engine`: the ungoverned
    /// K = 1 case of [`Session::execute`].
    pub fn run(&self, engine: Engine) -> QueryOutput {
        ungoverned(
            self.session
                .execute(&[(self, None)], engine, None)
                .remove(0),
        )
    }

    /// Lowers this query into the physical plan `engine` would execute
    /// (see [`Session::explain`]).
    pub fn explain(&self, engine: Engine) -> PhysicalPlan {
        (*self.plan_for(engine)).clone()
    }

    /// The cached plan for `engine`, planning on first use.
    fn plan_for(&self, engine: Engine) -> Arc<PhysicalPlan> {
        let mut cache = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, plan)) = cache.iter().find(|(e, _)| *e == engine) {
            return Arc::clone(plan);
        }
        let plan = Arc::new(self.session.plan(&self.parsed, engine));
        cache.push((engine, Arc::clone(&plan)));
        plan
    }
}

/// An ungoverned slot of [`Session::execute`]: its only failure is a
/// caught panic, which stays a panic here.
fn ungoverned(slot: Result<QueryOutput, Error>) -> QueryOutput {
    slot.unwrap_or_else(|e| panic!("ungoverned evaluation failed: {e}"))
}

/// A query result: the node sequence (document order, duplicate-free)
/// plus per-step statistics. Iterates without cloning:
///
/// ```
/// # use staircase_xpath::{Engine, Error, Session};
/// # let session = Session::parse_xml("<a><b/><b/></a>")?;
/// let out = session.run("//b", Engine::default())?;
/// for pre in &out {
///     println!("hit node {pre}");
/// }
/// assert_eq!(out.iter().count(), out.len());
/// # Ok::<(), Error>(())
/// ```
///
/// Deliberately **not** `PartialEq`: per-step statistics differ between
/// engines even when results agree, so whole-output equality would be a
/// trap. Compare [`QueryOutput::nodes`] instead.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    pub(crate) result: Context,
    pub(crate) stats: EvalStats,
}

impl QueryOutput {
    /// The result node sequence.
    pub fn nodes(&self) -> &Context {
        &self.result
    }

    /// Iterates over the result's pre ranks, in document order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Pre> + '_ {
        self.result.iter()
    }

    /// Number of result nodes.
    pub fn len(&self) -> usize {
        self.result.len()
    }

    /// `true` when nothing matched.
    pub fn is_empty(&self) -> bool {
        self.result.is_empty()
    }

    /// Per-step evaluation statistics.
    pub fn stats(&self) -> &EvalStats {
        &self.stats
    }

    /// Releases the output, handing the node sequence back.
    pub fn into_nodes(self) -> Context {
        self.result
    }
}

impl<'a> IntoIterator for &'a QueryOutput {
    type Item = Pre;
    type IntoIter = <&'a Context as IntoIterator>::IntoIter;
    fn into_iter(self) -> Self::IntoIter {
        self.result.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staircase_core::Variant;

    fn session() -> Session {
        Session::parse_xml(
            "<site><open_auctions>\
             <open_auction id='a0'><bidder><increase>1</increase></bidder>\
             <bidder><increase>2</increase></bidder></open_auction>\
             </open_auctions></site>",
        )
        .expect("fixture parses")
    }

    #[test]
    fn aux_structures_build_at_most_once() {
        let s = session();
        assert_eq!(
            s.aux_builds(),
            AuxBuilds {
                tag_index: 0,
                sql_engine: 0
            }
        );

        let fragmented = Engine::staircase().fragmented(true).build().unwrap();
        let sql = Engine::sql().eq1_window(true).build().unwrap();
        let q1 = s.prepare("/descendant::increase/ancestor::bidder").unwrap();
        let q2 = s.prepare("//bidder").unwrap();
        for _ in 0..5 {
            for q in [&q1, &q2] {
                q.run(fragmented);
                q.run(sql);
                q.run(Engine::default());
            }
        }
        // 30 runs later: one TagIndex, one SqlEngine.
        assert_eq!(
            s.aux_builds(),
            AuxBuilds {
                tag_index: 1,
                sql_engine: 1
            }
        );
    }

    #[test]
    fn name_test_filtering_reuses_the_scratch_pool() {
        // Width 1 regardless of STAIRCASE_THREADS: this pins the
        // sequential filtering path, where takes and recycles balance
        // exactly. (Wider pools route rounds through whichever shard a
        // worker lands on, so a take can miss a non-empty pool and
        // allocate fresh — bounded, but not round-for-round equal.)
        let s = session().with_threads(1);
        let q = s.prepare("/descendant::bidder/child::increase").unwrap();
        // Warm phase: enough runs for every shard's pool to reach its
        // steady population (fresh allocations from structural steps
        // enter the pool as they are recycled; the escaping result
        // buffer leaves it; the bounds cap the growth).
        for _ in 0..200 {
            q.run(Engine::default());
        }
        let steady = s.scratch.pooled_total();
        assert!(steady > 0, "warm runs must leave recycled buffers pooled");
        // Steady state: the masked name/kind filters draw their output
        // buffers from the pool and recycle their inputs back into it,
        // so repeated runs neither grow nor shrink it — filtering
        // allocates nothing.
        for round in 0..10 {
            q.run(Engine::default());
            assert_eq!(
                s.scratch.pooled_total(),
                steady,
                "round {round}: steady-state filtering must not allocate"
            );
        }
    }

    #[test]
    fn plain_staircase_builds_nothing() {
        let s = session();
        s.run("//bidder", Engine::default()).unwrap();
        s.run("//bidder", Engine::naive()).unwrap();
        assert_eq!(s.aux_builds(), AuxBuilds::default());
    }

    #[test]
    fn prepared_query_reruns_without_reparsing() {
        let s = session();
        let q = s.prepare("/descendant::increase/ancestor::bidder").unwrap();
        assert_eq!(q.text(), "/descendant::increase/ancestor::bidder");
        let a = q.run(Engine::default());
        let b = q.run(Engine::staircase().variant(Variant::Basic).build().unwrap());
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn output_iterates_without_cloning() {
        let s = session();
        let out = s.run("//bidder", Engine::default()).unwrap();
        let via_ref: Vec<Pre> = (&out).into_iter().collect();
        let via_iter: Vec<Pre> = out.iter().collect();
        assert_eq!(via_ref, via_iter);
        assert_eq!(via_ref.len(), out.len());
        assert_eq!(out.into_nodes().into_vec(), via_iter);
    }

    #[test]
    fn load_errors_are_typed() {
        assert!(matches!(
            Session::parse_xml("<a><b></a>"),
            Err(Error::Xml(_))
        ));
        assert!(matches!(
            Session::from_encoded_bytes(b"junk"),
            Err(Error::Decode(_))
        ));
        assert!(matches!(
            Session::open_xml("/nonexistent/path.xml"),
            Err(Error::Io(_))
        ));
        assert!(matches!(
            Session::open_encoded("/nonexistent/path.scj"),
            Err(Error::Io(_))
        ));
        let s = session();
        assert!(matches!(s.prepare("///"), Err(Error::Parse(_))));
    }

    #[test]
    fn encoded_bytes_are_validated_before_a_session_indexes_them() {
        let good = session().doc().to_bytes().to_vec();
        assert!(Session::from_encoded_bytes(&good).is_ok());
        let corrupt = |at: usize, value: u32| {
            let mut bytes = good.clone();
            bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
            match Session::from_encoded_bytes(&bytes) {
                Err(Error::Decode(DecodeError::Corrupt(why))) => why,
                other => panic!("expected a decode error, got {:?}", other.map(|_| ())),
            }
        };
        // A content index past the arena: the decoder's own check.
        assert!(corrupt(good.len() - 4, 1000).contains("content index"));
        // A post rank swapped for another: every block is in range, so only
        // `Doc::validate` can tell.
        let second = u32::from_le_bytes(good[20..24].try_into().unwrap());
        assert!(corrupt(16, second).contains("post("));
    }

    #[test]
    fn out_of_range_context_is_a_typed_error() {
        let s = session();
        let q = s.prepare("descendant::bidder").unwrap();
        let from = |pre| {
            s.execute(
                &[(&q, None)],
                Engine::default(),
                Some(&Context::singleton(pre)),
            )
            .remove(0)
        };
        let err = from(9999);
        assert!(
            matches!(err, Err(Error::ContextOutOfRange { pre: 9999, .. })),
            "got {err:?}"
        );
        // In-bounds contexts still work.
        assert_eq!(from(0).unwrap().len(), 2);
    }

    #[test]
    fn empty_documents_yield_empty_results() {
        let s = Session::new(staircase_accel::EncodingBuilder::new().finish());
        let out = s.run("//anything", Engine::default()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn session_round_trips_the_doc() {
        let s = session();
        let n = s.doc().len();
        let doc = s.into_doc();
        assert_eq!(doc.len(), n);
    }
}
