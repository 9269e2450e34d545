//! # staircase-suite
//!
//! Umbrella crate hosting the repository-level integration tests
//! (`/tests`), runnable examples (`/examples`), and the `xq` CLI. It
//! re-exports the full public surface of the reproduction as a
//! convenience prelude, so examples read like downstream user code.
//!
//! ## Quickstart
//!
//! Load a document into a [`Session`](staircase_xpath::Session), prepare
//! a query once, and run it on any engine:
//!
//! ```
//! use staircase_suite::prelude::*;
//!
//! # fn main() -> Result<(), Error> {
//! let session = Session::parse_xml("<a><b><c/></b><b/></a>")?;
//!
//! // Prepared once, runnable many times on any engine.
//! let query = session.prepare("/descendant::b")?;
//! let out = query.run(Engine::default());
//! assert_eq!(out.len(), 2);
//!
//! // Engines come from builders and are validated up front.
//! let skipping = Engine::staircase().variant(Variant::Skipping).build()?;
//! let sql = Engine::sql().eq1_window(true).build()?;
//! assert_eq!(query.run(skipping).nodes(), query.run(sql).nodes());
//!
//! // Results iterate without cloning.
//! for pre in &out {
//!     assert_eq!(session.doc().tag_name(pre), Some("b"));
//! }
//! # Ok(())
//! # }
//! ```
//!
//! Auxiliary structures (the per-tag
//! [`TagIndex`](staircase_core::TagIndex) fragments, the SQL baseline's
//! B-tree) are built lazily by the session on first use and cached for
//! every later query, whatever the engine — `Session::aux_builds()`
//! reports the construction counts if you want to see the reuse, and
//! `Session::warm()` builds both eagerly (concurrently) ahead of
//! traffic. Whole query batches go through `Session::run_many`, which
//! runs them in order and computes a step that several queries ask —
//! the same path prefix, the same join under different predicates, a
//! nested `following`/`preceding` region — once (the `xq --query-file`
//! flag exposes this on the command line).
//!
//! [`oracle`] is the reference the tests hold every engine to: a tree
//! walk that reads no encoding column, the document and query
//! generators, the sixteen engine configurations, and the runner that
//! checks every engine against the walk.

#![warn(missing_docs)]

pub mod oracle;

/// One-stop imports for examples and integration tests.
pub mod prelude {
    pub use staircase_accel::{Axis, Context, Doc, EncodingBuilder, NodeKind, Pre, Region};
    pub use staircase_baselines::{mpmgjn_join, naive_step, SqlEngine, SqlPlanOptions};
    pub use staircase_core::{
        ancestor, ancestor_on_list, ancestor_pooled, descendant, descendant_on_list,
        descendant_pooled, following, has_ancestor_in, has_child_in, has_descendant_in, preceding,
        prune, try_axis_step, twig_match, ChainStep, DocStats, ScanTest, Scratch, SpineLeg,
        StepStats, TagIndex, TwigEdge, UnsupportedAxis, Variant,
    };
    pub use staircase_xml::{Document, PullParser};
    pub use staircase_xmlgen::{
        generate, generate_misleading, generate_misleading_xml, generate_skewed,
        generate_skewed_xml, generate_xml, DocProfile, MisleadConfig, SkewConfig, XmarkConfig,
    };
    pub use staircase_xpath::{
        parse, AuxBuilds, Budget, Engine, Error, PathPlan, PhysicalPlan, PlannedStep, PredOp,
        Query, QueryOutput, SemijoinAxis, SemijoinChain, Session, SqlBuilder, StaircaseBuilder,
        StepEstimate, StepOp, TestOp, Trip, MAX_PREDICATE_DEPTH,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_is_usable() {
        let session = Session::parse_xml("<a><b/><c/></a>").expect("well-formed");
        let (r, _) = descendant(session.doc(), &Context::singleton(0), Variant::default());
        assert_eq!(r.len(), 2);
        let out = session
            .run("/descendant::*", Engine::default())
            .expect("query parses");
        assert_eq!(out.len(), 2);
    }
}
