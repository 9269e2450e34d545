//! Engine selection: which implementation evaluates partitioning axis
//! steps, configured through builders instead of hand-assembled enums.
//!
//! ```
//! use staircase_core::Variant;
//! use staircase_xpath::Engine;
//!
//! let skipping = Engine::staircase().variant(Variant::Skipping).build()?;
//! let pushdown = Engine::staircase().pushdown(true).build()?;
//! let fragmented = Engine::staircase().fragmented(true).build()?;
//! let sql = Engine::sql().eq1_window(true).early_nametest(true).build()?;
//! let naive = Engine::naive();
//! let auto = Engine::auto(); // cost-based per-step operator picking
//! # let _ = (skipping, pushdown, fragmented, sql, naive, auto);
//! # Ok::<(), staircase_xpath::Error>(())
//! ```
//!
//! The one inconsistent combination — pushdown on the fragmented engine,
//! whose fragments already are the pushed-down name test — is rejected
//! with [`Error::InvalidEngine`] at build time, so an [`Engine`] value
//! that exists is always runnable. Every engine runs a query
//! sequentially on the thread that asked.

use std::fmt;

use staircase_core::Variant;

use crate::error::Error;

/// Which implementation evaluates the partitioning axis steps.
///
/// Construct via [`Engine::staircase`], [`Engine::sql`], or
/// [`Engine::naive`]; the default is the staircase join with
/// estimation-based skipping and no pushdown.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Engine {
    pub(crate) kind: EngineKind,
}

/// The validated engine configuration (internal representation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum EngineKind {
    /// The staircase join (the paper's contribution), optionally with
    /// query-time name-test pushdown (§4.4 Experiment 3).
    Staircase { variant: Variant, pushdown: bool },
    /// §6 tag-name fragmentation: per-tag fragments prebuilt at document
    /// loading time.
    Fragmented { variant: Variant },
    /// Per-context region queries + duplicate elimination (§3.1).
    Naive,
    /// Tree-unaware B-tree plan (Figure 3, "IBM DB2 SQL").
    Sql {
        eq1_window: bool,
        early_nametest: bool,
    },
    /// Cost-based per-step operator picking: the planner prices the
    /// candidate operators for every step from document statistics and
    /// keeps the cheapest. The plan is priced once and run as priced;
    /// the prices are static: no constant is fitted from earlier runs.
    Auto,
    /// Worst-case-optimal twig matching: every eligible run of vertical
    /// steps with downward existential predicates is fused into one
    /// multiway leapfrog intersection over the per-tag fragments; the
    /// remaining steps run as fragment joins.
    Twig,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine {
            kind: EngineKind::Staircase {
                variant: Variant::EstimationSkipping,
                pushdown: false,
            },
        }
    }
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            EngineKind::Staircase {
                variant,
                pushdown: false,
            } => {
                write!(f, "staircase({variant:?})")
            }
            EngineKind::Staircase {
                variant,
                pushdown: true,
            } => {
                write!(f, "staircase({variant:?}, pushdown)")
            }
            EngineKind::Fragmented { variant } => write!(f, "fragmented({variant:?})"),
            EngineKind::Naive => write!(f, "naive"),
            EngineKind::Sql {
                eq1_window,
                early_nametest,
            } => {
                write!(
                    f,
                    "sql(eq1_window: {eq1_window}, early_nametest: {early_nametest})"
                )
            }
            EngineKind::Auto => write!(f, "auto"),
            EngineKind::Twig => write!(f, "twig"),
        }
    }
}

impl Engine {
    /// Starts configuring a staircase-join engine (estimation-based
    /// skipping, no pushdown).
    pub fn staircase() -> StaircaseBuilder {
        StaircaseBuilder {
            variant: Variant::EstimationSkipping,
            pushdown: false,
            fragmented: false,
        }
    }

    /// Starts configuring the tree-unaware SQL baseline (plain Figure 3
    /// plan; opt into the Equation-1 window and the early name test).
    pub fn sql() -> SqlBuilder {
        SqlBuilder {
            eq1_window: false,
            early_nametest: false,
        }
    }

    /// The naive per-context strategy of §3.1 (no configuration).
    pub fn naive() -> Engine {
        Engine {
            kind: EngineKind::Naive,
        }
    }

    /// The cost-based planner: instead of fixing one evaluator for the
    /// whole query, every step's operator is chosen by pricing the
    /// candidates — plain staircase join, prebuilt §6 tag fragment —
    /// against document statistics (node counts, per-tag fragment
    /// sizes, Equation-1 context-window estimates). The Figure-3 SQL
    /// plan is the paper's baseline ([`Engine::sql`]), never a
    /// candidate: it can win only where it is mispriced.
    ///
    /// The plan is priced once and run as priced: what
    /// [`crate::Session::explain`] prints is what executes. It depends
    /// only on the document and the expression: no constant is fitted
    /// from earlier runs. Results are node- and order-identical to
    /// every fixed engine (property-tested); only the access pattern
    /// changes.
    pub fn auto() -> Engine {
        Engine {
            kind: EngineKind::Auto,
        }
    }

    /// The twig-fusing engine: every eligible *twig region* — a run of
    /// vertical steps whose predicates are semijoin chains that start
    /// downward — is fused into one worst-case-optimal multiway
    /// leapfrog step ([`staircase_core::twig`]); steps outside a region
    /// run as §6 fragment joins. Results are node- and order-identical
    /// to every fixed engine (property-tested); only intermediate
    /// materialization disappears. [`Engine::auto`] picks this operator
    /// per region, and only where the step plan's peak join rows exceed
    /// the leapfrog's price.
    pub fn twig() -> Engine {
        Engine {
            kind: EngineKind::Twig,
        }
    }

    /// An alias of [`Engine::auto`], kept as a name for callers of the
    /// former adaptive executor: `Engine::adaptive() == Engine::auto()`.
    pub fn adaptive() -> Engine {
        Engine::auto()
    }

    /// `true` for the cost-based planner ([`Engine::auto`]).
    pub fn is_auto(&self) -> bool {
        self.kind == EngineKind::Auto
    }

    /// `true` for the staircase family (plain, pushdown, fragmented).
    pub fn is_staircase(&self) -> bool {
        matches!(
            self.kind,
            EngineKind::Staircase { .. } | EngineKind::Fragmented { .. }
        )
    }
}

/// Builder for staircase-family engines; see [`Engine::staircase`].
#[derive(Debug, Clone, Copy)]
#[must_use = "builders do nothing until .build() is called"]
pub struct StaircaseBuilder {
    variant: Variant,
    pushdown: bool,
    fragmented: bool,
}

impl StaircaseBuilder {
    /// Selects the skipping refinement (Algorithms 2–4).
    pub fn variant(mut self, variant: Variant) -> StaircaseBuilder {
        self.variant = variant;
        self
    }

    /// Pushes name tests through the join at query time: the name test
    /// runs first as a selection scan over the whole document, and the
    /// join walks only the selected nodes (§4.4 Experiment 3).
    pub fn pushdown(mut self, on: bool) -> StaircaseBuilder {
        self.pushdown = on;
        self
    }

    /// Uses per-tag fragments prebuilt at document loading time (§6):
    /// like pushdown, but without the query-time selection scan.
    pub fn fragmented(mut self, on: bool) -> StaircaseBuilder {
        self.fragmented = on;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidEngine`] when pushdown is combined with
    /// fragmentation (fragments *are* the pushed-down name test).
    pub fn build(self) -> Result<Engine, Error> {
        let StaircaseBuilder {
            variant,
            pushdown,
            fragmented,
        } = self;
        let kind = match (fragmented, pushdown) {
            (true, true) => {
                return Err(Error::InvalidEngine(
                    "fragments already are the pushed-down name test; \
                     use .fragmented(true) alone"
                        .into(),
                ))
            }
            (true, false) => EngineKind::Fragmented { variant },
            (false, pushdown) => EngineKind::Staircase { variant, pushdown },
        };
        Ok(Engine { kind })
    }
}

/// Builder for the SQL baseline; see [`Engine::sql`].
#[derive(Debug, Clone, Copy)]
#[must_use = "builders do nothing until .build() is called"]
pub struct SqlBuilder {
    eq1_window: bool,
    early_nametest: bool,
}

impl SqlBuilder {
    /// Applies the Equation-1 window predicate (the paper's line 7 — the
    /// optimizer hint §2.1 proposes).
    pub fn eq1_window(mut self, on: bool) -> SqlBuilder {
        self.eq1_window = on;
        self
    }

    /// Filters by tag during the index scan instead of afterwards.
    pub fn early_nametest(mut self, on: bool) -> SqlBuilder {
        self.early_nametest = on;
        self
    }

    /// Validates the configuration (currently always succeeds; `Result`
    /// keeps the builders uniform and leaves room for future knobs).
    pub fn build(self) -> Result<Engine, Error> {
        Ok(Engine {
            kind: EngineKind::Sql {
                eq1_window: self.eq1_window,
                early_nametest: self.early_nametest,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_estimation_skipping_staircase() {
        assert_eq!(
            Engine::default(),
            Engine::staircase()
                .build()
                .expect("default staircase config is valid")
        );
        assert!(Engine::default().is_staircase());
        assert!(!Engine::naive().is_staircase());
    }

    #[test]
    fn auto_is_its_own_kind() {
        assert!(Engine::auto().is_auto());
        assert!(!Engine::auto().is_staircase());
        assert!(!Engine::default().is_auto());
        assert_eq!(format!("{:?}", Engine::auto()), "auto");
    }

    #[test]
    fn builders_cover_every_kind() {
        let engines = [
            Engine::staircase().variant(Variant::Basic).build().unwrap(),
            Engine::staircase().pushdown(true).build().unwrap(),
            Engine::staircase().fragmented(true).build().unwrap(),
            Engine::naive(),
            Engine::sql()
                .eq1_window(true)
                .early_nametest(true)
                .build()
                .unwrap(),
            Engine::auto(),
            Engine::twig(),
        ];
        // All distinct configurations.
        for (i, a) in engines.iter().enumerate() {
            for b in &engines[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn invalid_combinations_are_rejected() {
        for builder in [
            Engine::staircase().fragmented(true).pushdown(true),
            Engine::staircase()
                .variant(Variant::Basic)
                .pushdown(true)
                .fragmented(true),
        ] {
            let err = builder.build();
            assert!(
                matches!(err, Err(Error::InvalidEngine(_))),
                "{builder:?} should be rejected, got {err:?}"
            );
        }
    }

    #[test]
    fn debug_rendering_is_compact() {
        let e = Engine::staircase().pushdown(true).build().unwrap();
        assert_eq!(format!("{e:?}"), "staircase(EstimationSkipping, pushdown)");
        assert_eq!(format!("{:?}", Engine::twig()), "twig");
    }

    #[test]
    fn twig_is_neither_auto_nor_staircase_family() {
        assert!(!Engine::twig().is_auto());
        assert!(!Engine::twig().is_staircase());
    }

    #[test]
    fn adaptive_is_an_alias_of_auto() {
        assert_eq!(Engine::adaptive(), Engine::auto());
        assert!(Engine::adaptive().is_auto());
        assert!(!Engine::adaptive().is_staircase());
        assert_eq!(format!("{:?}", Engine::adaptive()), "auto");
    }
}
