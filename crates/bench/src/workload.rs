//! Shared experiment workloads: generated documents plus the paper's two
//! benchmark queries.

use staircase_accel::{Context, Doc};
use staircase_core::TagIndex;
use staircase_xmlgen::{generate, XmarkConfig};
use staircase_xpath::Session;

/// Q1 of the paper: `/descendant::profile/descendant::education`.
pub const QUERY_Q1: &str = "/descendant::profile/descendant::education";
/// Q2 of the paper: `/descendant::increase/ancestor::bidder`.
pub const QUERY_Q2: &str = "/descendant::increase/ancestor::bidder";

/// A generated document wrapped in a [`Session`], so every experiment
/// shares one set of lazily built auxiliary structures (tag fragments,
/// SQL B-tree) instead of rebuilding them per engine.
pub struct Workload {
    /// Scale factor used for generation (≈ MB of XML text).
    pub scale: f64,
    session: Session,
}

impl Workload {
    /// Generates the workload for `scale` (deterministic).
    pub fn generate(scale: f64) -> Workload {
        Workload {
            scale,
            session: Session::new(generate(XmarkConfig::new(scale))),
        }
    }

    /// The session owning the document and its cached structures.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The encoded document.
    pub fn doc(&self) -> &Doc {
        self.session.doc()
    }

    /// Tag fragments (for pushdown / fragmentation experiments), built on
    /// first use and cached by the session.
    pub fn tags(&self) -> &TagIndex {
        self.session.tag_index()
    }

    /// The paper's sweep of document sizes (1.1 → 1111 MB), shrunk by
    /// `factor` so the three-decade *shape* survives at laptop runtimes:
    /// `factor = 1.0` reproduces the paper's sizes.
    pub fn paper_scales(factor: f64) -> Vec<f64> {
        [1.1, 11.0, 111.0, 1111.0]
            .iter()
            .map(|s| s * factor)
            .collect()
    }

    /// Root context `(r)` — every paper query starts at the root.
    pub fn root(&self) -> Context {
        Context::singleton(self.doc().root())
    }

    /// All `increase` elements (Q2's first intermediate after name test).
    pub fn increases(&self) -> Context {
        self.tags()
            .fragment_by_name(self.doc(), "increase")
            .iter()
            .copied()
            .collect()
    }

    /// All `profile` elements (Q1's first intermediate after name test).
    pub fn profiles(&self) -> Context {
        self.tags()
            .fragment_by_name(self.doc(), "profile")
            .iter()
            .copied()
            .collect()
    }
}

/// Median wall-clock duration of `runs` executions of `f`, in
/// milliseconds. `runs` must be at least one: there is no median of no
/// runs.
pub fn time_ms<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    assert!(runs > 0, "time_ms needs at least one run");
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let out = f();
            let dt = t0.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(out);
            dt
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_has_query_targets() {
        let w = Workload::generate(0.3);
        assert!(!w.increases().is_empty());
        assert!(!w.profiles().is_empty());
        assert_eq!(w.root().as_slice(), &[0]);
    }

    #[test]
    fn paper_scales_shrinkable() {
        assert_eq!(Workload::paper_scales(1.0), vec![1.1, 11.0, 111.0, 1111.0]);
        let small = Workload::paper_scales(0.01);
        assert!((small[0] - 0.011).abs() < 1e-9);
    }

    #[test]
    fn time_ms_returns_positive() {
        let t = time_ms(3, || (0..10_000u64).sum::<u64>());
        assert!(t >= 0.0);
    }

    #[test]
    fn workload_reuses_aux_structures() {
        let w = Workload::generate(0.1);
        let _ = w.profiles();
        let _ = w.increases();
        let _ = w.tags();
        assert_eq!(
            w.session().aux_builds().tag_index,
            1,
            "one TagIndex for all fragments"
        );
    }
}
