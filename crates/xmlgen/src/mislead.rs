//! Misleading-statistics documents: the adaptive benchmark's workload
//! shape.
//!
//! The planner's cardinality model is *global*: a step's context window
//! is `card · (d̄ + 1)` (Equation 1 with the document-average subtree
//! size) and a name test keeps the tag's document-wide frequency. Both
//! assumptions hold on the uniform XMark-like documents
//! ([`crate::generate`]) — and this module generates documents where
//! both are as wrong as possible while every individual statistic stays
//! honest:
//!
//! * a huge population of short filler chains keeps the *average*
//!   subtree tiny, while
//! * a handful of `a` hubs each carry a deep nested chain of `b`
//!   elements — so `//a/descendant::b`'s true frontier is three orders
//!   of magnitude above `est_window · sel(b)`, and heavily *nested*.
//!
//! Downstream of that step the static cost model prices the card-scaled
//! operators (the SQL B-tree plan, whose per-context range scans pay
//! the *unpruned* window) as cheap and picks one; at run time the
//! frontier explodes and the unpruned scans with it. `auto` observes
//! the real frontier at the step boundary and switches to the pruning
//! staircase join. Documents are fully
//! deterministic per [`MisleadConfig`], so benchmark runs are
//! reproducible.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use staircase_accel::{Doc, EncodingBuilder};

use crate::sink::{DocumentSink, EncodingSink, GenSink};

/// Filler-chain vocabulary, cycled along each chain's depth.
const FILLER_TAGS: [&str; 7] = ["p0", "p1", "p2", "p3", "p4", "p5", "p6"];

/// `a` hubs per unit of scale.
const HUBS_PER_SCALE: f64 = 12.0;
/// Target nodes per unit of scale (matches [`crate::XmarkConfig`]'s
/// ≈ 50 000).
const NODES_PER_SCALE: f64 = 50_000.0;
/// Mean filler-chain length (geometric); the chains carry the node mass
/// that anchors the document-average subtree size. Short chains keep
/// the average subtree (d̄ + 1) near 5 — the planner's whole window
/// estimate for a non-root step.
const MEAN_FILLER_CHAIN: f64 = 2.5;
/// Longest filler chain (geometric tail cut-off).
const MAX_FILLER_CHAIN: usize = 8;

/// Configuration for one misleading-statistics document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MisleadConfig {
    /// Size knob: 1.0 ≈ 50 000 nodes, like [`crate::XmarkConfig::scale`].
    pub scale: f64,
    /// Depth of each hub's nested `b` chain. Deep chains make the true
    /// `descendant::b` frontier large *and* nested — the regime where
    /// unpruned per-context scans blow up and the staircase join's
    /// pruning pays.
    pub chain_depth: usize,
    /// RNG seed; equal configs generate identical documents.
    pub seed: u64,
}

impl MisleadConfig {
    /// A config with the default chain depth and seed.
    pub fn new(scale: f64) -> MisleadConfig {
        MisleadConfig {
            scale,
            chain_depth: 26,
            seed: 0x1517,
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> MisleadConfig {
        self.seed = seed;
        self
    }
}

/// Generates a misleading-statistics document straight into the
/// XPath-accelerator encoding.
pub fn generate_misleading(config: MisleadConfig) -> Doc {
    let mut sink = EncodingSink {
        builder: EncodingBuilder::new(),
    };
    sink.builder
        .reserve((config.scale * NODES_PER_SCALE) as usize);
    MisleadGenerator::new(config).run(&mut sink);
    sink.builder.finish()
}

/// Generates the same misleading-statistics document as XML text.
pub fn generate_misleading_xml(config: MisleadConfig) -> String {
    let mut sink = DocumentSink::new();
    MisleadGenerator::new(config).run(&mut sink);
    sink.doc.to_xml()
}

struct MisleadGenerator {
    config: MisleadConfig,
    rng: SmallRng,
}

impl MisleadGenerator {
    fn new(config: MisleadConfig) -> MisleadGenerator {
        MisleadGenerator {
            config,
            rng: SmallRng::seed_from_u64(config.seed),
        }
    }

    fn geometric(&mut self, mean: f64) -> usize {
        let p = 1.0 / (mean + 1.0);
        let u: f64 = self.rng.gen::<f64>().max(f64::MIN_POSITIVE);
        (u.ln() / (1.0 - p).ln()).floor() as usize
    }

    fn run(&mut self, sink: &mut impl GenSink) {
        let scale = self.config.scale.max(0.01);
        let hubs = ((HUBS_PER_SCALE * scale).round() as usize).max(2);
        // Per-hub node count: the a element, chain_depth b's, one w
        // leaf per b.
        let hub_nodes = 1 + 2 * self.config.chain_depth;
        let filler_budget = (NODES_PER_SCALE * scale) as usize
            - (hubs * hub_nodes).min((NODES_PER_SCALE * scale) as usize);
        // A filler block averages MEAN_FILLER_CHAIN + 1 nodes.
        let blocks = (filler_budget as f64 / (MEAN_FILLER_CHAIN + 1.0)).round() as usize;
        let hub_every = (blocks / hubs).max(1);
        sink.open("root");
        let mut planted = 0usize;
        for block in 0..blocks {
            if block % hub_every == hub_every / 2 && planted < hubs {
                self.hub(sink);
                planted += 1;
            }
            self.filler(sink);
        }
        while planted < hubs {
            self.hub(sink);
            planted += 1;
        }
        sink.close();
    }

    /// One filler chain: `f` wrapping a geometric-length chain of cycled
    /// `p*` tags. The chains are what the document-average subtree size
    /// is made of — short, so the planner's Equation-1 window stays
    /// small.
    fn filler(&mut self, sink: &mut impl GenSink) {
        sink.open("f");
        let len = self.geometric(MEAN_FILLER_CHAIN).min(MAX_FILLER_CHAIN);
        for d in 0..len {
            sink.open(FILLER_TAGS[d % FILLER_TAGS.len()]);
        }
        for _ in 0..len {
            sink.close();
        }
        sink.close();
    }

    /// One `a` hub: a nested chain of `b`s (each with a `w` leaf), depth
    /// [`MisleadConfig::chain_depth`]. Every `b` but the innermost
    /// contains all deeper `b`s — the nested frontier shape.
    fn hub(&mut self, sink: &mut impl GenSink) {
        sink.open("a");
        for _ in 0..self.config.chain_depth {
            sink.open("b");
            sink.open("w");
            sink.close();
        }
        for _ in 0..self.config.chain_depth {
            sink.close();
        }
        sink.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staircase_accel::NodeKind;

    fn count(doc: &Doc, name: &str) -> usize {
        doc.tag_id(name)
            .map(|t| {
                doc.pres()
                    .filter(|&v| doc.tag(v) == t && doc.kind(v) == NodeKind::Element)
                    .count()
            })
            .unwrap_or(0)
    }

    #[test]
    fn determinism_same_config_same_doc() {
        let a = generate_misleading(MisleadConfig::new(0.5));
        let b = generate_misleading(MisleadConfig::new(0.5));
        assert_eq!(a.len(), b.len());
        assert_eq!(a.post_column(), b.post_column());
        let c = generate_misleading(MisleadConfig::new(0.5).with_seed(9));
        assert_ne!(a.post_column(), c.post_column());
    }

    #[test]
    fn node_count_tracks_scale() {
        let small = generate_misleading(MisleadConfig::new(1.0));
        let large = generate_misleading(MisleadConfig::new(4.0));
        let ratio = large.len() as f64 / small.len() as f64;
        assert!((3.0..5.0).contains(&ratio), "scaling broken: {ratio}");
        assert!(
            (30_000..70_000).contains(&small.len()),
            "nodes per scale unit: {}",
            small.len()
        );
    }

    #[test]
    fn b_mass_is_clustered_under_the_hubs() {
        let doc = generate_misleading(MisleadConfig::new(1.0));
        let a = count(&doc, "a");
        let b = count(&doc, "b");
        // Every b lives in a hub chain: b = a · chain_depth exactly.
        assert_eq!(b, a * MisleadConfig::new(1.0).chain_depth);
        // The global b frequency is tiny…
        assert!(
            (b as f64) / (doc.len() as f64) < 0.02,
            "b should be globally rare: {b} of {}",
            doc.len()
        );
        // …yet the hubs are few, so the per-hub yield is huge — the
        // misestimation this generator exists to provoke.
        assert!(a < 100, "hubs must stay rare: {a}");
    }

    #[test]
    fn chains_nest_and_set_the_height() {
        let doc = generate_misleading(MisleadConfig::new(0.5));
        let depth = MisleadConfig::new(0.5).chain_depth;
        // Chain bottom: root/a/b^depth/w.
        assert_eq!(doc.height() as usize, 2 + depth);
    }

    #[test]
    fn xml_output_roundtrips_to_same_encoding() {
        let cfg = MisleadConfig::new(0.05).with_seed(7);
        let direct = generate_misleading(cfg);
        let parsed =
            Doc::from_xml(&generate_misleading_xml(cfg)).expect("generated XML must parse");
        assert_eq!(direct.len(), parsed.len());
        assert_eq!(direct.post_column(), parsed.post_column());
    }
}
