//! The query mixes, fixed here and never tuned at run time. The texts are
//! copied in, not imported, so that a change elsewhere in the repository
//! cannot alter what the benchmark asks.

use staircase_accel::Doc;
use staircase_xmlgen::{
    generate, generate_misleading, generate_misleading_xml, generate_skewed, generate_skewed_xml,
    generate_xml, MisleadConfig, SkewConfig, XmarkConfig,
};
use staircase_xpath::Engine;

/// A generated document: family, full scale and the tags the kernel probes
/// use on it.
#[derive(Debug, Clone, Copy)]
pub enum DocSpec {
    /// XMark-like auction data; ≈ 49 k nodes and ≈ 0.68 MB of XML per unit.
    Xmark(f64),
    /// Zipf-skewed tag frequencies with rare planted `c[d]` tails.
    Skew(f64, f64),
    /// Hubs with deep nested chains that defeat document-wide statistics.
    Mislead(f64),
}

/// Tags for the direct kernel calls: (outer, inner) for descendant steps
/// from `outer` into `inner`'s fragment, and the reverse for ancestor.
pub struct ProbeTags {
    pub outer: &'static str,
    pub inner: &'static str,
    pub twig_pred: &'static str,
}

/// Smoke runs and the oracle twin use a twentieth of the full scale.
pub const TWIN_FACTOR: f64 = 0.05;

impl DocSpec {
    pub fn generate(self, seed: u64, factor: f64) -> Doc {
        match self {
            DocSpec::Xmark(s) => generate(XmarkConfig::new(s * factor).with_seed(seed)),
            DocSpec::Skew(s, z) => generate_skewed(SkewConfig::new(s * factor, z).with_seed(seed)),
            DocSpec::Mislead(s) => {
                generate_misleading(MisleadConfig::new(s * factor).with_seed(seed))
            }
        }
    }

    pub fn generate_xml(self, seed: u64, factor: f64) -> String {
        match self {
            DocSpec::Xmark(s) => generate_xml(XmarkConfig::new(s * factor).with_seed(seed)),
            DocSpec::Skew(s, z) => {
                generate_skewed_xml(SkewConfig::new(s * factor, z).with_seed(seed))
            }
            DocSpec::Mislead(s) => {
                generate_misleading_xml(MisleadConfig::new(s * factor).with_seed(seed))
            }
        }
    }

    pub fn probe_tags(self) -> ProbeTags {
        match self {
            DocSpec::Xmark(_) => ProbeTags {
                outer: "open_auction",
                inner: "increase",
                twig_pred: "bidder",
            },
            DocSpec::Skew(..) => ProbeTags {
                outer: "a",
                inner: "c",
                twig_pred: "b",
            },
            DocSpec::Mislead(_) => ProbeTags {
                outer: "a",
                inner: "b",
                twig_pred: "b",
            },
        }
    }
}

pub const XMARK10: DocSpec = DocSpec::Xmark(10.0);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eng {
    Auto,
    Adaptive,
    /// `Engine::default()`: the paper's plain staircase join.
    Plain,
}

impl Eng {
    pub fn engine(self) -> Engine {
        match self {
            Eng::Auto => Engine::auto(),
            Eng::Adaptive => Engine::adaptive(),
            Eng::Plain => Engine::default(),
        }
    }
}

/// One mix entry: a stable id (span op, trace key), the query text, the
/// engine it runs under and the document (index into the workload's list).
#[derive(Debug, Clone, Copy)]
pub struct QuerySpec {
    pub id: &'static str,
    pub expr: &'static str,
    pub eng: Eng,
    pub doc: usize,
}

const fn q(id: &'static str, expr: &'static str, eng: Eng, doc: usize) -> QuerySpec {
    QuerySpec { id, expr, eng, doc }
}

pub const Q1: &str = "/descendant::profile/descendant::education";
pub const Q2: &str = "/descendant::increase/ancestor::bidder";
pub const Q_ATTR: &str = "//open_auction[bidder/increase]/@id";

/// `ingest_cold`: the three first queries on a brand-new session.
pub const COLD: [QuerySpec; 3] = [
    q("cold.q1", Q1, Eng::Auto, 0),
    q("cold.q2", Q2, Eng::Auto, 0),
    q("cold.attr", Q_ATTR, Eng::Auto, 0),
];

/// `point_warm` (and, over the wire, `serve_wire`): selective queries,
/// touched ≪ |doc|.
pub const POINT: [QuerySpec; 12] = [
    q("pt.q1", Q1, Eng::Auto, 0),
    q("pt.q2", Q2, Eng::Auto, 0),
    q(
        "pt.oa-desc-bidder.increase",
        "/descendant::open_auction[descendant::bidder]/descendant::increase",
        Eng::Auto,
        0,
    ),
    q(
        "pt.person-profile.education",
        "/descendant::person[child::profile]/descendant::education",
        Eng::Auto,
        0,
    ),
    q(
        "pt.person.profile",
        "/descendant::person/child::profile",
        Eng::Auto,
        0,
    ),
    q(
        "pt.oa.bidder.increase",
        "/descendant::open_auction/descendant::bidder/descendant::increase",
        Eng::Auto,
        0,
    ),
    q(
        "pt.bidder-increase.anc-oa",
        "/descendant::bidder[increase]/ancestor::open_auction",
        Eng::Auto,
        0,
    ),
    q(
        "pt.date.anc-oa",
        "/descendant::date/ancestor::open_auction",
        Eng::Auto,
        0,
    ),
    q(
        "pt.education.anc-person",
        "/descendant::education/ancestor::person",
        Eng::Auto,
        0,
    ),
    q(
        "pt.oa-bidder.date",
        "/descendant::open_auction[bidder]/descendant::date",
        Eng::Auto,
        0,
    ),
    q(
        "pt.closed.price",
        "/descendant::closed_auction/child::price",
        Eng::Auto,
        0,
    ),
    q(
        "pt.item.keyword",
        "/descendant::item/descendant::keyword",
        Eng::Auto,
        0,
    ),
];

/// `scan_warm`: most of the plane is read or returned. The two abbreviated
/// `//` queries are here because today they scan
/// (`descendant-or-self::node()/child::`), which is what a user typing `//`
/// actually gets.
pub const SCAN: [QuerySpec; 7] = [
    q("sc.all-nodes", "/descendant::node()", Eng::Auto, 0),
    q(
        "sc.bidder.following",
        "/descendant::bidder/following::node()",
        Eng::Auto,
        0,
    ),
    q(
        "sc.person.preceding",
        "/descendant::person/preceding::node()",
        Eng::Auto,
        0,
    ),
    q("sc.abbrev-item-keyword", "//item//keyword", Eng::Auto, 0),
    q("sc.abbrev-attr", Q_ATTR, Eng::Auto, 0),
    q("sc.q1-plain", Q1, Eng::Plain, 0),
    q("sc.q2-plain", Q2, Eng::Plain, 0),
];

pub const SKEW_DOCS: [DocSpec; 2] = [DocSpec::Skew(4.0, 1.2), DocSpec::Mislead(10.0)];

const SKEW_DESC: &str = "/descendant::a[descendant::b]/descendant::c[descendant::d]";
const SKEW_CHILD: &str = "/descendant::a[child::b]/descendant::c[child::d]";
const MISLEAD: &str = "/descendant::a/descendant::b/descendant::node()";

/// `skew_warm`: each query under `auto` and under `adaptive`.
pub const SKEW: [QuerySpec; 6] = [
    q("sk.desc-auto", SKEW_DESC, Eng::Auto, 0),
    q("sk.desc-adaptive", SKEW_DESC, Eng::Adaptive, 0),
    q("sk.child-auto", SKEW_CHILD, Eng::Auto, 0),
    q("sk.child-adaptive", SKEW_CHILD, Eng::Adaptive, 0),
    q("sk.mislead-auto", MISLEAD, Eng::Auto, 1),
    q("sk.mislead-adaptive", MISLEAD, Eng::Adaptive, 1),
];

/// `batch_pool`: the 16 queries of the repository's vertical and mixed
/// batches, as one `run_many` call per engine.
pub const BATCH: [&str; 16] = [
    Q1,
    Q2,
    "/descendant::bidder",
    "/descendant::date/ancestor::open_auction",
    "/descendant::person",
    "/descendant::increase",
    "/descendant::open_auction/descendant::date",
    "/descendant::education/ancestor::person",
    "/descendant::bidder[increase]",
    "/descendant::bidder[date]",
    "/descendant::bidder[increase]/ancestor::open_auction",
    "/descendant::open_auction[bidder]/descendant::date",
    "/descendant::bidder/following::node()",
    "/descendant::open_auction/following::node()",
    "/descendant::person/preceding::node()",
    "/descendant::education/preceding::node()",
];

/// Back-to-back executions one sample times, per workload: a sample of a
/// sub-100 µs query must be long against the clock and the scheduler.
pub const POINT_REPS: u32 = 16;
pub const SCAN_REPS: u32 = 1;
pub const SKEW_REPS: u32 = 16;
pub const BATCH_REPS: u32 = 1;
pub const COLD_REPS: u32 = 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_name_shaped() {
        let mut seen = std::collections::BTreeSet::new();
        for spec in COLD.iter().chain(&POINT).chain(&SCAN).chain(&SKEW) {
            assert!(crate::spec::valid_name(spec.id), "{}", spec.id);
            assert!(seen.insert(spec.id), "{} used twice", spec.id);
        }
    }
}
