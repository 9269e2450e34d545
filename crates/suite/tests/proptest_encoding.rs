//! Property tests for the XPath-accelerator encoding: the paper's plane
//! identities must hold on arbitrary trees, not just the running example,
//! and every column must say what the tree-walk oracle walks.

use proptest::prelude::*;
use staircase_accel::{Axis, Context, Doc, NodeKind, NO_PARENT};
use staircase_suite::oracle::{self, Tree, SHAPES};
use staircase_xml::Document;

/// A generated document of up to 200 nodes — every node kind, text with
/// references, CDATA and multi-byte characters — as XML, and as the
/// encoding and the oracle read it.
fn generated(seed: u64) -> (String, Doc, Tree) {
    let xml = oracle::document(SHAPES[seed as usize % 4], seed, 1 + seed as usize % 200);
    let doc = Doc::from_xml(&xml).expect("generated XML parses");
    let tree = Tree::parse(&xml).expect("generated XML parses");
    (xml, doc, tree)
}

/// The DOM of `xml`'s root element alone: the encoding holds no comment
/// or processing instruction from before or after it.
fn root_element(xml: &str) -> Document {
    let parsed = Document::parse(xml).expect("generated XML parses");
    let mut out = Document::new();
    let root = parsed.root_element().expect("a root element");
    let mut stack = vec![(root, out.document_node())];
    while let Some((id, parent)) = stack.pop() {
        let me = out.append_child(parent, parsed.kind(id).clone());
        let at = stack.len();
        stack.extend(parsed.children(id).map(|c| (c, me)));
        stack[at..].reverse();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// post is a permutation of 0..n.
    #[test]
    fn post_is_permutation(seed in 0u64..1 << 40) {
        let (_, doc, _) = generated(seed);
        let mut posts = doc.post_column().to_vec();
        posts.sort_unstable();
        prop_assert!(posts.iter().enumerate().all(|(i, &p)| i as u32 == p));
    }

    /// Equation (1) is exact for every node, attributes included: the
    /// subtree size is what lies below the node in the tree.
    #[test]
    fn equation_1_exact(seed in 0u64..1 << 40) {
        let (_, doc, tree) = generated(seed);
        for v in doc.pres() {
            prop_assert_eq!(doc.subtree_size(v) as usize, tree.subtree(v).len(), "node {}", v);
        }
    }

    /// level(v) ≤ h for all v, and some node attains h.
    #[test]
    fn height_bounds_levels(seed in 0u64..1 << 40) {
        let (_, doc, _) = generated(seed);
        let h = doc.height();
        prop_assert!(doc.pres().all(|v| doc.level(v) <= h));
        prop_assert!(doc.pres().any(|v| doc.level(v) == h));
    }

    /// Each partitioning axis's plane region is the oracle's axis, and
    /// the four of them plus self cover each non-attribute node exactly
    /// once (attributes belong to no partitioning axis).
    #[test]
    fn axes_partition_plane(seed in 0u64..1 << 40) {
        let (_, doc, tree) = generated(seed);
        // Check a few context nodes to keep runtime sane.
        let step = (doc.len() / 5).max(1);
        for c in (0..doc.len() as u32).step_by(step) {
            for axis in Axis::PARTITIONING {
                let walked = tree.region(&[c], axis);
                let plane: Vec<u32> = doc.pres().filter(|&v| axis.contains(&doc, c, v)).collect();
                prop_assert_eq!(plane, walked, "{} from {}", axis, c);
            }
            for v in doc.pres() {
                let hits = Axis::PARTITIONING
                    .iter()
                    .filter(|a| a.contains(&doc, c, v))
                    .count()
                    + usize::from(v == c && doc.kind(v) != NodeKind::Attribute);
                let expected = usize::from(doc.kind(v) != NodeKind::Attribute);
                prop_assert_eq!(hits, expected, "context {} node {}", c, v);
            }
        }
    }

    /// The parent and level columns are the tree's parent and depth.
    #[test]
    fn parent_column_consistent(seed in 0u64..1 << 40) {
        let (_, doc, tree) = generated(seed);
        for v in doc.pres() {
            prop_assert_eq!(doc.parent(v), tree.parent(v).unwrap_or(NO_PARENT));
            prop_assert_eq!(doc.level(v) as usize, tree.ancestors(v).count());
        }
    }

    /// Encoding → Document → Encoding is the identity on all columns.
    #[test]
    fn roundtrip_through_tree(seed in 0u64..1 << 40) {
        let (_, doc, _) = generated(seed);
        let rebuilt = Doc::from_document(&doc.to_document()).unwrap();
        prop_assert_eq!(doc.len(), rebuilt.len());
        prop_assert_eq!(doc.post_column(), rebuilt.post_column());
        prop_assert_eq!(doc.kind_column(), rebuilt.kind_column());
        for v in doc.pres() {
            prop_assert_eq!(doc.level(v), rebuilt.level(v));
            prop_assert_eq!(doc.parent(v), rebuilt.parent(v));
            prop_assert_eq!(doc.tag_name(v), rebuilt.tag_name(v));
        }
    }

    /// Context name tests keep the elements of that name.
    #[test]
    fn name_test_agrees(seed in 0u64..1 << 40) {
        let (_, doc, tree) = generated(seed);
        let all: Context = doc.pres().collect();
        for tag in ["a", "b", "zzz"] {
            let got = all.name_test(&doc, tag);
            let want: Vec<u32> = doc.pres().filter(|&v| tree.element_name(v) == Some(tag)).collect();
            prop_assert_eq!(got.as_slice(), &want[..]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Persistence round-trips arbitrary encodings bit-exactly, and the
    /// decoded document passes full validation.
    #[test]
    fn persistence_roundtrip(seed in 0u64..1 << 40) {
        let (_, doc, _) = generated(seed);
        let bytes = doc.to_bytes();
        let back = Doc::from_bytes(&bytes).expect("self-produced bytes decode");
        prop_assert_eq!(doc.len(), back.len());
        prop_assert_eq!(doc.post_column(), back.post_column());
        prop_assert_eq!(doc.kind_column(), back.kind_column());
        prop_assert_eq!(doc.tag_column(), back.tag_column());
        for v in doc.pres() {
            prop_assert_eq!(doc.parent(v), back.parent(v));
            prop_assert_eq!(doc.level(v), back.level(v));
            prop_assert_eq!(doc.content(v), back.content(v));
        }
        prop_assert_eq!(back.validate(), Ok(()));
    }

    /// Content survives `from_xml → to_bytes → from_bytes` node for node,
    /// whatever it is made of, and both ends agree with the DOM parse of
    /// the root element.
    #[test]
    fn content_roundtrips_through_the_arena(seed in 0u64..1 << 40) {
        let (xml, doc, _) = generated(seed);
        let dom = root_element(&xml).to_xml();
        prop_assert_eq!(doc.to_document().to_xml(), dom.clone());
        let back = Doc::from_bytes(&doc.to_bytes()).expect("self-produced bytes decode");
        prop_assert_eq!(back.validate(), Ok(()));
        prop_assert_eq!(doc.len(), back.len());
        for v in doc.pres() {
            prop_assert_eq!(doc.content(v), back.content(v), "node {}", v);
            // Elements have no content; every other kind has some, if empty.
            prop_assert_eq!(doc.content(v).is_none(), doc.kind(v) == NodeKind::Element);
            // Adjacent text and CDATA runs merged: no two text siblings.
            let text_pair = v > 0
                && doc.kind(v) == NodeKind::Text
                && doc.kind(v - 1) == NodeKind::Text
                && doc.parent(v) == doc.parent(v - 1);
            prop_assert!(!text_pair, "text nodes {} and {} are adjacent", v - 1, v);
        }
        prop_assert_eq!(back.to_document().to_xml(), dom);
    }

    /// Truncated inputs never decode successfully (and never panic).
    #[test]
    fn persistence_rejects_truncation(seed in 0u64..1 << 40, frac in 0.0f64..1.0) {
        let (_, doc, _) = generated(seed);
        let bytes = doc.to_bytes();
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        prop_assert!(Doc::from_bytes(&bytes[..cut]).is_err());
    }

    /// Every generated encoding passes validation.
    #[test]
    fn arbitrary_docs_validate(seed in 0u64..1 << 40) {
        let (_, doc, _) = generated(seed);
        prop_assert_eq!(doc.validate(), Ok(()));
    }
}
