//! Property tests for the XPath-accelerator encoding: the paper's plane
//! identities must hold on arbitrary trees, not just the running example.

use proptest::prelude::*;
use staircase_accel::{Axis, Context, Doc, EncodingBuilder, NodeKind};

fn arb_doc() -> impl Strategy<Value = Doc> {
    // Sequence of build operations executed against an EncodingBuilder:
    // 0 => open element, 1 => close (if possible), 2 => text leaf,
    // 3 => attribute (if element open), 4 => comment.
    (proptest::collection::vec(0u8..5, 1..200), 0usize..4).prop_map(|(ops, tag_salt)| {
        let tags = ["a", "b", "c", "d"];
        let mut b = EncodingBuilder::new();
        b.open_element("root");
        let mut depth = 1;
        let mut just_opened = true;
        let mut just_text = false;
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                0 => {
                    b.open_element(tags[(i + tag_salt) % tags.len()]);
                    depth += 1;
                    just_opened = true;
                    just_text = false;
                }
                1 if depth > 1 => {
                    b.close_element();
                    depth -= 1;
                    just_opened = false;
                    just_text = false;
                }
                2 if !just_text => {
                    // The data model forbids adjacent text siblings.
                    b.text("t");
                    just_opened = false;
                    just_text = true;
                }
                3 if just_opened => {
                    // Attributes may only directly follow a start tag.
                    b.attribute(tags[i % tags.len()], "v");
                }
                4 => {
                    b.comment("c");
                    just_opened = false;
                    just_text = false;
                }
                _ => {}
            }
        }
        while depth > 0 {
            b.close_element();
            depth -= 1;
        }
        b.finish()
    })
}

/// XML text whose content exercises the arena: multi-byte UTF-8, empty
/// attribute values, entity references, text/CDATA runs that must merge
/// into one text node, comments and PIs.
fn arb_xml() -> impl Strategy<Value = String> {
    const TEXT: [&str; 6] = [
        "t",
        "héllo wörld",
        "日本語",
        "a &amp; b &lt; c",
        "&#x1F600;&#233;",
        "x]] y",
    ];
    const VALUE: [&str; 4] = ["", "v", "caf&#233; &quot;q&quot;", "値"];
    const CDATA: [&str; 3] = ["<raw> & markup", "ümlaut", "]]"];
    proptest::collection::vec((0u8..8, 0usize..12), 1..60).prop_map(|ops| {
        let mut xml = String::from("<root>");
        let mut open: Vec<String> = vec![];
        for (op, pick) in ops {
            match op {
                0 => {
                    let name = format!("e{}", pick % 3);
                    xml.push_str(&format!("<{name} x=\"{}\"", VALUE[pick % 4]));
                    if pick % 2 == 0 {
                        xml.push_str(&format!(" y='{}'", VALUE[pick / 2 % 4]));
                    }
                    xml.push('>');
                    open.push(name);
                }
                1 => {
                    if let Some(name) = open.pop() {
                        xml.push_str(&format!("</{name}>"));
                    }
                }
                2 => xml.push_str(TEXT[pick % 6]),
                3 => xml.push_str(&format!("<![CDATA[{}]]>", CDATA[pick % 3])),
                4 => xml.push_str(&format!("<!--{}-->", ["", "c", "é &amp; raw"][pick % 3])),
                5 => xml.push_str(&format!(
                    "<?p{} {}?>",
                    pick % 2,
                    ["", "d", "données"][pick % 3]
                )),
                6 => xml.push_str(&format!("<s x=\"\" z=\"{}\"/>", VALUE[pick % 4])),
                // (An empty section is no node of its own and ends no run.)
                _ => xml.push_str("ab<![CDATA[]]><![CDATA[<c>]]>d&amp;e"),
            }
        }
        while let Some(name) = open.pop() {
            xml.push_str(&format!("</{name}>"));
        }
        xml.push_str("</root>");
        xml
    })
}

/// Brute-force descendant count straight from the region predicate.
fn brute_descendants(doc: &Doc, c: u32) -> u32 {
    doc.pres()
        .filter(|&v| v > c && doc.post(v) < doc.post(c))
        .count() as u32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// post is a permutation of 0..n.
    #[test]
    fn post_is_permutation(doc in arb_doc()) {
        let mut posts = doc.post_column().to_vec();
        posts.sort_unstable();
        prop_assert!(posts.iter().enumerate().all(|(i, &p)| i as u32 == p));
    }

    /// Equation (1) is exact for every node, attributes included.
    #[test]
    fn equation_1_exact(doc in arb_doc()) {
        for v in doc.pres() {
            prop_assert_eq!(doc.subtree_size(v), brute_descendants(&doc, v), "node {}", v);
        }
    }

    /// level(v) ≤ h for all v, and some node attains h.
    #[test]
    fn height_bounds_levels(doc in arb_doc()) {
        let h = doc.height();
        prop_assert!(doc.pres().all(|v| doc.level(v) <= h));
        prop_assert!(doc.pres().any(|v| doc.level(v) == h));
    }

    /// The four partitioning axes plus self cover each non-attribute node
    /// exactly once (attributes belong to no partitioning axis).
    #[test]
    fn axes_partition_plane(doc in arb_doc()) {
        // Check a few context nodes to keep runtime sane.
        let step = (doc.len() / 5).max(1);
        for c in (0..doc.len() as u32).step_by(step) {
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

    /// parent(v) is the tightest enclosing node: an ancestor at level-1.
    #[test]
    fn parent_column_consistent(doc in arb_doc()) {
        for v in doc.pres() {
            let p = doc.parent(v);
            if v == 0 {
                prop_assert_eq!(p, staircase_accel::NO_PARENT);
            } else {
                prop_assert!(p < v);
                prop_assert!(doc.post(p) > doc.post(v));
                prop_assert_eq!(doc.level(p) + 1, doc.level(v));
            }
        }
    }

    /// Encoding → Document → Encoding is the identity on all columns.
    #[test]
    fn roundtrip_through_tree(doc in arb_doc()) {
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

    /// Context name tests agree with a brute-force filter.
    #[test]
    fn name_test_agrees(doc in arb_doc()) {
        let all: Context = doc.pres().collect();
        for tag in ["a", "b", "zzz"] {
            let got = all.name_test(&doc, tag);
            let want: Vec<u32> = doc
                .pres()
                .filter(|&v| doc.kind(v) == NodeKind::Element && doc.tag_name(v) == Some(tag))
                .collect();
            prop_assert_eq!(got.as_slice(), &want[..]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Persistence round-trips arbitrary encodings bit-exactly, and the
    /// decoded document passes full validation.
    #[test]
    fn persistence_roundtrip(doc in arb_doc()) {
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
    /// whatever it is made of, and both ends agree with the DOM parse.
    #[test]
    fn content_roundtrips_through_the_arena(xml in arb_xml()) {
        let doc = Doc::from_xml(&xml).expect("generated XML parses");
        let dom = staircase_xml::Document::parse(&xml).expect("generated XML parses").to_xml();
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
    fn persistence_rejects_truncation(doc in arb_doc(), frac in 0.0f64..1.0) {
        let bytes = doc.to_bytes();
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        prop_assert!(Doc::from_bytes(&bytes[..cut]).is_err());
    }

    /// Every generated encoding passes validation.
    #[test]
    fn arbitrary_docs_validate(doc in arb_doc()) {
        prop_assert_eq!(doc.validate(), Ok(()));
    }
}
