//! Every engine against the tree walk of `staircase_suite::oracle`, on
//! every generated document shape: the one agreement property of the
//! suite, and the limits of the encoding it must answer at.

use staircase_accel::MAX_DEPTH;
use staircase_suite::oracle::{self, Shape, Tree, ENGINES, SHAPES};
use staircase_suite::prelude::*;

/// `cases` documents of `shape` of about `nodes` nodes, each with a
/// batch of up to four queries and an exact repeat of its first (so the
/// batch memo has a step to share), through [`oracle::check`].
fn matrix(shape: Shape, cases: u64, nodes: usize) {
    for seed in 0..cases {
        let xml = oracle::document(shape, seed, 1 + (seed as usize * 7919) % nodes);
        let mut exprs = oracle::queries(seed ^ nodes as u64, 4);
        exprs.push(exprs[0].clone());
        oracle::check(&xml, &exprs);
    }
}

#[test]
fn every_engine_matches_the_oracle_on_random_trees() {
    matrix(Shape::Tree, 12, 120);
}

#[test]
fn every_engine_matches_the_oracle_on_chains_stars_and_one_tag_nesting() {
    for shape in [Shape::Chain, Shape::Star, Shape::OneTag] {
        matrix(shape, 3, 80);
    }
}

#[test]
fn every_engine_matches_the_oracle_on_fragments_around_mask_words() {
    for shape in SHAPES
        .into_iter()
        .filter(|s| matches!(s, Shape::Fragment(_)))
    {
        matrix(shape, 1, 1);
    }
}

#[test]
fn the_engine_list_holds_sixteen_distinct_configurations() {
    for (i, a) in ENGINES.iter().enumerate() {
        assert!(ENGINES[i + 1..].iter().all(|b| a != b), "{a:?} twice");
    }
    assert!(ENGINES.contains(&Engine::default()));
}

#[test]
fn generated_documents_have_their_shape_and_size() {
    for seed in 0..20 {
        for (shape, nodes) in [(Shape::Tree, 1), (Shape::Tree, 300), (Shape::Chain, 40)] {
            let doc = Doc::from_xml(&oracle::document(shape, seed, nodes)).unwrap();
            assert_eq!(doc.len(), nodes, "{shape:?} seed {seed}");
        }
        for count in [63, 64, 65, 127, 128, 129] {
            let xml = oracle::document(Shape::Fragment(count), seed, 0);
            assert_eq!(Tree::parse(&xml).unwrap().eval("//a").len(), count);
        }
    }
}

/// The reference by hand: the root `a` is nobody's child, an attribute
/// is on no partitioning axis, and a predicate keeps one hit per node.
#[test]
fn the_oracle_answers_by_hand() {
    let tree = Tree::parse("<a id='1'><b><c/>t</b><a><b/></a><!--x--></a>").unwrap();
    assert_eq!(tree.eval("//b"), [2, 6]);
    assert_eq!(tree.eval("//a"), [5]);
    assert_eq!(tree.eval("/descendant-or-self::a"), [0, 5]);
    assert_eq!(tree.eval("//@id"), [1]);
    assert_eq!(tree.eval("//c/following::node()"), [4, 5, 6, 7]);
    assert_eq!(tree.eval("//b/preceding::node()"), [2, 3, 4]);
    assert_eq!(tree.eval("//a[b] | //text()"), [4, 5]);
    assert_eq!(tree.subtree(2), [3, 4]);
    assert_eq!(tree.subtree(0).len(), 7);
}

/// The deepest chain the encoding holds is answered by the oracle on
/// this thread's stack, and by every engine alike; one element deeper
/// is refused, from XML and from `.scj` bytes.
#[test]
fn a_max_depth_chain_is_answered_and_one_deeper_is_refused() {
    let xml = oracle::chain(MAX_DEPTH);
    let tree = Tree::parse(&xml).unwrap();
    let session = Session::parse_xml(&xml).unwrap();
    let expr = "//a";
    let want = tree.eval(expr);
    assert_eq!(want.len(), MAX_DEPTH - 1, "every `a` but the root");
    for &engine in ENGINES.iter() {
        let got = session.run(expr, engine).unwrap();
        assert_eq!(got.nodes().as_slice(), &want[..], "{expr} via {engine:?}");
    }

    let err = Session::parse_xml(&oracle::chain(MAX_DEPTH + 1)).unwrap_err();
    assert!(err.to_string().contains("nested deeper"), "{err}");
    // The same chain as `.scj` columns: pre v at level v, each an `a`.
    fn words(out: &mut Vec<u8>, words: impl IntoIterator<Item = u32>) {
        out.extend(words.into_iter().flat_map(u32::to_le_bytes));
    }
    let n = MAX_DEPTH as u32 + 1;
    let mut scj = b"SCJ1".to_vec();
    words(&mut scj, [3, n]); // version, nodes
    scj.extend((0..n).flat_map(|v| (v as u16).to_le_bytes())); // level
    scj.extend((0..n).map(|_| NodeKind::Element as u8)); // kind
    words(&mut scj, [1, 1]); // one tag name of one byte
    scj.push(b'a');
    scj.extend((0..n).flat_map(|_| 0u16.to_le_bytes())); // tag
    words(&mut scj, [0, 0]); // no strings
    let err = Session::from_encoded_bytes(&scj).unwrap_err();
    assert!(err.to_string().contains("nested deeper"), "{err}");
}
