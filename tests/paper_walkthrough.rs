//! A guided tour through the paper's running example: every concrete
//! number printed in Figures 1–8 is asserted here, end-to-end from XML
//! text.

use staircase_suite::prelude::*;

/// Figure 1's ten-node instance: a(b(c), d, e(f(g, h), i(j))).
fn figure1() -> Doc {
    Doc::from_xml("<a><b><c/></b><d/><e><f><g/><h/></f><i><j/></i></e></a>").unwrap()
}

fn by_name(doc: &Doc, name: &str) -> Pre {
    doc.pres().find(|&v| doc.tag_name(v) == Some(name)).unwrap()
}

fn names(doc: &Doc, ctx: &Context) -> Vec<String> {
    ctx.iter()
        .map(|v| doc.tag_name(v).unwrap().to_string())
        .collect()
}

/// Figure 2: the pre/post table.
#[test]
fn figure2_doc_table() {
    let doc = figure1();
    let table: Vec<(&str, Pre, u32)> = vec![
        ("a", 0, 9),
        ("b", 1, 1),
        ("c", 2, 0),
        ("d", 3, 2),
        ("e", 4, 8),
        ("f", 5, 5),
        ("g", 6, 3),
        ("h", 7, 4),
        ("i", 8, 7),
        ("j", 9, 6),
    ];
    for (name, pre, post) in table {
        assert_eq!(by_name(&doc, name), pre, "pre({name})");
        assert_eq!(doc.post(pre), post, "post({name})");
    }
}

/// §2: f/preceding = (b, c, d); the four regions partition the document.
#[test]
fn figure1_regions_of_f() {
    let doc = figure1();
    let f = Context::singleton(by_name(&doc, "f"));
    let (p, _) = preceding(&doc, &f);
    assert_eq!(names(&doc, &p), ["b", "c", "d"]);
    let (d, _) = descendant(&doc, &f, Variant::default());
    assert_eq!(names(&doc, &d), ["g", "h"]);
    let (a, _) = ancestor(&doc, &f, Variant::default());
    assert_eq!(names(&doc, &a), ["a", "e"]);
    let (fo, _) = following(&doc, &f);
    assert_eq!(names(&doc, &fo), ["i", "j"]);
    assert_eq!(p.len() + d.len() + a.len() + fo.len() + 1, doc.len());
}

/// §2: g/ancestor = (a, e, f).
#[test]
fn figure2_ancestors_of_g() {
    let doc = figure1();
    let g = Context::singleton(by_name(&doc, "g"));
    let (a, _) = ancestor(&doc, &g, Variant::default());
    assert_eq!(names(&doc, &a), ["a", "e", "f"]);
}

/// §2.1: (c)/following/descendant = (f, g, h, i, j).
#[test]
fn section21_following_descendant() {
    let doc = figure1();
    let c = Context::singleton(by_name(&doc, "c"));
    let (step1, _) = following(&doc, &c);
    let (step2, _) = descendant(&doc, &step1, Variant::default());
    assert_eq!(names(&doc, &step2), ["f", "g", "h", "i", "j"]);
}

/// Equation 1 on the example: |(e)/descendant| = post(e) − pre(e) +
/// level(e) = 8 − 4 + 1 = 5.
#[test]
fn equation1_for_e() {
    let doc = figure1();
    let e = by_name(&doc, "e");
    assert_eq!(doc.subtree_size(e), 5);
    assert_eq!(doc.post(e) - e + doc.level(e) as u32, 5);
}

/// Figure 4: ancestor-or-self for context (d, e, f, h, i, j) yields
/// (a, d, e, f, h, i, j); pruning the context to (d, h, j) changes
/// nothing, and the naive strategy produces 11 tuples versus 3 duplicates
/// avoided... precisely: pruned context produces 3 fewer-duplicate paths.
#[test]
fn figure4_pruning_and_duplicates() {
    let doc = figure1();
    let ctx: Context = ["d", "e", "f", "h", "i", "j"]
        .iter()
        .map(|n| by_name(&doc, n))
        .collect();

    // ancestor-or-self via a prepared session query.
    let session = Session::new(figure1());
    let query = session.prepare("ancestor-or-self::node()").unwrap();
    let out = session
        .execute(&[(&query, None)], Engine::default(), Some(&ctx))
        .remove(0)
        .unwrap();
    assert_eq!(
        names(&doc, out.nodes()),
        ["a", "d", "e", "f", "h", "i", "j"]
    );

    // Pruning keeps (d, h, j).
    let pruned = prune(&doc, &ctx, Axis::Ancestor);
    assert_eq!(names(&doc, &pruned), ["d", "h", "j"]);

    // Same result from the pruned context.
    let out2 = session
        .execute(&[(&query, None)], Engine::default(), Some(&pruned))
        .remove(0)
        .unwrap();
    assert_eq!(out.nodes(), out2.nodes());

    // Figure 4 caption: the pruned context "produces less duplicates
    // (3 rather than 11)". Count via the naive engine: ancestor-or-self
    // tuples = ancestor tuples + one self tuple per context node; the
    // distinct result has 7 nodes.
    let (_, anc_naive) = naive_step(&doc, &ctx, Axis::Ancestor);
    let produced_or_self = anc_naive.tuples_produced + ctx.len() as u64;
    assert_eq!(produced_or_self - 7, 11, "unpruned duplicates");
    let (_, anc_pruned) = naive_step(&doc, &pruned, Axis::Ancestor);
    let produced_pruned = anc_pruned.tuples_produced + pruned.len() as u64;
    assert_eq!(produced_pruned - 7, 3, "pruned duplicates");
}

/// Figure 7: the empty-region lemmas, checked exhaustively on the example.
#[test]
fn figure7_empty_regions() {
    let doc = figure1();
    for a in doc.pres() {
        for b in doc.pres() {
            if Axis::Descendant.contains(&doc, a, b) {
                // Case (a): no ancestor of b may follow or precede a.
                for v in doc.pres() {
                    if Axis::Ancestor.contains(&doc, b, v) {
                        assert!(!Axis::Following.contains(&doc, a, v), "S region");
                        assert!(!Axis::Preceding.contains(&doc, a, v), "U region");
                    }
                }
            } else if Axis::Following.contains(&doc, a, b) {
                // Case (b): a and b share no descendants.
                for v in doc.pres() {
                    assert!(
                        !(Axis::Descendant.contains(&doc, a, v)
                            && Axis::Descendant.contains(&doc, b, v)),
                        "Z region"
                    );
                }
            }
        }
    }
}

/// Figure 8: the ancestor staircase for context (d, h, j) partitions the
/// plane at p0=0 < d < h < j; each partition's results are disjoint and
/// concatenate to the full answer in document order.
#[test]
fn figure8_partitions() {
    let doc = figure1();
    let ctx: Context = ["d", "h", "j"].iter().map(|n| by_name(&doc, n)).collect();
    let (result, stats) = ancestor(&doc, &ctx, Variant::Skipping);
    assert_eq!(names(&doc, &result), ["a", "e", "f", "i"]);
    assert_eq!(stats.partitions, 3);
    // Partition i spans [pᵢ₋₁ + 1, pᵢ) and holds only its own step's
    // ancestors (the independence §3.2 notes would allow a parallel
    // strategy): evaluated one step at a time and concatenated, the
    // partitions are the whole answer, in document order.
    let mut start = 0;
    let mut concatenated = Vec::new();
    for c in ctx.iter() {
        let (own, _) = ancestor(&doc, &Context::singleton(c), Variant::Skipping);
        concatenated.extend(own.iter().filter(|&v| v >= start && v < c));
        start = c + 1;
    }
    assert_eq!(result.as_slice(), &concatenated[..]);
}

/// §3.1: following degenerates to the min-postorder context node,
/// preceding to the max-preorder one.
#[test]
fn section31_horizontal_degeneration() {
    let doc = figure1();
    let ctx: Context = ["b", "g", "h"].iter().map(|n| by_name(&doc, n)).collect();
    let f = prune(&doc, &ctx, Axis::Following);
    assert_eq!(names(&doc, &f), ["b"]); // post(b)=1 is minimal
    let p = prune(&doc, &ctx, Axis::Preceding);
    assert_eq!(names(&doc, &p), ["h"]); // pre(h)=7 is maximal
}
