//! Table-driven XPath conformance suite on a fixed mixed-content document.
//!
//! Every case is checked on all engines; expected results are written as
//! the matching nodes' pre ranks, derived by hand from the document below.

use staircase_accel::{Context, Doc};
use staircase_core::Variant;
use staircase_xpath::{Engine, Session};

/// The fixture, with pre ranks:
/// ```text
/// 0  <library kind="public">
/// 1    @kind
/// 2    <shelf id="s1">
/// 3      @id
/// 4      <book year="1962">
/// 5        @year
/// 6        <title>          7: "Pale Fire"
/// 8        <author>         9: "Nabokov"
/// 10     <book year="1997">
/// 11       @year
/// 12       <title>          13: "Mason &amp; Dixon"
/// 14       <author>         15: "Pynchon"
/// 16       <!--sold out-->
/// 17   <shelf id="s2">
/// 18     @id
/// 19     <book>
/// 20       <title>          21: "Ficciones"
/// 22     <?catalog reindex?>
/// 23   <basement>
/// 24     <box>
/// 25       <book>
/// 26         <title>        27: "Molloy"
/// ```
fn fixture() -> Doc {
    Doc::from_xml(
        r#"<library kind="public"><shelf id="s1"><book year="1962"><title>Pale Fire</title><author>Nabokov</author></book><book year="1997"><title>Mason &amp; Dixon</title><author>Pynchon</author></book><!--sold out--></shelf><shelf id="s2"><book><title>Ficciones</title></book><?catalog reindex?></shelf><basement><box><book><title>Molloy</title></book></box></basement></library>"#,
    )
    .unwrap()
}

fn engines() -> [Engine; 6] {
    [
        Engine::staircase().variant(Variant::Basic).build().unwrap(),
        Engine::staircase()
            .variant(Variant::EstimationSkipping)
            .build()
            .unwrap(),
        Engine::staircase().pushdown(true).build().unwrap(),
        Engine::staircase().fragmented(true).build().unwrap(),
        Engine::naive(),
        Engine::sql()
            .eq1_window(true)
            .early_nametest(true)
            .build()
            .unwrap(),
    ]
}

const CASES: &[(&str, &[u32])] = &[
    // Descendant axis with name tests.
    ("/descendant::book", &[4, 10, 19, 25]),
    ("/descendant::title", &[6, 12, 20, 26]),
    ("/descendant::shelf", &[2, 17]),
    ("//book", &[4, 10, 19, 25]),
    ("//shelf//title", &[6, 12, 20]),
    // Child axis, default and explicit. Absolute paths address the root
    // *element* (the paper's `root(doc)` — the encoding has no separate
    // document node), so children are addressed directly.
    ("/self::library", &[0]),
    ("/shelf", &[2, 17]),
    ("shelf/book", &[4, 10, 19]),
    ("basement/box/book/title", &[26]),
    // Attribute axis.
    ("//book/@year", &[5, 11]),
    ("//shelf/@id", &[3, 18]),
    ("/@kind", &[1]),
    ("//@*", &[1, 3, 5, 11, 18]),
    // Ancestor / ancestor-or-self.
    ("//title/ancestor::book", &[4, 10, 19, 25]),
    ("//title/ancestor::shelf", &[2, 17]),
    ("//box/ancestor-or-self::node()", &[0, 23, 24]),
    // Parent.
    ("//title/..", &[4, 10, 19, 25]),
    ("//book/parent::shelf", &[2, 17]),
    ("//book/parent::box", &[24]),
    // Following / preceding.
    ("//author/following::title", &[12, 20, 26]),
    ("//basement/preceding::book", &[4, 10, 19]),
    // Sibling axes.
    ("//shelf/following-sibling::node()", &[17, 23]),
    ("//basement/preceding-sibling::node()", &[2, 17]),
    ("//book/following-sibling::comment()", &[16]),
    // Node tests.
    ("//shelf/child::comment()", &[16]),
    ("//shelf/child::processing-instruction()", &[22]),
    ("//shelf/child::processing-instruction(catalog)", &[22]),
    ("//title/child::text()", &[7, 13, 21, 27]),
    (
        "/descendant::*",
        &[2, 4, 6, 8, 10, 12, 14, 17, 19, 20, 23, 24, 25, 26],
    ),
    // Predicates (existential).
    ("//book[author]", &[4, 10]),
    ("//book[descendant::author]", &[4, 10]),
    ("//shelf[book[author]]", &[2]),
    ("//book[ancestor::basement]", &[25]),
    ("//*[title]", &[4, 10, 19, 25]),
    // Self axis and dot.
    ("//book/self::node()", &[4, 10, 19, 25]),
    ("//book/.", &[4, 10, 19, 25]),
    // Union expressions.
    ("//author | //title", &[6, 8, 12, 14, 20, 26]),
    ("//basement | //shelf | //magazine", &[2, 17, 23]),
    ("//book/@year | //shelf/@id", &[3, 5, 11, 18]),
    ("//title | //title", &[6, 12, 20, 26]),
    // Empty results.
    ("//magazine", &[]),
    ("//book/child::author[ancestor::basement]", &[]),
    ("/preceding::node()", &[]),
];

#[test]
fn conformance_cases_on_all_engines() {
    let session = Session::new(fixture());
    let doc = session.doc();
    // Spot-check the fixture numbering before relying on it.
    assert_eq!(doc.len(), 28);
    assert_eq!(doc.tag_name(0), Some("library"));
    assert_eq!(doc.tag_name(4), Some("book"));
    assert_eq!(doc.tag_name(23), Some("basement"));
    assert_eq!(doc.content(27), Some("Molloy"));

    for (expr, expected) in CASES {
        let query = session
            .prepare(expr)
            .unwrap_or_else(|e| panic!("{expr}: {e}"));
        for engine in engines() {
            let out = query.run(engine);
            assert_eq!(out.nodes().as_slice(), *expected, "{expr} via {engine:?}");
        }
    }
}

/// The descendant-or-self axis wrapped in //: comment nodes are reachable
/// through node() tests but excluded by element tests.
#[test]
fn comment_reachability() {
    let session = Session::new(fixture());
    let out = session.run("//comment()", Engine::default()).unwrap();
    assert_eq!(out.nodes().as_slice(), &[16]);
}

/// Relative paths evaluate from a supplied context.
#[test]
fn relative_evaluation_from_context() {
    let session = Session::new(fixture());
    let query = session.prepare("book/title").unwrap();
    let shelf = Context::singleton(17); // shelf s2
    let out = session
        .execute(&[(&query, None)], Engine::default(), Some(&shelf))
        .remove(0)
        .unwrap();
    assert_eq!(out.nodes().as_slice(), &[20]);
}

/// Queries compose: the result context of one evaluation feeds the next.
#[test]
fn staged_evaluation() {
    let session = Session::new(fixture());
    let books = session
        .prepare("//book")
        .unwrap()
        .run(Engine::default())
        .into_nodes();
    let query = session.prepare("title/text()").unwrap();
    let titles = session
        .execute(&[(&query, None)], Engine::default(), Some(&books))
        .remove(0)
        .unwrap()
        .into_nodes();
    assert_eq!(titles.as_slice(), &[7, 13, 21, 27]);
}
