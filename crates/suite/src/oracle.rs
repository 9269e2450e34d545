//! The reference every engine is checked against, and the documents,
//! queries and engine list the agreement tests share.
//!
//! * [`Tree`] answers an XPath expression by walking the
//!   [`staircase_xml::Document`] parsed from the same text: axes follow
//!   parent and child links, a step is "for every context node, every
//!   node on the axis", a predicate is evaluated once per candidate, and
//!   `//` is the literal `descendant-or-self::node()/child::`. It reads no
//!   column of a [`Doc`](staircase_accel::Doc) (no `post`, `level`, end or
//!   subtree size) and runs no normaliser or planner: it shares with the
//!   engines only the numbering of nodes, which it rebuilds from the tree
//!   (an element, its attributes, then its children). Every walk is
//!   iterative, so a [`MAX_DEPTH`](staircase_accel::MAX_DEPTH)-deep chain
//!   is answered on a test thread's default stack.
//! * [`document`] draws XML of one [`Shape`] from a seed; [`queries`]
//!   draws a batch from one grammar of unabbreviated, twig-shaped and
//!   abbreviated paths and their unions.
//! * [`ENGINES`] holds all sixteen engine configurations that can be built.
//! * [`check`] asserts that every engine, in every mode, answers a
//!   document and a query batch as the tree walk does.

use std::fmt::Debug;
use std::sync::{Arc, LazyLock};
use std::time::Duration;

use staircase_accel::Axis;
use staircase_core::Variant;
use staircase_server::{engine_by_name, Client, QueryOptions, Server, ServerConfig};
use staircase_xml::{Document, NodeId, NodeKind as TreeKind};
use staircase_xpath::{
    parse_union, Budget, Engine, NodeTest, Path, Predicate, Query, QueryOutput, Session, Step,
    StepTrace,
};

// ── The tree walk ───────────────────────────────────────────────────────

enum Kind {
    Element(String),
    Attribute(String),
    Text,
    Comment,
    Pi(String),
}

struct Node {
    kind: Kind,
    parent: Option<u32>,
    /// Child nodes (never attributes), in document order.
    children: Vec<u32>,
    attributes: Vec<u32>,
}

/// A document as the reference sees it: nodes numbered in document
/// order from the root element, linked to their parents and children.
pub struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    /// Parses `xml` into the reference's tree, or returns the parser's
    /// error when it is not well-formed.
    pub fn parse(xml: &str) -> Result<Tree, staircase_xml::Error> {
        Ok(Tree::from_document(&Document::parse(xml)?))
    }

    /// Numbers the nodes under `document`'s root element in document
    /// order, with an explicit stack.
    pub fn from_document(document: &Document) -> Tree {
        let mut tree = Tree { nodes: Vec::new() };
        let mut stack: Vec<(NodeId, Option<u32>)> = Vec::new();
        stack.extend(document.root_element().map(|r| (r, None)));
        while let Some((id, parent)) = stack.pop() {
            let kind = match document.kind(id) {
                TreeKind::Element { name, .. } => Kind::Element(name.clone()),
                TreeKind::Text(_) => Kind::Text,
                TreeKind::Comment(_) => Kind::Comment,
                TreeKind::Pi { target, .. } => Kind::Pi(target.clone()),
                TreeKind::Document => unreachable!("only the arena root is a document node"),
            };
            let me = tree.push(kind, parent);
            if let Some(p) = parent {
                tree.nodes[p as usize].children.push(me);
            }
            for (name, _) in document.attributes(id) {
                let a = tree.push(Kind::Attribute(name.clone()), Some(me));
                tree.nodes[me as usize].attributes.push(a);
            }
            let at = stack.len();
            stack.extend(document.children(id).map(|c| (c, Some(me))));
            stack[at..].reverse();
        }
        tree
    }

    fn push(&mut self, kind: Kind, parent: Option<u32>) -> u32 {
        self.nodes.push(Node {
            kind,
            parent,
            children: Vec::new(),
            attributes: Vec::new(),
        });
        self.nodes.len() as u32 - 1
    }

    fn node(&self, v: u32) -> &Node {
        &self.nodes[v as usize]
    }

    /// The number of nodes, attributes included.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` for a document without a root element.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// `true` when node `v` is an attribute.
    pub fn is_attribute(&self, v: u32) -> bool {
        matches!(self.node(v).kind, Kind::Attribute(_))
    }

    /// The name of element `v`; `None` for every other kind.
    pub fn element_name(&self, v: u32) -> Option<&str> {
        match &self.node(v).kind {
            Kind::Element(name) => Some(name),
            _ => None,
        }
    }

    /// The parent of `v` (an attribute's is its element).
    pub fn parent(&self, v: u32) -> Option<u32> {
        self.node(v).parent
    }

    /// The proper ancestors of `v`, nearest first.
    pub fn ancestors(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(self.parent(v), |&a| self.parent(a))
    }

    /// Every node below `v`, attributes included (its own and those of
    /// every descendant), in document order.
    pub fn subtree(&self, v: u32) -> Vec<u32> {
        let (mut out, mut stack) = (Vec::new(), vec![v]);
        while let Some(u) = stack.pop() {
            if u != v {
                out.push(u);
            }
            out.extend(&self.node(u).attributes);
            stack.extend(self.node(u).children.iter().rev());
        }
        out
    }

    /// Every node on `axis` from `v`, before any node test.
    pub fn axis(&self, v: u32, axis: Axis) -> Vec<u32> {
        let mut out = Vec::new();
        let node = self.node(v);
        match axis {
            Axis::SelfAxis => out.push(v),
            Axis::Child => out.extend(&node.children),
            Axis::Attribute => out.extend(&node.attributes),
            Axis::Parent => out.extend(node.parent),
            Axis::Descendant | Axis::DescendantOrSelf => {
                if axis == Axis::DescendantOrSelf {
                    out.push(v);
                }
                out.extend(
                    self.subtree(v)
                        .into_iter()
                        .filter(|&u| !self.is_attribute(u)),
                );
            }
            Axis::Ancestor | Axis::AncestorOrSelf => {
                if axis == Axis::AncestorOrSelf {
                    out.push(v);
                }
                out.extend(self.ancestors(v));
            }
            // The nodes after (before) `v` in document order that are
            // neither in its subtree nor on its ancestor chain.
            Axis::Following | Axis::Preceding => {
                let mut kin = vec![false; self.len()];
                for u in self.subtree(v).into_iter().chain(self.ancestors(v)) {
                    kin[u as usize] = true;
                }
                let range = if axis == Axis::Following {
                    v + 1..self.len() as u32
                } else {
                    0..v
                };
                out.extend(range.filter(|&u| !kin[u as usize] && !self.is_attribute(u)));
            }
            Axis::FollowingSibling | Axis::PrecedingSibling => {
                if let (Some(p), false) = (node.parent, self.is_attribute(v)) {
                    let siblings = &self.node(p).children;
                    let later = axis == Axis::FollowingSibling;
                    out.extend(siblings.iter().filter(|&&s| (s > v) == later && s != v));
                }
            }
        }
        out
    }

    /// Every node on `axis` from some node of `context`, in document
    /// order: the region a partitioning-axis kernel must return.
    pub fn region(&self, context: &[u32], axis: Axis) -> Vec<u32> {
        sorted(context.iter().flat_map(|&c| self.axis(c, axis)).collect())
    }

    fn passes(&self, v: u32, test: &NodeTest, axis: Axis) -> bool {
        let kind = &self.node(v).kind;
        match test {
            NodeTest::AnyNode => true,
            NodeTest::Text => matches!(kind, Kind::Text),
            NodeTest::Comment => matches!(kind, Kind::Comment),
            NodeTest::Pi(None) => matches!(kind, Kind::Pi(_)),
            NodeTest::Pi(Some(target)) => matches!(kind, Kind::Pi(t) if t == target),
            // The principal node kind: attributes on the attribute axis,
            // elements everywhere else.
            NodeTest::AnyPrincipal | NodeTest::Name(_) => {
                let name = match (kind, axis) {
                    (Kind::Attribute(name), Axis::Attribute) => name,
                    (Kind::Element(name), axis) if axis != Axis::Attribute => name,
                    _ => return false,
                };
                !matches!(test, NodeTest::Name(wanted) if wanted != name)
            }
        }
    }

    fn step(&self, context: &[u32], step: &Step) -> Vec<u32> {
        let mut out = Vec::new();
        for &c in context {
            for v in self.axis(c, step.axis) {
                let keep = self.passes(v, &step.test, step.axis)
                    && step
                        .predicates
                        .iter()
                        .all(|Predicate::Exists(p)| !self.path(p, &[v]).is_empty());
                if keep {
                    out.push(v);
                }
            }
        }
        sorted(out)
    }

    fn path(&self, path: &Path, context: &[u32]) -> Vec<u32> {
        let mut current = if path.absolute {
            vec![0]
        } else {
            context.to_vec()
        };
        for step in &path.steps {
            current = self.step(&current, step);
        }
        current
    }

    /// The answer to `expr` from the root element, in document order.
    /// Panics when `expr` does not parse.
    pub fn eval(&self, expr: &str) -> Vec<u32> {
        self.eval_from(expr, &[0])
    }

    /// The answer to `expr` from `context` (an absolute path starts at
    /// the root element whatever the context), in document order.
    /// Panics when `expr` does not parse.
    pub fn eval_from(&self, expr: &str, context: &[u32]) -> Vec<u32> {
        if self.is_empty() {
            return Vec::new();
        }
        let parsed = parse_union(expr).unwrap_or_else(|e| panic!("{expr:?} does not parse: {e}"));
        let context = sorted(context.to_vec());
        sorted(
            parsed
                .branches
                .iter()
                .flat_map(|b| self.path(b, &context))
                .collect(),
        )
    }
}

/// `nodes` in document order, each once.
fn sorted(mut nodes: Vec<u32>) -> Vec<u32> {
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

// ── Documents ───────────────────────────────────────────────────────────

/// A seeded xorshift generator: the same draws on every run.
pub struct Rng(u64);

impl Rng {
    /// A generator whose draws depend only on `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// A draw in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    /// One of the `|`-separated words of `list` (empty words count).
    fn word<'a>(&mut self, list: &'a str) -> &'a str {
        let n = 1 + list.bytes().filter(|&b| b == b'|').count();
        list.split('|').nth(self.below(n)).expect("in range")
    }
}

/// The element names; `rare` is planted at most twice per document, so
/// its name tests are selective enough for `auto` to join its list.
const TAGS: &str = "a|b|c|d";
/// Text runs: multi-byte UTF-8, references, CDATA that must merge into
/// the run, and `]]` without the `>`.
const TEXTS: &str = "t|text|héllo wörld|日本語|a &amp; b &lt; c|&#x1F600;&#233;|\
                     x]] y<![CDATA[<raw> & markup]]>|ab<![CDATA[]]><![CDATA[<c>]]>d&amp;e";

/// What a generated document looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Random nesting of every kind of node.
    Tree,
    /// Every element the only element child of the one before.
    Chain,
    /// One parent over many leaves.
    Star,
    /// Random nesting of `a` elements only.
    OneTag,
    /// Exactly this many `a` elements among fillers: a tag list of that
    /// length (the size argument of [`document`] is ignored).
    Fragment(usize),
}

/// Every shape, the fragment lengths on both sides of one and two mask
/// words.
#[rustfmt::skip]
pub const SHAPES: [Shape; 10] = [
    Shape::Tree, Shape::Chain, Shape::Star, Shape::OneTag,
    Shape::Fragment(63), Shape::Fragment(64), Shape::Fragment(65),
    Shape::Fragment(127), Shape::Fragment(128), Shape::Fragment(129),
];

/// Writes XML while counting the nodes the encoding will give it.
struct Writer {
    rng: Rng,
    xml: String,
    open: Vec<&'static str>,
    nodes: usize,
    text_last: bool,
    rares: usize,
}

impl Writer {
    fn put(&mut self, pieces: &[&str]) {
        pieces.iter().for_each(|p| self.xml.push_str(p));
    }

    /// `<tag …>` (or `<tag …/>` when `empty`) with up to `room - 1`
    /// attributes; a third of the tags carry some.
    fn element(&mut self, tag: &'static str, empty: bool, room: usize) {
        self.put(&["<", tag]);
        self.nodes += 1;
        if self.rng.below(3) == 0 {
            for name in ["id", "b", "note"] {
                if self.nodes < room && self.rng.below(2) == 0 {
                    let value = self.rng.word("|v|1|caf&#233; &quot;q&quot;|値");
                    self.put(&[" ", name, "='", value, "'"]);
                    self.nodes += 1;
                }
            }
        }
        self.put(&[if empty { "/>" } else { ">" }]);
        if !empty {
            self.open.push(tag);
        }
        self.text_last = false;
    }

    fn close(&mut self) {
        let tag = self.open.pop().expect("an open element");
        self.put(&["</", tag, ">"]);
        self.text_last = false;
    }

    /// A text run (never right after another), a comment or a processing
    /// instruction: one node.
    fn leaf(&mut self) {
        let text = !self.text_last && self.rng.below(2) == 0;
        if text {
            let run = self.rng.word(TEXTS);
            self.put(&[run]);
        } else if self.rng.below(3) < 2 {
            let body = self.rng.word("c||é &amp; raw");
            self.put(&["<!--", body, "-->"]);
        } else {
            let (target, data) = (self.rng.word("t|u"), self.rng.word("|d|données"));
            self.put(&["<?", target, " ", data, "?>"]);
        }
        self.text_last = text;
        self.nodes += 1;
    }

    fn tag(&mut self) -> &'static str {
        if self.rares < 2 && self.rng.below(40) == 0 {
            self.rares += 1;
            "rare"
        } else {
            self.rng.word(TAGS)
        }
    }
}

/// Comments and processing instructions for the prolog or the epilog:
/// one to two in one call of three, none otherwise.
fn outside_root(rng: &mut Rng) -> String {
    let mut out = String::new();
    if rng.below(3) == 0 {
        for _ in 0..1 + rng.below(2) {
            if rng.below(2) == 0 {
                out.push_str(&format!("<!--{}-->", rng.word("c|é")));
            } else {
                out.push_str(&format!("<?{} d?>", rng.word("t|u")));
            }
            out.push_str(rng.word("|\n"));
        }
    }
    out
}

/// A well-formed document of `shape` with exactly `nodes` nodes (at
/// least one; attributes, text, comments and processing instructions
/// count), the same for the same arguments.
///
/// Some documents carry comments and processing instructions before or
/// after the root element. They are no nodes of the encoding, which
/// holds the root element's subtree, and they are drawn from a stream of
/// their own, so the root element is the one the seed draws without
/// them.
pub fn document(shape: Shape, seed: u64, nodes: usize) -> String {
    let mut misc = Rng::new(!seed);
    let mut w = Writer {
        rng: Rng::new(seed),
        xml: outside_root(&mut misc),
        open: Vec::new(),
        nodes: 0,
        text_last: false,
        rares: 0,
    };
    let nodes = nodes.max(1);
    let root = match shape {
        Shape::OneTag => "a",
        Shape::Fragment(_) => w.rng.word("b|c|d"),
        _ => w.rng.word(TAGS),
    };
    w.element(root, false, nodes);
    match shape {
        Shape::Tree | Shape::OneTag => {
            while w.nodes < nodes {
                let tag = if shape == Shape::OneTag { "a" } else { w.tag() };
                match w.rng.below(10) {
                    0..=2 => w.element(tag, false, nodes),
                    3 | 4 if w.open.len() > 1 => w.close(),
                    3..=5 => w.element(tag, true, nodes),
                    _ => w.leaf(),
                }
            }
        }
        Shape::Chain => {
            while w.nodes + 1 < nodes {
                let tag = w.tag();
                w.element(tag, false, nodes - 1);
            }
            if w.nodes < nodes {
                w.leaf();
            }
        }
        Shape::Star => {
            while w.nodes < nodes {
                if w.rng.below(2) == 0 {
                    let tag = w.tag();
                    w.element(tag, true, nodes);
                } else {
                    w.leaf();
                }
            }
        }
        // Each `a` alone or under a filler element, empty or over a leaf.
        Shape::Fragment(count) => {
            for _ in 0..count {
                let wrap = w.rng.below(3) == 0;
                if wrap {
                    let filler = w.rng.word("b|c|d");
                    w.element(filler, false, usize::MAX);
                }
                w.element("a", false, usize::MAX);
                if w.rng.below(2) == 0 {
                    w.leaf();
                }
                w.close();
                if wrap {
                    w.close();
                }
            }
        }
    }
    while !w.open.is_empty() {
        w.close();
    }
    w.xml + &outside_root(&mut misc)
}

/// `depth` nested `a` elements and nothing else.
pub fn chain(depth: usize) -> String {
    "<a>".repeat(depth) + &"</a>".repeat(depth)
}

// ── Queries ─────────────────────────────────────────────────────────────

const AXES: &str = "descendant|descendant|ancestor|ancestor|following|preceding|child|parent|\
                    following-sibling|preceding-sibling|self|\
                    descendant-or-self|ancestor-or-self";
/// `zzz` names nothing in any generated document.
const TESTS: &str = "a|b|c|d|rare|zzz|*|node()|text()|comment()|processing-instruction()|\
                     processing-instruction(t)";
/// Predicates from none to semijoin chains on every probe axis, and a
/// nested-loop `[b/..]`.
const PREDICATES: &str = "||||[b]|[descendant::c]|[ancestor::d]|[rare]|[b/c]|[ancestor::c/d[b]]|\
                          [b/..]|[zzz]|[@id]|[.//text()]";
/// Abbreviated steps: every shape the normaliser rewrites, and the
/// neighbours of those that must stay put.
const SHORT_TESTS: &str = "a|b|c|d|a|b|*|text()|node()|@id|.|..|descendant::c|\
                           descendant-or-self::b|ancestor::a";
const SHORT_PREDICATES: &str = "|||[b]|[b/c]|[.//b]|[.//b/c[d]]|[ancestor::b/c]|[a//a]|[b[c][d]]|\
                                [c/ancestor::a[b]/d]|[descendant::c[ancestor::b]]|[@id]|[b/@id]|\
                                [b[c]/..]|[.//text()]|[*/c]|[//d]|[.]";
/// Twig-eligible steps: names, predicates (one-step, chained, nested,
/// with an inner upward link, stacked) and ineligible tails.
const TWIG_NAMES: &str = "a|b|c|rare";
const TWIG_PREDICATES: &str = "||[descendant::a]|[child::b]|[descendant::b/child::c]|\
                               [a][descendant::c]|[child::b[c]]|[descendant::c/ancestor::b]|\
                               [b][c/a]";
const TWIG_TAILS: &str = "||/ancestor::a|/descendant::b[c/a]";

/// `/axis::test[pred]` steps, one to three.
fn unabbreviated(rng: &mut Rng) -> String {
    let mut out = String::new();
    for _ in 0..1 + rng.below(3) {
        let (axis, test) = (rng.word(AXES), rng.word(TESTS));
        out.push_str(&format!("/{axis}::{test}{}", rng.word(PREDICATES)));
    }
    out
}

/// A twig-eligible branching head — vertical steps with vertical
/// existential predicates — and sometimes an ineligible tail.
fn twig(rng: &mut Rng) -> String {
    let name = rng.word(TWIG_NAMES);
    let mut out = format!("/descendant::{name}{}", rng.word(TWIG_PREDICATES));
    for _ in 0..rng.below(4) {
        let (edge, name) = (
            rng.word("descendant|descendant|child"),
            rng.word(TWIG_NAMES),
        );
        out.push_str(&format!("/{edge}::{name}{}", rng.word(TWIG_PREDICATES)));
    }
    out + rng.word(TWIG_TAILS)
}

/// Paths the way people type them: `//`, `.//`, bare names, `@id`,
/// `.`, `..`.
fn abbreviated(rng: &mut Rng) -> String {
    let mut out = String::from(rng.word("//|//|//|.//|/|"));
    for i in 0..1 + rng.below(3) {
        if i > 0 {
            out.push_str(rng.word("/|//|//"));
        }
        let test = rng.word(SHORT_TESTS);
        out.push_str(test);
        // Abbreviated steps take no predicate in this grammar.
        if !matches!(test, "." | "..") {
            out.push_str(rng.word(SHORT_PREDICATES));
        }
    }
    out
}

/// One query of the grammar: an unabbreviated, twig-shaped or
/// abbreviated path, and one time in six the union of two.
pub fn query(rng: &mut Rng) -> String {
    let path = |rng: &mut Rng| match rng.below(6) {
        0..=2 => unabbreviated(rng),
        3 => twig(rng),
        _ => abbreviated(rng),
    };
    let first = path(rng);
    if rng.below(6) == 0 {
        format!("{first} | {}", path(rng))
    } else {
        first
    }
}

/// A batch of one to `max` queries drawn from `seed`.
pub fn queries(seed: u64, max: usize) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x51_7CC1_B727_220A);
    let n = 1 + rng.below(max);
    (0..n).map(|_| query(&mut rng)).collect()
}

// ── Engines and the matrix ──────────────────────────────────────────────

/// The three staircase-join variants of the paper (Algorithms 2–4).
pub const VARIANTS: [Variant; 3] = [
    Variant::Basic,
    Variant::Skipping,
    Variant::EstimationSkipping,
];

/// Every engine configuration that can be built: the staircase join in
/// its three variants plain, with pushdown and on fragments; the SQL
/// plan with and without the Equation-1 window and the early name test;
/// naive, auto and twig.
pub static ENGINES: LazyLock<[Engine; 16]> = LazyLock::new(|| {
    let mut out = vec![Engine::naive(), Engine::auto(), Engine::twig()];
    for staircase in VARIANTS.map(|v| Engine::staircase().variant(v)) {
        let built = [
            staircase,
            staircase.pushdown(true),
            staircase.fragmented(true),
        ];
        out.extend(built.map(|b| b.build().expect("a valid configuration")));
    }
    for (eq1, early) in [(false, false), (false, true), (true, false), (true, true)] {
        let sql = Engine::sql().eq1_window(eq1).early_nametest(early);
        out.push(sql.build().expect("a valid configuration"));
    }
    out.try_into().expect("sixteen configurations")
});

/// The engines a server resolves by name.
const WIRE: [&str; 6] = [
    "staircase",
    "pushdown",
    "fragmented",
    "naive",
    "sql",
    "auto",
];

/// A query's step traces without the estimates: operators, result sizes,
/// touched and seeks — what governance must not move.
pub fn counters(out: &QueryOutput) -> Vec<StepTrace> {
    let steps = out.stats().steps.iter();
    steps
        .map(|s| StepTrace {
            est_cost: 0.0,
            ..s.clone()
        })
        .collect()
}

/// `assert_eq!` with the message built only on failure.
fn agree<T: PartialEq + Debug>(got: T, want: T, at: impl FnOnce() -> String) {
    if got != want {
        panic!("{}:\n  got {got:?}\n want {want:?}", at());
    }
}

/// Runs `exprs` on `xml` through every mode of every engine and asserts
/// each answer is [`Tree::eval`]'s, node for node and in order:
///
/// * on every engine of [`ENGINES`], alone and as one `run_many` batch
///   (whose per-step result sizes are the alone run's, and whose touched
///   total is at most the alone runs'), loaded from the XML text and
///   from the `.scj` bytes of its encoding;
/// * on the XML session, again under a never-binding [`Budget`], alone
///   and batched, with per-step counters identical to the ungoverned
///   runs, and each budget charged exactly the query's Σ `nodes_touched
///   + pred_touched`;
/// * through an in-process [`Server`] for every engine the wire names;
///
/// and that however many engines ran, each session built its tag index
/// and its SQL engine at most once.
///
/// # Panics
///
/// On the first disagreement, naming the query, engine, mode and
/// document.
pub fn check(xml: &str, exprs: &[String]) {
    let tree = Tree::parse(xml).unwrap_or_else(|e| panic!("{xml:?} is ill-formed: {e}"));
    let expected: Vec<Vec<u32>> = exprs.iter().map(|e| tree.eval(e)).collect();
    let session = Arc::new(Session::parse_xml(xml).expect("well-formed XML loads"));
    let bytes = session.doc().to_bytes();
    let encoded = Session::from_encoded_bytes(&bytes).expect("self-produced bytes load");
    let budget = || {
        let hour = Budget::new().with_deadline_in(Duration::from_secs(3600));
        Arc::new(hour.with_max_touched(u64::MAX))
    };
    // The governor's unit is the trace's: a budget is charged exactly
    // what the query's steps report, joins and predicates.
    let charged = |o: &QueryOutput| -> u64 {
        let steps = o.stats().steps.iter();
        steps.map(|s| s.nodes_touched + s.pred_touched).sum()
    };
    let sizes =
        |o: &QueryOutput| -> Vec<usize> { o.stats().steps.iter().map(|s| s.result_size).collect() };
    let touched =
        |outs: &[QueryOutput]| -> u64 { outs.iter().map(|o| o.stats().total_touched()).sum() };
    for (load, session) in [("xml", &*session), ("scj", &encoded)] {
        let prepare = |e: &String| {
            session
                .prepare(e)
                .unwrap_or_else(|err| panic!("{e:?}: {err}"))
        };
        let queries: Vec<Query> = exprs.iter().map(prepare).collect();
        let refs: Vec<&Query> = queries.iter().collect();
        for &engine in ENGINES.iter() {
            let at = |mode: &str, i: usize| {
                format!("{} via {engine:?} ({load}, {mode}) on {xml}", exprs[i])
            };
            let alone: Vec<QueryOutput> = queries.iter().map(|q| q.run(engine)).collect();
            let batch = session.run_many(&refs, engine);
            for (i, want) in expected.iter().enumerate() {
                agree(alone[i].nodes().as_slice(), want, || at("alone", i));
                agree(batch[i].nodes().as_slice(), want, || at("batched", i));
                agree(sizes(&batch[i]), sizes(&alone[i]), || {
                    at("batched step sizes", i)
                });
            }
            assert!(
                touched(&batch) <= touched(&alone),
                "{}",
                at("batch touched", 0)
            );
            if load == "scj" {
                continue;
            }
            for (i, q) in queries.iter().enumerate() {
                let b = budget();
                let out = session
                    .execute(&[(q, Some(Arc::clone(&b)))], engine, None)
                    .remove(0);
                let out = out.unwrap_or_else(|e| panic!("{}: {e}", at("governed", i)));
                agree(counters(&out), counters(&alone[i]), || at("governed", i));
                agree(b.touched(), charged(&out), || at("governed charge", i));
            }
            let budgets: Vec<_> = refs.iter().map(|_| budget()).collect();
            let jobs: Vec<_> = (refs.iter().zip(&budgets))
                .map(|(&q, b)| (q, Some(Arc::clone(b))))
                .collect();
            for (i, out) in session.execute(&jobs, engine, None).into_iter().enumerate() {
                let out = out.unwrap_or_else(|e| panic!("{}: {e}", at("governed batch", i)));
                agree(counters(&out), counters(&batch[i]), || {
                    at("governed batch", i)
                });
                agree(budgets[i].touched(), charged(&out), || {
                    at("governed batch charge", i)
                });
            }
        }
        let builds = session.aux_builds();
        assert!(
            builds.tag_index <= 1 && builds.sql_engine <= 1,
            "{builds:?} ({load})"
        );
    }
    let server = Server::start(Arc::clone(&session), ServerConfig::default()).expect("binds");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    for name in WIRE {
        let engine = engine_by_name(name).expect("a wire engine");
        assert!(ENGINES.contains(&engine), "{name} is one of the sixteen");
        let options = QueryOptions {
            engine: name.to_string(),
            ..QueryOptions::default()
        };
        for (expr, want) in exprs.iter().zip(&expected) {
            let reply = client
                .query(expr, &options)
                .unwrap_or_else(|e| panic!("{expr}: {e}"));
            agree(&reply.ids, want, || {
                format!("{expr} via the wire's {name} on {xml}")
            });
        }
    }
    drop(client);
    server.shutdown_and_join();
}
