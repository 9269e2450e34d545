//! XPath abstract syntax.

use staircase_accel::Axis;

/// A union expression: one or more location paths joined with `|`.
/// The result is the set union in document order (XPath semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnionExpr {
    /// The branches, evaluated independently from the same context.
    pub branches: Vec<Path>,
}

/// A location path: a sequence of steps, optionally absolute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// `true` for paths starting with `/` (context = document root).
    pub absolute: bool,
    /// The steps, applied left to right.
    pub steps: Vec<Step>,
}

impl Path {
    /// A relative path from steps.
    pub fn relative(steps: Vec<Step>) -> Path {
        Path {
            absolute: false,
            steps,
        }
    }

    /// An absolute path from steps.
    pub fn absolute(steps: Vec<Step>) -> Path {
        Path {
            absolute: true,
            steps,
        }
    }
}

/// One location step: `axis::nodetest[pred]…`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// The axis to traverse.
    pub axis: Axis,
    /// The node test applied to every node reached.
    pub test: NodeTest,
    /// Zero or more existential predicates.
    pub predicates: Vec<Predicate>,
    /// What the user wrote (`//item`), when the normaliser rewrote this
    /// step from something else; `None` on everything the parser emits.
    pub origin: Option<String>,
}

impl Step {
    /// A step without predicates.
    pub fn new(axis: Axis, test: NodeTest) -> Step {
        Step {
            axis,
            test,
            predicates: Vec::new(),
            origin: None,
        }
    }
}

/// A node test.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeTest {
    /// `node()` — any node the axis yields.
    AnyNode,
    /// `*` — any element (or any attribute, on the attribute axis).
    AnyPrincipal,
    /// A name test: elements (or attributes) with this exact name.
    Name(String),
    /// `text()`.
    Text,
    /// `comment()`.
    Comment,
    /// `processing-instruction()`, optionally with a target.
    Pi(Option<String>),
}

/// A step predicate. Only existential path predicates are supported —
/// `[p]` keeps a node iff the relative path `p` selects at least one node
/// from it (the shape the paper's Q2 rewrite uses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// `[path]`.
    Exists(Path),
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 || self.absolute {
                write!(f, "/")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}::{}", self.axis, self.test)?;
        for p in &self.predicates {
            let Predicate::Exists(path) = p;
            write!(f, "[{path}]")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for NodeTest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeTest::AnyNode => write!(f, "node()"),
            NodeTest::AnyPrincipal => write!(f, "*"),
            NodeTest::Name(n) => write!(f, "{n}"),
            NodeTest::Text => write!(f, "text()"),
            NodeTest::Comment => write!(f, "comment()"),
            NodeTest::Pi(None) => write!(f, "processing-instruction()"),
            NodeTest::Pi(Some(t)) => write!(f, "processing-instruction({t})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_roundtrips_simple_paths() {
        let p = Path::absolute(vec![
            Step::new(Axis::Descendant, NodeTest::Name("profile".into())),
            Step::new(Axis::Descendant, NodeTest::Name("education".into())),
        ]);
        assert_eq!(p.to_string(), "/descendant::profile/descendant::education");
    }

    #[test]
    fn display_predicates() {
        let inner = Path::relative(vec![Step::new(
            Axis::Descendant,
            NodeTest::Name("increase".into()),
        )]);
        let mut step = Step::new(Axis::Descendant, NodeTest::Name("bidder".into()));
        step.predicates.push(Predicate::Exists(inner));
        let p = Path::absolute(vec![step]);
        assert_eq!(p.to_string(), "/descendant::bidder[descendant::increase]");
    }

    #[test]
    fn display_node_tests() {
        assert_eq!(NodeTest::AnyNode.to_string(), "node()");
        assert_eq!(NodeTest::AnyPrincipal.to_string(), "*");
        assert_eq!(NodeTest::Text.to_string(), "text()");
        assert_eq!(
            NodeTest::Pi(Some("php".into())).to_string(),
            "processing-instruction(php)"
        );
    }
}
