//! Hand-rolled recursive-descent parser for the XPath subset.

use staircase_accel::Axis;

use crate::ast::{NodeTest, Path, Predicate, Step, UnionExpr};

/// A parse failure with byte position and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the expression.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "XPath parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// How deep predicates may nest (`a[b[c[…]]]`). The parser, the
/// normaliser, the planner and the semijoin-chain reduction all recurse
/// once per nesting level, so this one bound caps every one of them; an
/// expression nested deeper is a [`ParseError`], not a stack overflow.
pub const MAX_PREDICATE_DEPTH: usize = 64;

/// Parses an XPath expression into a [`Path`].
pub fn parse(input: &str) -> Result<Path, ParseError> {
    let mut p = Parser::new(input);
    let path = p.path()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing input"));
    }
    if path.steps.is_empty() {
        return Err(p.err("empty path"));
    }
    Ok(path)
}

/// Parses an XPath union expression (`path | path | …`); a single path is
/// a one-branch union.
pub fn parse_union(input: &str) -> Result<UnionExpr, ParseError> {
    let mut p = Parser::new(input);
    let mut branches = Vec::new();
    loop {
        let path = p.path()?;
        if path.steps.is_empty() {
            return Err(p.err("empty path in union"));
        }
        branches.push(path);
        if !p.eat("|") {
            break;
        }
    }
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing input"));
    }
    Ok(UnionExpr { branches })
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// Predicate brackets currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Parser<'a> {
        Parser {
            input,
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        while self.rest().starts_with(|c: char| c.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn peek(&mut self, token: &str) -> bool {
        self.skip_ws();
        self.rest().starts_with(token)
    }

    fn name(&mut self) -> Option<&'a str> {
        self.skip_ws();
        let rest = self.rest();
        let mut end = 0;
        for c in rest.chars() {
            let ok = if end == 0 {
                c.is_alphabetic() || c == '_'
            } else {
                c.is_alphanumeric() || matches!(c, '_' | '-' | '.')
            };
            if ok {
                end += c.len_utf8();
            } else {
                break;
            }
        }
        if end == 0 {
            return None;
        }
        let name = &rest[..end];
        self.pos += end;
        Some(name)
    }

    fn path(&mut self) -> Result<Path, ParseError> {
        let mut steps = Vec::new();
        let absolute = self.peek("/");
        // Leading '//' abbreviates /descendant-or-self::node()/.
        if self.eat("//") {
            steps.push(Step::new(Axis::DescendantOrSelf, NodeTest::AnyNode));
        } else if self.eat("/") {
            self.skip_ws();
            // A bare "/" (no steps) — let the caller decide if that is
            // acceptable (top-level parse rejects empty paths).
            if self.pos >= self.input.len() || self.peek("]") {
                return Ok(Path { absolute, steps });
            }
        }
        loop {
            steps.push(self.step()?);
            if self.eat("//") {
                steps.push(Step::new(Axis::DescendantOrSelf, NodeTest::AnyNode));
                continue;
            }
            if self.eat("/") {
                continue; // another step is now required
            }
            break;
        }
        Ok(Path { absolute, steps })
    }

    fn step(&mut self) -> Result<Step, ParseError> {
        self.skip_ws();
        // Abbreviations.
        if self.eat("..") {
            return Ok(Step::new(Axis::Parent, NodeTest::AnyNode));
        }
        if self.peek(".") && !self.rest().starts_with("..") {
            self.eat(".");
            return Ok(Step::new(Axis::SelfAxis, NodeTest::AnyNode));
        }
        if self.eat("@") {
            let test = if self.eat("*") {
                NodeTest::AnyPrincipal
            } else {
                let n = self
                    .name()
                    .ok_or_else(|| self.err("attribute name expected"))?;
                NodeTest::Name(n.to_string())
            };
            let mut step = Step::new(Axis::Attribute, test);
            step.predicates = self.predicates()?;
            return Ok(step);
        }

        // Optional explicit axis.
        let checkpoint = self.pos;
        let axis = if let Some(name) = self.name() {
            if self.eat("::") {
                Axis::parse(name).ok_or_else(|| self.err(format!("unknown axis '{name}'")))?
            } else {
                self.pos = checkpoint; // it was a node test, not an axis
                Axis::Child
            }
        } else {
            Axis::Child
        };

        let test = self.node_test()?;
        let mut step = Step::new(axis, test);
        step.predicates = self.predicates()?;
        Ok(step)
    }

    fn node_test(&mut self) -> Result<NodeTest, ParseError> {
        self.skip_ws();
        if self.eat("*") {
            return Ok(NodeTest::AnyPrincipal);
        }
        let name = self.name().ok_or_else(|| self.err("node test expected"))?;
        if self.eat("(") {
            let test = match name {
                "node" => NodeTest::AnyNode,
                "text" => NodeTest::Text,
                "comment" => NodeTest::Comment,
                "processing-instruction" => {
                    let target = self.name().map(str::to_string);
                    NodeTest::Pi(target)
                }
                other => return Err(self.err(format!("unknown node test '{other}()'"))),
            };
            if !self.eat(")") {
                return Err(self.err("expected ')'"));
            }
            return Ok(test);
        }
        Ok(NodeTest::Name(name.to_string()))
    }

    fn predicates(&mut self) -> Result<Vec<Predicate>, ParseError> {
        let mut preds = Vec::new();
        while self.eat("[") {
            self.skip_ws();
            if self.rest().starts_with(|c: char| c.is_ascii_digit()) {
                return Err(self.err(
                    "positional predicates are not supported (only existential path predicates)",
                ));
            }
            if self.depth == MAX_PREDICATE_DEPTH {
                return Err(self.err(format!(
                    "predicates nested deeper than {MAX_PREDICATE_DEPTH} levels"
                )));
            }
            self.depth += 1;
            let inner = self.path()?;
            self.depth -= 1;
            if inner.steps.is_empty() {
                return Err(self.err("empty predicate"));
            }
            if !self.eat("]") {
                return Err(self.err("expected ']'"));
            }
            preds.push(Predicate::Exists(inner));
        }
        Ok(preds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_q1() {
        let p = parse("/descendant::profile/descendant::education").unwrap();
        assert!(p.absolute);
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[0].axis, Axis::Descendant);
        assert_eq!(p.steps[0].test, NodeTest::Name("profile".into()));
        assert_eq!(p.steps[1].test, NodeTest::Name("education".into()));
    }

    #[test]
    fn parses_q2() {
        let p = parse("/descendant::increase/ancestor::bidder").unwrap();
        assert_eq!(p.steps[1].axis, Axis::Ancestor);
    }

    #[test]
    fn parses_q2_rewrite_with_predicate() {
        let p = parse("/descendant::bidder[descendant::increase]").unwrap();
        assert_eq!(p.steps.len(), 1);
        let Predicate::Exists(inner) = &p.steps[0].predicates[0];
        assert_eq!(inner.steps[0].test, NodeTest::Name("increase".into()));
        assert!(!inner.absolute);
    }

    #[test]
    fn default_axis_is_child() {
        let p = parse("site/people/person").unwrap();
        assert!(!p.absolute);
        assert!(p.steps.iter().all(|s| s.axis == Axis::Child));
    }

    #[test]
    fn double_slash_abbreviation() {
        let p = parse("//bidder//increase").unwrap();
        assert_eq!(p.steps.len(), 4);
        assert_eq!(p.steps[0].axis, Axis::DescendantOrSelf);
        assert_eq!(p.steps[0].test, NodeTest::AnyNode);
        assert_eq!(p.steps[1].axis, Axis::Child);
        assert_eq!(p.steps[2].axis, Axis::DescendantOrSelf);
    }

    #[test]
    fn dot_and_dotdot() {
        let p = parse("./..").unwrap();
        assert_eq!(p.steps[0].axis, Axis::SelfAxis);
        assert_eq!(p.steps[1].axis, Axis::Parent);
    }

    #[test]
    fn attribute_abbreviation() {
        let p = parse("person/@id").unwrap();
        assert_eq!(p.steps[1].axis, Axis::Attribute);
        assert_eq!(p.steps[1].test, NodeTest::Name("id".into()));
        let p = parse("person/@*").unwrap();
        assert_eq!(p.steps[1].test, NodeTest::AnyPrincipal);
    }

    #[test]
    fn node_test_functions() {
        let p = parse("descendant::node()").unwrap();
        assert_eq!(p.steps[0].test, NodeTest::AnyNode);
        let p = parse("child::text()").unwrap();
        assert_eq!(p.steps[0].test, NodeTest::Text);
        let p = parse("descendant::comment()").unwrap();
        assert_eq!(p.steps[0].test, NodeTest::Comment);
        let p = parse("descendant::processing-instruction(php)").unwrap();
        assert_eq!(p.steps[0].test, NodeTest::Pi(Some("php".into())));
    }

    #[test]
    fn all_axes_parse() {
        for axis in Axis::ALL {
            let expr = format!("{}::node()", axis.name());
            let p = parse(&expr).unwrap_or_else(|e| panic!("{expr}: {e}"));
            assert_eq!(p.steps[0].axis, axis, "{expr}");
        }
    }

    #[test]
    fn nested_predicates() {
        let p = parse("//open_auction[bidder[descendant::increase]]").unwrap();
        let Predicate::Exists(outer) = &p.steps[1].predicates[0];
        let Predicate::Exists(inner) = &outer.steps[0].predicates[0];
        assert_eq!(inner.steps[0].test, NodeTest::Name("increase".into()));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("").is_err());
        assert!(parse("/").is_err());
        assert!(parse("foo/").is_err());
        assert!(parse("foo[1]").is_err(), "positional predicates rejected");
        assert!(parse("bogus::node()").is_err());
        assert!(parse("foo[bar").is_err());
        assert!(parse("foo()").is_err());
        assert!(parse("foo bar").is_err());
        assert!(parse("descendant::node(").is_err());
    }

    #[test]
    fn predicate_nesting_is_bounded() {
        let nested = |depth: usize| format!("{}a{}", "a[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_PREDICATE_DEPTH)).is_ok());
        let err = parse(&nested(MAX_PREDICATE_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
        // The ROADMAP reproduction: 20 000 levels used to overflow the
        // recursive-descent stack and abort the process.
        assert!(parse_union(&nested(20_000)).is_err());
        // Depth counts open brackets, not predicates: siblings are free.
        assert!(parse(&format!("a{}", "[b]".repeat(1000))).is_ok());
    }

    #[test]
    fn whitespace_tolerated() {
        let p = parse("  /descendant::profile / descendant::education ").unwrap();
        assert_eq!(p.steps.len(), 2);
    }
}
