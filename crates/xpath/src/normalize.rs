//! Logical normalisation: the pass between parse and plan.
//!
//! The parser emits the literal W3C expansion of the abbreviated syntax
//! (`//x` is `/descendant-or-self::node()/child::x`); planned literally,
//! that is a scan of the whole plane followed by a structural child loop
//! over every node. [`normalize`] rewrites the parsed expression — every
//! path, predicate paths included — with two step rules, so that the
//! planner sees the partitioning step the abbreviation stands for:
//!
//! 1. a predicate-free `descendant-or-self::node()` followed by
//!    `child::T[p…]` or `descendant::T[p…]` fuses into `descendant::T[p…]`,
//!    and followed by `descendant-or-self::T[p…]` into
//!    `descendant-or-self::T[p…]`;
//! 2. a predicate-free `self::node()` is dropped when another step
//!    remains.
//!
//! Both are sound for the whole supported grammar **because predicates
//! are existential only**: the parser rejects positional predicates, so a
//! predicate's outcome for a node never depends on which context node
//! reached it or on its rank among siblings, and `T[p…]` selects the same
//! nodes whether the children of all descendants or the descendants
//! themselves are tested. Nothing else is rewritten: a
//! `descendant-or-self` step with predicates or a test other than
//! `node()`, and any following axis other than the three above
//! (`//@id`), stay as written.
//!
//! A rewritten step remembers what the user wrote in [`Step::origin`].

use staircase_accel::Axis;

use crate::ast::{NodeTest, Path, Predicate, Step, UnionExpr};

/// Applies the step rules to every path of `expr`.
pub(crate) fn normalize(expr: &UnionExpr) -> UnionExpr {
    UnionExpr {
        branches: expr.branches.iter().map(normalize_path).collect(),
    }
}

fn is_bare(step: &Step, axis: Axis) -> bool {
    step.axis == axis && step.test == NodeTest::AnyNode && step.predicates.is_empty()
}

fn normalize_path(path: &Path) -> Path {
    let bare = |axis| Step::new(axis, NodeTest::AnyNode);
    // Output steps, each with the index of the first source step folded
    // into it (a rewritten step covers the source run `first..=i`).
    let mut out: Vec<(usize, Step)> = Vec::with_capacity(path.steps.len());
    // Source steps absorbed and waiting for the step that hosts them:
    // (first absorbed index, is a `descendant-or-self::node()` among them).
    let mut pending: Option<(usize, bool)> = None;
    for (i, step) in path.steps.iter().enumerate() {
        let first = pending.map_or(i, |(first, _)| first);
        let dos_pending = pending.is_some_and(|(_, dos)| dos);
        if is_bare(step, Axis::SelfAxis) {
            pending = Some((first, dos_pending));
            continue;
        }
        if is_bare(step, Axis::DescendantOrSelf) {
            // Two in a row select what one does.
            pending = Some((first, true));
            continue;
        }
        let mut host = Step {
            axis: step.axis,
            test: step.test.clone(),
            predicates: step
                .predicates
                .iter()
                .map(|Predicate::Exists(inner)| Predicate::Exists(normalize_path(inner)))
                .collect(),
            origin: None,
        };
        pending = None;
        if dos_pending {
            match step.axis {
                Axis::Child | Axis::Descendant => host.axis = Axis::Descendant,
                Axis::DescendantOrSelf => {}
                _ => {
                    // Not fusable (`//@id`, `//..`): the scan stays.
                    out.push((first, bare(Axis::DescendantOrSelf)));
                    out.push((i, host));
                    continue;
                }
            }
        }
        out.push((first, host));
    }
    // Absorbed steps no later step hosted: a trailing `//`-scan stays a
    // step of its own; trailing `.`s fold into the step before them, and
    // a path of nothing but `.`s keeps one.
    let mut last = path.steps.len();
    match pending {
        Some((first, true)) => out.push((first, bare(Axis::DescendantOrSelf))),
        Some((first, false)) if out.is_empty() => out.push((first, bare(Axis::SelfAxis))),
        Some(_) | None => {}
    }
    let mut steps = Vec::with_capacity(out.len());
    for (first, mut step) in out.into_iter().rev() {
        if last - first > 1 {
            step.origin = Some(as_written(
                &path.steps[first..last],
                first > 0 || path.absolute,
            ));
        }
        last = first;
        steps.push(step);
    }
    steps.reverse();
    Path {
        absolute: path.absolute,
        steps,
    }
}

/// Renders source steps in the abbreviated syntax, `//` included, as
/// close to what the user typed as the AST remembers.
fn as_written(steps: &[Step], leading_slash: bool) -> String {
    let mut text = String::new();
    for (i, step) in steps.iter().enumerate() {
        let slash = i > 0 || leading_slash;
        if slash {
            text.push('/');
        }
        // `a//b`: the scan between two slashes is written as nothing.
        if !(slash && i + 1 < steps.len() && is_bare(step, Axis::DescendantOrSelf)) {
            step_as_written(step, &mut text);
        }
    }
    text
}

fn step_as_written(step: &Step, text: &mut String) {
    if is_bare(step, Axis::SelfAxis) {
        text.push('.');
        return;
    }
    if is_bare(step, Axis::Parent) {
        text.push_str("..");
        return;
    }
    match step.axis {
        Axis::Child => {}
        Axis::Attribute => text.push('@'),
        axis => {
            text.push_str(axis.name());
            text.push_str("::");
        }
    }
    text.push_str(&step.test.to_string());
    for Predicate::Exists(inner) in &step.predicates {
        text.push('[');
        text.push_str(&as_written(&inner.steps, inner.absolute));
        text.push(']');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_union;

    /// The normalised expression, rendered, and each step's origin.
    fn norm(expr: &str) -> (String, Vec<Option<String>>) {
        let normalized = normalize(&parse_union(expr).unwrap());
        let path = &normalized.branches[0];
        (
            path.to_string(),
            path.steps.iter().map(|s| s.origin.clone()).collect(),
        )
    }

    fn rendered(expr: &str) -> String {
        norm(expr).0
    }

    #[test]
    fn double_slash_fuses_into_descendant_steps() {
        let (text, origins) = norm("//item//keyword");
        assert_eq!(text, "/descendant::item/descendant::keyword");
        assert_eq!(
            origins,
            [Some("//item".to_string()), Some("//keyword".to_string())]
        );
        assert_eq!(rendered("a//b"), "child::a/descendant::b");
        assert_eq!(rendered("//text()"), "/descendant::text()");
        assert_eq!(rendered("//*"), "/descendant::*");
        assert_eq!(
            rendered("/descendant-or-self::node()/descendant::b"),
            "/descendant::b"
        );
        assert_eq!(
            rendered("//descendant-or-self::b"),
            "/descendant-or-self::b"
        );
        // Predicates ride along on the fused step.
        assert_eq!(rendered("//a[b]/c"), "/descendant::a[child::b]/child::c");
    }

    #[test]
    fn self_node_steps_are_dropped_when_another_step_remains() {
        let (text, origins) = norm(".//x");
        assert_eq!(text, "descendant::x");
        assert_eq!(origins, [Some(".//x".to_string())]);
        assert_eq!(rendered("./x"), "child::x");
        assert_eq!(rendered("x/."), "child::x");
        assert_eq!(rendered("//./x"), "/descendant::x");
        // …but a path cannot lose its last step.
        assert_eq!(rendered("."), "self::node()");
        assert_eq!(norm("./.").0, "self::node()");
        assert_eq!(rendered("/."), "/self::node()");
        // A self step that tests or filters is a real step.
        assert_eq!(rendered("self::a/b"), "self::a/child::b");
        assert_eq!(
            rendered("self::node()[a]/b"),
            "self::node()[child::a]/child::b"
        );
    }

    #[test]
    fn rules_apply_inside_predicates() {
        let (text, origins) = norm("//a[.//b/c[d]]");
        assert_eq!(text, "/descendant::a[descendant::b/child::c[child::d]]");
        assert_eq!(origins, [Some("//a[.//b/c[d]]".to_string())]);
        assert_eq!(
            rendered("x[//y]"),
            "child::x[/descendant::y]",
            "an absolute predicate path stays absolute"
        );
    }

    #[test]
    fn unfusable_shapes_stay_as_written() {
        for (expr, kept) in [
            ("//@id", "/descendant-or-self::node()/attribute::id"),
            ("//..", "/descendant-or-self::node()/parent::node()"),
            (
                "descendant-or-self::node()[x]/child::y",
                "descendant-or-self::node()[child::x]/child::y",
            ),
            (
                "descendant-or-self::*/child::y",
                "descendant-or-self::*/child::y",
            ),
            (
                "a/descendant-or-self::node()",
                "child::a/descendant-or-self::node()",
            ),
            ("//following::x", "/descendant-or-self::node()/following::x"),
        ] {
            let (text, origins) = norm(expr);
            assert_eq!(text, kept, "{expr}");
            assert!(origins.iter().all(Option::is_none), "{expr}: {origins:?}");
        }
    }

    #[test]
    fn untouched_expressions_come_back_equal() {
        for expr in [
            "/descendant::profile/descendant::education",
            "/descendant::a[child::b]/descendant::c[child::d] | child::x/..",
        ] {
            let parsed = parse_union(expr).unwrap();
            assert_eq!(normalize(&parsed), parsed, "{expr}");
        }
    }

    #[test]
    fn origins_render_what_was_typed() {
        let (_, origins) = norm("a/./b");
        assert_eq!(origins, [None, Some("/./b".to_string())]);
        let (_, origins) = norm("descendant-or-self::node()/x");
        assert_eq!(origins, [Some("descendant-or-self::node()/x".to_string())]);
        let (_, origins) = norm("//a[ancestor::b/@c]/..//d");
        assert_eq!(
            origins,
            [
                Some("//a[ancestor::b/@c]".to_string()),
                None,
                Some("//d".to_string())
            ]
        );
    }
}
