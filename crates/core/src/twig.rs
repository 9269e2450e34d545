//! Worst-case-optimal twig matching: a multiway leapfrog intersection
//! over pre/post tag fragments.
//!
//! Step-at-a-time evaluation of a branching path (`//a[b]//c[d]`)
//! materializes every intermediate context, so on skewed documents a
//! single step's result can dwarf the final twig match set — the blowup
//! Leapfrog Triejoin (Veldhuizen) and "Skew Strikes Back" (Ngo, Ré,
//! Rudra) prove a multiway intersection avoids. The pre-sorted per-tag
//! fragments of [`crate::TagIndex`] are leapfrog-ready ordered
//! relations, and pre/post containment is a pure range predicate, so
//! the whole pattern can be answered with sorted cursors instead of
//! materialized contexts.
//!
//! A twig pattern here is a *spine* — the chain of steps whose last leg
//! is the query's output — plus, per spine leg, any number of
//! existential *chains* (the `[b]`-style predicates, themselves
//! downward paths). [`twig_match`] evaluates the pattern in three
//! phases, every cursor movement one [`seek_from`] gallop counted in
//! [`StepStats::seeks`]. Each probed list keeps a *hint* — where its last
//! probe landed — and wherever the probed nodes arrive in ascending pre
//! order (pivot candidates, descent frontiers) the next gallop resumes
//! there, so a pass over `m` candidates against an `N`-entry list costs
//! `O(m · (1 + log(N/m)))`, not `O(m · log N)`; a probe that moved
//! backwards (the upward sweep) restarts at the list's head:
//!
//! 1. **Chain reduction** — a chain of more than one step is reduced
//!    right to left to its first step's list, keeping the entries that
//!    root a complete chain match: one semijoin per edge, the probes
//!    ([`crate::has_descendant_in`], [`crate::has_child_in`]) every
//!    predicate of a step-at-a-time plan runs, their counters folded
//!    into the match's. Every chain is then one step, and "does `v`
//!    satisfy `[b/c]`?" is a single probe into a sorted list. (The query
//!    layer hands in chains it already reduced once per evaluation,
//!    shared with the step predicates over the same path, so there this
//!    phase has nothing to do.)
//! 2. **Pivot anchoring** — the spine leg with the *smallest* fragment
//!    becomes the pivot. Its candidates are filtered by the pivot's own
//!    chains and verified *upward*: the candidate's ancestor path (at
//!    most `height` nodes) is matched against the spine legs above the
//!    pivot with a small feasible-position sweep that handles mixed
//!    descendant/child edges, each position checked by fragment
//!    membership, chain probes, and finally containment in the pruned
//!    context. No fragment larger than the pivot's is ever walked.
//! 3. **Descent** — from the anchored pivot bindings, the legs below
//!    the pivot are joined one by one with the range joins
//!    ([`crate::descendant_on_list`]'s and [`crate::child_on_list`]'s
//!    loops, which take the frontier as it is — no pruning pass),
//!    chain-filtering as it goes. Output is the binding of
//!    the last spine leg only, duplicate-free and in document order.

use std::borrow::Cow;
use std::cell::Cell;

use staircase_accel::{Context, Doc, Post, Pre, NO_PARENT};

use crate::cursor::seek_from;
use crate::exists::{has_child_in, has_descendant_in};
use crate::list::{child_range_join, descendant_range_join};
use crate::prune::prune_descendant;
use crate::stats::StepStats;

/// The structural relation between a twig leg and its parent leg (or
/// the context, for the first spine leg).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TwigEdge {
    /// `descendant::` — strict pre/post containment.
    Descendant,
    /// `child::` — the parent pointer relation.
    Child,
}

/// One downward step of an existential predicate chain: `edge` relates
/// this step's candidates to the previous chain step (or to the spine
/// leg the chain hangs off, for the first step).
#[derive(Debug, Clone, Copy)]
pub struct ChainStep<'a> {
    /// Relation to the previous chain step / owning spine leg.
    pub edge: TwigEdge,
    /// Sorted pre ranks of this step's candidates (a tag fragment, or
    /// the full element column for a wildcard).
    pub list: &'a [Pre],
}

/// One spine leg of a twig pattern, with the existential chains that
/// must hold at every binding of this leg.
#[derive(Debug, Clone)]
pub struct SpineLeg<'a> {
    /// Relation to the previous spine leg (or the context, for the
    /// first leg).
    pub edge: TwigEdge,
    /// Sorted pre ranks of this leg's candidates.
    pub list: &'a [Pre],
    /// Predicate chains rooted at this leg; each must be non-empty.
    pub chains: Vec<Vec<ChainStep<'a>>>,
}

/// How the first spine leg relates to the query context.
enum Top<'a> {
    /// Descendant edge: containment in the pruned context staircase
    /// (disjoint subtree windows → one gallop decides membership).
    Desc { steps: &'a [Pre] },
    /// Child edge: the node's parent must be a raw context node.
    Child { raw: &'a [Pre] },
}

/// A spine leg after chain reduction: each chain reduced to its first
/// edge plus the list a single probe decides against, and that list's
/// probe hint.
struct PreparedLeg<'a> {
    edge: TwigEdge,
    list: &'a [Pre],
    chains: Vec<(TwigEdge, Cow<'a, [Pre]>, Cell<usize>)>,
}

/// Gallops `list`'s cursor to the first entry after `p` and leaves it in
/// `hint`. The hint is where the previous probe of this list landed: it
/// is resumed when `p` has not moved back behind it, else the search
/// restarts at the head.
fn seek_after(list: &[Pre], p: Pre, hint: &Cell<usize>) -> usize {
    let h = hint.get();
    let from = if h > 0 && list[h - 1] > p { 0 } else { h };
    let idx = seek_from(list, from, |&q| q <= p);
    hint.set(idx);
    idx
}

struct Matcher<'d> {
    doc: &'d Doc,
    post: &'d [Post],
    stats: StepStats,
    /// Cooperative stop at seek granularity: on a trip probes answer
    /// `false` and scans bail, so the (garbage) partial result is
    /// produced quickly and discarded by the governed caller.
    gov: crate::governor::Ticker,
}

impl<'d> Matcher<'d> {
    /// Strict pre/post containment: `v` is a descendant of `anc`.
    #[inline]
    fn is_desc(&self, anc: Pre, v: Pre) -> bool {
        v > anc && self.post[v as usize] < self.post[anc as usize]
    }

    /// Does `p` have a descendant in the sorted `list`? Descendants of
    /// `p` occupy a contiguous pre range starting right after `p`, so
    /// one gallop plus one containment compare decides it.
    fn has_desc_in(&mut self, list: &[Pre], p: Pre, hint: &Cell<usize>) -> bool {
        crate::faults::fail_point("core::twig::seek");
        self.stats.seeks += 1;
        if self.gov.tick(1) {
            return false;
        }
        match list.get(seek_after(list, p, hint)) {
            Some(&q) => {
                self.stats.nodes_scanned += 1;
                self.is_desc(p, q)
            }
            None => false,
        }
    }

    /// Does `p` have a *child* in the sorted `list`? Walks the list
    /// entries inside `p`'s subtree, jumping past the subtree of every
    /// deeper entry (the ancestor-join skip idiom), so each touched
    /// entry sits in a distinct child subtree of `p`.
    fn has_child_in(&mut self, list: &[Pre], p: Pre, hint: &Cell<usize>) -> bool {
        crate::faults::fail_point("core::twig::seek");
        self.stats.seeks += 1;
        if self.gov.tick(1) {
            return false;
        }
        let mut j = seek_after(list, p, hint);
        while let Some(&q) = list.get(j) {
            if !self.is_desc(p, q) {
                return false;
            }
            self.stats.nodes_scanned += 1;
            if self.gov.tick(1) {
                return false;
            }
            if self.doc.parent(q) == p {
                return true;
            }
            // q is deeper than a child: no entry inside q's subtree can
            // be a child of p either — jump its subtree.
            let sub_end = q + 1 + self.doc.subtree_size(q);
            self.stats.seeks += 1;
            let next = seek_from(list, j + 1, |&r| r < sub_end);
            self.stats.nodes_skipped += (next - j - 1) as u64;
            j = next;
        }
        false
    }

    fn edge_probe(&mut self, edge: TwigEdge, list: &[Pre], p: Pre, hint: &Cell<usize>) -> bool {
        match edge {
            TwigEdge::Descendant => self.has_desc_in(list, p, hint),
            TwigEdge::Child => self.has_child_in(list, p, hint),
        }
    }

    /// All chains of `leg` hold at `v`.
    fn chains_ok(&mut self, leg: &PreparedLeg<'_>, v: Pre) -> bool {
        leg.chains
            .iter()
            .all(|(edge, useful, hint)| self.edge_probe(*edge, useful, v, hint))
    }

    /// The first spine leg's relation to the context holds at `pos`.
    fn top_ok(&mut self, top: &Top<'_>, pos: Pre) -> bool {
        self.stats.seeks += 1;
        match *top {
            Top::Desc { steps } => {
                // Pruned steps have pairwise disjoint subtree windows,
                // so only the last step before `pos` can contain it. A
                // one-off search: `pos` climbs an ancestor path, there
                // is no forward cursor to resume.
                let idx = steps.partition_point(|&c| c < pos);
                idx > 0 && self.is_desc(steps[idx - 1], pos)
            }
            Top::Child { raw } => {
                let p = self.doc.parent(pos);
                p != NO_PARENT && raw.binary_search(&p).is_ok()
            }
        }
    }

    /// `pos` can host `leg`: fragment membership plus the leg's chains.
    fn position_matches(&mut self, leg: &PreparedLeg<'_>, pos: Pre) -> bool {
        self.stats.seeks += 1;
        if leg.list.binary_search(&pos).is_err() {
            return false;
        }
        self.chains_ok(leg, pos)
    }

    /// Upward verification of one pivot candidate: can the spine legs
    /// above the pivot (`legs`) be assigned to positions on the
    /// candidate's ancestor path `anc` (index 0 = parent) so that every
    /// edge, fragment membership, chain, and the top constraint hold?
    ///
    /// A greedy sweep is not enough — a child edge couples *adjacent*
    /// positions — so the feasible position set is propagated leg by
    /// leg: a child edge shifts every feasible position up by one, a
    /// descendant edge opens everything strictly above the lowest
    /// feasible position.
    fn verify_upward(
        &mut self,
        legs: &[PreparedLeg<'_>],
        pivot_edge: TwigEdge,
        anc: &[Pre],
        top: &Top<'_>,
    ) -> bool {
        if legs.is_empty() {
            // Pivot is the first leg: the top constraint was applied
            // during candidate generation.
            return true;
        }
        let d = anc.len();
        let mut feas: Vec<usize> = match pivot_edge {
            TwigEdge::Child => {
                if d > 0 {
                    vec![0]
                } else {
                    Vec::new()
                }
            }
            TwigEdge::Descendant => (0..d).collect(),
        };
        for j in (0..legs.len()).rev() {
            feas.retain(|&t| self.position_matches(&legs[j], anc[t]));
            if feas.is_empty() {
                return false;
            }
            if j == 0 {
                return feas.iter().any(|&t| {
                    let pos = anc[t];
                    self.top_ok(top, pos)
                });
            }
            feas = match legs[j].edge {
                TwigEdge::Child => feas.iter().map(|&t| t + 1).filter(|&t| t < d).collect(),
                TwigEdge::Descendant => (feas[0] + 1..d).collect(),
            };
            if feas.is_empty() {
                return false;
            }
        }
        unreachable!("loop returns at j == 0")
    }
}

/// The ancestor path of `v`, nearest first (`buf[0]` = parent).
fn ancestor_path(doc: &Doc, v: Pre, buf: &mut Vec<Pre>) {
    buf.clear();
    let mut p = doc.parent(v);
    while p != NO_PARENT {
        buf.push(p);
        p = doc.parent(p);
    }
}

/// Reduces a predicate chain right to left to its first step's list:
/// the entries with a complete chain match below them, one semijoin
/// probe per edge. A one-step chain is its list. Empty result ⇒ no node
/// anywhere satisfies the chain. The query layer hands in one-step
/// chains only (it reduces longer ones once per evaluation, shared with
/// the step predicates); this keeps [`twig_match`]'s chain form whole
/// for any other caller.
fn reduce_chain<'a>(doc: &Doc, chain: &[ChainStep<'a>], stats: &mut StepStats) -> Cow<'a, [Pre]> {
    let (last, rest) = chain
        .split_last()
        .expect("predicate chain needs at least one step");
    let mut witnesses = Cow::Borrowed(last.list);
    let mut edge = last.edge;
    for step in rest.iter().rev() {
        if witnesses.is_empty() {
            break;
        }
        let candidates = Context::from_sorted(step.list.to_vec());
        let (kept, probed) = match edge {
            TwigEdge::Descendant => has_descendant_in(doc, &candidates, &witnesses),
            TwigEdge::Child => has_child_in(doc, &candidates, &witnesses),
        };
        // The probes' work is the match's; their results are not.
        stats.merge(&StepStats {
            result_size: 0,
            ..probed
        });
        witnesses = Cow::Owned(kept.into_vec());
        edge = step.edge;
    }
    witnesses
}

/// Evaluates a twig pattern against `context`, returning the bindings
/// of the **last** spine leg only, duplicate-free and in document
/// order — node- and order-identical to evaluating the same pattern
/// step-at-a-time with semijoin predicates.
///
/// Every leg and chain-step list must be sorted ascending (tag
/// fragments and the element column already are). [`StepStats::seeks`]
/// counts actual cursor repositionings ([`seek_from`] gallops, plus the
/// one-off membership searches of the upward sweep);
/// `nodes_scanned`/`nodes_skipped` count list entries compared/jumped.
///
/// # Panics
///
/// If `spine` is empty or any leg carries an empty chain.
pub fn twig_match(doc: &Doc, spine: &[SpineLeg<'_>], context: &Context) -> (Context, StepStats) {
    assert!(!spine.is_empty(), "twig pattern needs at least one leg");
    let mut m = Matcher {
        doc,
        post: doc.post_column(),
        stats: StepStats {
            context_in: context.len(),
            context_out: context.len(),
            ..Default::default()
        },
        gov: crate::governor::Ticker::ambient(),
    };

    // The pruned staircase is shared by pivot anchoring and the
    // per-candidate top-constraint probes.
    let pruned;
    let top = match spine[0].edge {
        TwigEdge::Descendant => {
            pruned = prune_descendant(doc, context);
            m.stats.context_out = pruned.len();
            Top::Desc {
                steps: pruned.as_slice(),
            }
        }
        TwigEdge::Child => Top::Child {
            raw: context.as_slice(),
        },
    };

    if context.is_empty() || spine.iter().any(|l| l.list.is_empty()) {
        return (Context::empty(), m.stats);
    }

    // Phase 1: chain reduction. An empty list proves the chain
    // unsatisfiable document-wide, hence the twig result empty.
    let mut legs: Vec<PreparedLeg<'_>> = Vec::with_capacity(spine.len());
    for leg in spine {
        let mut chains = Vec::with_capacity(leg.chains.len());
        for chain in &leg.chains {
            let reduced = reduce_chain(doc, chain, &mut m.stats);
            if reduced.is_empty() {
                return (Context::empty(), m.stats);
            }
            chains.push((chain[0].edge, reduced, Cell::new(0)));
        }
        legs.push(PreparedLeg {
            edge: leg.edge,
            list: leg.list,
            chains,
        });
    }

    // Phase 2: anchor the pivot — the smallest spine fragment (ties
    // break toward the context-restricted first leg).
    let pivot_idx = (0..legs.len())
        .min_by_key(|&j| legs[j].list.len())
        .expect("non-empty spine");
    let mut anchored: Vec<Pre> = Vec::new();
    if pivot_idx == 0 {
        match top {
            Top::Desc { steps } => {
                descendant_range_join(doc, legs[0].list, steps, &mut anchored, &mut m.stats);
            }
            Top::Child { raw } => {
                child_range_join::<false>(doc, legs[0].list, raw, &mut anchored, &mut m.stats);
            }
        }
        anchored.retain(|&v| m.chains_ok(&legs[0], v));
    } else {
        let mut anc_buf = Vec::new();
        for &v in legs[pivot_idx].list {
            m.stats.nodes_scanned += 1;
            if m.gov.tick(1) {
                break;
            }
            if !m.chains_ok(&legs[pivot_idx], v) {
                continue;
            }
            ancestor_path(doc, v, &mut anc_buf);
            if m.verify_upward(&legs[..pivot_idx], legs[pivot_idx].edge, &anc_buf, &top) {
                anchored.push(v);
            }
        }
    }

    // Phase 3: descend from the anchored pivot bindings to the output
    // leg, chain-filtering every intermediate frontier.
    let mut current = anchored;
    for leg in &legs[pivot_idx + 1..] {
        if current.is_empty() || m.gov.tick(1) {
            break;
        }
        let mut next = Vec::new();
        match leg.edge {
            TwigEdge::Descendant => {
                descendant_range_join(doc, leg.list, &current, &mut next, &mut m.stats);
            }
            TwigEdge::Child => {
                child_range_join::<false>(doc, leg.list, &current, &mut next, &mut m.stats);
            }
        }
        next.retain(|&v| m.chains_ok(leg, v));
        current = next;
    }

    m.stats.result_size = current.len();
    (Context::from_sorted(current), m.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::TagIndex;
    use crate::testutil::{random_context, random_doc};
    use staircase_accel::NodeKind;

    fn edge_holds(doc: &Doc, edge: TwigEdge, parent: Pre, child: Pre) -> bool {
        match edge {
            TwigEdge::Descendant => child > parent && doc.post(child) < doc.post(parent),
            TwigEdge::Child => doc.parent(child) == parent,
        }
    }

    fn chain_holds(doc: &Doc, chain: &[ChainStep<'_>], from: Pre) -> bool {
        match chain.first() {
            None => true,
            Some(step) => step
                .list
                .iter()
                .any(|&q| edge_holds(doc, step.edge, from, q) && chain_holds(doc, &chain[1..], q)),
        }
    }

    /// Reference semantics: chained semijoins, exactly the
    /// step-at-a-time plan with existential predicates.
    fn brute(doc: &Doc, spine: &[SpineLeg<'_>], context: &Context) -> Vec<Pre> {
        let mut frontier: Vec<Pre> = context.iter().collect();
        for leg in spine {
            let mut next = Vec::new();
            for &v in leg.list {
                if frontier.iter().any(|&f| edge_holds(doc, leg.edge, f, v))
                    && leg.chains.iter().all(|c| chain_holds(doc, c, v))
                {
                    next.push(v);
                }
            }
            frontier = next;
        }
        frontier
    }

    fn check(doc: &Doc, spine: &[SpineLeg<'_>], context: &Context, label: &str) {
        let want = brute(doc, spine, context);
        let (got, stats) = twig_match(doc, spine, context);
        assert_eq!(got.as_slice(), &want[..], "{label}");
        assert_eq!(stats.result_size, want.len(), "{label}: result_size");
        assert_eq!(stats.context_in, context.len(), "{label}: context_in");
    }

    fn fixture() -> Doc {
        // Three a-blocks: first has b and c(d); second has b only;
        // third has c without d plus a nested a(b, c(d)).
        Doc::from_xml(
            "<root><a><b/><c><d/></c></a><a><b/><x/></a>\
             <a><c/><a><b/><c><d/><d/></c></a></a><c><d/></c></root>",
        )
        .unwrap()
    }

    #[test]
    fn two_leg_twig_with_chains_matches_brute_force() {
        let doc = fixture();
        let idx = TagIndex::build(&doc);
        let (a, b, c, d) = (
            idx.fragment_by_name(&doc, "a"),
            idx.fragment_by_name(&doc, "b"),
            idx.fragment_by_name(&doc, "c"),
            idx.fragment_by_name(&doc, "d"),
        );
        // //a[b]//c[d]
        let spine = vec![
            SpineLeg {
                edge: TwigEdge::Descendant,
                list: a,
                chains: vec![vec![ChainStep {
                    edge: TwigEdge::Descendant,
                    list: b,
                }]],
            },
            SpineLeg {
                edge: TwigEdge::Descendant,
                list: c,
                chains: vec![vec![ChainStep {
                    edge: TwigEdge::Descendant,
                    list: d,
                }]],
            },
        ];
        let ctx = Context::singleton(doc.root());
        check(&doc, &spine, &ctx, "//a[b]//c[d]");
        let (got, stats) = twig_match(&doc, &spine, &ctx);
        assert!(!got.is_empty(), "fixture has matches");
        assert!(stats.seeks > 0, "leapfrog must report real seeks");
    }

    #[test]
    fn child_edges_and_child_chains_match_brute_force() {
        let doc = fixture();
        let idx = TagIndex::build(&doc);
        let a = idx.fragment_by_name(&doc, "a");
        let c = idx.fragment_by_name(&doc, "c");
        let d = idx.fragment_by_name(&doc, "d");
        // //a/c[./d-as-child]
        let spine = vec![
            SpineLeg {
                edge: TwigEdge::Descendant,
                list: a,
                chains: vec![],
            },
            SpineLeg {
                edge: TwigEdge::Child,
                list: c,
                chains: vec![vec![ChainStep {
                    edge: TwigEdge::Child,
                    list: d,
                }]],
            },
        ];
        let ctx = Context::singleton(doc.root());
        check(&doc, &spine, &ctx, "//a/c[d]");
    }

    #[test]
    fn deep_chain_closure_filters_bottom_up() {
        let doc = fixture();
        let idx = TagIndex::build(&doc);
        let a = idx.fragment_by_name(&doc, "a");
        let c = idx.fragment_by_name(&doc, "c");
        let d = idx.fragment_by_name(&doc, "d");
        // //a[c/d] — two-step chain: only a's with a c-child owning a d.
        let spine = vec![SpineLeg {
            edge: TwigEdge::Descendant,
            list: a,
            chains: vec![vec![
                ChainStep {
                    edge: TwigEdge::Child,
                    list: c,
                },
                ChainStep {
                    edge: TwigEdge::Child,
                    list: d,
                },
            ]],
        }];
        let ctx = Context::singleton(doc.root());
        check(&doc, &spine, &ctx, "//a[c/d]");
    }

    #[test]
    fn empty_fragments_and_empty_context() {
        let doc = fixture();
        let idx = TagIndex::build(&doc);
        let a = idx.fragment_by_name(&doc, "a");
        let spine = vec![
            SpineLeg {
                edge: TwigEdge::Descendant,
                list: a,
                chains: vec![],
            },
            SpineLeg {
                edge: TwigEdge::Descendant,
                list: &[],
                chains: vec![],
            },
        ];
        let (got, _) = twig_match(&doc, &spine, &Context::singleton(doc.root()));
        assert!(got.is_empty());
        let spine_ok = vec![SpineLeg {
            edge: TwigEdge::Descendant,
            list: a,
            chains: vec![],
        }];
        let (got, stats) = twig_match(&doc, &spine_ok, &Context::empty());
        assert!(got.is_empty());
        assert_eq!(stats.context_in, 0);
    }

    #[test]
    fn unsatisfiable_chain_short_circuits_to_empty() {
        let doc = fixture();
        let idx = TagIndex::build(&doc);
        let a = idx.fragment_by_name(&doc, "a");
        let b = idx.fragment_by_name(&doc, "b");
        // //a[x-under-b] where no b has an x: the reduced chain is empty.
        let spine = vec![SpineLeg {
            edge: TwigEdge::Descendant,
            list: a,
            chains: vec![vec![
                ChainStep {
                    edge: TwigEdge::Child,
                    list: b,
                },
                ChainStep {
                    edge: TwigEdge::Descendant,
                    list: idx.fragment_by_name(&doc, "nonexistent"),
                },
            ]],
        }];
        let (got, _) = twig_match(&doc, &spine, &Context::singleton(doc.root()));
        assert!(got.is_empty());
    }

    #[test]
    fn cursor_probes_at_fragment_boundaries() {
        let doc = fixture();
        let mut m = Matcher {
            doc: &doc,
            post: doc.post_column(),
            stats: StepStats::default(),
            gov: crate::governor::Ticker::ambient(),
        };
        let root = doc.root();
        // Empty list: no descendant, no child, regardless of the probe.
        assert!(!m.has_desc_in(&[], root, &Cell::new(0)));
        assert!(!m.has_child_in(&[], root, &Cell::new(0)));
        // Single-entry list: hit and miss at both ends.
        let first_a = doc.pres().find(|&v| doc.tag_name(v) == Some("a")).unwrap();
        assert!(m.has_desc_in(&[first_a], root, &Cell::new(0)));
        assert!(
            !m.has_desc_in(&[root], first_a, &Cell::new(0)),
            "seek past list end"
        );
        assert!(m.has_child_in(&[first_a], root, &Cell::new(0)));
        assert!(!m.has_child_in(&[root], first_a, &Cell::new(0)));
        // Entry equal to the probe node is never its own descendant.
        assert!(!m.has_desc_in(&[root], root, &Cell::new(0)));
        // Last node of the document: every probe lands at the list end.
        let last = (doc.len() - 1) as Pre;
        assert!(!m.has_desc_in(&[last], last, &Cell::new(0)));
        let seeks_before = m.stats.seeks;
        assert!(m.has_desc_in(&[last], root, &Cell::new(0)));
        assert!(m.stats.seeks > seeks_before, "probes count as seeks");
    }

    #[test]
    fn child_edge_from_context_matches_brute_force() {
        let doc = fixture();
        let idx = TagIndex::build(&doc);
        let a = idx.fragment_by_name(&doc, "a");
        let c = idx.fragment_by_name(&doc, "c");
        // ctx/a/c with the context = all a elements (nested a's included).
        let ctx: Context = a.iter().copied().collect();
        let spine = vec![
            SpineLeg {
                edge: TwigEdge::Child,
                list: a,
                chains: vec![],
            },
            SpineLeg {
                edge: TwigEdge::Child,
                list: c,
                chains: vec![],
            },
        ];
        check(&doc, &spine, &ctx, "ctx/a/c");
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn random_docs_and_patterns_match_brute_force() {
        for seed in 0..25u64 {
            let doc = random_doc(seed, 400);
            let idx = TagIndex::build(&doc);
            let tags = ["p", "q", "r", "s"];
            let mut st = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let edge = |r: u64| {
                if r.is_multiple_of(2) {
                    TwigEdge::Descendant
                } else {
                    TwigEdge::Child
                }
            };
            let spine_len = 1 + (xorshift(&mut st) % 3) as usize;
            let mut spine: Vec<SpineLeg<'_>> = Vec::new();
            for _ in 0..spine_len {
                let mut chains = Vec::new();
                for _ in 0..xorshift(&mut st) % 2 {
                    let mut chain = Vec::new();
                    for _ in 0..1 + xorshift(&mut st) % 2 {
                        chain.push(ChainStep {
                            edge: edge(xorshift(&mut st)),
                            list: idx
                                .fragment_by_name(&doc, tags[(xorshift(&mut st) % 4) as usize]),
                        });
                    }
                    chains.push(chain);
                }
                spine.push(SpineLeg {
                    edge: edge(xorshift(&mut st)),
                    list: idx.fragment_by_name(&doc, tags[(xorshift(&mut st) % 4) as usize]),
                    chains,
                });
            }
            // Element-only random context (child edges from non-element
            // context nodes are vacuous either way, but keep it clean).
            let ctx: Context = random_context(&doc, seed ^ 0xBEEF, 12)
                .iter()
                .filter(|&v| doc.kind(v) == NodeKind::Element)
                .collect();
            if ctx.is_empty() {
                continue;
            }
            check(&doc, &spine, &ctx, &format!("seed {seed}"));
        }
    }
}
