//! Staircase join over *filtered node lists*: name-test pushdown and
//! tag-name fragmentation.
//!
//! §4.4 Experiment 3 pushes the name test through the staircase join: the
//! tree properties used by the join "are entirely based on preorder and
//! postorder ranks. Those properties remain valid for a subset of nodes."
//! §6 takes this further and proposes *fragmenting* the document by tag
//! name (Q1 dropped from 345 ms to 39 ms in the paper's first experiments).
//!
//! Both ideas need the same machinery: a pre-sorted list of the pre ranks
//! of all elements with a given tag ([`TagIndex`]), and join algorithms
//! that walk such a list instead of the contiguous plane.
//!
//! # Range joins: two loops, four names (and a third for `child`)
//!
//! The paper's Equation 1 is an *estimate* only while `level` is unknown;
//! with it, `|v/descendant| = post(v) − pre(v) + level(v)` is exact, so
//! the subtree of `v` is exactly the pre ranks `(v, end(v)]` with `end(v)
//! = v + size(v)`. On a pre-sorted list that makes "the entries below
//! `c`" a contiguous **slice**, found by two gallops
//! ([`crate::cursor::advance`]) and needing no `post` comparison per
//! entry. (Exactness is a property of a *valid* document: every loaded
//! [`Doc`] has passed `Doc::validate`, which checks precisely this
//! relation between `post`, `level` and subtree sizes; the builder
//! establishes it by construction.) The plane kernels read the same
//! `end(v)`: over the plane — the list `0..n` — the descendant step's
//! copy of `(c, end(c)]` is this slice copy with arithmetic gallops.
//! Every on-list join is one of two loops over a cursor pair — one
//! cursor on the list, one on the context:
//!
//! * **slices under context nodes** — [`descendant_on_list`]: per context
//!   node, bracket `list ∩ (c, end(c)]` and copy it; context nodes nested
//!   in `c` are passed by a gallop on the context, which is all the
//!   pruning there is. With the roles swapped it is
//!   [`crate::has_ancestor_in`]: the candidates below a `list` node.
//! * **entries with a context node below them** — [`ancestor_on_list`]:
//!   per list entry, gallop the context to the first node after it; the
//!   entry is kept iff that node lies inside its subtree, and a barren
//!   entry takes its whole subtree block along. With the roles swapped it
//!   is [`crate::has_descendant_in`].
//!
//! [`child_on_list`] walks the same slices with `parent(p) == c` as its
//! keep test, and [`crate::has_child_in`] shares that walk. None of the
//! loops needs a pruned context: they are correct on any sorted one, and
//! their bounds ([`StepStats`]) are stated against the nodes they stop at.

use staircase_accel::{Context, Doc, NodeKind, Pre, TagId};

use crate::batch::Scratch;
use crate::cursor::advance;
use crate::governor::Ticker;
use crate::stats::StepStats;
use crate::subtree_ends;

/// Per-tag fragments of the document: for every tag id, the pre ranks of
/// all elements carrying it, in document order.
///
/// [`TagIndex::build`] materializes every fragment with one pass over
/// the kind/tag columns ("fragmentation by tag name", §6). The same
/// structure serves name-test pushdown, where the fragment *is*
/// `nametest(doc, tag)`. A session builds it the first time a plan
/// needs it, whole: one sweep at a few nanoseconds per node costs about
/// what scanning one tag's window out of the columns would.
#[derive(Debug, Clone)]
pub struct TagIndex {
    fragments: Vec<Vec<Pre>>,
    /// Column positions the build swept: the document's length.
    swept: u64,
}

impl TagIndex {
    /// Builds every fragment with one pass over the document.
    pub fn build(doc: &Doc) -> TagIndex {
        TagIndex {
            fragments: sweep_fragments(doc),
            swept: doc.len() as u64,
        }
    }

    /// The same as [`TagIndex::build`]; kept for the benchmark's
    /// `core.tagindex_lazy_first_us` probe.
    pub fn lazy(doc: &Doc) -> TagIndex {
        TagIndex::build(doc)
    }

    /// The fragment for `tag`; empty for unknown tags.
    pub fn fragment(&self, tag: TagId) -> &[Pre] {
        self.fragments.get(tag as usize).map_or(&[], Vec::as_slice)
    }

    /// The fragment for a tag *name*; empty for names absent from the
    /// document.
    pub fn fragment_by_name<'s>(&'s self, doc: &Doc, name: &str) -> &'s [Pre] {
        doc.tag_id(name).map_or(&[], |t| self.fragment(t))
    }

    /// The tag's elements with pre ranks in `[lo, hi)`: a subslice of its
    /// fragment, bracketed by two binary searches.
    pub fn fragment_window(&self, tag: TagId, lo: Pre, hi: Pre) -> &[Pre] {
        let fragment = self.fragment(tag);
        let b = fragment.partition_point(|&p| p < hi);
        let a = fragment[..b].partition_point(|&p| p < lo);
        &fragment[a..b]
    }

    /// [`TagIndex::fragment_window`] addressed by tag name; kept for the
    /// benchmark's `core.tagindex_lazy_first_us` probe.
    pub fn fragment_window_by_name<'s>(
        &'s self,
        doc: &Doc,
        name: &str,
        lo: Pre,
        hi: Pre,
    ) -> &'s [Pre] {
        doc.tag_id(name)
            .map_or(&[], |t| self.fragment_window(t, lo, hi))
    }

    /// How many fragments are materialized: every tag's. Kept for the
    /// benchmark's `core.fragments_built` probe.
    pub fn fragments_built(&self) -> usize {
        self.fragments.len()
    }

    /// Column positions the build swept: the document's length. Kept for
    /// the benchmark's `core.crack_scan_work` probe.
    pub fn crack_scan_work(&self) -> u64 {
        self.swept
    }

    /// Always `0`: the index holds no per-tag bitmaps. Kept for the
    /// benchmark's `core.bitmaps_built` probe.
    pub fn bitmaps_built(&self) -> usize {
        0
    }

    /// Number of distinct tags indexed.
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// `true` if the index covers no tags at all.
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }

    /// Total pre ranks stored across the fragments.
    pub fn total_nodes(&self) -> usize {
        self.fragments.iter().map(Vec::len).sum()
    }
}

/// One sweep of the kind/tag columns: the complete fragment of every tag.
///
/// The vectors grow as they fill rather than being pre-sized from the
/// interner's element counts: exactly sized fragments land page-aligned
/// next to each other, where the joins that walk them in step with
/// their result buffers ran 9 % slower (`batch_pool`), and peak RSS is
/// the same either way.
fn sweep_fragments(doc: &Doc) -> Vec<Vec<Pre>> {
    let mut fragments: Vec<Vec<Pre>> = vec![Vec::new(); doc.tags().len()];
    let kinds = doc.kind_column();
    let tags = doc.tag_column();
    let element = NodeKind::Element as u8;
    for v in doc.pres() {
        if kinds[v as usize] == element {
            fragments[tags[v as usize] as usize].push(v);
        }
    }
    fragments
}

/// `context/descendant::tag` evaluated directly on a tag fragment:
/// equivalent to `nametest(staircase_join_desc(doc, context), tag)` but
/// touches only `tag`-elements — and compares none of them: per context
/// node two gallops bracket `list ∩ (c, end(c)]` and the slice is copied
/// ([`StepStats::nodes_copied`]), so a root context copies the fragment
/// with one `memcpy`.
///
/// `context` needs no pruning: nodes nested in an opened one are passed
/// by a gallop on the context itself (see the module docs).
pub fn descendant_on_list(doc: &Doc, list: &[Pre], context: &Context) -> (Context, StepStats) {
    descendant_on_list_pooled(doc, list, context, &mut Scratch::new())
}

/// [`descendant_on_list`] into a result buffer from `scratch`.
pub fn descendant_on_list_pooled(
    doc: &Doc,
    list: &[Pre],
    context: &Context,
    scratch: &mut Scratch,
) -> (Context, StepStats) {
    on_list(context, scratch.take(), |ctx, result, stats| {
        descendant_range_join(doc, list, ctx, result, stats)
    })
}

/// `context/ancestor::tag` evaluated directly on a tag fragment, driven
/// from the **list**: an entry `p` is kept iff the first context node
/// after it lies inside its subtree, and a barren entry's whole subtree
/// block is jumped on the list (the §3.3 ancestor skip). The work is
/// bounded by the list, `nodes_touched() + seeks ≤ 3 · |list|`, however
/// long — and however nested — `context` is.
pub fn ancestor_on_list(doc: &Doc, list: &[Pre], context: &Context) -> (Context, StepStats) {
    ancestor_on_list_pooled(doc, list, context, &mut Scratch::new())
}

/// [`ancestor_on_list`] into a result buffer from `scratch`.
pub fn ancestor_on_list_pooled(
    doc: &Doc,
    list: &[Pre],
    context: &Context,
    scratch: &mut Scratch,
) -> (Context, StepStats) {
    on_list(context, scratch.take(), |ctx, result, stats| {
        ancestor_range_join(doc, list, ctx, result, stats)
    })
}

/// `context/child::tag` evaluated directly on a tag fragment: the
/// entries of `list ∩ (c, end(c)]` whose parent is a context node, in
/// document order even where context nodes nest. An entry deeper than a
/// child has its subtree block jumped, so the join touches at most the
/// list entries below the context.
pub fn child_on_list(doc: &Doc, list: &[Pre], context: &Context) -> (Context, StepStats) {
    child_on_list_pooled(doc, list, context, &mut Scratch::new())
}

/// [`child_on_list`] into a result buffer from `scratch`.
pub fn child_on_list_pooled(
    doc: &Doc,
    list: &[Pre],
    context: &Context,
    scratch: &mut Scratch,
) -> (Context, StepStats) {
    on_list(context, scratch.take(), |ctx, result, stats| {
        child_range_join::<false>(doc, list, ctx, result, stats)
    })
}

/// Runs one range join over `context` into `result` (empty, from the
/// caller's [`Scratch`]; the probes pass a fresh one) and fills in the
/// counters the loops leave to their caller: `context_out` is the number
/// of context nodes the join stopped at ([`StepStats::partitions`]), the
/// rest having been passed by gallops.
pub(crate) fn on_list(
    context: &Context,
    mut result: Vec<Pre>,
    join: impl FnOnce(&[Pre], &mut Vec<Pre>, &mut StepStats),
) -> (Context, StepStats) {
    let mut stats = StepStats {
        context_in: context.len(),
        ..Default::default()
    };
    join(context.as_slice(), &mut result, &mut stats);
    stats.context_out = stats.partitions;
    stats.result_size = result.len();
    (Context::from_sorted(result), stats)
}

/// The descendant range join (and, with the roles swapped, the
/// `has_ancestor_in` probe): appends `list ∩ ⋃ (c, end(c)]` over the
/// context nodes `c` to `result`. Both inputs ascend and each is one
/// forward cursor; `context` may hold nested nodes.
pub(crate) fn descendant_range_join(
    doc: &Doc,
    list: &[Pre],
    context: &[Pre],
    result: &mut Vec<Pre>,
    stats: &mut StepStats,
) {
    let end_of = subtree_ends(doc);
    let mut gov = Ticker::ambient();
    // The loops count in locals; `stats` gets them when they end.
    let mut local = StepStats::default();
    let (mut ci, mut j) = (0usize, 0usize);
    while ci < context.len() && j < list.len() {
        let c = context[ci];
        ci += 1;
        local.partitions += 1;
        if gov.tick(1) {
            break;
        }
        let end = end_of(c);
        local.nodes_skipped += advance(list, &mut j, &mut local.seeks, |&p| p <= c) as u64;
        let lo = j;
        advance(list, &mut j, &mut local.seeks, |&p| p <= end);
        if copy_run(&mut gov, &list[lo..j], &mut local.nodes_copied, result) {
            break;
        }
        // Context nodes inside c's subtree are covered by the slice just
        // copied: pruning is this gallop.
        advance(context, &mut ci, &mut local.seeks, |&d| d <= end);
    }
    stats.merge(&local);
}

/// Appends `slice` to `result` as one comparison-free run: an arithmetic
/// charge and, under a budget, [`crate::governor::SCAN_CHUNK`] pieces.
fn copy_run(gov: &mut Ticker, slice: &[Pre], copied: &mut u64, result: &mut Vec<Pre>) -> bool {
    let len = u32::try_from(slice.len()).expect("a fragment holds distinct u32 pre ranks");
    gov.charged_run(0, len, copied, |lo, hi| {
        result.extend_from_slice(&slice[lo as usize..hi as usize])
    })
}

/// The ancestor range join (and, with the roles swapped, the
/// `has_descendant_in` probe): appends the `list` entries with a
/// `context` node in their subtree to `result`. Driven from the list; the
/// loop ends when the context is exhausted. [`StepStats::partitions`]
/// counts the context nodes the cursor stopped at.
pub(crate) fn ancestor_range_join(
    doc: &Doc,
    list: &[Pre],
    context: &[Pre],
    result: &mut Vec<Pre>,
    stats: &mut StepStats,
) {
    let end_of = subtree_ends(doc);
    let mut gov = Ticker::ambient();
    let mut local = StepStats::default();
    let (mut ci, mut j) = (0usize, 0usize);
    let mut stopped_at = usize::MAX;
    while let Some(&p) = list.get(j) {
        // The first context node after p decides: the subtree of p is the
        // contiguous run (p, end(p)], so it is in there or none is.
        advance(context, &mut ci, &mut local.seeks, |&c| c <= p);
        let Some(&c) = context.get(ci) else { break };
        if ci != stopped_at {
            stopped_at = ci;
            local.partitions += 1;
        }
        local.nodes_scanned += 1;
        if gov.tick(1) {
            break;
        }
        j += 1;
        let end = end_of(p);
        if c <= end {
            result.push(p);
        } else {
            // No context node below p, so none below any entry inside
            // p's subtree either: jump the block.
            local.nodes_skipped += advance(list, &mut j, &mut local.seeks, |&q| q <= end) as u64;
        }
    }
    stats.merge(&local);
}

/// The child range join (`PARENTS = false`: appends the `list` entries
/// whose parent is a context node) and the `has_child_in` probe
/// (`PARENTS = true`: appends each such parent, once) — both in document
/// order.
///
/// Walks `list ∩ (c, end(c)]` per outermost context node `c`. An entry
/// deeper than a child has its whole subtree block jumped, and a
/// probe jumps the rest of a parent it has reported. In the common case
/// no context node lies inside `c`, so it is the only parent in reach —
/// that walk is written out here because it is the hot one (half the
/// time of the general walk on a one-child-per-parent probe); a `c` with
/// context nodes nested in it is walked by [`child_walk_nested`].
pub(crate) fn child_range_join<const PARENTS: bool>(
    doc: &Doc,
    list: &[Pre],
    context: &[Pre],
    out: &mut Vec<Pre>,
    stats: &mut StepStats,
) {
    let parent = doc.parent_column();
    let end_of = subtree_ends(doc);
    let mut gov = Ticker::ambient();
    let mut nested = Vec::new();
    let mut local = StepStats::default();
    let (mut ci, mut j) = (0usize, 0usize);
    'join: while ci < context.len() && j < list.len() {
        let c = context[ci];
        ci += 1;
        local.partitions += 1;
        if gov.tick(1) {
            break;
        }
        let end = end_of(c);
        local.nodes_skipped += advance(list, &mut j, &mut local.seeks, |&p| p <= c) as u64;
        if context.get(ci).is_some_and(|&d| d <= end) {
            let cover = (c, end, false);
            let cursors = (&mut ci, &mut j);
            if child_walk_nested::<PARENTS>(
                doc,
                list,
                context,
                cover,
                cursors,
                &mut nested,
                &mut gov,
                out,
                &mut local,
            ) {
                break;
            }
            continue;
        }
        while let Some(&p) = list.get(j) {
            if p > end {
                break;
            }
            local.nodes_scanned += 1;
            if gov.tick(1) {
                break 'join;
            }
            j += 1;
            if parent[p as usize] != c {
                let deep = end_of(p);
                local.nodes_skipped +=
                    advance(list, &mut j, &mut local.seeks, |&q| q <= deep) as u64;
            } else if PARENTS {
                out.push(c);
                local.nodes_skipped +=
                    advance(list, &mut j, &mut local.seeks, |&q| q <= end) as u64;
                break;
            } else {
                out.push(p);
            }
        }
    }
    stats.merge(&local);
}

/// [`child_range_join`]'s walk of one outermost context node that has
/// context nodes nested in it. Those that contain the current entry are
/// kept on `open` — (node, last pre rank of its subtree, already reported
/// as a parent), outermost first — so that `parent(p) == innermost
/// context node around p` stays the keep test; a jump is taken only when
/// no context node waits inside the jumped block. Returns `true` when
/// the budget tripped.
#[allow(clippy::too_many_arguments)]
fn child_walk_nested<const PARENTS: bool>(
    doc: &Doc,
    list: &[Pre],
    context: &[Pre],
    cover: (Pre, Pre, bool),
    (ci, j): (&mut usize, &mut usize),
    open: &mut Vec<(Pre, Pre, bool)>,
    gov: &mut Ticker,
    out: &mut Vec<Pre>,
    stats: &mut StepStats,
) -> bool {
    let parent = doc.parent_column();
    let end_of = subtree_ends(doc);
    // Parents below the cover are reported inner first: each is put in
    // its place among those reported since `first`.
    let first = out.len();
    open.clear();
    open.push(cover);
    while let Some(&p) = list.get(*j) {
        if p > cover.1 {
            break;
        }
        while open.last().is_some_and(|o| o.1 < p) {
            open.pop();
        }
        // Context nodes before p: one that contains p opens, one that
        // ends before p is passed together with everything nested in it.
        while let Some(&d) = context.get(*ci) {
            if d >= p {
                break;
            }
            *ci += 1;
            let d_end = end_of(d);
            if d_end >= p {
                stats.partitions += 1;
                open.push((d, d_end, false));
            } else {
                advance(context, ci, &mut stats.seeks, |&x| x <= d_end);
            }
        }
        stats.nodes_scanned += 1;
        if gov.tick(1) {
            return true;
        }
        *j += 1;
        let top = open.last_mut().expect("the cover contains p");
        let jump_to = if parent[p as usize] != top.0 {
            end_of(p)
        } else if PARENTS {
            if !top.2 {
                top.2 = true;
                let at = first + out[first..].partition_point(|&x| x < top.0);
                out.insert(at, top.0);
            }
            top.1
        } else {
            out.push(p);
            continue;
        };
        if context.get(*ci).is_none_or(|&x| x > jump_to) {
            stats.nodes_skipped += advance(list, j, &mut stats.seeks, |&q| q <= jump_to) as u64;
        }
    }
    // Context nodes left inside the cover have no list entry below them.
    advance(context, ci, &mut stats.seeks, |&d| d <= cover.1);
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{random_context, random_doc, reference};
    use crate::{ancestor, descendant, Variant};
    use staircase_accel::Axis;

    fn doc_with_tags() -> Doc {
        Doc::from_xml(
            "<site><open_auctions>\
             <open_auction><bidder><increase/></bidder><bidder><increase/></bidder></open_auction>\
             <open_auction><bidder><increase/></bidder></open_auction>\
             </open_auctions></site>",
        )
        .unwrap()
    }

    #[test]
    fn tag_index_partitions_elements() {
        let doc = doc_with_tags();
        let idx = TagIndex::build(&doc);
        assert_eq!(idx.total_nodes(), doc.kind_counts().0);
        let bidders = idx.fragment_by_name(&doc, "bidder");
        assert_eq!(bidders.len(), 3);
        assert!(bidders.windows(2).all(|w| w[0] < w[1]));
        assert!(idx.fragment_by_name(&doc, "nonexistent").is_empty());
    }

    #[test]
    fn descendant_on_list_equals_nametest_after_join() {
        let doc = doc_with_tags();
        let idx = TagIndex::build(&doc);
        let ctx = Context::singleton(doc.root());
        let (full, _) = descendant(&doc, &ctx, Variant::EstimationSkipping);
        let late = full.name_test(&doc, "increase");
        let (pushed, _) = descendant_on_list(&doc, idx.fragment_by_name(&doc, "increase"), &ctx);
        assert_eq!(late, pushed);
    }

    #[test]
    fn ancestor_on_list_equals_nametest_after_join() {
        let doc = doc_with_tags();
        let idx = TagIndex::build(&doc);
        // Context: the increase elements.
        let increases: Context = idx
            .fragment_by_name(&doc, "increase")
            .iter()
            .copied()
            .collect();
        let (full, _) = ancestor(&doc, &increases, Variant::Skipping);
        let late = full.name_test(&doc, "bidder");
        let (pushed, _) = ancestor_on_list(&doc, idx.fragment_by_name(&doc, "bidder"), &increases);
        assert_eq!(late, pushed);
        assert_eq!(pushed.len(), 3);
    }

    #[test]
    fn pushdown_agrees_with_reference_on_random_docs() {
        for seed in 0..20 {
            let doc = random_doc(seed, 500);
            let idx = TagIndex::build(&doc);
            let ctx = random_context(&doc, seed ^ 0x9999, 20);
            for tag in ["p", "q", "r"] {
                let frag = idx.fragment_by_name(&doc, tag);
                let want_desc: Vec<Pre> = reference(&doc, &ctx, Axis::Descendant)
                    .into_iter()
                    .filter(|&v| doc.tag_name(v) == Some(tag) && doc.kind(v) == NodeKind::Element)
                    .collect();
                let (got_desc, _) = descendant_on_list(&doc, frag, &ctx);
                assert_eq!(
                    got_desc.as_slice(),
                    &want_desc[..],
                    "desc {tag} seed {seed}"
                );

                let want_anc: Vec<Pre> = reference(&doc, &ctx, Axis::Ancestor)
                    .into_iter()
                    .filter(|&v| doc.tag_name(v) == Some(tag) && doc.kind(v) == NodeKind::Element)
                    .collect();
                let (got_anc, _) = ancestor_on_list(&doc, frag, &ctx);
                assert_eq!(got_anc.as_slice(), &want_anc[..], "anc {tag} seed {seed}");
            }
        }
    }

    #[test]
    fn list_join_touches_only_fragment_nodes() {
        for seed in 0..10 {
            let doc = random_doc(seed, 800);
            let idx = TagIndex::build(&doc);
            let ctx = random_context(&doc, seed ^ 0xABAB, 10);
            let frag = idx.fragment_by_name(&doc, "p");
            let (_, stats) = descendant_on_list(&doc, frag, &ctx);
            assert!(
                stats.nodes_scanned <= frag.len() as u64,
                "seed {seed}: scanned {} of a {}-node fragment",
                stats.nodes_scanned,
                frag.len()
            );
        }
    }

    /// The range joins' counters by their definitions, counted with plain
    /// filters over the pruned cover: the gallops (and the peeks that
    /// replace most of them) must not move any of them by one.
    #[test]
    fn galloping_cursor_keeps_scanned_and_skipped_exact() {
        for seed in 0..20 {
            let doc = random_doc(seed, 700);
            let end = |v: Pre| v + doc.subtree_size(v);
            let idx = TagIndex::build(&doc);
            let ctx = random_context(&doc, seed ^ 0x5EEC, 30);
            for tag in ["p", "q", "r"] {
                let list = idx.fragment_by_name(&doc, tag);

                // Descendant: a cover node is opened while list entries
                // remain; its slice is copied, the entries between slices
                // are passed unread, nothing is compared.
                let cover = crate::prune_descendant(&doc, &ctx);
                let (mut copied, mut skipped, mut opened) = (0u64, 0u64, 0usize);
                let mut at = 0usize; // entries consumed so far
                for c in cover.iter() {
                    if at == list.len() {
                        break;
                    }
                    opened += 1;
                    let before = list[at..].iter().filter(|&&p| p <= c).count();
                    let inside = list[at + before..].iter().filter(|&&p| p <= end(c)).count();
                    skipped += before as u64;
                    copied += inside as u64;
                    at += before + inside;
                }
                let (out, got) = descendant_on_list(&doc, list, &ctx);
                assert_eq!(
                    (got.nodes_scanned, got.nodes_copied, got.nodes_skipped),
                    (0, copied, skipped),
                    "desc {tag} seed {seed}"
                );
                assert_eq!(got.nodes_copied, out.len() as u64);
                assert_eq!((got.partitions, got.context_out), (opened, opened));
                assert!(got.seeks <= 3 * opened as u64, "open, close, nested");

                // Ancestor: every entry before the last context node is
                // looked at once unless a barren entry's block took it.
                let (mut scanned, mut skipped, mut misses) = (0u64, 0u64, 0u64);
                let mut stops = std::collections::BTreeSet::new();
                let mut k = 0;
                while let Some(&p) = list.get(k) {
                    let Some(c) = ctx.iter().find(|&c| c > p) else {
                        break;
                    };
                    stops.insert(c);
                    scanned += 1;
                    k += 1;
                    if c > end(p) {
                        let block = list[k..].iter().take_while(|&&q| q <= end(p)).count();
                        skipped += block as u64;
                        misses += 1;
                        k += block;
                    }
                }
                let (_, got) = ancestor_on_list(&doc, list, &ctx);
                assert_eq!(
                    (got.nodes_scanned, got.nodes_copied, got.nodes_skipped),
                    (scanned, 0, skipped),
                    "anc {tag} seed {seed}"
                );
                assert_eq!(
                    (got.partitions, got.context_out),
                    (stops.len(), stops.len())
                );
                assert!(got.seeks <= stops.len() as u64 + misses, "a move or a jump");
            }
        }
    }

    fn children_by_tree_walk(doc: &Doc, list: &[Pre], ctx: &Context) -> Vec<Pre> {
        list.iter()
            .copied()
            .filter(|&p| ctx.as_slice().binary_search(&doc.parent(p)).is_ok())
            .collect()
    }

    #[test]
    fn child_join_emits_nested_parents_children_in_document_order() {
        // One tag, nested, every `a` in the context: the outer parent's
        // last child (pre 4) follows the inner parent's children (2, 3).
        let doc = Doc::from_xml("<a><a><a/><a/></a><a/></a>").unwrap();
        let all: Context = doc.pres().collect();
        let (got, stats) = child_on_list(&doc, all.as_slice(), &all);
        assert_eq!(got.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(
            got.as_slice(),
            &children_by_tree_walk(&doc, all.as_slice(), &all)[..]
        );
        assert!(got.as_slice().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(stats.result_size, 4);
        assert_eq!(stats.nodes_scanned, 4, "each entry below the root once");
    }

    #[test]
    fn child_join_agrees_with_the_tree_walk_on_random_docs() {
        for seed in 0..20 {
            let doc = random_doc(seed, 500);
            let idx = TagIndex::build(&doc);
            let ctx = random_context(&doc, seed ^ 0xC41D, 60);
            for tag in ["p", "q", "r"] {
                let list = idx.fragment_by_name(&doc, tag);
                let (got, stats) = child_on_list(&doc, list, &ctx);
                assert_eq!(
                    got.as_slice(),
                    &children_by_tree_walk(&doc, list, &ctx)[..],
                    "{tag} seed {seed}"
                );
                let below = list
                    .iter()
                    .filter(|&&p| ctx.iter().any(|c| p > c && p <= c + doc.subtree_size(c)))
                    .count() as u64;
                assert!(stats.nodes_touched() <= below, "{tag} seed {seed}");
                assert_eq!(stats.nodes_copied, 0);
            }
        }
    }

    #[test]
    fn cracked_windows_agree_with_eager_fragments_on_random_docs() {
        for seed in 0..12 {
            let doc = random_doc(seed, 500);
            let idx = TagIndex::build(&doc);
            assert_eq!(idx.crack_scan_work(), doc.len() as u64, "one sweep");
            assert_eq!(idx.fragments_built(), doc.tags().len(), "every tag");
            let n = doc.len() as Pre;
            let mut st = 0x1234_5678_u64 ^ seed;
            let mut next = |m: Pre| {
                st ^= st << 13;
                st ^= st >> 7;
                st ^= st << 17;
                (st % u64::from(m.max(1))) as Pre
            };
            for (tid, name) in doc.tags().iter().collect::<Vec<_>>() {
                let full = doc.elements_with_tag(tid);
                assert_eq!(idx.fragment(tid), &full[..], "seed {seed} tag {name}");
                for _ in 0..8 {
                    let a = next(n);
                    let b = a + next(n - a + 1);
                    let want: Vec<Pre> = full
                        .iter()
                        .copied()
                        .filter(|&p| (a..b).contains(&p))
                        .collect();
                    assert_eq!(
                        idx.fragment_window(tid, a, b),
                        &want[..],
                        "seed {seed} tag {name} [{a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_fragment_and_empty_context() {
        let doc = doc_with_tags();
        let (r, _) = descendant_on_list(&doc, &[], &Context::singleton(0));
        assert!(r.is_empty());
        let (r, _) = ancestor_on_list(&doc, &[], &Context::singleton(0));
        assert!(r.is_empty());
        let idx = TagIndex::build(&doc);
        let frag = idx.fragment_by_name(&doc, "bidder");
        let (r, _) = descendant_on_list(&doc, frag, &Context::empty());
        assert!(r.is_empty());
        let (r, _) = ancestor_on_list(&doc, frag, &Context::empty());
        assert!(r.is_empty());
        let (r, _) = child_on_list(&doc, &[], &Context::singleton(0));
        assert!(r.is_empty());
        let (r, _) = child_on_list(&doc, frag, &Context::empty());
        assert!(r.is_empty());
    }

    use staircase_accel::{Doc, NodeKind};
}
