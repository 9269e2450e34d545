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
//! establishes it by construction.) Every on-list join is one of two
//! loops over a cursor pair — one cursor on the list, one on the context:
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
//!
//! # The cracked index
//!
//! Since the adaptive-execution work the index is also **cracked**: a
//! [`TagIndex::lazy`] index starts with *no* fragment materialized, and
//! queries build them per tag on first touch. A query that only scans a
//! pre-*range* of a tag cracks just that range out of the columns
//! ([`TagIndex::fragment_window`]) and keeps the sorted piece; later
//! windows refine the coverage, and a tag that keeps getting touched is
//! promoted to its fully sorted fragment. Cold tags never pay a build.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use staircase_accel::{Context, Doc, NodeKind, Post, Pre, TagId};
use staircase_storage::TagBitmap;

use crate::cursor::advance;
use crate::governor::Ticker;
use crate::stats::StepStats;

/// How many window touches a tag sustains before the cracked pieces are
/// promoted to the fully sorted fragment. Hot tags therefore converge
/// within [`CRACK_CONVERGE_TOUCHES`] queries even when no single query
/// ever covers the whole plane.
pub const CRACK_CONVERGE_TOUCHES: u32 = 4;

/// One cracked piece of a tag's fragment: the sorted pre ranks of the
/// tag's elements inside `[lo, hi)`, materialized by some past window.
#[derive(Debug, Clone)]
struct Piece {
    lo: Pre,
    hi: Pre,
    entries: Vec<Pre>,
}

/// Per-tag state: the fully sorted fragment once promoted, else the
/// cracked pieces accumulated so far (disjoint, sorted by `lo`).
#[derive(Debug, Default)]
struct TagCell {
    full: OnceLock<Vec<Pre>>,
    pieces: Mutex<Vec<Piece>>,
    touches: AtomicU32,
}

impl Clone for TagCell {
    fn clone(&self) -> TagCell {
        let cell = TagCell {
            full: OnceLock::new(),
            pieces: Mutex::new(self.pieces.lock().expect("tag pieces lock").clone()),
            touches: AtomicU32::new(self.touches.load(Ordering::Relaxed)),
        };
        if let Some(f) = self.full.get() {
            let _ = cell.full.set(f.clone());
        }
        cell
    }
}

/// Per-tag fragments of the document: for every tag id, the pre ranks of
/// all elements carrying it, in document order.
///
/// [`TagIndex::build`] materializes every fragment with one pass over
/// the columns ("fragmentation by tag name", §6) — the eager form
/// [`warm`](TagIndex::warm_all)-style server paths use. The same
/// structure serves name-test pushdown, where the fragment *is*
/// `nametest(doc, tag)`.
///
/// [`TagIndex::lazy`] builds *nothing*: fragments are **cracked** out of
/// the columns as queries touch them. A whole-fragment touch
/// ([`TagIndex::fragment_by_name`]) materializes that one tag; a
/// range-limited touch ([`TagIndex::fragment_window`]) scans only the
/// requested pre range and keeps the sorted piece, so repeated queries
/// piecewise-refine hot tags to fully sorted fragments
/// (promotion after [`CRACK_CONVERGE_TOUCHES`] touches, or as soon as
/// the pieces cover the plane) while cold tags stay unbuilt.
///
/// Alongside each fragment the index caches a lazily built
/// [`TagBitmap`] (one bit per pre rank, set for elements with the
/// tag): fragments answer "walk every `t`-element in order", bitmaps
/// answer "which of *these* positions are `t`-elements" with one
/// bit-probe each — the masked name-test path of
/// [`crate::mask`]. A bitmap costs a full column pass to build, so it
/// is built on first touch only (callers gate on
/// [`crate::DocStats::bitmap_worthwhile`]).
#[derive(Debug)]
pub struct TagIndex {
    cells: Vec<TagCell>,
    bitmaps: Vec<OnceLock<TagBitmap>>,
    cracks: AtomicU64,
}

impl Clone for TagIndex {
    fn clone(&self) -> TagIndex {
        TagIndex {
            cells: self.cells.clone(),
            bitmaps: self.bitmaps.clone(),
            cracks: AtomicU64::new(self.cracks.load(Ordering::Relaxed)),
        }
    }
}

impl TagIndex {
    /// Builds the index with one pass over the document — every
    /// fragment fully materialized. Bitmaps are *not* built here — each
    /// materializes on first [`TagIndex::bitmap`] touch.
    pub fn build(doc: &Doc) -> TagIndex {
        let idx = TagIndex::lazy(doc);
        let every_tag = vec![true; idx.cells.len()];
        for (cell, frag) in idx.cells.iter().zip(sweep_fragments(doc, &every_tag)) {
            let _ = cell.full.set(frag);
        }
        idx
    }

    /// An index with **no** fragment materialized: each cracks out of
    /// the columns on first touch.
    pub fn lazy(doc: &Doc) -> TagIndex {
        let ntags = doc.tags().len();
        TagIndex {
            cells: (0..ntags).map(|_| TagCell::default()).collect(),
            bitmaps: (0..ntags).map(|_| OnceLock::new()).collect(),
            cracks: AtomicU64::new(0),
        }
    }

    /// The per-tag bitmap for `tag`, built on first touch (one pass
    /// over the kind/tag columns) and cached for the index's lifetime;
    /// `None` for out-of-range tag ids.
    pub fn bitmap(&self, doc: &Doc, tag: TagId) -> Option<&TagBitmap> {
        self.bitmaps.get(tag as usize).map(|cell| {
            cell.get_or_init(|| {
                TagBitmap::build(
                    doc.kind_column(),
                    NodeKind::Element as u8,
                    doc.tag_column(),
                    tag,
                )
            })
        })
    }

    /// Whether `tag`'s bitmap has already materialized — the `built`
    /// input to [`crate::cost::DocStats::bitmap_worthwhile`]'s gate.
    pub fn bitmap_built(&self, tag: TagId) -> bool {
        self.bitmaps
            .get(tag as usize)
            .is_some_and(|c| c.get().is_some())
    }

    /// How many per-tag bitmaps have materialized (tests/metrics).
    pub fn bitmaps_built(&self) -> usize {
        self.bitmaps.iter().filter(|c| c.get().is_some()).count()
    }

    /// The fully materialized fragment for `tag`, building it on first
    /// touch (crediting any cracked pieces — only the uncovered gaps
    /// are scanned). Empty slice for unknown tags.
    pub fn fragment(&self, doc: &Doc, tag: TagId) -> &[Pre] {
        let Some(cell) = self.cells.get(tag as usize) else {
            return &[];
        };
        cell.touches.fetch_add(1, Ordering::Relaxed);
        self.ensure_full(doc, tag, cell)
    }

    /// The fragment for a tag *name*, built on first touch.
    pub fn fragment_by_name<'s>(&'s self, doc: &Doc, name: &str) -> &'s [Pre] {
        doc.tag_id(name)
            .map(|t| self.fragment(doc, t))
            .unwrap_or(&[])
    }

    /// The tag's elements with pre ranks in `[lo, hi)` — the cracked
    /// access path. A fully built fragment answers with a borrowed
    /// subslice; otherwise only the window's uncovered gaps are scanned
    /// out of the columns and the sorted piece is kept, so repeated
    /// windows piecewise-refine the fragment. After
    /// [`CRACK_CONVERGE_TOUCHES`] touches (or full coverage) the tag is
    /// promoted to its fully sorted fragment.
    pub fn fragment_window<'s>(
        &'s self,
        doc: &Doc,
        tag: TagId,
        lo: Pre,
        hi: Pre,
    ) -> Cow<'s, [Pre]> {
        let Some(cell) = self.cells.get(tag as usize) else {
            return Cow::Borrowed(&[]);
        };
        let hi = hi.min(doc.len() as Pre);
        let lo = lo.min(hi);
        let touches = cell.touches.fetch_add(1, Ordering::Relaxed) + 1;
        if cell.full.get().is_some()
            || touches >= CRACK_CONVERGE_TOUCHES
            || (lo == 0 && hi == doc.len() as Pre)
        {
            let full = self.ensure_full(doc, tag, cell);
            let a = full.partition_point(|&p| p < lo);
            let b = full.partition_point(|&p| p < hi);
            return Cow::Borrowed(&full[a..b]);
        }
        Cow::Owned(self.crack(doc, tag, cell, lo, hi))
    }

    /// The windowed form of [`TagIndex::fragment_window`] addressed by
    /// tag *name*.
    pub fn fragment_window_by_name<'s>(
        &'s self,
        doc: &Doc,
        name: &str,
        lo: Pre,
        hi: Pre,
    ) -> Cow<'s, [Pre]> {
        match doc.tag_id(name) {
            Some(t) => self.fragment_window(doc, t, lo, hi),
            None => Cow::Borrowed(&[]),
        }
    }

    /// Ensures `tag`'s fragment is fully materialized (the explicit
    /// warm path; also promotion's target).
    fn ensure_full<'s>(&'s self, doc: &Doc, tag: TagId, cell: &'s TagCell) -> &'s [Pre] {
        promote(cell, |pieces| {
            assemble(doc, tag, pieces, 0, doc.len() as Pre, &self.cracks)
        })
    }

    /// Cracks the window `[lo, hi)` out of the columns: entries covered
    /// by existing pieces are reused, uncovered gaps are scanned and
    /// the merged piece kept. Promotes to the full fragment when the
    /// pieces end up covering the whole plane.
    fn crack(&self, doc: &Doc, tag: TagId, cell: &TagCell, lo: Pre, hi: Pre) -> Vec<Pre> {
        let mut pieces = cell.pieces.lock().expect("tag pieces lock");
        if let Some(full) = cell.full.get() {
            // A racing promoter won: serve from the full fragment.
            let a = full.partition_point(|&p| p < lo);
            let b = full.partition_point(|&p| p < hi);
            return full[a..b].to_vec();
        }
        let out = assemble(doc, tag, &pieces, lo, hi, &self.cracks);
        merge_piece(&mut pieces, lo, hi, &out);
        let covered = pieces.len() == 1 && pieces[0].lo == 0 && pieces[0].hi >= doc.len() as Pre;
        // Full coverage reached piecewise: promote — after releasing the
        // pieces lock, which `promote` takes *inside* the fragment's
        // one-time initialisation; setting the fragment while holding it
        // would deadlock against a concurrent promoter. The one covering
        // piece is copied out, nothing is scanned.
        drop(pieces);
        if covered {
            self.ensure_full(doc, tag, cell);
        }
        out
    }

    /// Whether `tag`'s fragment is fully materialized (tests/metrics —
    /// the cold-tags-stay-unbuilt assertion).
    pub fn fragment_built(&self, tag: TagId) -> bool {
        self.cells
            .get(tag as usize)
            .is_some_and(|c| c.full.get().is_some())
    }

    /// [`TagIndex::fragment_built`] addressed by tag name (`false` for
    /// names absent from the document).
    pub fn fragment_built_by_name(&self, doc: &Doc, name: &str) -> bool {
        doc.tag_id(name).is_some_and(|t| self.fragment_built(t))
    }

    /// `true` once `tag` has at least one cracked piece or its full
    /// fragment — i.e. some query touched it.
    pub fn fragment_touched(&self, tag: TagId) -> bool {
        self.cells.get(tag as usize).is_some_and(|c| {
            c.full.get().is_some() || !c.pieces.lock().expect("tag pieces lock").is_empty()
        })
    }

    /// How many window touches `tag` has seen (the cracking convergence
    /// metric: a hot tag is fully sorted within
    /// [`CRACK_CONVERGE_TOUCHES`]).
    pub fn fragment_touches(&self, tag: TagId) -> u32 {
        self.cells
            .get(tag as usize)
            .map(|c| c.touches.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// How many fragments are fully materialized.
    pub fn fragments_built(&self) -> usize {
        self.cells.iter().filter(|c| c.full.get().is_some()).count()
    }

    /// Total column positions scanned by crack/build passes so far —
    /// the work the lazy index actually paid, vs. the eager build's
    /// `tags × nodes`.
    pub fn crack_scan_work(&self) -> u64 {
        self.cracks.load(Ordering::Relaxed)
    }

    /// Fully materializes every fragment (the eager/server warm path).
    ///
    /// Tags no query has touched yet are bucketed together in **one**
    /// sweep of the columns, as [`TagIndex::build`] does, instead of
    /// one whole-document scan per tag; tags that already hold cracked
    /// pieces are completed from them, scanning only their gaps.
    pub fn warm_all(&self, doc: &Doc) {
        let untouched: Vec<bool> = (0..self.cells.len())
            .map(|tag| !self.fragment_touched(tag as TagId))
            .collect();
        let mut swept = Vec::new();
        if untouched.contains(&true) {
            swept = sweep_fragments(doc, &untouched);
            self.cracks.fetch_add(doc.len() as u64, Ordering::Relaxed);
        }
        for (tag, cell) in self.cells.iter().enumerate() {
            if untouched[tag] {
                // A query may have cracked the tag since it was found
                // untouched; the swept fragment is complete either way.
                promote(cell, |_| std::mem::take(&mut swept[tag]));
            } else {
                self.ensure_full(doc, tag as TagId, cell);
            }
        }
    }

    /// Fully materializes the named tags only — the server's
    /// configured-hot-set warm (`staircase-serve --warm-tags`). Unknown
    /// names are ignored.
    pub fn warm_tags(&self, doc: &Doc, names: &[&str]) {
        for name in names {
            if let Some(t) = doc.tag_id(name) {
                self.ensure_full(doc, t, &self.cells[t as usize]);
            }
        }
    }

    /// Number of distinct tags indexed.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if the index covers no tags at all.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Total pre ranks stored across materialized fragments and cracked
    /// pieces.
    pub fn total_nodes(&self) -> usize {
        self.cells
            .iter()
            .map(|c| match c.full.get() {
                Some(f) => f.len(),
                None => c
                    .pieces
                    .lock()
                    .expect("tag pieces lock")
                    .iter()
                    .map(|p| p.entries.len())
                    .sum(),
            })
            .sum()
    }
}

/// Sets `cell`'s full fragment — once; later callers get the first
/// one — to what `build` makes of the cracked pieces, which are dropped.
fn promote(cell: &TagCell, build: impl FnOnce(&[Piece]) -> Vec<Pre>) -> &[Pre] {
    cell.full.get_or_init(|| {
        let mut pieces = cell.pieces.lock().expect("tag pieces lock");
        let full = build(&pieces);
        pieces.clear();
        pieces.shrink_to_fit();
        full
    })
}

/// One sweep of the kind/tag columns: the complete fragment of every
/// tag marked in `wanted` (the others stay empty).
///
/// The vectors grow as they fill rather than being pre-sized from the
/// interner's element counts: exactly sized fragments land page-aligned
/// next to each other, where the joins that walk them in step with
/// their result buffers ran 9 % slower (`batch_pool`), and peak RSS is
/// the same either way.
fn sweep_fragments(doc: &Doc, wanted: &[bool]) -> Vec<Vec<Pre>> {
    let mut fragments: Vec<Vec<Pre>> = vec![Vec::new(); wanted.len()];
    let kinds = doc.kind_column();
    let tags = doc.tag_column();
    let element = NodeKind::Element as u8;
    for v in doc.pres() {
        if kinds[v as usize] == element {
            let tag = tags[v as usize] as usize;
            if wanted[tag] {
                fragments[tag].push(v);
            }
        }
    }
    fragments
}

/// Collects `tag`'s elements with pre in `[lo, hi)`, reusing `pieces`
/// where they cover the window and scanning the columns only over the
/// uncovered gaps (each gap scan is charged to `cracks`).
fn assemble(
    doc: &Doc,
    tag: TagId,
    pieces: &[Piece],
    lo: Pre,
    hi: Pre,
    cracks: &AtomicU64,
) -> Vec<Pre> {
    let mut out = Vec::new();
    let mut cursor = lo;
    for piece in pieces {
        if piece.hi <= cursor {
            continue;
        }
        if piece.lo >= hi {
            break;
        }
        if piece.lo > cursor {
            scan_range(doc, tag, cursor, piece.lo.min(hi), &mut out, cracks);
        }
        let a = piece.entries.partition_point(|&p| p < cursor);
        let b = piece.entries.partition_point(|&p| p < hi);
        out.extend_from_slice(&piece.entries[a..b]);
        cursor = piece.hi.min(hi);
        if cursor >= hi {
            break;
        }
    }
    if cursor < hi {
        scan_range(doc, tag, cursor, hi, &mut out, cracks);
    }
    out
}

/// Scans the kind/tag columns over `[lo, hi)` for `tag`'s elements.
fn scan_range(doc: &Doc, tag: TagId, lo: Pre, hi: Pre, out: &mut Vec<Pre>, cracks: &AtomicU64) {
    let kinds = doc.kind_column();
    let tags = doc.tag_column();
    let element = NodeKind::Element as u8;
    for v in lo..hi {
        if kinds[v as usize] == element && tags[v as usize] == tag {
            out.push(v);
        }
    }
    cracks.fetch_add(u64::from(hi.saturating_sub(lo)), Ordering::Relaxed);
}

/// Replaces every piece overlapping (or touching) `[lo, hi)` with one
/// merged piece whose entries are the union; keeps the list disjoint
/// and sorted by `lo`.
fn merge_piece(pieces: &mut Vec<Piece>, lo: Pre, hi: Pre, window_entries: &[Pre]) {
    let start = pieces.partition_point(|p| p.hi < lo);
    let end = pieces.partition_point(|p| p.lo <= hi);
    let mut merged_lo = lo;
    let mut merged_hi = hi;
    let mut entries: Vec<Pre> = Vec::new();
    for piece in &pieces[start..end] {
        merged_lo = merged_lo.min(piece.lo);
        merged_hi = merged_hi.max(piece.hi);
        // Entries outside the new window survive; inside it the fresh
        // scan is authoritative (they are identical anyway).
        entries.extend(piece.entries.iter().copied().filter(|&p| p < lo || p >= hi));
    }
    entries.extend_from_slice(window_entries);
    entries.sort_unstable();
    pieces.splice(
        start..end,
        [Piece {
            lo: merged_lo,
            hi: merged_hi,
            entries,
        }],
    );
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
    on_list(context, Vec::new(), |ctx, result, stats| {
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
    on_list(context, Vec::new(), |ctx, result, stats| {
        ancestor_range_join(doc, list, ctx, result, stats)
    })
}

/// `context/child::tag` evaluated directly on a tag fragment: the
/// entries of `list ∩ (c, end(c)]` whose parent is a context node, in
/// document order even where context nodes nest. An entry deeper than a
/// child has its subtree block jumped, so the join touches at most the
/// list entries below the context.
pub fn child_on_list(doc: &Doc, list: &[Pre], context: &Context) -> (Context, StepStats) {
    on_list(context, Vec::new(), |ctx, result, stats| {
        child_range_join::<false>(doc, list, ctx, result, stats)
    })
}

/// Runs one range join over `context` into `result` (empty: a fresh
/// vector here, a pooled one for the `_many` forms) and fills in the
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

/// `v ↦ end(v)`, the last pre rank of `v`'s subtree: its descendants are
/// exactly the pre ranks `(v, end(v)]`. Equation 1, exact once `level`
/// is known — `end(v) = pre + (post − pre + level)` — read off the bare
/// columns, since the joins ask once per context node and list entry.
#[inline]
fn subtree_ends(doc: &Doc) -> impl Fn(Pre) -> Pre + '_ {
    let (post, level) = (doc.post_column(), doc.level_column());
    move |v| post[v as usize] + Pre::from(level[v as usize])
}

/// Last of the `post(v) − pre(v)` nodes after `v` that are descendants of
/// `v` whatever its level (`v` itself when there is none): where a jump
/// over a subtree block need not be exact, this saves reading `level`.
#[inline]
fn guaranteed_end(post: &[Post], v: Pre) -> Pre {
    post[v as usize].max(v)
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
/// deeper than a child has its (guaranteed) subtree block jumped, and a
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
    let (parent, post) = (doc.parent_column(), doc.post_column());
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
                let deep = guaranteed_end(post, p);
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
            guaranteed_end(doc.post_column(), p)
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
    fn bitmap_cache_builds_lazily_and_agrees_with_fragments() {
        let doc = doc_with_tags();
        let idx = TagIndex::build(&doc);
        assert_eq!(idx.bitmaps_built(), 0, "no eager bitmap builds");
        let tid = doc.tag_id("bidder").unwrap();
        let bm = idx.bitmap(&doc, tid).unwrap();
        assert_eq!(idx.bitmaps_built(), 1);
        let frag = idx.fragment(&doc, tid);
        assert_eq!(bm.ones(), frag.len());
        let mut sel = Vec::new();
        bm.select_window(0, doc.len(), &mut sel);
        assert_eq!(sel.as_slice(), frag, "bitmap set bits = fragment");
        // Second touch reuses the cached build.
        assert!(std::ptr::eq(idx.bitmap(&doc, tid).unwrap(), bm));
        assert_eq!(idx.bitmaps_built(), 1);
        assert!(idx.bitmap(&doc, 9999).is_none());
    }

    #[test]
    fn lazy_index_builds_nothing_until_touched() {
        let doc = doc_with_tags();
        let idx = TagIndex::lazy(&doc);
        assert_eq!(idx.fragments_built(), 0);
        assert_eq!(idx.total_nodes(), 0);
        assert_eq!(idx.crack_scan_work(), 0);
        // First whole-fragment touch builds that one tag only.
        let bidders = idx.fragment_by_name(&doc, "bidder");
        assert_eq!(bidders.len(), 3);
        assert_eq!(idx.fragments_built(), 1);
        let cold = doc.tag_id("increase").unwrap();
        assert!(!idx.fragment_built(cold), "cold tags stay unbuilt");
        assert!(!idx.fragment_touched(cold));
        // The build scanned the plane once, not once per tag.
        assert_eq!(idx.crack_scan_work(), doc.len() as u64);
        // Lazy and eager agree for every tag.
        let eager = TagIndex::build(&doc);
        for (t, name) in doc.tags().iter().collect::<Vec<_>>() {
            assert_eq!(idx.fragment(&doc, t), eager.fragment(&doc, t), "tag {name}");
        }
    }

    #[test]
    fn window_cracks_only_the_touched_range() {
        let doc = random_doc(3, 600);
        let idx = TagIndex::lazy(&doc);
        let eager = TagIndex::build(&doc);
        let tid = doc.tag_id("p").unwrap();
        let full = eager.fragment(&doc, tid);
        let (lo, hi) = (100, 250);
        let window = idx.fragment_window(&doc, tid, lo, hi);
        let want: Vec<Pre> = full
            .iter()
            .copied()
            .filter(|&p| (lo..hi).contains(&p))
            .collect();
        assert_eq!(window.as_ref(), &want[..]);
        // Only the window's positions were scanned, and the tag is
        // cracked but not fully built.
        assert_eq!(idx.crack_scan_work(), u64::from(hi - lo));
        assert!(idx.fragment_touched(tid));
        assert!(!idx.fragment_built(tid));
        // A second, overlapping window reuses the covered part: the
        // extra scan work is the uncovered gap only.
        let window2 = idx.fragment_window(&doc, tid, 50, 200);
        let want2: Vec<Pre> = full
            .iter()
            .copied()
            .filter(|&p| (50..200).contains(&p))
            .collect();
        assert_eq!(window2.as_ref(), &want2[..]);
        assert_eq!(idx.crack_scan_work(), u64::from(hi - lo) + 50);
    }

    #[test]
    fn hot_tags_promote_to_fully_sorted_fragments() {
        let doc = random_doc(5, 800);
        let idx = TagIndex::lazy(&doc);
        let eager = TagIndex::build(&doc);
        let tid = doc.tag_id("q").unwrap();
        // Keep touching disjoint windows: by CRACK_CONVERGE_TOUCHES the
        // tag is promoted and answers with borrowed subslices.
        let n = doc.len() as Pre;
        for i in 0..CRACK_CONVERGE_TOUCHES + 1 {
            let lo = (i % 3) * 7;
            let out = idx.fragment_window(&doc, tid, lo, n / 2 + lo);
            let want: Vec<Pre> = eager
                .fragment(&doc, tid)
                .iter()
                .copied()
                .filter(|&p| (lo..n / 2 + lo).contains(&p))
                .collect();
            assert_eq!(out.as_ref(), &want[..], "touch {i}");
        }
        assert!(idx.fragment_built(tid), "hot tag converged");
        assert!(matches!(
            idx.fragment_window(&doc, tid, 0, n),
            Cow::Borrowed(_)
        ));
        assert_eq!(idx.fragment(&doc, tid), eager.fragment(&doc, tid));
        assert!(idx.fragment_touches(tid) > CRACK_CONVERGE_TOUCHES);
    }

    #[test]
    fn piecewise_coverage_promotes_without_a_full_touch() {
        let doc = doc_with_tags();
        let idx = TagIndex::lazy(&doc);
        let tid = doc.tag_id("bidder").unwrap();
        let n = doc.len() as Pre;
        // Two windows that together cover the plane: the second one
        // completes coverage and promotes, with no whole-plane scan
        // beyond the two windows themselves.
        idx.fragment_window(&doc, tid, 0, n / 2);
        assert!(!idx.fragment_built(tid));
        idx.fragment_window(&doc, tid, n / 2, n);
        assert!(idx.fragment_built(tid), "coverage-complete promotion");
        assert_eq!(idx.crack_scan_work(), u64::from(n));
        let eager = TagIndex::build(&doc);
        assert_eq!(idx.fragment(&doc, tid), eager.fragment(&doc, tid));
    }

    #[test]
    fn a_coverage_promotion_races_a_whole_fragment_touch() {
        // One thread's window completes the tag's coverage and promotes
        // it while another promotes the same tag through a whole-fragment
        // touch. Both must finish, with the eager fragment. Runs on its
        // own thread so a deadlock fails the test instead of hanging it.
        let doc = random_doc(7, 20_000);
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let eager = TagIndex::build(&doc);
            let tid = doc.tag_id("p").unwrap();
            let n = doc.len() as Pre;
            for _ in 0..100 {
                let idx = TagIndex::lazy(&doc);
                idx.fragment_window(&doc, tid, 0, n / 2);
                let start = std::sync::Barrier::new(2);
                std::thread::scope(|s| {
                    s.spawn(|| {
                        start.wait();
                        idx.fragment_window(&doc, tid, n / 2, n).len()
                    });
                    s.spawn(|| {
                        start.wait();
                        idx.fragment(&doc, tid).len()
                    });
                });
                assert_eq!(idx.fragment(&doc, tid), eager.fragment(&doc, tid));
            }
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("concurrent promotions of one tag deadlocked");
    }

    #[test]
    fn warm_tags_builds_exactly_the_named_set() {
        let doc = doc_with_tags();
        let idx = TagIndex::lazy(&doc);
        idx.warm_tags(&doc, &["bidder", "increase", "nonexistent"]);
        assert_eq!(idx.fragments_built(), 2);
        assert!(idx.fragment_built_by_name(&doc, "bidder"));
        assert!(idx.fragment_built_by_name(&doc, "increase"));
        assert!(!idx.fragment_built_by_name(&doc, "open_auction"));
        assert!(!idx.fragment_built_by_name(&doc, "nonexistent"));
        // warm_all finishes the rest.
        idx.warm_all(&doc);
        assert_eq!(idx.fragments_built(), idx.len());
        assert_eq!(idx.total_nodes(), doc.kind_counts().0);
    }

    #[test]
    fn warm_all_sweeps_untouched_tags_in_one_pass() {
        let doc = random_doc(7, 2000);
        let eager = TagIndex::build(&doc);
        let n = doc.len() as u64;
        let agrees = |idx: &TagIndex| {
            assert_eq!(idx.fragments_built(), idx.len());
            for tag in 0..idx.len() as TagId {
                assert_eq!(idx.fragment(&doc, tag), eager.fragment(&doc, tag));
            }
        };

        // Fresh: every tag from one sweep, not one scan per tag.
        let fresh = TagIndex::lazy(&doc);
        assert!(fresh.len() > 2, "more tags than the bound allows scans");
        fresh.warm_all(&doc);
        agrees(&fresh);
        assert!(
            fresh.crack_scan_work() <= 2 * n,
            "{}",
            fresh.crack_scan_work()
        );

        // Partly cracked: the cracked tag is completed from its piece
        // (its gaps only), the rest share the sweep.
        let cracked = TagIndex::lazy(&doc);
        let p = doc.tag_id("p").unwrap();
        cracked.fragment_window(&doc, p, 100, 900);
        assert_eq!(cracked.crack_scan_work(), 800);
        cracked.warm_all(&doc);
        agrees(&cracked);
        assert_eq!(cracked.crack_scan_work(), 800 + n + (n - 800));

        // Already warm: nothing left to scan.
        let before = cracked.crack_scan_work();
        cracked.warm_all(&doc);
        agrees(&cracked);
        assert_eq!(cracked.crack_scan_work(), before);
    }

    #[test]
    fn cracked_windows_agree_with_eager_fragments_on_random_docs() {
        for seed in 0..12 {
            let doc = random_doc(seed, 500);
            let idx = TagIndex::lazy(&doc);
            let eager = TagIndex::build(&doc);
            let n = doc.len() as Pre;
            let mut st = 0x1234_5678_u64 ^ seed;
            let mut next = |m: Pre| {
                st ^= st << 13;
                st ^= st >> 7;
                st ^= st << 17;
                (st % u64::from(m.max(1))) as Pre
            };
            for tag in ["p", "q", "r"] {
                let tid = doc.tag_id(tag).unwrap();
                let full = eager.fragment(&doc, tid);
                for _ in 0..8 {
                    let a = next(n);
                    let b = a + next(n - a + 1);
                    let got = idx.fragment_window(&doc, tid, a, b);
                    let want: Vec<Pre> = full
                        .iter()
                        .copied()
                        .filter(|&p| (a..b).contains(&p))
                        .collect();
                    assert_eq!(got.as_ref(), &want[..], "seed {seed} tag {tag} [{a},{b})");
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
