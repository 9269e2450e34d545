//! The one node test every plane scan carries, and the chunked bitmask
//! kernels behind its range select.
//!
//! Every scan-shaped operator in this crate ends in the same inner
//! loop: walk a pre-rank range (or a candidate list), test each
//! position against a kind/tag predicate, and push the survivors. A
//! step's node test is compiled **once** against the document into a
//! [`ScanTest`] and handed down to the scan, which asks it in one of
//! three shapes — whichever fits the phase at hand:
//!
//! * [`ScanTest::keeps`]`(v)` — one position, for the phases that
//!   visit their positions one by one (the ancestor jumps);
//! * [`ScanTest::select_range`]`(lo, hi, out)` — a whole comparison-free
//!   run (the Equation-1 subtree copy, the descendants a skipping scan's
//!   comparisons have delimited, `following`'s suffix, the gaps between
//!   `preceding`'s ancestors). A kind test folds 64 positions of the byte-wide
//!   kind column into one `u64` (byte-wise SWAR compare: broadcast-XOR +
//!   zero-byte detect + movemask multiply) and materialises the set bits
//!   with one `trailing_zeros` per **survivor**; a name test skips hit-free
//!   32-lane chunks of the `tag` column with a vectorisable any-compare
//!   and looks at `kind` only on a hit — so `/descendant::profile` reads
//!   the tag column once instead of writing the whole region out and
//!   gathering it back;
//! * [`ScanTest::select_candidates`]`(list, out)` — a sorted candidate
//!   list (the structural axes, the naive and SQL joins' bases): the
//!   scalar [`ScanTest::keeps`] filter. Candidates are scattered, so a
//!   mask word over them would gather its loads one by one, as the plain
//!   loop does.
//!
//! Lanes are counted from the range's own start, not from a
//! memory-aligned boundary, so an unaligned head costs nothing; a
//! sub-word tail builds a partial mask. The range kernels only replace
//! loops whose *counters are arithmetic* — where `StepStats` charges the
//! whole range whatever the test keeps ([`crate::governor::Ticker::charged_run`])
//! — so a selective test changes `result_size` and the memory traffic,
//! never another counter (see the crate docs' "data layout & hot loops"
//! section).

use staircase_accel::{Doc, NodeKind, Pre, TagId};

/// The attribute kind byte every partitioning axis rejects.
const ATTR: u8 = NodeKind::Attribute as u8;

/// Broadcast of `0x01` to all eight byte lanes (SWAR broadcasts).
const LO: u64 = 0x0101_0101_0101_0101;
/// Broadcast of `0x7F` to all eight byte lanes (SWAR zero-detect).
const SEVENF: u64 = 0x7F7F_7F7F_7F7F_7F7F;
/// Movemask multiplier: gathers the eight `0x01`-lane bits into the
/// top byte (bit `i` of the product's top byte = lane `i`'s bit).
const GATHER: u64 = 0x0102_0408_1020_4080;

/// Bitmask of the eight bytes at `kind[base..base + 8]` that equal
/// `byte`: SWAR zero-byte detection on `x ^ broadcast(byte)`, reduced
/// to one bit per byte with a movemask multiply. Uses the carry-free
/// `!((x & 0x7F…) + 0x7F… | x | 0x7F…)` form — the shorter
/// `(x - LO) & !x & HI` detect has false positives from cross-byte
/// borrows (a `0x01` byte directly above a zero byte), exactly the
/// kind of bug the parity proptests exist to catch.
#[inline]
fn eq_byte8(kind: &[u8], base: usize, byte: u8) -> u8 {
    let x = u64::from_le_bytes(kind[base..base + 8].try_into().unwrap());
    let x = x ^ u64::from(byte).wrapping_mul(LO);
    // High bit of each byte set ⇔ that byte of `x` is zero; per-byte
    // adds of 0x7F cannot carry out of their lane, so this is exact.
    let z = !(((x & SEVENF) + SEVENF) | x | SEVENF);
    (((z >> 7).wrapping_mul(GATHER)) >> 56) as u8
}

/// The `kind == byte` mask of the `lanes` (≤ 64) positions from
/// `kind[base]`: SWAR over the full 8-byte chunks, scalar (but
/// branch-free) over a sub-word tail's remainder. Bits at and above
/// `lanes` are zero.
#[inline]
fn eq_lanes(kind: &[u8], base: usize, lanes: usize, byte: u8) -> u64 {
    debug_assert!(lanes <= 64);
    let mut word = 0u64;
    let mut l = 0;
    while l + 8 <= lanes {
        word |= u64::from(eq_byte8(kind, base + l, byte)) << l;
        l += 8;
    }
    while l < lanes {
        word |= u64::from(kind[base + l] == byte) << l;
        l += 1;
    }
    word
}

/// Pushes `base + i` for every set bit `i` of `word`, lowest first —
/// one iteration per survivor (`trailing_zeros` + clear-lowest-bit),
/// no per-lane branch.
#[inline]
fn select_into(base: Pre, mut word: u64, out: &mut Vec<Pre>) {
    while word != 0 {
        out.push(base + word.trailing_zeros());
        word &= word - 1;
    }
}

/// Pushes every `v` in `[from, to)` whose kind byte equals `byte`
/// (`keep_equal`) or differs from it, in order. `keep_equal` is a
/// constant at both call sites, so each gets its own branch-free loop.
#[inline(always)]
fn select_kind_range(
    kind: &[u8],
    byte: u8,
    keep_equal: bool,
    from: Pre,
    to: Pre,
    out: &mut Vec<Pre>,
) {
    let mut v = from as usize;
    let to = to as usize;
    debug_assert!(to <= kind.len());
    while v + 64 <= to {
        let eq = eq_lanes(kind, v, 64, byte);
        select_into(v as Pre, if keep_equal { eq } else { !eq }, out);
        v += 64;
    }
    if v < to {
        let lanes = to - v;
        let eq = eq_lanes(kind, v, lanes, byte);
        let word = if keep_equal {
            eq
        } else {
            !eq & ((1u64 << lanes) - 1)
        };
        select_into(v as Pre, word, out);
    }
}

/// Positions a name test inspects per any-compare: wide enough that the
/// compare vectorises, narrow enough that a hit wastes little.
const TAG_LANES: usize = 32;

/// Pushes every `v` in `[from, to)` with `tag[v] == tid && kind[v] ==
/// want`, in order. Names are sparse, so the range is read
/// [`TAG_LANES`] tags at a time through a branch-free any-compare
/// (`hit |= t == tid`, which the compiler turns into vector compares)
/// and only a chunk with a hit is looked at lane by lane — `kind` is
/// read for the hits alone (attribute names share the dictionary, so a
/// tag match is not yet an element).
fn select_tag_range(
    kind: &[u8],
    tags: &[TagId],
    want: u8,
    tid: TagId,
    from: Pre,
    to: Pre,
    out: &mut Vec<Pre>,
) {
    let mut base = from as usize;
    let mut push_hits = |base: usize, chunk: &[TagId]| {
        for (l, &t) in chunk.iter().enumerate() {
            if t == tid && kind[base + l] == want {
                out.push((base + l) as Pre);
            }
        }
    };
    let mut chunks = tags[base..to as usize].chunks_exact(TAG_LANES);
    for chunk in &mut chunks {
        if chunk.iter().fold(false, |hit, &t| hit | (t == tid)) {
            push_hits(base, chunk);
        }
        base += TAG_LANES;
    }
    push_hits(base, chunks.remainder());
}

/// Pushes every `v` in `[from, to)` satisfying `pred`, in order, via
/// 64-lane mask build + select. The predicate is evaluated for
/// **every** lane (branch-free accumulation), so this fits only loops
/// that already test every position — Basic-variant window scans,
/// never the data-dependent skipping scans.
pub(crate) fn select_where(from: Pre, to: Pre, out: &mut Vec<Pre>, pred: impl Fn(Pre) -> bool) {
    let mut v = from;
    while v < to {
        let lanes = (to - v).min(64);
        let mut word = 0u64;
        for l in 0..lanes {
            word |= u64::from(pred(v + l)) << l;
        }
        select_into(v, word, out);
        v += lanes;
    }
}

/// A step's node test, compiled once against a document: the one test
/// type every plane scan carries (see the module docs for the three
/// shapes it is asked in). `node()` — keep everything but attributes,
/// which no partitioning axis yields — is the test the plain
/// [`crate::descendant`] / [`crate::ancestor`] / [`crate::following`] /
/// [`crate::preceding`] entry points run with.
///
/// Two tests over one document compare equal when they keep the same
/// nodes.
#[derive(Debug, Clone, Copy)]
pub struct ScanTest<'d> {
    kind: &'d [u8],
    tags: &'d [TagId],
    shape: Shape,
    /// No more nodes than this pass the test in the whole document.
    at_most: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// `kind != Attribute`.
    Node,
    /// `kind == k`.
    Kind(u8),
    /// `tag == tid && kind == kind`.
    Tag { kind: u8, tid: TagId },
    /// Nothing: a name the dictionary lacks.
    Empty,
}

impl PartialEq for ScanTest<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape
    }
}

impl<'d> ScanTest<'d> {
    fn new(doc: &'d Doc, shape: Shape, at_most: usize) -> ScanTest<'d> {
        ScanTest {
            kind: doc.kind_column(),
            tags: doc.tag_column(),
            shape,
            at_most,
        }
    }

    /// `node()`: every node but the attributes.
    pub fn node(doc: &'d Doc) -> ScanTest<'d> {
        ScanTest::new(doc, Shape::Node, doc.len())
    }

    /// A kind test (`*`, `text()`, `comment()`, an untargeted
    /// `processing-instruction()`): nodes of exactly `kind`.
    pub fn kind(doc: &'d Doc, kind: NodeKind) -> ScanTest<'d> {
        let at_most = match kind {
            NodeKind::Element => doc.tags().total_elements(),
            _ => doc.len(),
        };
        ScanTest::new(doc, Shape::Kind(kind as u8), at_most)
    }

    /// A name test: nodes of `kind` carrying the name `name` — elements
    /// for the element axes, attributes for `attribute::`, and (targets
    /// are interned like names) processing instructions for
    /// `processing-instruction('name')`. A name the dictionary lacks
    /// compiles to the test that keeps nothing.
    pub fn named(doc: &'d Doc, kind: NodeKind, name: &str) -> ScanTest<'d> {
        match doc.tag_id(name) {
            Some(tid) => {
                let at_most = match kind {
                    NodeKind::Element => doc.tags().element_count(tid),
                    _ => doc.len(),
                };
                ScanTest::new(
                    doc,
                    Shape::Tag {
                        kind: kind as u8,
                        tid,
                    },
                    at_most,
                )
            }
            None => ScanTest::new(doc, Shape::Empty, 0),
        }
    }

    /// Does the test keep position `v`? For scan phases that visit
    /// their positions one by one.
    #[inline]
    pub fn keeps(&self, v: Pre) -> bool {
        let v = v as usize;
        match self.shape {
            Shape::Node => self.kind[v] != ATTR,
            Shape::Kind(k) => self.kind[v] == k,
            Shape::Tag { kind, tid } => self.tags[v] == tid && self.kind[v] == kind,
            Shape::Empty => false,
        }
    }

    /// Pushes every position of `[lo, hi)` the test keeps, in order —
    /// for comparison-free runs. Result-identical to
    /// `(lo..hi).filter(|&v| self.keeps(v))`.
    pub fn select_range(&self, lo: Pre, hi: Pre, out: &mut Vec<Pre>) {
        match self.shape {
            Shape::Node => select_kind_range(self.kind, ATTR, false, lo, hi, out),
            Shape::Kind(k) => select_kind_range(self.kind, k, true, lo, hi, out),
            Shape::Tag { kind, tid } => {
                select_tag_range(self.kind, self.tags, kind, tid, lo, hi, out)
            }
            Shape::Empty => {}
        }
    }

    /// Pushes every entry of the sorted `candidates` the test keeps, in
    /// order — for the operators with no scan to ride (structural axes,
    /// the naive and plain SQL joins' bases).
    pub fn select_candidates(&self, candidates: &[Pre], out: &mut Vec<Pre>) {
        out.extend(candidates.iter().copied().filter(|&v| self.keeps(v)));
    }

    /// How many entries a result buffer for a scan of `region` positions
    /// should reserve: the region, clamped by how many nodes can pass
    /// the test at all (a name's element count, the element count for
    /// `*`) — a 1 270-node answer must not travel in a plane-sized
    /// allocation.
    pub fn reserve_for(&self, region: usize) -> usize {
        region.min(self.at_most)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_doc;
    use proptest::prelude::*;

    #[test]
    fn byte8_detects_attrs_exactly() {
        let kind = [0u8, 1, 2, 1, 3, 4, 1, 0, 1, 1];
        for base in 0..=2usize {
            let m = eq_byte8(&kind, base, ATTR);
            for i in 0..8 {
                assert_eq!(
                    m >> i & 1 == 1,
                    kind[base + i] == ATTR,
                    "base {base} bit {i}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `node()`'s range select keeps exactly the non-attributes.
        #[test]
        fn select_non_attr_equals_scalar_filter(
            seed in 0u64..40,
            from_fr in 0.0f64..1.0,
            len in 0usize..400,
        ) {
            let doc = random_doc(seed, 600);
            let kind = doc.kind_column();
            let n = doc.len();
            let from = ((n as f64 * from_fr) as usize).min(n) as Pre;
            let to = (from as usize + len).min(n) as Pre;
            let want: Vec<Pre> =
                (from..to).filter(|&v| kind[v as usize] != ATTR).collect();
            let mut got = Vec::new();
            ScanTest::node(&doc).select_range(from, to, &mut got);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn select_where_equals_scalar_filter(seed in 0u64..20, to in 0u32..500) {
            let doc = random_doc(seed, 600);
            let post = doc.post_column();
            let to = to.min(doc.len() as Pre);
            let want: Vec<Pre> = (0..to).filter(|&v| post[v as usize].is_multiple_of(3)).collect();
            let mut got = Vec::new();
            select_where(0, to, &mut got, |v| post[v as usize].is_multiple_of(3));
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn unaligned_heads_and_subword_tails() {
        // Every (offset, length) combination around the word boundary:
        // the classic off-by-one surface.
        let doc = random_doc(3, 400);
        let kind = doc.kind_column();
        let node = ScanTest::node(&doc);
        let n = doc.len() as Pre;
        for from in 0..130u32.min(n) {
            for len in [0u32, 1, 7, 8, 63, 64, 65, 127, 128, 129] {
                let to = (from + len).min(n);
                let want: Vec<Pre> = (from..to).filter(|&v| kind[v as usize] != ATTR).collect();
                let mut got = Vec::new();
                node.select_range(from, to, &mut got);
                assert_eq!(got, want, "from {from} len {len}");
            }
        }
    }
}
