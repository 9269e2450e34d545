//! `following`- and `preceding`-axis evaluation.
//!
//! §3.1's empty-region analysis collapses these axes: after pruning, the
//! context is a single node and the staircase join "degenerates to a single
//! region query". With Equation (1) exact, both regions are pre ranges
//! read without a single postorder comparison:
//!
//! * `following(c)` is the contiguous pre range *after* `c`'s subtree,
//!   `(end(c), n)`.
//! * `preceding(c)` is the prefix `[0, c)` minus `c`'s ancestors: one
//!   range select per gap of the ancestor chain, and the `level(c)`
//!   ancestors themselves are the only positions probed one by one.
//!
//! Each axis has **one** scan, over a pre range: [`following_from`] and
//! [`preceding_from`] read only what a region in hand lacks — the
//! single-context entries ([`following_pooled`], [`preceding_pooled`])
//! start from the empty region — and every run is one
//! [`ScanTest::select_range`]. The regions nest: a `following` region
//! is a suffix of the plane, so a narrower one is a tail of a wider one,
//! and `preceding(c) ⊆ preceding(c')` whenever `c < c'`, up to at most
//! `height` ancestors of `c'` that the wider region holds and the narrower
//! one does not.

use staircase_accel::{Context, Doc, Pre, NO_PARENT};

use crate::batch::Scratch;
use crate::mask::ScanTest;
use crate::stats::StepStats;

/// Evaluates `context/following::node()`: [`following_pooled`] with the
/// `node()` test on a fresh scratch pool.
pub fn following(doc: &Doc, context: &Context) -> (Context, StepStats) {
    following_pooled(doc, context, &ScanTest::node(doc), &mut Scratch::new())
}

/// Evaluates `context/following::test`, the node test riding the suffix
/// copy, into a buffer from `scratch`.
///
/// Pruning collapses the context to the node with the smallest post
/// rank; its region is the suffix after its subtree, read by one range
/// select.
pub fn following_pooled<'d>(
    doc: &'d Doc,
    context: &Context,
    test: &ScanTest<'d>,
    scratch: &mut Scratch,
) -> (Context, StepStats) {
    let mut stats = StepStats {
        context_in: context.len(),
        ..Default::default()
    };
    let Some(c) = pruned_following(doc, context) else {
        return (Context::empty(), stats);
    };
    let n = doc.len() as Pre;
    let start = start_after(doc, c);
    let (result, read) = following_from(n, &[], start, test, scratch);
    stats.context_out = 1;
    stats.partitions = 1;
    stats.nodes_skipped = u64::from(start.saturating_sub(c + 1));
    stats.nodes_copied = read.nodes_copied;
    stats.result_size = result.len();
    (Context::from_sorted(result), stats)
}

/// The context node `following` pruning keeps: the one with the smallest
/// post rank, whose region contains every other one's.
fn pruned_following(doc: &Doc, context: &Context) -> Option<Pre> {
    let post = doc.post_column();
    context.iter().min_by_key(|&c| post[c as usize])
}

/// The first node after `c`'s subtree (exact via Equation (1)), capped
/// at the plane's end.
fn start_after(doc: &Doc, c: Pre) -> Pre {
    (c + 1 + doc.subtree_size(c)).min(doc.len() as Pre)
}

/// Where `context/following::*`'s region starts: the first node after
/// the pruned context node's subtree; `None` for an empty context. The
/// region is the suffix `[start, n)`.
pub fn following_start(doc: &Doc, context: &Context) -> Option<Pre> {
    pruned_following(doc, context).map(|c| start_after(doc, c))
}

/// What `test` keeps of the `following` region `[start, n)`, given
/// `held`: what it keeps of `[held_start, n)`. A narrower region is the
/// tail of `held` and reads nothing; a wider one reads only
/// `[start, held_start)`. `held_start = n` with nothing held is the
/// whole scan. The statistics count the positions read
/// ([`StepStats::nodes_copied`]).
pub fn following_from(
    held_start: Pre,
    held: &[Pre],
    start: Pre,
    test: &ScanTest<'_>,
    scratch: &mut Scratch,
) -> (Vec<Pre>, StepStats) {
    let mut out = scratch.take();
    let mut stats = StepStats::default();
    if start >= held_start {
        out.extend_from_slice(&held[held.partition_point(|&v| v < start)..]);
    } else {
        out.reserve(test.reserve_for((held_start - start) as usize) + held.len());
        // Under a budget a trip leaves `out` partial, which the governed
        // caller discards.
        let mut gov = crate::governor::Ticker::ambient();
        gov.charged_run(start, held_start, &mut 0, |a, b| {
            test.select_range(a, b, &mut out)
        });
        out.extend_from_slice(held);
        stats.nodes_copied = u64::from(held_start - start);
    }
    stats.result_size = out.len();
    (out, stats)
}

/// Evaluates `context/preceding::node()`: [`preceding_pooled`] with the
/// `node()` test on a fresh scratch pool.
pub fn preceding(doc: &Doc, context: &Context) -> (Context, StepStats) {
    preceding_pooled(doc, context, &ScanTest::node(doc), &mut Scratch::new())
}

/// Evaluates `context/preceding::test`, the node test riding the scan,
/// into a buffer from `scratch`.
///
/// Pruning collapses the context to its last node `c`; the region is
/// `[0, c)` less `c`'s `level(c)` ancestors, read as one range select
/// per gap between them.
pub fn preceding_pooled<'d>(
    doc: &'d Doc,
    context: &Context,
    test: &ScanTest<'d>,
    scratch: &mut Scratch,
) -> (Context, StepStats) {
    let mut stats = StepStats {
        context_in: context.len(),
        ..Default::default()
    };
    let Some(bound) = preceding_bound(context) else {
        return (Context::empty(), stats);
    };
    let (result, read) = preceding_from(doc, 0, &[], bound, test, scratch);
    stats.context_out = 1;
    stats.partitions = 1;
    stats.nodes_scanned = read.nodes_scanned;
    stats.nodes_copied = read.nodes_copied;
    stats.result_size = result.len();
    (Context::from_sorted(result), stats)
}

/// The context node `preceding` pruning keeps — the last one — whose
/// region lies before it; `None` for an empty context.
pub fn preceding_bound(context: &Context) -> Option<Pre> {
    context.as_slice().last().copied()
}

/// What `test` keeps of `preceding(bound)`, given `held`: what it keeps
/// of `preceding(held_bound)`.
///
/// * An earlier `bound` is the head of `held` before it, less the
///   ancestors of `bound` (at most `height`), and reads no position.
/// * A later `bound` keeps all of `held`, adds the ancestors of
///   `held_bound` that precede `bound`, and reads only
///   `[held_bound, bound)`. `held_bound = 0` with nothing held is the
///   whole scan.
///
/// The statistics count the positions read: the ancestor probes
/// ([`StepStats::nodes_scanned`]) and the gaps between `bound`'s
/// ancestors ([`StepStats::nodes_copied`]).
pub fn preceding_from<'d>(
    doc: &'d Doc,
    held_bound: Pre,
    held: &[Pre],
    bound: Pre,
    test: &ScanTest<'d>,
    scratch: &mut Scratch,
) -> (Vec<Pre>, StepStats) {
    let mut out = scratch.take();
    let mut chain = scratch.take();
    let mut stats = StepStats::default();
    if bound <= held_bound {
        // Every node of `held` before `bound` precedes it or is one of
        // its ancestors; the ancestors go.
        let head = &held[..held.partition_point(|&v| v < bound)];
        out.reserve(head.len());
        let mut from = 0;
        for &a in ancestors_top_down(doc, bound, &mut chain) {
            let at = from + head[from..].partition_point(|&v| v < a);
            out.extend_from_slice(&head[from..at]);
            from = at + usize::from(head.get(at) == Some(&a));
        }
        out.extend_from_slice(&head[from..]);
    } else {
        // Every node of `held` precedes `bound` too (its subtree ends
        // before `held_bound`); of the nodes before `held_bound`, only
        // its ancestors may precede `bound` without preceding it.
        // All of `held`, at most `height` ancestors of `held_bound`, and at
        // most the positions the scan reads.
        let fixups = usize::from(doc.level(held_bound));
        out.reserve(held.len() + fixups + test.reserve_for((bound - held_bound) as usize));
        let post = doc.post_column();
        let mut gov = crate::governor::Ticker::ambient();
        let mut added = 0;
        let mut from = 0;
        for &a in ancestors_top_down(doc, held_bound, &mut chain) {
            stats.nodes_scanned += 1;
            if gov.tick(1) {
                break; // the governed caller discards `out`
            }
            if post[a as usize] < post[bound as usize] && test.keeps(a) {
                let at = from + held[from..].partition_point(|&v| v < a);
                out.extend_from_slice(&held[from..at]);
                out.push(a);
                from = at;
                added += 1;
            }
        }
        out.extend_from_slice(&held[from..]);
        debug_assert_eq!(out.len(), held.len() + added);
        let chain = ancestors_top_down(doc, bound, &mut chain);
        let (scanned, copied) = preceding_scan(chain, held_bound, bound, test, &mut out);
        stats.nodes_scanned += scanned;
        stats.nodes_copied = copied;
    }
    scratch.put(chain);
    stats.result_size = out.len();
    (out, stats)
}

/// The proper ancestors of `v`, root first, in `chain` (cleared first).
fn ancestors_top_down<'c>(doc: &Doc, v: Pre, chain: &'c mut Vec<Pre>) -> &'c [Pre] {
    chain.clear();
    let mut p = doc.parent(v);
    while p != NO_PARENT {
        chain.push(p);
        p = doc.parent(p);
    }
    chain.reverse();
    chain
}

/// `preceding(bound)` restricted to positions `[from, bound)`, appending
/// what `test` keeps to `out`; returns (scanned, copied). `chain` is
/// `bound`'s ancestors, root first.
///
/// The region is every position but those ancestors, so the ancestors
/// in range are probed (charged as scanned) and each gap between them is
/// one range select (charged as copied): no position is compared, and
/// `scanned + copied = bound − from`, whatever `from` is.
fn preceding_scan(
    chain: &[Pre],
    from: Pre,
    bound: Pre,
    test: &ScanTest<'_>,
    out: &mut Vec<Pre>,
) -> (u64, u64) {
    let (mut scanned, mut copied) = (0u64, 0u64);
    let mut gov = crate::governor::Ticker::ambient();
    let mut lo = from;
    for &a in &chain[chain.partition_point(|&a| a < from)..] {
        if gov.charged_run(lo, a, &mut copied, |x, y| test.select_range(x, y, out)) {
            return (scanned, copied);
        }
        scanned += 1;
        if gov.tick(1) {
            return (scanned, copied);
        }
        lo = a + 1;
    }
    gov.charged_run(lo, bound, &mut copied, |x, y| test.select_range(x, y, out));
    (scanned, copied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{figure1, random_context, random_doc, reference};
    use staircase_accel::Axis;

    #[test]
    fn figure1_following_of_f() {
        let doc = figure1();
        let (got, stats) = following(&doc, &Context::singleton(5));
        assert_eq!(got.as_slice(), &[8, 9]); // i, j
        assert_eq!(stats.nodes_scanned, 0, "following needs no comparisons");
    }

    #[test]
    fn figure1_preceding_of_f() {
        let doc = figure1();
        let (got, _) = preceding(&doc, &Context::singleton(5));
        assert_eq!(got.as_slice(), &[1, 2, 3]); // b, c, d
    }

    #[test]
    fn multi_context_matches_reference() {
        for seed in 0..25 {
            let doc = random_doc(seed, 400);
            let ctx = random_context(&doc, seed ^ 0x7777, 25);
            if ctx.is_empty() {
                continue;
            }
            let (f, _) = following(&doc, &ctx);
            assert_eq!(
                f.as_slice(),
                &reference(&doc, &ctx, Axis::Following)[..],
                "following seed {seed}"
            );
            let (p, _) = preceding(&doc, &ctx);
            assert_eq!(
                p.as_slice(),
                &reference(&doc, &ctx, Axis::Preceding)[..],
                "preceding seed {seed}"
            );
        }
    }

    #[test]
    fn following_of_root_is_empty() {
        let doc = figure1();
        let (got, _) = following(&doc, &Context::singleton(0));
        assert!(got.is_empty());
    }

    #[test]
    fn preceding_of_root_is_empty() {
        let doc = figure1();
        let (got, stats) = preceding(&doc, &Context::singleton(0));
        assert!(got.is_empty());
        assert_eq!(stats.nodes_touched(), 0);
    }

    #[test]
    fn empty_context() {
        let doc = figure1();
        assert!(following(&doc, &Context::empty()).0.is_empty());
        assert!(preceding(&doc, &Context::empty()).0.is_empty());
    }

    #[test]
    fn preceding_touches_result_plus_ancestors() {
        // Only c's ancestors are probed; every gap between them is
        // copied.
        for seed in 0..10 {
            let doc = random_doc(seed, 800);
            let deepest = doc.pres().max_by_key(|&p| doc.level(p)).unwrap();
            let (_, stats) = preceding(&doc, &Context::singleton(deepest));
            // Unfiltered region size (attributes included):
            let region = doc
                .pres()
                .filter(|&v| v < deepest && doc.post(v) < doc.post(deepest))
                .count() as u64;
            let ancestors = u64::from(doc.level(deepest));
            assert_eq!(
                stats.nodes_scanned, ancestors,
                "seed {seed}: one probe each"
            );
            assert!(
                stats.nodes_touched() <= region + ancestors + 1,
                "seed {seed}: touched {} > {} + {}",
                stats.nodes_touched(),
                region,
                ancestors
            );
        }
    }

    #[test]
    fn attributes_excluded() {
        let doc = staircase_accel::Doc::from_xml(r#"<a x="1"><b y="2"/><c/><d/></a>"#).unwrap();
        // pre: a=0 @x=1 b=2 @y=3 c=4 d=5; context c (pre 4).
        let (f, _) = following(&doc, &Context::singleton(4));
        assert_eq!(f.as_slice(), &[5]);
        let (p, _) = preceding(&doc, &Context::singleton(4));
        assert_eq!(p.as_slice(), &[2]);
    }

    #[test]
    fn following_skips_subtree_exactly() {
        let doc = figure1();
        // e (pre 4) has subtree size 5; following must skip f..j.
        let (got, stats) = following(&doc, &Context::singleton(4));
        assert!(got.is_empty());
        assert_eq!(stats.nodes_skipped, 5);
    }

    /// A region in hand, narrowed or widened to another bound, is the
    /// region of that bound computed from scratch — on every test — and
    /// a wider region reads only what the held one lacks.
    #[test]
    fn regions_rebound_from_a_held_region() {
        for seed in 0..12 {
            let doc = random_doc(seed, if seed < 4 { 9000 } else { 500 });
            let n = doc.len() as Pre;
            let tests = [
                ScanTest::node(&doc),
                ScanTest::named(&doc, staircase_accel::NodeKind::Element, "p"),
            ];
            let mut scratch = Scratch::new();
            let nodes: Vec<Pre> = (0..6)
                .map(|i| (seed * 7919 + i * 104_729) as Pre % n)
                .collect();
            for test in &tests {
                for &a in &nodes {
                    for &b in &nodes {
                        // following
                        let (sa, sb) = (start_after(&doc, a), start_after(&doc, b));
                        let held = following_from(n, &[], sa, test, &mut scratch).0;
                        let (got, st) = following_from(sa, &held, sb, test, &mut scratch);
                        let want = following_from(n, &[], sb, test, &mut scratch).0;
                        assert_eq!(got, want, "following seed {seed} {a} -> {b}");
                        assert_eq!(st.nodes_touched(), u64::from(sa.saturating_sub(sb)));
                        // preceding
                        let held = preceding_from(&doc, 0, &[], a, test, &mut scratch).0;
                        let (got, st) = preceding_from(&doc, a, &held, b, test, &mut scratch);
                        let (want, alone) = preceding_from(&doc, 0, &[], b, test, &mut scratch);
                        assert_eq!(got, want, "preceding seed {seed} {a} -> {b}");
                        let reference: Vec<Pre> =
                            reference(&doc, &Context::singleton(b), Axis::Preceding)
                                .into_iter()
                                .filter(|&v| test.keeps(v))
                                .collect();
                        assert_eq!(want, reference, "preceding seed {seed} bound {b}");
                        if b <= a {
                            assert_eq!(st.nodes_touched(), 0, "a narrower region reads nothing");
                        } else {
                            let fixups = u64::from(doc.level(a));
                            assert!(
                                st.nodes_touched() <= u64::from(b - a) + fixups
                                    && st.nodes_touched() <= alone.nodes_touched() + fixups,
                                "preceding seed {seed} {a} -> {b}: read {}",
                                st.nodes_touched()
                            );
                        }
                    }
                }
            }
        }
    }
}
