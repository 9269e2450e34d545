//! `following`- and `preceding`-axis evaluation.
//!
//! §3.1's empty-region analysis collapses these axes: after pruning, the
//! context is a single node and the staircase join "degenerates to a single
//! region query". Both implementations exploit the plane's structure so
//! they touch far fewer nodes than the region's size suggests:
//!
//! * `following(c)` is the contiguous pre range *after* `c`'s subtree —
//!   Equation (1) gives the exact start, no comparisons at all.
//! * `preceding(c)` scans the prefix `[0, c)`, but whenever it finds a
//!   preceding node it copies that node's guaranteed subtree block without
//!   comparisons; only `c`'s ancestors are inspected individually.

use staircase_accel::{Context, Doc, NodeKind, Pre};

use crate::batch::Scratch;
use crate::cursor::seek_from;
use crate::morsel::morsel_count;
use crate::pool::WorkerPool;
use crate::prune::{prune_following, prune_preceding};
use crate::stats::StepStats;

/// Evaluates `context/following::node()`.
pub fn following(doc: &Doc, context: &Context) -> (Context, StepStats) {
    let mut stats = StepStats {
        context_in: context.len(),
        ..Default::default()
    };
    let pruned = prune_following(doc, context);
    stats.context_out = pruned.len();
    let Some(&c) = pruned.as_slice().first() else {
        return (Context::empty(), stats);
    };
    stats.partitions = 1;

    // First node after c's subtree: exact via Equation (1).
    let start = c + 1 + doc.subtree_size(c);
    let n = doc.len() as Pre;
    stats.nodes_skipped = u64::from(start.min(n).saturating_sub(c + 1));
    let kind = doc.kind_column();
    let mut result = Vec::with_capacity(n.saturating_sub(start) as usize);
    // The whole suffix is copied position by position whatever the
    // attribute filter says, so the counter is arithmetic and the
    // filter is a masked select — chunked when governed so a trip
    // cannot hide behind one plane-sized copy.
    stats.nodes_copied = u64::from(n.saturating_sub(start));
    let mut gov = crate::governor::Ticker::ambient();
    let mut lo = start.min(n);
    while lo < n {
        let hi = if gov.active() {
            n.min(lo + crate::governor::SCAN_CHUNK)
        } else {
            n
        };
        crate::mask::select_non_attr(kind, lo, hi, &mut result);
        if gov.tick(u64::from(hi - lo)) {
            break;
        }
        lo = hi;
    }
    stats.result_size = result.len();
    (Context::from_sorted(result), stats)
}

/// Evaluates `context/preceding::node()`.
pub fn preceding(doc: &Doc, context: &Context) -> (Context, StepStats) {
    let mut stats = StepStats {
        context_in: context.len(),
        ..Default::default()
    };
    let pruned = prune_preceding(doc, context);
    stats.context_out = pruned.len();
    let Some(&c) = pruned.as_slice().first() else {
        return (Context::empty(), stats);
    };
    stats.partitions = 1;

    let post = doc.post_column();
    let kind = doc.kind_column();
    let attr = NodeKind::Attribute as u8;
    let bound = post[c as usize];
    let mut result = Vec::new();
    let mut gov = crate::governor::Ticker::ambient();
    let mut v: Pre = 0;
    'scan: while v < c {
        stats.nodes_scanned += 1;
        if gov.tick(1) {
            break;
        }
        if post[v as usize] < bound {
            // v precedes c — and so does v's entire subtree, which cannot
            // contain c. Copy the guaranteed block without comparisons.
            if kind[v as usize] != attr {
                result.push(v);
            }
            let run = post[v as usize].saturating_sub(v).min(c - v - 1);
            // Guaranteed-block copy: every run position is charged, so
            // the attribute filter runs through the mask kernel —
            // chunked when governed.
            stats.nodes_copied += u64::from(run);
            let run_end = v + 1 + run;
            let mut lo = v + 1;
            while lo < run_end {
                let hi = if gov.active() {
                    run_end.min(lo + crate::governor::SCAN_CHUNK)
                } else {
                    run_end
                };
                crate::mask::select_non_attr(kind, lo, hi, &mut result);
                if gov.tick(u64::from(hi - lo)) {
                    break 'scan;
                }
                lo = hi;
            }
            v = run_end;
        } else {
            // v is an ancestor of c: inspect it alone and move on.
            v += 1;
        }
    }
    stats.result_size = result.len();
    (Context::from_sorted(result), stats)
}

/// Evaluates `contexts[k]/following::node()` for every `k` with **one**
/// suffix scan: the multi-context form of [`following`].
///
/// Pruning collapses every context to a single node, whose following
/// region is the contiguous pre range after its subtree — so the K
/// regions are *nested suffixes* of the plane. One filtered scan from
/// the earliest start serves everyone: each lane's result is a suffix
/// slice of the widest lane's, and the single physical pass is
/// attributed to the lane that needed all of it.
pub fn following_many(
    doc: &Doc,
    contexts: &[&Context],
    scratch: &mut Scratch,
) -> Vec<(Context, StepStats)> {
    let n = doc.len() as Pre;
    let kind = doc.kind_column();

    // Per lane: the pruned context node and its region start.
    let starts: Vec<Option<(Pre, Pre)>> = contexts
        .iter()
        .map(|ctx| {
            prune_following(doc, ctx)
                .as_slice()
                .first()
                .map(|&c| (c, (c + 1 + doc.subtree_size(c)).min(n)))
        })
        .collect();
    let widest = starts.iter().flatten().map(|&(_, s)| s).min();

    // The one shared scan, from the earliest region start — chunked
    // when governed; a trip leaves `base` (and thus every lane) partial,
    // which the governed caller discards.
    let mut base = scratch.take();
    if let Some(start) = widest {
        let mut gov = crate::governor::Ticker::ambient();
        let mut lo = start;
        while lo < n {
            let hi = if gov.active() {
                n.min(lo + crate::governor::SCAN_CHUNK)
            } else {
                n
            };
            crate::mask::select_non_attr(kind, lo, hi, &mut base);
            if gov.tick(u64::from(hi - lo)) {
                break;
            }
            lo = hi;
        }
    }

    // The scan's physical reads go to the first lane with the widest
    // region; every other lane shares.
    let payer = starts
        .iter()
        .position(|s| matches!((s, widest), (Some((_, a)), Some(b)) if *a == b));
    let out = contexts
        .iter()
        .enumerate()
        .map(|(i, ctx)| {
            let mut stats = StepStats {
                context_in: ctx.len(),
                ..Default::default()
            };
            let Some((c, start)) = starts[i] else {
                return (Context::empty(), stats);
            };
            stats.context_out = 1;
            stats.partitions = 1;
            stats.nodes_skipped = u64::from(start.saturating_sub(c + 1));
            if payer == Some(i) {
                stats.nodes_copied = u64::from(n.saturating_sub(start));
            }
            // A one-off search per lane (lanes arrive in no order).
            let from = base.partition_point(|&v| v < start);
            let mut result = scratch.take();
            result.extend_from_slice(&base[from..]);
            stats.result_size = result.len();
            (Context::from_sorted(result), stats)
        })
        .collect();
    scratch.put(base);
    out
}

/// Evaluates `contexts[k]/preceding::node()` for every `k` with **one**
/// left-to-right scan: the multi-context form of [`preceding`].
///
/// Pruning collapses every context to its last node `cₖ`; the scan walks
/// `[0, max cₖ)` once, lanes dropping out as the cursor passes their
/// boundary. A position preceding the *earliest* active boundary
/// precedes every later one too (its subtree cannot contain any of
/// them), so the sequential join's comparison-free copy of guaranteed
/// subtree blocks serves all active lanes at once; only ancestors of the
/// earliest boundary are probed per lane. Physical reads are attributed
/// to the widest lane (which needs every position); other lanes report
/// zero incremental touches.
pub fn preceding_many(
    doc: &Doc,
    contexts: &[&Context],
    scratch: &mut Scratch,
) -> Vec<(Context, StepStats)> {
    // Pruned boundary per lane; unique boundaries ascending share one
    // result buffer each.
    let bounds: Vec<Option<Pre>> = contexts
        .iter()
        .map(|ctx| prune_preceding(doc, ctx).as_slice().first().copied())
        .collect();
    let mut uniq: Vec<Pre> = bounds.iter().flatten().copied().collect();
    uniq.sort_unstable();
    uniq.dedup();
    let mut results: Vec<Vec<Pre>> = uniq.iter().map(|_| scratch.take()).collect();

    let (scanned, copied) = match uniq.last() {
        Some(&c_max) => preceding_scan_range(doc, &uniq, 0, c_max, &mut results),
        None => (0, 0),
    };

    // Distribute: the widest boundary's first lane pays for the scan;
    // duplicates clone, the last user of each buffer takes it.
    preceding_distribute(contexts, &bounds, &uniq, results, scanned, copied)
}

/// The preceding scan restricted to positions `[from, to)`, pushing into
/// one result buffer per unique boundary (`results` parallel to `uniq`,
/// ascending; `uniq` non-empty with `to ≤ uniq.last()`).
///
/// The full scan is the `[0, c_max)` range. Any other entry point first
/// *reconstructs* the cursor state at `from`: the only way `from` can sit
/// inside a comparison-free copy run is under a run started by one of its
/// **ancestors** (a run is a subtree prefix, and a subtree containing
/// `from` belongs to an ancestor), so walking `from`'s ancestor chain
/// top-down — skipping ancestors covered by an earlier ancestor's run,
/// exactly as the left-to-right scan would — recovers in O(h · log K)
/// whether `from` is mid-run and for which boundary set. Per position the
/// behaviour (and thus the scanned/copied accounting, counted
/// per-position here) is identical to the full scan, so range results
/// concatenate to the full scan's and per-range counters sum to its
/// totals (asserted by the parallel-equivalence tests).
fn preceding_scan_range(
    doc: &Doc,
    uniq: &[Pre],
    from: Pre,
    to: Pre,
    results: &mut [Vec<Pre>],
) -> (u64, u64) {
    let post = doc.post_column();
    let kind = doc.kind_column();
    let attr = NodeKind::Attribute as u8;
    let mut scanned = 0u64;
    let mut copied = 0u64;
    let mut gov = crate::governor::Ticker::ambient();
    let mut v = from;
    // Cursor into `uniq`: the boundaries at or before the position at
    // hand are complete. Everything below asks in ascending order.
    let mut lo = 0usize;

    if from > 0 {
        // Reconstruct: is `from` inside a run? Walk its ancestors in
        // document order, tracking the furthest run end among the ones
        // the scan actually visits (an ancestor inside an earlier run is
        // skipped by the scan and starts no run of its own).
        let mut chain: Vec<Pre> = Vec::new();
        let mut p = doc.parent(from);
        while p != staircase_accel::NO_PARENT {
            chain.push(p);
            p = doc.parent(p);
        }
        let mut cover: Option<(Pre, usize)> = None; // (run end, head's boundary index)
        for &u in chain.iter().rev() {
            if cover.is_some_and(|(end, _)| u <= end) {
                continue; // covered: the scan never visits u as a head
            }
            lo = seek_from(uniq, lo, |&b| b <= u);
            let Some(&first) = uniq.get(lo) else { break };
            if post[u as usize] < post[first as usize] {
                let run_end = u + post[u as usize].saturating_sub(u).min(first - u - 1);
                if cover.is_none_or(|(end, _)| run_end > end) {
                    cover = Some((run_end, lo));
                }
            }
        }
        if let Some((run_end, lo)) = cover {
            if run_end >= from {
                // Mid-run: finish the covered stretch that falls in range.
                for w in from..=run_end.min(to.saturating_sub(1)) {
                    copied += 1;
                    if gov.tick(1) {
                        return (scanned, copied);
                    }
                    if kind[w as usize] != attr {
                        for r in &mut results[lo..] {
                            r.push(w);
                        }
                    }
                }
                v = run_end + 1;
            }
        }
    }

    lo = seek_from(uniq, lo, |&b| b <= v);
    while v < to {
        while lo < uniq.len() && uniq[lo] <= v {
            lo += 1; // this boundary's region is complete
        }
        if lo == uniq.len() {
            break;
        }
        let first = uniq[lo];
        scanned += 1;
        if gov.tick(1) {
            return (scanned, copied);
        }
        if post[v as usize] < post[first as usize] {
            // v precedes the earliest active boundary — and therefore
            // every later one. Copy v and its guaranteed subtree block to
            // all active lanes without further comparisons. A run
            // overshooting `to` is finished by the next range's
            // reconstruction.
            let run = post[v as usize].saturating_sub(v).min(first - v - 1);
            if kind[v as usize] != attr {
                for r in &mut results[lo..] {
                    r.push(v);
                }
            }
            let stop = (v + run).min(to.saturating_sub(1));
            for w in v + 1..=stop {
                copied += 1;
                if gov.tick(1) {
                    return (scanned, copied);
                }
                if kind[w as usize] != attr {
                    for r in &mut results[lo..] {
                        r.push(w);
                    }
                }
            }
            v += 1 + run;
        } else {
            // v is an ancestor of the earliest boundary; it may still
            // precede later ones — probe each individually.
            for (u, r) in uniq.iter().zip(results.iter_mut()).skip(lo + 1) {
                if post[v as usize] < post[*u as usize] && kind[v as usize] != attr {
                    r.push(v);
                }
            }
            v += 1;
        }
    }
    (scanned, copied)
}

/// The parallel form of [`following_many`]: the one shared suffix scan
/// is built by range chunks on `pool`, and the per-lane suffix copies run
/// as pool tasks. Results and statistics are identical to the sequential
/// form; a width-1 pool (or a region too small to amortize handoff)
/// degenerates to it outright.
pub fn following_many_par(
    doc: &Doc,
    contexts: &[&Context],
    pool: &WorkerPool,
    scratch: &mut Scratch,
) -> Vec<(Context, StepStats)> {
    let n = doc.len() as Pre;
    let kind = doc.kind_column();

    let starts: Vec<Option<(Pre, Pre)>> = contexts
        .iter()
        .map(|ctx| {
            prune_following(doc, ctx)
                .as_slice()
                .first()
                .map(|&c| (c, (c + 1 + doc.subtree_size(c)).min(n)))
        })
        .collect();
    let widest = starts.iter().flatten().map(|&(_, s)| s).min();
    let lanes = starts.iter().flatten().count() as u64;
    let work = widest.map_or(0, |s| u64::from(n - s)) * lanes.max(1);
    let Some(k) = (pool.width() > 1)
        .then(|| morsel_count(work, pool.width()))
        .flatten()
    else {
        return following_many(doc, contexts, scratch);
    };

    // Phase 1: the shared scan, chunked by range.
    let start = widest.expect("work > 0 implies a widest region");
    let chunk = u64::from(n - start).div_ceil(k as u64).max(1) as Pre;
    let ranges: Vec<(Pre, Pre)> = (0..k as Pre)
        .map(|i| {
            let lo = start + i * chunk;
            (lo.min(n), lo.saturating_add(chunk).min(n))
        })
        .filter(|&(lo, hi)| lo < hi)
        .collect();
    let buffers: Vec<Vec<Pre>> = ranges.iter().map(|_| scratch.take()).collect();
    let parts = pool.run(
        ranges
            .into_iter()
            .zip(buffers)
            .map(|((lo, hi), mut buf)| {
                move || {
                    crate::mask::select_non_attr(kind, lo, hi, &mut buf);
                    buf
                }
            })
            .collect(),
    );
    let mut base = scratch.take();
    base.reserve(parts.iter().map(Vec::len).sum());
    for part in parts {
        base.extend_from_slice(&part);
        scratch.put(part);
    }

    // Phase 2: per-lane suffix copies, one task each.
    let payer = starts
        .iter()
        .position(|s| matches!((s, widest), (Some((_, a)), Some(b)) if *a == b));
    let copies: Vec<Option<Vec<Pre>>> = {
        let live: Vec<(usize, Pre)> = starts
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|(_, start)| (i, start)))
            .collect();
        let buffers: Vec<Vec<Pre>> = live.iter().map(|_| scratch.take()).collect();
        let base = &base;
        let filled = pool.run(
            live.iter()
                .zip(buffers)
                .map(|(&(_, start), mut buf)| {
                    move || {
                        // A one-off search per lane task.
                        let from = base.partition_point(|&v| v < start);
                        buf.extend_from_slice(&base[from..]);
                        buf
                    }
                })
                .collect(),
        );
        let mut slots: Vec<Option<Vec<Pre>>> = starts.iter().map(|_| None).collect();
        for ((i, _), buf) in live.into_iter().zip(filled) {
            slots[i] = Some(buf);
        }
        slots
    };
    scratch.put(base);

    contexts
        .iter()
        .enumerate()
        .zip(copies)
        .map(|((i, ctx), copy)| {
            let mut stats = StepStats {
                context_in: ctx.len(),
                ..Default::default()
            };
            let Some((c, start)) = starts[i] else {
                return (Context::empty(), stats);
            };
            stats.context_out = 1;
            stats.partitions = 1;
            stats.nodes_skipped = u64::from(start.saturating_sub(c + 1));
            if payer == Some(i) {
                stats.nodes_copied = u64::from(n.saturating_sub(start));
            }
            let result = copy.expect("every live lane produced a copy");
            stats.result_size = result.len();
            (Context::from_sorted(result), stats)
        })
        .collect()
}

/// The parallel form of [`preceding_many`]: the one shared left-to-right
/// scan is split into pre-range chunks, each entered via
/// `preceding_scan_range`'s state reconstruction, so per-chunk results
/// concatenate to the sequential scan's and the per-chunk access
/// counters sum to its totals exactly.
pub fn preceding_many_par(
    doc: &Doc,
    contexts: &[&Context],
    pool: &WorkerPool,
    scratch: &mut Scratch,
) -> Vec<(Context, StepStats)> {
    let bounds: Vec<Option<Pre>> = contexts
        .iter()
        .map(|ctx| prune_preceding(doc, ctx).as_slice().first().copied())
        .collect();
    let mut uniq: Vec<Pre> = bounds.iter().flatten().copied().collect();
    uniq.sort_unstable();
    uniq.dedup();

    let c_max = uniq.last().copied().unwrap_or(0);
    let Some(k) = (pool.width() > 1)
        .then(|| morsel_count(u64::from(c_max), pool.width()))
        .flatten()
    else {
        return preceding_many(doc, contexts, scratch);
    };

    // Chunked shared scan: each chunk fills one buffer per unique
    // boundary; chunk-major concatenation preserves document order.
    let chunk = u64::from(c_max).div_ceil(k as u64).max(1) as Pre;
    let ranges: Vec<(Pre, Pre)> = (0..k as Pre)
        .map(|i| ((i * chunk).min(c_max), ((i + 1) * chunk).min(c_max)))
        .filter(|&(lo, hi)| lo < hi)
        .collect();
    let buffer_sets: Vec<Vec<Vec<Pre>>> = ranges
        .iter()
        .map(|_| uniq.iter().map(|_| scratch.take()).collect())
        .collect();
    let uniq_ref = &uniq;
    let parts = pool.run(
        ranges
            .into_iter()
            .zip(buffer_sets)
            .map(|((lo, hi), mut bufs)| {
                move || {
                    let (scanned, copied) = preceding_scan_range(doc, uniq_ref, lo, hi, &mut bufs);
                    (bufs, scanned, copied)
                }
            })
            .collect(),
    );
    let mut results: Vec<Vec<Pre>> = uniq.iter().map(|_| scratch.take()).collect();
    let mut scanned = 0u64;
    let mut copied = 0u64;
    for (bufs, s, c) in parts {
        for (r, buf) in results.iter_mut().zip(bufs) {
            r.extend_from_slice(&buf);
            scratch.put(buf);
        }
        scanned += s;
        copied += c;
    }

    preceding_distribute(contexts, &bounds, &uniq, results, scanned, copied)
}

/// The distribution tail shared by [`preceding_many`] and
/// [`preceding_many_par`]: per-boundary buffers fan out to the lanes,
/// duplicates cloning and the widest boundary's first lane paying for
/// the scan.
fn preceding_distribute(
    contexts: &[&Context],
    bounds: &[Option<Pre>],
    uniq: &[Pre],
    results: Vec<Vec<Pre>>,
    scanned: u64,
    copied: u64,
) -> Vec<(Context, StepStats)> {
    let payer = uniq
        .last()
        .and_then(|&m| bounds.iter().position(|b| *b == Some(m)));
    let mut users: Vec<usize> = uniq
        .iter()
        .map(|u| bounds.iter().filter(|b| **b == Some(*u)).count())
        .collect();
    let mut finished: Vec<Option<Context>> = results
        .into_iter()
        .map(|r| Some(Context::from_sorted(r)))
        .collect();
    bounds
        .iter()
        .enumerate()
        .map(|(i, bound)| {
            let mut stats = StepStats {
                context_in: contexts[i].len(),
                ..Default::default()
            };
            let Some(c) = bound else {
                return (Context::empty(), stats);
            };
            stats.context_out = 1;
            stats.partitions = 1;
            let u = uniq.binary_search(c).expect("every boundary is indexed");
            users[u] -= 1;
            let slot = &mut finished[u];
            let ctx = if users[u] == 0 {
                slot.take().expect("buffer taken only by its last user")
            } else {
                slot.as_ref()
                    .expect("buffer live until its last user")
                    .clone()
            };
            if payer == Some(i) {
                stats.nodes_scanned = scanned;
                stats.nodes_copied = copied;
            }
            stats.result_size = ctx.len();
            (ctx, stats)
        })
        .collect()
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
        // The copy-run optimisation means only c's ancestors are scanned
        // beyond the result itself.
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

    #[test]
    fn parallel_horiz_matches_sequential_exactly() {
        use crate::WorkerPool;
        for width in [2, 4] {
            let pool = WorkerPool::new(width);
            for seed in 0..8 {
                // Big enough that the morsel gate opens.
                let doc = random_doc(seed, 9000);
                let ctxs: Vec<Context> = (0..4)
                    .map(|i| random_context(&doc, seed ^ (0xF011 + i), 15))
                    .collect();
                let refs: Vec<&Context> = ctxs.iter().collect();
                let mut s1 = Scratch::new();
                let mut s2 = Scratch::new();
                let par = following_many_par(&doc, &refs, &pool, &mut s1);
                let seq = following_many(&doc, &refs, &mut s2);
                for (i, ((pc, ps), (sc, ss))) in par.iter().zip(&seq).enumerate() {
                    assert_eq!(pc, sc, "following seed {seed} width {width} lane {i}");
                    assert_eq!(ps, ss, "following stats seed {seed} width {width} lane {i}");
                }
                let par = preceding_many_par(&doc, &refs, &pool, &mut s1);
                let seq = preceding_many(&doc, &refs, &mut s2);
                for (i, ((pc, ps), (sc, ss))) in par.iter().zip(&seq).enumerate() {
                    assert_eq!(pc, sc, "preceding seed {seed} width {width} lane {i}");
                    assert_eq!(ps, ss, "preceding stats seed {seed} width {width} lane {i}");
                }
            }
        }
    }

    #[test]
    fn parallel_horiz_small_regions_stay_sequential() {
        use crate::WorkerPool;
        let pool = WorkerPool::new(4);
        let doc = figure1();
        let ctx = Context::singleton(5);
        let refs: Vec<&Context> = vec![&ctx];
        let mut scratch = Scratch::new();
        let par = following_many_par(&doc, &refs, &pool, &mut scratch);
        let seq = following_many(&doc, &refs, &mut scratch);
        assert_eq!(par[0], seq[0]);
        let par = preceding_many_par(&doc, &refs, &pool, &mut scratch);
        let seq = preceding_many(&doc, &refs, &mut scratch);
        assert_eq!(par[0], seq[0]);
        // Empty contexts yield empty results in both forms.
        let empty = Context::empty();
        let par = preceding_many_par(&doc, &[&empty], &pool, &mut scratch);
        assert!(par[0].0.is_empty());
    }
}
