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
//!
//! Each axis has **one** scan, written for K lanes; the single-context
//! entry points are its one-lane case, and every comparison-free run —
//! the suffix, the subtree blocks — is one
//! [`ScanTest::select_range`] per distinct node test plus a tail copy
//! for every further lane that asked the same test.

use staircase_accel::{Context, Doc, Pre};

use crate::batch::{ScanLane, Scratch};
use crate::cursor::seek_from;
use crate::mask::ScanTest;
use crate::morsel::morsel_count;
use crate::pool::WorkerPool;
use crate::prune::{prune_following, prune_preceding};
use crate::stats::StepStats;

/// Evaluates `context/following::node()`: [`following_tested`] with the
/// `node()` test.
pub fn following(doc: &Doc, context: &Context) -> (Context, StepStats) {
    following_tested(doc, context, &ScanTest::node(doc))
}

/// Evaluates `context/following::test`, the node test riding the suffix
/// copy: the one-lane case of [`following_many`].
pub fn following_tested<'d>(
    doc: &'d Doc,
    context: &Context,
    test: &ScanTest<'d>,
) -> (Context, StepStats) {
    one_lane(following_many(
        doc,
        &[(context, *test)],
        None,
        &mut Scratch::new(),
    ))
}

/// Evaluates `context/preceding::node()`: [`preceding_tested`] with the
/// `node()` test.
pub fn preceding(doc: &Doc, context: &Context) -> (Context, StepStats) {
    preceding_tested(doc, context, &ScanTest::node(doc))
}

/// Evaluates `context/preceding::test`, the node test riding the scan:
/// the one-lane case of [`preceding_many`].
pub fn preceding_tested<'d>(
    doc: &'d Doc,
    context: &Context,
    test: &ScanTest<'d>,
) -> (Context, StepStats) {
    one_lane(preceding_many(
        doc,
        &[(context, *test)],
        None,
        &mut Scratch::new(),
    ))
}

fn one_lane(mut out: Vec<(Context, StepStats)>) -> (Context, StepStats) {
    out.pop().expect("one lane in, one result out")
}

/// Evaluates `lanes[k]`'s `following` step for every `k` — `node()` for
/// a bare context, the lane's own test for a `(context, test)` pair —
/// with **one** suffix select per distinct test.
///
/// Pruning collapses every context to a single node, whose following
/// region is the contiguous pre range after its subtree — so the K
/// regions are *nested suffixes* of the plane. Per distinct test, one
/// select from the earliest start serves everyone asking it: each
/// lane's result is a suffix slice of the widest lane's (which takes
/// the buffer itself), and the physical pass is attributed to the first
/// lane that needed all of the plane's widest region.
///
/// On a `pool` wider than one, a suffix long enough to amortize the
/// handoff is selected in range chunks on it; results and statistics
/// are identical to `None`, the one sequential select.
pub fn following_many<'d, L: ScanLane<'d>>(
    doc: &'d Doc,
    lanes: &[L],
    pool: Option<&WorkerPool>,
    scratch: &mut Scratch,
) -> Vec<(Context, StepStats)> {
    let n = doc.len() as Pre;
    let split = pool.filter(|p| p.width() > 1).and_then(|pool| {
        let starts = lanes
            .iter()
            .filter_map(|l| following_start(doc, l.context()));
        let (live, widest) = starts.fold((0u64, n), |(k, w), (_, s)| (k + 1, w.min(s)));
        let k = morsel_count(u64::from(n - widest) * live.max(1), pool.width())?;
        Some((pool, k))
    });
    let Some((pool, k)) = split else {
        // Governed, the select is chunked; a trip leaves the buffer (and
        // thus every lane) partial, which the governed caller discards.
        // The lanes' `nodes_copied` is arithmetic over their starts, so
        // the run's own charge goes nowhere.
        let mut gov = crate::governor::Ticker::ambient();
        return following_lanes(doc, lanes, scratch, |test, from, base, _| {
            gov.charged_run(from, n, &mut 0, |lo, hi| test.select_range(lo, hi, base));
        });
    };
    following_lanes(doc, lanes, scratch, |test, from, base, scratch| {
        let chunk = u64::from(n - from).div_ceil(k as u64).max(1) as Pre;
        let ranges = (0..k as Pre)
            .map(|i| {
                let lo = from.saturating_add(i * chunk);
                (lo.min(n), lo.saturating_add(chunk).min(n))
            })
            .filter(|&(lo, hi)| lo < hi);
        let parts = pool.run(
            ranges
                .map(|(lo, hi)| (lo, hi, scratch.take()))
                .map(|(lo, hi, mut buf)| {
                    move || {
                        test.select_range(lo, hi, &mut buf);
                        buf
                    }
                })
                .collect(),
        );
        for part in parts {
            base.extend_from_slice(&part);
            scratch.put(part);
        }
    })
}

/// The lane bookkeeping of [`following_many`] around `fill(test, from,
/// base, scratch)`, which appends what `test` keeps of `[from, n)` to
/// `base`.
fn following_lanes<'d, L: ScanLane<'d>>(
    doc: &'d Doc,
    lanes: &[L],
    scratch: &mut Scratch,
    mut fill: impl FnMut(&ScanTest<'d>, Pre, &mut Vec<Pre>, &mut Scratch),
) -> Vec<(Context, StepStats)> {
    let n = doc.len() as Pre;
    // Per lane: the pruned context node and its region start.
    let starts: Vec<Option<(Pre, Pre)>> = lanes
        .iter()
        .map(|l| following_start(doc, l.context()))
        .collect();
    // The scan's physical reads go to the first lane with the widest
    // region; every other lane shares.
    let widest = starts.iter().flatten().map(|&(_, s)| s).min();
    let payer = starts
        .iter()
        .position(|s| s.is_some_and(|(_, start)| Some(start) == widest));

    let mut results: Vec<Option<Vec<Pre>>> = lanes.iter().map(|_| None).collect();
    for i in 0..lanes.len() {
        if results[i].is_some() || starts[i].is_none() {
            continue;
        }
        // Everyone asking lane i's test, served from one select.
        let test = lanes[i].test(doc);
        let group: Vec<(usize, Pre)> = (i..lanes.len())
            .filter(|&j| lanes[j].test(doc) == test)
            .filter_map(|j| starts[j].map(|(_, s)| (j, s)))
            .collect();
        let from = group.iter().map(|&(_, s)| s).min().unwrap_or(n);
        let mut base = scratch.take();
        base.reserve(test.reserve_for((n - from) as usize));
        fill(&test, from, &mut base, scratch);
        // The last lane of the widest region keeps the buffer; every
        // other lane copies its suffix (a one-off search per lane: lanes
        // arrive in no order).
        let keeper = group.iter().rposition(|&(_, s)| s == from);
        for (g, &(j, start)) in group.iter().enumerate() {
            if Some(g) != keeper {
                let at = base.partition_point(|&v| v < start);
                let mut copy = scratch.take();
                copy.extend_from_slice(&base[at..]);
                results[j] = Some(copy);
            }
        }
        if let Some(g) = keeper {
            results[group[g].0] = Some(base);
        }
    }

    lanes
        .iter()
        .zip(results)
        .enumerate()
        .map(|(i, (lane, result))| {
            let mut stats = StepStats {
                context_in: lane.context().len(),
                ..Default::default()
            };
            let (Some((c, start)), Some(result)) = (starts[i], result) else {
                return (Context::empty(), stats);
            };
            stats.context_out = 1;
            stats.partitions = 1;
            stats.nodes_skipped = u64::from(start.saturating_sub(c + 1));
            if payer == Some(i) {
                stats.nodes_copied = u64::from(n - start);
            }
            stats.result_size = result.len();
            (Context::from_sorted(result), stats)
        })
        .collect()
}

/// The pruned context node of a `following` step and the first node
/// after its subtree (exact via Equation (1)), capped at the plane's end.
fn following_start(doc: &Doc, context: &Context) -> Option<(Pre, Pre)> {
    let n = doc.len() as Pre;
    prune_following(doc, context)
        .as_slice()
        .first()
        .map(|&c| (c, (c + 1 + doc.subtree_size(c)).min(n)))
}

/// One result buffer of the merged `preceding` scan: what `test` keeps
/// of the region preceding `bound`. Sinks are held in ascending `bound`
/// order, so the sinks still open at a position are a suffix.
struct PrecSink<'d> {
    bound: Pre,
    test: ScanTest<'d>,
    out: Vec<Pre>,
    /// How many entries the run at hand appended (see [`select_run`]).
    added: usize,
}

/// The unique `(boundary, test)` sinks of a lane set, ascending by
/// boundary, and each lane's sink (`None` for an empty context).
fn preceding_sinks<'d, L: ScanLane<'d>>(
    doc: &'d Doc,
    lanes: &[L],
    scratch: &mut Scratch,
) -> (Vec<PrecSink<'d>>, Vec<Option<usize>>) {
    let keys: Vec<Option<(Pre, ScanTest<'d>)>> = lanes
        .iter()
        .map(|l| {
            let c = prune_preceding(doc, l.context())
                .as_slice()
                .first()
                .copied()?;
            Some((c, l.test(doc)))
        })
        .collect();
    let mut sinks: Vec<PrecSink<'d>> = Vec::new();
    for &(bound, test) in keys.iter().flatten() {
        if !sinks.iter().any(|s| s.bound == bound && s.test == test) {
            sinks.push(PrecSink {
                bound,
                test,
                out: scratch.take(),
                added: 0,
            });
        }
    }
    sinks.sort_by_key(|s| s.bound);
    let sink_of = keys
        .iter()
        .map(|key| {
            let (bound, test) = (*key)?;
            sinks
                .iter()
                .position(|s| s.bound == bound && s.test == test)
        })
        .collect();
    (sinks, sink_of)
}

/// Evaluates `lanes[k]`'s `preceding` step for every `k` with **one**
/// left-to-right scan: the multi-context form of [`preceding_tested`].
///
/// Pruning collapses every context to its last node `cₖ`; the scan walks
/// `[0, max cₖ)` once, lanes dropping out as the cursor passes their
/// boundary. A position preceding the *earliest* active boundary
/// precedes every later one too (its subtree cannot contain any of
/// them), so the comparison-free copy of guaranteed subtree blocks
/// serves all active lanes at once; only ancestors of the earliest
/// boundary are probed per lane. Physical reads are attributed to the
/// widest lane (which needs every position); other lanes report zero
/// incremental touches.
///
/// On a `pool` wider than one, a prefix long enough to amortize the
/// handoff is scanned in pre-range chunks on it, each entered via
/// `preceding_scan_range`'s state reconstruction, so per-chunk results
/// concatenate to the sequential scan's and the per-chunk access
/// counters sum to its totals exactly.
pub fn preceding_many<'d, L: ScanLane<'d>>(
    doc: &'d Doc,
    lanes: &[L],
    pool: Option<&WorkerPool>,
    scratch: &mut Scratch,
) -> Vec<(Context, StepStats)> {
    let (mut sinks, sink_of) = preceding_sinks(doc, lanes, scratch);
    let c_max = sinks.last().map_or(0, |s| s.bound);
    let split = pool.and_then(|pool| Some((pool, morsel_count(u64::from(c_max), pool.width())?)));
    let Some((pool, k)) = split else {
        let (scanned, copied) = preceding_scan_range(doc, &mut sinks, 0, c_max);
        return preceding_distribute(lanes, sinks, &sink_of, scanned, copied);
    };

    // Chunked shared scan: each chunk fills its own copy of the sinks;
    // chunk-major concatenation preserves document order.
    let chunk = u64::from(c_max).div_ceil(k as u64).max(1) as Pre;
    let ranges = (0..k as Pre)
        .map(|i| ((i * chunk).min(c_max), ((i + 1) * chunk).min(c_max)))
        .filter(|&(lo, hi)| lo < hi);
    let parts = pool.run(
        ranges
            .map(|(lo, hi)| {
                let mut part: Vec<PrecSink<'d>> = sinks
                    .iter()
                    .map(|s| PrecSink {
                        bound: s.bound,
                        test: s.test,
                        out: scratch.take(),
                        added: 0,
                    })
                    .collect();
                move || {
                    let (scanned, copied) = preceding_scan_range(doc, &mut part, lo, hi);
                    (part, scanned, copied)
                }
            })
            .collect(),
    );
    let mut scanned = 0u64;
    let mut copied = 0u64;
    for (part, s, c) in parts {
        for (sink, p) in sinks.iter_mut().zip(part) {
            sink.out.extend_from_slice(&p.out);
            scratch.put(p.out);
        }
        scanned += s;
        copied += c;
    }
    preceding_distribute(lanes, sinks, &sink_of, scanned, copied)
}

/// Appends what each sink's test keeps of the comparison-free run
/// `[lo, hi)`: one range select per distinct test, and a copy of the
/// tail that select appended for every further sink asking the same
/// test.
fn select_run(sinks: &mut [PrecSink<'_>], lo: Pre, hi: Pre) {
    for i in 0..sinks.len() {
        let (done, rest) = sinks.split_at_mut(i);
        let sink = &mut rest[0];
        match done.iter().find(|s| s.test == sink.test) {
            Some(same) => {
                sink.out
                    .extend_from_slice(&same.out[same.out.len() - same.added..]);
                sink.added = same.added;
            }
            None => {
                let before = sink.out.len();
                sink.test.select_range(lo, hi, &mut sink.out);
                sink.added = sink.out.len() - before;
            }
        }
    }
}

/// The preceding scan restricted to positions `[from, to)`, pushing into
/// `sinks` (ascending by boundary, `to ≤` the last boundary).
///
/// The full scan is the `[0, c_max)` range. Any other entry point first
/// *reconstructs* the cursor state at `from`: the only way `from` can sit
/// inside a comparison-free copy run is under a run started by one of its
/// **ancestors** (a run is a subtree prefix, and a subtree containing
/// `from` belongs to an ancestor), so walking `from`'s ancestor chain
/// top-down — skipping ancestors covered by an earlier ancestor's run,
/// exactly as the left-to-right scan would — recovers in O(h · log K)
/// whether `from` is mid-run and for which boundary set. Per position the
/// behaviour (and thus the scanned/copied accounting — arithmetic over
/// each run) is identical to the full scan, so range results concatenate
/// to the full scan's and per-range counters sum to its totals (asserted
/// by the pool-equivalence tests).
fn preceding_scan_range(doc: &Doc, sinks: &mut [PrecSink<'_>], from: Pre, to: Pre) -> (u64, u64) {
    let post = doc.post_column();
    let mut scanned = 0u64;
    let mut copied = 0u64;
    let mut gov = crate::governor::Ticker::ambient();
    let mut v = from;
    // Cursor into `sinks`: the boundaries at or before the position at
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
        let mut cover: Option<(Pre, usize)> = None; // (run end, head's sink index)
        for &u in chain.iter().rev() {
            if cover.is_some_and(|(end, _)| u <= end) {
                continue; // covered: the scan never visits u as a head
            }
            lo = seek_from(sinks, lo, |s| s.bound <= u);
            let Some(first) = sinks.get(lo).map(|s| s.bound) else {
                break;
            };
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
                let stop = (run_end + 1).min(to);
                if gov.charged_run(from, stop, &mut copied, |a, b| {
                    select_run(&mut sinks[lo..], a, b)
                }) {
                    return (scanned, copied);
                }
                v = run_end + 1;
            }
        }
    }

    lo = seek_from(sinks, lo, |s| s.bound <= v);
    while v < to {
        while lo < sinks.len() && sinks[lo].bound <= v {
            lo += 1; // this boundary's region is complete
        }
        let Some(first) = sinks.get(lo).map(|s| s.bound) else {
            break;
        };
        scanned += 1;
        if gov.tick(1) {
            return (scanned, copied);
        }
        let post_v = post[v as usize];
        if post_v < post[first as usize] {
            // v precedes the earliest active boundary — and therefore
            // every later one. Hand v and its guaranteed subtree block to
            // all active lanes without further comparisons. A run
            // overshooting `to` is finished by the next range's
            // reconstruction.
            let run = post_v.saturating_sub(v).min(first - v - 1);
            for s in &mut sinks[lo..] {
                if s.test.keeps(v) {
                    s.out.push(v);
                }
            }
            let stop = (v + 1 + run).min(to);
            if gov.charged_run(v + 1, stop, &mut copied, |a, b| {
                select_run(&mut sinks[lo..], a, b)
            }) {
                return (scanned, copied);
            }
            v += 1 + run;
        } else {
            // v is an ancestor of the earliest boundary; it may still
            // precede later ones — probe each individually.
            for s in &mut sinks[lo..] {
                if post_v < post[s.bound as usize] && s.test.keeps(v) {
                    s.out.push(v);
                }
            }
            v += 1;
        }
    }
    (scanned, copied)
}

/// The distribution tail of [`preceding_many`], sequential or chunked:
/// per-sink buffers fan out to the lanes, duplicates cloning, the last
/// user of each buffer taking it, and the widest boundary's first lane
/// paying for the scan.
fn preceding_distribute<'d, L: ScanLane<'d>>(
    lanes: &[L],
    sinks: Vec<PrecSink<'d>>,
    sink_of: &[Option<usize>],
    scanned: u64,
    copied: u64,
) -> Vec<(Context, StepStats)> {
    let c_max = sinks.last().map(|s| s.bound);
    let payer = sink_of
        .iter()
        .position(|s| s.is_some_and(|s| Some(sinks[s].bound) == c_max));
    let mut users: Vec<usize> = (0..sinks.len())
        .map(|s| sink_of.iter().filter(|&&u| u == Some(s)).count())
        .collect();
    let mut finished: Vec<Option<Context>> = sinks
        .into_iter()
        .map(|s| Some(Context::from_sorted(s.out)))
        .collect();
    sink_of
        .iter()
        .enumerate()
        .map(|(i, sink)| {
            let mut stats = StepStats {
                context_in: lanes[i].context().len(),
                ..Default::default()
            };
            let Some(s) = *sink else {
                return (Context::empty(), stats);
            };
            stats.context_out = 1;
            stats.partitions = 1;
            users[s] -= 1;
            let slot = &mut finished[s];
            let ctx = if users[s] == 0 {
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
                let par = following_many(&doc, &refs, Some(&pool), &mut s1);
                let seq = following_many(&doc, &refs, None, &mut s2);
                for (i, ((pc, ps), (sc, ss))) in par.iter().zip(&seq).enumerate() {
                    assert_eq!(pc, sc, "following seed {seed} width {width} lane {i}");
                    assert_eq!(ps, ss, "following stats seed {seed} width {width} lane {i}");
                }
                let par = preceding_many(&doc, &refs, Some(&pool), &mut s1);
                let seq = preceding_many(&doc, &refs, None, &mut s2);
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
        let par = following_many(&doc, &refs, Some(&pool), &mut scratch);
        let seq = following_many(&doc, &refs, None, &mut scratch);
        assert_eq!(par[0], seq[0]);
        let par = preceding_many(&doc, &refs, Some(&pool), &mut scratch);
        let seq = preceding_many(&doc, &refs, None, &mut scratch);
        assert_eq!(par[0], seq[0]);
        // Empty contexts yield empty results either way.
        let empty = Context::empty();
        let par = preceding_many(&doc, &[&empty], Some(&pool), &mut scratch);
        assert!(par[0].0.is_empty());
    }
}
