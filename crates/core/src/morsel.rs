//! Morsel splits of the single-lane plane scans.
//!
//! §3.2's Figure-8 argument — pruned staircase steps own **disjoint
//! pre-range partitions**, so partitions evaluate independently and
//! their results concatenate in document order with no merge sort — is
//! exactly what a morsel-driven executor (Leis et al., SIGMOD 2014)
//! needs: each morsel is a contiguous chunk of the pruned staircase, a
//! worker from the caller's [`WorkerPool`] walks it with the ordinary
//! sequential partition loops, and the coordinator glues the per-worker
//! result vectors back together.
//!
//! [`crate::descendant_many`] and [`crate::ancestor_many`] hand their
//! one-lane case to [`descendant_lane`] / [`ancestor_lane`] with the
//! caller's pool. No pool, a width-1 pool, or too little work to
//! amortize a handoff ([`morsel_count`]) runs the sequential partition
//! loop: the degenerate case *is* the sequential kernel. Two splitting
//! strategies cover every partition shape:
//!
//! * **Inside one partition** ([`plan_descendant_slices`]): the common
//!   hot case — a root context — has a *single* partition covering the
//!   whole plane, which chunking by steps cannot split. For the
//!   descendant direction the touched interval of a partition is known
//!   in closed form before scanning: descendants of `c` are the
//!   contiguous run `(c, c + |subtree(c)|]`, so the scan touches
//!   `(c, m]` where `m = c + |subtree(c)| + 1` is the provable first
//!   miss (the node whose postorder rank first exceeds `post(c)`). Any
//!   sub-range of that interval can therefore be executed independently
//!   — including the skip bookkeeping, which can only fire in the
//!   sub-range containing `m`.
//! * **By steps** ([`span_chunks`]): contiguous runs of whole
//!   partitions, weighted by their pre-range span so workers get equal
//!   *work*, not equal step counts. The ancestor direction has no closed
//!   touched-interval (its skip is an under-estimating jump chain), so
//!   it splits this way only — which is where its work lives anyway:
//!   ancestor steps arrive with many boundaries, not one.
//!
//! Every morsel reproduces the sequential kernel's per-position
//! behaviour bit for bit, so per-worker [`StepStats`] **sum to exactly
//! the sequential counters** (asserted by the tests below and by
//! `tests/bounds.rs`) and results are node- and order-identical.
//!
//! Only the plane scans are split. The range joins over a tag fragment
//! (`descendant_on_list_many` and friends) have no morsel form: a join
//! brackets a slice with two gallops and copies it — the 19 802-entry
//! fragment of an XMark root step takes ≈ 2 µs, less than one handoff
//! to a pooled worker — and its skipping lives in cursor state: a chunk
//! of the context would reopen nodes nested in the previous chunk's last
//! one (wrong on an unpruned context), and a chunk of either input would
//! not count the sequential join's gallops.

use staircase_accel::{Doc, Pre};

use crate::anc::ancestor_partitions;
use crate::batch::Scratch;
use crate::desc::descendant_partitions;
use crate::mask::ScanTest;
use crate::pool::WorkerPool;
use crate::stats::StepStats;
use crate::Variant;

/// Minimum touched-work (nodes or list entries) a morsel must carry for
/// the handoff to a pooled worker to amortize. Batches below twice this
/// stay sequential.
pub(crate) const MIN_MORSEL_WORK: u64 = 2048;

/// How many morsels `work` units of touched-work justify on a pool of
/// `width` executors; `None` means "stay sequential".
pub(crate) fn morsel_count(work: u64, width: usize) -> Option<usize> {
    let by_work = usize::try_from(work / MIN_MORSEL_WORK).unwrap_or(usize::MAX);
    let k = by_work.min(width);
    (k >= 2).then_some(k)
}

// ── Descendant: sub-partition slices ────────────────────────────────────

/// One executable sub-range of a descendant partition: positions
/// `[from, to)` of the partition `(c, part_end)` whose staircase
/// boundary is `bound` and whose Equation-1 copy phase ends at
/// `copy_end` (inclusive; `copy_end ≤ c` means no copy phase).
struct DescSlice {
    bound: u32,
    copy_end: Pre,
    part_end: Pre,
    from: Pre,
    to: Pre,
}

impl DescSlice {
    fn len(&self) -> u64 {
        u64::from(self.to - self.from)
    }
}

/// The touched intervals of every partition, in plane order, plus their
/// total length. For the skipping variants the interval ends at the
/// provable first miss `m = c + |subtree(c)| + 1` (capped by the
/// partition); [`Variant::Basic`] touches the whole partition.
fn plan_descendant_slices(
    doc: &Doc,
    steps: &[Pre],
    end: Pre,
    variant: Variant,
) -> (Vec<DescSlice>, u64) {
    let post = doc.post_column();
    let mut slices = Vec::with_capacity(steps.len());
    let mut work = 0u64;
    for (i, &c) in steps.iter().enumerate() {
        let part_end = steps.get(i + 1).copied().unwrap_or(end);
        let bound = post[c as usize];
        let (copy_end, to) = match variant {
            Variant::Basic => (c, part_end),
            Variant::Skipping => {
                let miss = c + 1 + doc.subtree_size(c);
                (c, miss.saturating_add(1).min(part_end))
            }
            Variant::EstimationSkipping => {
                let miss = c + 1 + doc.subtree_size(c);
                (
                    bound.min(part_end - 1),
                    miss.saturating_add(1).min(part_end),
                )
            }
        };
        let from = c + 1;
        let to = to.max(from);
        work += u64::from(to - from);
        slices.push(DescSlice {
            bound,
            copy_end,
            part_end,
            from,
            to,
        });
    }
    (slices, work)
}

/// Splits `slices` (total length `work`) into `k` morsels of roughly
/// equal touched-work, cutting inside a slice where necessary.
fn split_desc_slices(slices: Vec<DescSlice>, work: u64, k: usize) -> Vec<Vec<DescSlice>> {
    let target = work.div_ceil(k as u64).max(1);
    let mut morsels: Vec<Vec<DescSlice>> = Vec::with_capacity(k);
    let mut cur: Vec<DescSlice> = Vec::new();
    let mut cur_work = 0u64;
    for mut s in slices {
        while cur_work + s.len() > target && morsels.len() + 1 < k {
            let room = target - cur_work;
            if room > 0 {
                let cut = s.from + room as Pre;
                cur.push(DescSlice {
                    bound: s.bound,
                    copy_end: s.copy_end,
                    part_end: s.part_end,
                    from: s.from,
                    to: cut,
                });
                s.from = cut;
            }
            morsels.push(std::mem::take(&mut cur));
            cur_work = 0;
        }
        cur_work += s.len();
        if s.len() > 0 {
            cur.push(s);
        }
    }
    if !cur.is_empty() || morsels.is_empty() {
        morsels.push(cur);
    }
    morsels
}

/// Executes one morsel of descendant slices with exactly the sequential
/// partition loop's per-position behaviour (copy / scan / skip-on-miss).
fn exec_desc_morsel(
    doc: &Doc,
    slices: &[DescSlice],
    variant: Variant,
    test: &ScanTest<'_>,
    result: &mut Vec<Pre>,
    stats: &mut StepStats,
) {
    let post = doc.post_column();
    let skip_on_miss = variant != Variant::Basic;
    // Workers inherit the submitting lane's budget (the pool installs it
    // ambiently); a trip abandons the morsel mid-slice.
    let mut gov = crate::governor::Ticker::ambient();
    for s in slices {
        crate::faults::fail_point("core::morsel::exec");
        let mut v = s.from;
        // The slice's copy prefix is one range select, charged per
        // position; the data-dependent scan suffix below stays scalar.
        let copy_to = s.to.min(s.copy_end + 1);
        if gov.charged_run(v, copy_to, &mut stats.nodes_copied, |lo, hi| {
            test.select_range(lo, hi, result)
        }) {
            return;
        }
        v = v.max(copy_to);
        while v < s.to {
            stats.nodes_scanned += 1;
            if gov.tick(1) {
                return;
            }
            if post[v as usize] < s.bound {
                if test.keeps(v) {
                    result.push(v);
                }
            } else if skip_on_miss {
                // The provable first miss: only the slice containing
                // it ever reaches here, so the Z-region accounting
                // lands exactly once per partition.
                stats.nodes_skipped += u64::from(s.part_end - v - 1);
                break;
            }
            v += 1;
        }
    }
}

/// Runs a single descendant lane through morsels executed on `pool`, or
/// through the sequential partition loop when there is no pool wider
/// than one or the work does not amortize the handoff.
#[allow(clippy::too_many_arguments)]
pub(crate) fn descendant_lane(
    doc: &Doc,
    steps: &[Pre],
    variant: Variant,
    test: &ScanTest<'_>,
    result: &mut Vec<Pre>,
    stats: &mut StepStats,
    pool: Option<&WorkerPool>,
    scratch: &mut Scratch,
) {
    let n = doc.len() as Pre;
    let planned = pool.filter(|p| p.width() > 1).and_then(|pool| {
        let (slices, work) = plan_descendant_slices(doc, steps, n, variant);
        Some((pool, morsel_count(work, pool.width())?, slices, work))
    });
    let Some((pool, k, slices, work)) = planned else {
        return descendant_partitions(doc, steps, n, variant, test, result, stats);
    };
    stats.partitions += steps.len();
    let morsels = split_desc_slices(slices, work, k);
    let buffers: Vec<Vec<Pre>> = morsels.iter().map(|_| scratch.take()).collect();
    let outs = pool.run(
        morsels
            .into_iter()
            .zip(buffers)
            .map(|(m, mut buf)| {
                move || {
                    let mut st = StepStats::default();
                    buf.reserve(test.reserve_for(m.iter().map(|s| s.len() as usize).sum()));
                    exec_desc_morsel(doc, &m, variant, test, &mut buf, &mut st);
                    (buf, st)
                }
            })
            .collect(),
    );
    collect_morsels(outs, result, stats, scratch);
}

// ── Ancestor: whole-partition chunks ────────────────────────────────────

/// Splits `steps` into at most `k` contiguous chunks of roughly equal
/// pre-range *span* (partition `i` spans `[prevᵢ, stepᵢ)`), so workers
/// inherit equal scan ranges rather than equal step counts.
fn span_chunks(steps: &[Pre], k: usize) -> Vec<(usize, usize)> {
    let total = u64::from(steps.last().copied().unwrap_or(0));
    let target = total.div_ceil(k as u64).max(1);
    let mut chunks = Vec::with_capacity(k);
    let mut lo = 0usize;
    let mut span_start = 0u64;
    for (i, &c) in steps.iter().enumerate() {
        let span = u64::from(c) - span_start;
        let last = i + 1 == steps.len();
        if last || (span >= target && chunks.len() + 1 < k) {
            chunks.push((lo, i + 1));
            lo = i + 1;
            span_start = u64::from(c);
        }
    }
    chunks
}

/// Runs a single ancestor lane as whole-partition chunks on `pool`, or
/// sequentially (see [`descendant_lane`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn ancestor_lane(
    doc: &Doc,
    steps: &[Pre],
    variant: Variant,
    test: &ScanTest<'_>,
    result: &mut Vec<Pre>,
    stats: &mut StepStats,
    pool: Option<&WorkerPool>,
    scratch: &mut Scratch,
) {
    let span = u64::from(steps.last().copied().unwrap_or(0));
    let planned = pool.and_then(|pool| {
        let k = morsel_count(span, pool.width())?.min(steps.len());
        (k >= 2).then_some((pool, k))
    });
    let Some((pool, k)) = planned else {
        return ancestor_partitions(doc, steps, 0, variant, test, result, stats);
    };
    let chunks = span_chunks(steps, k);
    let buffers: Vec<Vec<Pre>> = chunks.iter().map(|_| scratch.take()).collect();
    let outs = pool.run(
        chunks
            .into_iter()
            .zip(buffers)
            .map(|((lo, hi), mut buf)| {
                let chunk = &steps[lo..hi];
                let start = if lo == 0 { 0 } else { steps[lo - 1] + 1 };
                move || {
                    let mut st = StepStats::default();
                    ancestor_partitions(doc, chunk, start, variant, test, &mut buf, &mut st);
                    (buf, st)
                }
            })
            .collect(),
    );
    for (buf, st) in outs {
        result.extend_from_slice(&buf);
        scratch.put(buf);
        stats.merge(&st);
    }
}

/// Concatenates morsel outputs in plane order into the lane, summing the
/// per-worker access counters (partition counts are the coordinator's
/// job — a split partition must not count twice).
fn collect_morsels(
    outs: Vec<(Vec<Pre>, StepStats)>,
    result: &mut Vec<Pre>,
    stats: &mut StepStats,
    scratch: &mut Scratch,
) {
    result.reserve(outs.iter().map(|(b, _)| b.len()).sum());
    for (buf, st) in outs {
        result.extend_from_slice(&buf);
        scratch.put(buf);
        stats.nodes_scanned += st.nodes_scanned;
        stats.nodes_copied += st.nodes_copied;
        stats.nodes_skipped += st.nodes_skipped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{random_context, random_doc};
    use crate::{ancestor_many, descendant_many};
    use staircase_accel::Context;

    const ALL: [Variant; 3] = [
        Variant::Basic,
        Variant::Skipping,
        Variant::EstimationSkipping,
    ];

    fn assert_same(label: &str, par: &[(Context, StepStats)], seq: &[(Context, StepStats)]) {
        assert_eq!(par.len(), seq.len(), "{label}");
        for (i, ((pc, ps), (sc, ss))) in par.iter().zip(seq).enumerate() {
            assert_eq!(pc, sc, "{label}: query {i} results differ");
            assert_eq!(ps, ss, "{label}: query {i} stats differ");
        }
    }

    #[test]
    fn parallel_plane_joins_match_sequential_exactly() {
        for width in [2, 4] {
            let pool = WorkerPool::new(width);
            for seed in 0..8 {
                // Big enough that the morsel gate opens.
                let doc = random_doc(seed, 9000);
                let root = Context::singleton(doc.root());
                let ctx = random_context(&doc, seed ^ 0xD15C, 40);
                for variant in ALL {
                    for case in [&root, &ctx] {
                        let refs: Vec<&Context> = vec![case];
                        let mut s1 = Scratch::new();
                        let mut s2 = Scratch::new();
                        let par = descendant_many(&doc, &refs, variant, Some(&pool), &mut s1);
                        let seq = descendant_many(&doc, &refs, variant, None, &mut s2);
                        assert_same(
                            &format!("desc seed {seed} width {width} {variant:?}"),
                            &par,
                            &seq,
                        );
                        let par = ancestor_many(&doc, &refs, variant, Some(&pool), &mut s1);
                        let seq = ancestor_many(&doc, &refs, variant, None, &mut s2);
                        assert_same(
                            &format!("anc seed {seed} width {width} {variant:?}"),
                            &par,
                            &seq,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn multi_context_batches_keep_the_shared_scan() {
        // Several distinct contexts: a pool changes nothing — the merged
        // sequential scan runs, with the same results and stats.
        let pool = WorkerPool::new(4);
        let doc = random_doc(3, 3000);
        let ctxs: Vec<Context> = (0..5)
            .map(|i| random_context(&doc, 0xBA7C4 ^ i, 20))
            .collect();
        let refs: Vec<&Context> = ctxs.iter().collect();
        let mut s1 = Scratch::new();
        let mut s2 = Scratch::new();
        for variant in ALL {
            let par = descendant_many(&doc, &refs, variant, Some(&pool), &mut s1);
            let seq = descendant_many(&doc, &refs, variant, None, &mut s2);
            assert_same(&format!("multi {variant:?}"), &par, &seq);
        }
    }

    #[test]
    fn single_partition_splits_across_workers() {
        // A root context is one partition; the closed-form touched
        // interval lets the morsel planner split inside it.
        let doc = random_doc(11, 12000);
        let root = Context::singleton(doc.root());
        let refs: Vec<&Context> = vec![&root];
        let pool = WorkerPool::new(4);
        let mut scratch = Scratch::new();
        let (slices, work) = {
            let pruned = crate::prune_descendant(&doc, &root);
            plan_descendant_slices(
                &doc,
                pruned.as_slice(),
                doc.len() as Pre,
                Variant::EstimationSkipping,
            )
        };
        assert_eq!(slices.len(), 1, "root context prunes to one partition");
        assert!(morsel_count(work, pool.width()).unwrap_or(1) >= 2);
        let par = descendant_many(
            &doc,
            &refs,
            Variant::EstimationSkipping,
            Some(&pool),
            &mut scratch,
        );
        let (seq, seq_stats) = crate::descendant(&doc, &root, Variant::EstimationSkipping);
        assert_eq!(par[0].0, seq);
        assert_eq!(par[0].1.nodes_touched(), seq_stats.nodes_touched());
    }

    #[test]
    fn tiny_batches_stay_sequential() {
        let pool = WorkerPool::new(4);
        let doc = random_doc(1, 200); // far below the morsel gate
        let ctx = Context::singleton(doc.root());
        let refs: Vec<&Context> = vec![&ctx];
        let mut s1 = Scratch::new();
        let mut s2 = Scratch::new();
        let par = descendant_many(&doc, &refs, Variant::Skipping, Some(&pool), &mut s1);
        let seq = descendant_many(&doc, &refs, Variant::Skipping, None, &mut s2);
        assert_same("tiny", &par, &seq);
    }

    #[test]
    fn span_chunks_cover_all_steps() {
        let steps: Vec<Pre> = vec![5, 6, 7, 1000, 1001, 5000, 9000];
        for k in [2, 3, 4] {
            let chunks = span_chunks(&steps, k);
            assert!(chunks.len() <= k);
            assert_eq!(chunks.first().unwrap().0, 0);
            assert_eq!(chunks.last().unwrap().1, steps.len());
            assert!(chunks.windows(2).all(|w| w[0].1 == w[1].0));
            assert!(chunks.iter().all(|&(lo, hi)| lo < hi));
        }
    }

    #[test]
    fn empty_contexts_short_circuit() {
        let pool = WorkerPool::new(4);
        let doc = random_doc(2, 5000);
        let empty = Context::empty();
        let refs: Vec<&Context> = vec![&empty];
        let mut scratch = Scratch::new();
        let par = descendant_many(&doc, &refs, Variant::Basic, Some(&pool), &mut scratch);
        assert!(par[0].0.is_empty());
        let par = ancestor_many(&doc, &refs, Variant::Basic, Some(&pool), &mut scratch);
        assert!(par[0].0.is_empty());
    }
}
