//! The one search primitive of every on-list join, probe and twig leg:
//! a forward cursor over a sorted fragment.
//!
//! A staircase join moves through its inputs once, forward only (§3.3),
//! and Leapfrog Triejoin's optimality proof (Veldhuizen, ICDT 2013) rests
//! on the same contract for its `seek`: amortised `O(1 + log(N/m))`, i.e.
//! the search must start *at the cursor* and pay for the distance it
//! moves, never for the length of the list. [`seek_from`] is that
//! contract, and [`advance`] is the form the range joins
//! ([`crate::descendant_on_list`] and friends) drive *both* their inputs with — the fragment and the
//! context are each one such cursor. [`crate::StepStats::seeks`] counts
//! repositionings: one per [`seek_from`] call the twig cursors make, one
//! per [`advance`] that actually moved its cursor (a peek that finds the
//! cursor in place is a `next`, not a `seek`). The predicate evaluations
//! inside a gallop are not counted (and do not tick the governor).

/// First index `≥ from` at which the monotone `pred` stops holding — the
/// value of `from + list[from..].partition_point(pred)`, found by
/// checking `list[from]`, then galloping 1, 2, 4, … entries ahead of
/// `from`, then binary-searching inside the last bracket.
///
/// `pred` must hold on a (possibly empty) prefix of `list[from..]` and
/// nowhere after it. A jump of `d` entries evaluates it at most
/// `2·⌈log2(d + 1)⌉ + 2` times, a jump of 0 or 1 at most twice —
/// whatever `list.len()` is. `from ≥ list.len()` answers `list.len()`.
#[inline]
pub fn seek_from<T>(list: &[T], from: usize, mut pred: impl FnMut(&T) -> bool) -> usize {
    if from >= list.len() || !pred(&list[from]) {
        return from.min(list.len());
    }
    gallop_past(list, from, pred)
}

/// [`seek_from`] on a cursor held by the caller: moves `*at` to the first
/// index `≥ *at` at which `pred` stops holding and returns how many
/// entries it passed. `seeks` grows by one **iff the cursor moved** —
/// the merge bounds of [`crate::StepStats`] count repositionings, and a
/// cursor already in place was only looked at.
#[inline]
pub fn advance<T>(
    list: &[T],
    at: &mut usize,
    seeks: &mut u64,
    mut pred: impl FnMut(&T) -> bool,
) -> usize {
    let from = *at;
    if from >= list.len() || !pred(&list[from]) {
        return 0;
    }
    *seeks += 1;
    *at = gallop_past(list, from, pred);
    *at - from
}

/// The gallop of [`seek_from`], entered with `pred` known to hold at
/// `list[from]`.
#[inline]
fn gallop_past<T>(list: &[T], from: usize, mut pred: impl FnMut(&T) -> bool) -> usize {
    let n = list.len();
    // Invariant: `pred` holds at `lo`; `hi` is the list end or an index
    // where it does not.
    let mut lo = from;
    let mut hi = n;
    let mut step = 1usize;
    // `step` doubles only while `from + step < n ≤ isize::MAX`: no overflow.
    while from + step < n {
        let probe = from + step;
        if !pred(&list[probe]) {
            hi = probe;
            break;
        }
        lo = probe;
        step <<= 1;
    }
    lo += 1;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(&list[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reference(list: &[u32], from: usize, key: u32) -> usize {
        from + list[from..].partition_point(|&p| p < key)
    }

    /// Every `from` and every interesting key (below the first entry, each
    /// entry, each gap, past the last) on one list.
    fn check_exhaustively(list: &[u32]) {
        let mut keys = vec![0, u32::MAX];
        for &p in list {
            keys.extend([p.saturating_sub(1), p, p + 1]);
        }
        for from in 0..=list.len() {
            for &key in &keys {
                // The contract: `pred` holds on a prefix of `list[from..]`.
                assert_eq!(
                    seek_from(list, from, |&p| p < key),
                    reference(list, from, key),
                    "len {} from {from} key {key}",
                    list.len()
                );
            }
        }
    }

    #[test]
    fn agrees_with_partition_point_at_power_of_two_lengths() {
        // Exhaustive `from` × key on the small lengths; the 4 096
        // neighbourhood samples `from` to stay fast.
        for len in [0usize, 1, 2, 3, 63, 64, 65] {
            let list: Vec<u32> = (0..len as u32).map(|i| 3 * i + 5).collect();
            check_exhaustively(&list);
        }
        for len in [4095usize, 4096, 4097] {
            let list: Vec<u32> = (0..len as u32).map(|i| 3 * i + 5).collect();
            for from in [0, 1, 63, 64, 65, 2047, 2048, 4094, 4095, len - 1, len] {
                let from = from.min(len);
                for key in (0..3 * len as u32 + 12).step_by(7).chain([0, u32::MAX]) {
                    assert_eq!(
                        seek_from(&list, from, |&p| p < key),
                        reference(&list, from, key),
                        "len {len} from {from} key {key}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_list_and_out_of_range_from() {
        assert_eq!(seek_from(&[] as &[u32], 0, |_| true), 0);
        assert_eq!(seek_from(&[1u32, 2, 3], 3, |_| true), 3);
        assert_eq!(seek_from(&[1u32, 2, 3], 9, |_| true), 3);
        assert_eq!(seek_from(&[1u32, 2, 3], 0, |_| true), 3);
        assert_eq!(seek_from(&[1u32, 2, 3], 0, |_| false), 0);
    }

    #[test]
    fn advance_counts_a_seek_only_when_the_cursor_moves() {
        let list = [2u32, 4, 6, 8];
        let (mut at, mut seeks) = (0usize, 0u64);
        assert_eq!(advance(&list, &mut at, &mut seeks, |&p| p < 2), 0);
        assert_eq!((at, seeks), (0, 0), "already in place: a peek");
        assert_eq!(advance(&list, &mut at, &mut seeks, |&p| p < 7), 3);
        assert_eq!((at, seeks), (3, 1));
        assert_eq!(advance(&list, &mut at, &mut seeks, |&p| p < 100), 1);
        assert_eq!((at, seeks), (4, 2));
        assert_eq!(advance(&list, &mut at, &mut seeks, |_| true), 0);
        assert_eq!((at, seeks), (4, 2), "an exhausted cursor stays put");
    }

    /// `⌈log2(x)⌉` for `x ≥ 1`.
    fn ceil_log2(x: usize) -> u32 {
        x.next_power_of_two().trailing_zeros()
    }

    #[test]
    fn a_jump_of_d_costs_log_d_probes_not_log_n() {
        let list: Vec<u32> = (0..100_000).collect();
        for from in [0usize, 1, 777, 65_536, 99_990] {
            for d in (0..70).chain([127, 128, 129, 1000, 4095, 4096, 4097, 30_000]) {
                if from + d > list.len() {
                    continue;
                }
                let key = (from + d) as u32; // first index with list[i] >= key
                let mut probes = 0u32;
                let got = seek_from(&list, from, |&p| {
                    probes += 1;
                    p < key
                });
                assert_eq!(got, from + d);
                let bound = if d <= 1 { 2 } else { 2 * ceil_log2(d + 1) + 2 };
                assert!(
                    probes <= bound,
                    "from {from} jump {d}: {probes} probes > {bound}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn agrees_with_partition_point_on_random_ascending_lists(
            gaps in proptest::collection::vec(1u32..9, 0..200),
            key_seed in 0u32..2000,
        ) {
            let mut list = Vec::with_capacity(gaps.len());
            let mut at = 0u32;
            for g in gaps {
                at += g;
                list.push(at);
            }
            for from in 0..=list.len() {
                for key in [0, key_seed, key_seed / 2, at, at + 1] {
                    prop_assert_eq!(
                        seek_from(&list, from, |&p| p <= key),
                        from + list[from..].partition_point(|&p| p <= key)
                    );
                }
            }
        }
    }
}
