//! Sequential copy kernels for the bandwidth experiment.
//!
//! §4.3 of the paper measures the staircase join's comparison-free copy
//! against raw memory bandwidth. These kernels are the two copy loops
//! that experiment (`repro bandwidth`) compares:
//!
//! * [`append_run`] — plain extend-from-slice copy.
//! * [`append_run_unrolled`] — manually 8-way unrolled copy loop, the
//!   Duff's-device flavour the paper reports boosted bandwidth from
//!   719 MB/s to 805 MB/s on their Pentium 4.
//!
//! The join's own copies and scans run over the node test in
//! `staircase-core`'s `mask` module.

/// Appends `src` to `dst` (the baseline copy kernel).
#[inline]
pub fn append_run<T: Copy>(dst: &mut Vec<T>, src: &[T]) {
    dst.extend_from_slice(src);
}

/// Appends `src` to `dst` with an 8-way unrolled main loop.
///
/// `extend_from_slice` already lowers to `memcpy`; the point of this kernel
/// is to mirror the paper's hand-unrolled loop so the bandwidth experiment
/// can compare both variants, and to keep the remainder handling ("Duff's
/// device") explicit.
#[inline]
pub fn append_run_unrolled<T: Copy>(dst: &mut Vec<T>, src: &[T]) {
    dst.reserve(src.len());
    let mut chunks = src.chunks_exact(8);
    for c in &mut chunks {
        // Eight independent pushes per iteration: the reservation above
        // guarantees no reallocation happens mid-run.
        dst.push(c[0]);
        dst.push(c[1]);
        dst.push(c[2]);
        dst.push(c[3]);
        dst.push(c[4]);
        dst.push(c[5]);
        dst.push(c[6]);
        dst.push(c[7]);
    }
    dst.extend_from_slice(chunks.remainder());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unrolled_matches_plain() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let src: Vec<u32> = (0..n as u32).collect();
            let mut a = vec![99u32];
            let mut b = vec![99u32];
            append_run(&mut a, &src);
            append_run_unrolled(&mut b, &src);
            assert_eq!(a, b, "n={n}");
        }
    }
}
