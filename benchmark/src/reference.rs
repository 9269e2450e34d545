//! The in-run yardstick. The machines this benchmark runs on share their
//! cores and caches with other tenants, and go through phases, seconds to
//! minutes long, in which everything runs 10–35 % slower. A fixed piece of
//! work timed right next to each measurement slows down by the same factor,
//! so CPU-bound times are reported in *reference time*: wall time ×
//! (`NOMINAL_MS` ÷ what the reference scan took at that moment). On a quiet
//! machine of the class the benchmark was written on, that is wall time.
//!
//! The reference is benchmark code over its own buffer: no change to the
//! engine can make it faster or slower.

use std::time::Instant;

/// What the reference scan takes on a quiet machine of the reference class.
pub const NOMINAL_MS: f64 = 5.0;

const ELEMENTS: usize = 1 << 20;

/// A selective scan of 4 MiB of pseudo-random words into an output vector:
/// the shape of a staircase-join partition scan (sequential read, a
/// compare per node, a conditional append).
pub struct Reference {
    data: Vec<u32>,
    out: Vec<u32>,
}

impl Reference {
    pub fn new() -> Reference {
        let mut x = 0x9E37_79B9u32;
        let data = (0..ELEMENTS)
            .map(|_| {
                // xorshift32: the same words on every run and machine.
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        Reference {
            data,
            out: Vec::with_capacity(ELEMENTS),
        }
    }

    /// Runs the scan once and returns its wall time in milliseconds.
    pub fn time_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        self.out.clear();
        for &v in std::hint::black_box(&self.data) {
            if v & 0xff < 0x60 {
                self.out.push(v);
            }
        }
        std::hint::black_box(&self.out);
        t0.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_scan_does_the_same_work_every_time() {
        let mut r = Reference::new();
        assert!(r.time_ms() > 0.0);
        let kept = r.out.len();
        r.time_ms();
        assert_eq!(r.out.len(), kept);
        // 0x60 of 0x100 byte values pass: 37.5 % of the words.
        assert!((kept as f64 / ELEMENTS as f64 - 0.375).abs() < 0.01);
    }
}
