//! `bench_filter_kernels` — scalar vs masked name-test filtering over
//! a scan window.
//!
//! The workload is the hot shape of the pre/post-plane operators: a
//! name test over a contiguous pre-rank window (the `following`
//! suffix, a descendant partition's copy phase, a fused lane's shared
//! base). Two kernels, identical survivors asserted each round:
//!
//! * `scalar` — the pre-mask per-element loop: two column loads and a
//!   data-dependent branch per node;
//! * `mask_columns` — the gathered-column kernel
//!   ([`mask::select_tag_candidates`]), the residual name-test filter of
//!   the operators with no scan for the test to ride.
//!
//! Writes `BENCH_filter_kernels.json`: one record per doc size ×
//! selectivity × kernel with ns/node and speedup over scalar.
//!
//! ```text
//! cargo run -p staircase-bench --release --bin bench_filter_kernels
//!     [--smoke]      3 repetitions instead of 200 (CI keep-alive mode)
//!     [--out PATH]   output path (default BENCH_filter_kernels.json)
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use staircase_accel::NodeKind;
use staircase_core::mask;

const SIZES: [usize; 2] = [10_000, 100_000];
const SELECTIVITIES: [f64; 4] = [0.001, 0.01, 0.10, 0.50];
/// The benchmarked tag id; the decoy ids dilute it to the target rate.
const TID: u32 = 7;

struct Record {
    nodes: usize,
    selectivity: f64,
    kernel: &'static str,
    ns_per_node: f64,
    speedup_vs_scalar: f64,
    survivors: usize,
}

/// Deterministic xorshift64* stream (no external RNG dependency).
struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Synthetic parallel columns: every position is an element; the tag
/// equals [`TID`] at the target rate and a rotating decoy otherwise.
fn columns(n: usize, selectivity: f64, seed: u64) -> (Vec<u8>, Vec<u32>) {
    let mut rng = Rng(seed | 1);
    let kinds = vec![NodeKind::Element as u8; n];
    let tags = (0..n)
        .map(|v| {
            if rng.next_f64() < selectivity {
                TID
            } else {
                // Decoys never collide with TID.
                let decoy = (v as u32) % 16;
                decoy + u32::from(decoy >= TID)
            }
        })
        .collect();
    (kinds, tags)
}

/// The pre-mask per-element window filter, kept verbatim as baseline.
fn scalar_filter(kind: &[u8], tags: &[u32], want: u8, tid: u32, n: u32, out: &mut Vec<u32>) {
    for v in 0..n {
        if kind[v as usize] == want && tags[v as usize] == tid {
            out.push(v);
        }
    }
}

fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_filter_kernels.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().expect("--out takes a path"),
            other => panic!("unknown flag {other}"),
        }
    }
    let reps = if smoke { 3 } else { 200 };
    let element = NodeKind::Element as u8;

    let mut records: Vec<Record> = Vec::new();
    for &n in &SIZES {
        for &sel in &SELECTIVITIES {
            let (kinds, tags) = columns(n, sel, 0x5747_u64 ^ n as u64);
            let cands: Vec<u32> = (0..n as u32).collect();

            let mut out = Vec::with_capacity(n);
            let scalar_secs = best_secs(reps, || {
                out.clear();
                scalar_filter(&kinds, &tags, element, TID, n as u32, &mut out);
                std::hint::black_box(out.len());
            });
            let want = out.clone();

            let columns_secs = best_secs(reps, || {
                out.clear();
                mask::select_tag_candidates(&kinds, &tags, element, TID, &cands, &mut out);
                std::hint::black_box(out.len());
            });
            assert_eq!(out, want, "column mask must match the scalar filter");

            let scalar_ns = scalar_secs / n as f64 * 1e9;
            for (kernel, secs) in [("scalar", scalar_secs), ("mask_columns", columns_secs)] {
                let ns = secs / n as f64 * 1e9;
                records.push(Record {
                    nodes: n,
                    selectivity: sel,
                    kernel,
                    ns_per_node: ns,
                    speedup_vs_scalar: scalar_ns / ns,
                    survivors: want.len(),
                });
                eprintln!(
                    "n {n:>7}  sel {sel:>5.3}  {kernel:<12} {ns:>7.3} ns/node  ({:>6.2}x vs scalar, {} survivors)",
                    scalar_ns / ns,
                    want.len(),
                );
            }
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"filter_kernels\",");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(
        json,
        "  \"note\": \"name test over a contiguous scan window; mask_columns = gathered kind/tag mask kernel\","
    );
    json.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"doc_nodes\": {}, \"selectivity\": {}, \"kernel\": \"{}\", \
             \"ns_per_node\": {:.4}, \"speedup_vs_scalar\": {:.3}, \"survivors\": {}}}",
            r.nodes, r.selectivity, r.kernel, r.ns_per_node, r.speedup_vs_scalar, r.survivors
        );
        json.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write bench json");
    eprintln!("wrote {out_path}");
}
