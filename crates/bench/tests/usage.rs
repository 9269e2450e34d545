//! The harness binaries refuse `--help`, unknown flags and missing or
//! unparsable values with their usage on stderr and exit status 2, and
//! never with a panic.

use std::process::Command;

#[test]
fn harness_binaries_print_their_usage_and_exit_2_on_bad_flags() {
    let binaries = [
        env!("CARGO_BIN_EXE_bench_filter_kernels"),
        env!("CARGO_BIN_EXE_bench_twig"),
    ];
    for bin in binaries {
        for args in [
            &["--help"][..],
            &["-h"],
            &["--bogus"],
            &["--out"],
            &["--smoke", "x"],
        ] {
            let out = Command::new(bin).args(args).output().expect("runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
            assert!(stderr.contains("usage: bench_"), "{bin} {args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{bin} {args:?}");
        }
    }
    for bin in &binaries[1..] {
        for args in [["--iters", "many"], ["--iters", "0"]] {
            let out = Command::new(bin).args(args).output().expect("runs");
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        }
    }
}
