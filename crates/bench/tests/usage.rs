//! `repro` refuses `--help`, unknown flags and experiments, and missing,
//! unparsable or zero values with its usage on stderr, nothing on stdout
//! and exit status 2, and never with a panic.

use std::process::Command;

#[test]
fn repro_prints_its_usage_and_exits_2_on_bad_flags() {
    let repro = env!("CARGO_BIN_EXE_repro");
    for args in [
        &["--help"][..],
        &["-h"],
        &["--bogus"],
        &["--factor"],
        &["--factor", "x"],
        &["fig99"],
        &["--runs", "0"],
        &["--runs", "many"],
        &["verify", "--csv"],
    ] {
        let out = Command::new(repro).args(args).output().expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
