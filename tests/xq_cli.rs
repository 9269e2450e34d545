//! End-to-end test of the `xq` command-line tool: encode, query, engine
//! selection, counting, and error handling, all through the real binary.

use std::io::Write;
use std::process::{Command, Stdio};

fn xq() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xq"))
}

fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xq-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const SAMPLE: &str = "<site><open_auctions><open_auction id='a0'><bidder><increase>1</increase>\
    </bidder><bidder><increase>2</increase></bidder></open_auction>\
    <open_auction id='a1'><bidder><date/></bidder></open_auction>\
    </open_auctions></site>";

#[test]
fn query_from_stdin() {
    let mut child = xq()
        .args(["//bidder", "--count"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(SAMPLE.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "3");
}

#[test]
fn query_from_file_with_engines() {
    let dir = tempdir();
    let file = dir.join("sample.xml");
    std::fs::write(&file, SAMPLE).unwrap();
    for engine in [
        "staircase",
        "pushdown",
        "fragmented",
        "naive",
        "sql",
        "auto",
        "adaptive",
        "twig",
    ] {
        let out = xq()
            .args([
                "/descendant::increase/ancestor::bidder",
                file.to_str().unwrap(),
                "--count",
                "--engine",
                engine,
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "engine {engine}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout).trim(),
            "2",
            "engine {engine}"
        );
    }
}

#[test]
fn encode_then_query_encoded() {
    let dir = tempdir();
    let xml = dir.join("doc.xml");
    let scj = dir.join("doc.scj");
    std::fs::write(&xml, SAMPLE).unwrap();

    let out = xq()
        .args(["--encode", xml.to_str().unwrap(), scj.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(scj.exists());

    let out = xq()
        .args([
            "//open_auction[bidder/increase]/@id",
            "--encoded",
            scj.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("@id=\"a0\""), "got: {stdout}");
    assert!(!stdout.contains("a1"));
}

#[test]
fn corrupt_encoded_file_exits_with_parse_code_not_a_panic() {
    let dir = tempdir();
    let xml = dir.join("corrupt.xml");
    let scj = dir.join("corrupt.scj");
    std::fs::write(
        &xml,
        "<site><open_auction id=\"a0\"><bidder><increase>1</increase></bidder></open_auction></site>",
    )
    .unwrap();
    let out = xq()
        .args(["--encode", xml.to_str().unwrap(), scj.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    // The last content string now ends far past the arena.
    let mut bytes = std::fs::read(&scj).unwrap();
    let at = bytes.len() - 4;
    bytes[at..].copy_from_slice(&1000u32.to_le_bytes());
    std::fs::write(&scj, bytes).unwrap();

    let out = xq()
        .args(["//node()", "--encoded", scj.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("corrupt document"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn short_text_renders_whole_locally_and_over_the_wire() {
    const XML: &str = "<a>world &amp; more<increase>1</increase></a>";
    let expected = "pre        1  text \"world & more\"\npre        3  text \"1\"\n";
    let mut child = xq()
        .args(["//text()"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(XML.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);

    let session = std::sync::Arc::new(staircase_xpath::Session::parse_xml(XML).unwrap());
    let handle =
        staircase_server::Server::start(session, staircase_server::ServerConfig::default())
            .unwrap();
    let out = xq()
        .args(["//text()", "--connect", &handle.local_addr().to_string()])
        .output()
        .unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
    handle.shutdown_and_join();
}

#[test]
fn stats_go_to_stderr() {
    let mut child = xq()
        .args(["//bidder", "--stats", "--count"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(SAMPLE.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("step"), "stats missing: {stderr}");
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "3");
}

/// Pins the `--stats` line format: every engine reports its estimated
/// cost next to the observed cost, per step, in this column order.
#[test]
fn stats_print_estimated_next_to_observed_cost_for_every_engine() {
    for engine in [
        "staircase",
        "fragmented",
        "naive",
        "sql",
        "auto",
        "adaptive",
    ] {
        let mut child = xq()
            .args(["//bidder", "--stats", "--count", "--engine", engine])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        child
            .stdin
            .as_mut()
            .unwrap()
            .write_all(SAMPLE.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success(), "engine {engine}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let step_lines: Vec<&str> = stderr.lines().filter(|l| l.starts_with("step ")).collect();
        assert!(
            !step_lines.is_empty(),
            "engine {engine}: no stats: {stderr}"
        );
        for line in step_lines {
            // The pinned column order, estimated beside observed.
            let cols = [
                "result ",
                "touched ",
                "seeks ",
                "duplicates ",
                "est cost ",
                "obs cost ",
            ];
            let mut at = 0usize;
            for col in cols {
                match line[at..].find(col) {
                    Some(off) => at += off + col.len(),
                    None => panic!("engine {engine}: column {col:?} missing or misordered: {line}"),
                }
            }
        }
    }
}

/// `--explain --stats` is the post-run report: per executed step, the
/// operator that ran with planned vs observed cost. On the flip
/// document — 2 000 `a`s that pass all fifteen predicates — `auto`
/// plans `descendant::x` as the fragment join before anything runs:
/// `--explain` alone prints it, the report runs it, and no line of any
/// engine carries a `[replan]` marker. `adaptive` prints the same bytes.
#[test]
fn explain_stats_reports_observed_cost_and_replan_markers() {
    let dir = tempdir();
    let file = dir.join("flip.xml");
    let ps: String = (1..=15).map(|i| format!("<p{i}/>")).collect();
    let xml = format!(
        "<site>{}{}</site>",
        format!("<a>{ps}<x/></a>").repeat(2000),
        "<x/>".repeat(10_000)
    );
    std::fs::write(&file, xml).unwrap();
    let preds: String = (1..=15).map(|i| format!("[p{i}]")).collect();
    let expr = format!("/descendant::a{preds}/descendant::x");
    let expr = expr.as_str();

    let report = |engine: &str, stats: bool| {
        let mut args = vec![
            expr,
            file.to_str().unwrap(),
            "--engine",
            engine,
            "--explain",
        ];
        if stats {
            args.push("--stats");
        }
        let out = xq().args(args).output().unwrap();
        assert!(
            out.status.success(),
            "{engine}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let op_of = |line: &str| {
        line.split(" op ")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .to_string()
    };
    let planned = report("auto", false);
    let planned_lines: Vec<&str> = planned.lines().filter(|l| l.starts_with("step ")).collect();
    assert_eq!(planned_lines.len(), 2, "{planned}");
    assert_eq!(op_of(planned_lines[1]), "fragment", "{planned}");

    let stdout = report("auto", true);
    let step_lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with("step ")).collect();
    assert_eq!(step_lines.len(), 2, "one report line per step: {stdout}");
    for (line, plan_line) in step_lines.iter().zip(&planned_lines) {
        assert!(line.contains("est cost"), "{line}");
        assert!(line.contains("obs cost"), "{line}");
        assert_eq!(
            op_of(line),
            op_of(plan_line),
            "what runs is what was planned"
        );
    }
    let obs: f64 = step_lines[1]
        .rsplit("obs cost")
        .next()
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert!(obs <= 4000.0, "{stdout}");
    assert_eq!(
        report("adaptive", true),
        stdout,
        "adaptive is auto by another name"
    );
    for engine in ["auto", "adaptive", "staircase"] {
        assert!(!report(engine, true).contains("[replan]"), "{engine}");
    }
}

#[test]
fn parse_errors_exit_with_parse_code() {
    let mut child = xq()
        .args(["///bad["])
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(SAMPLE.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(3), "XPath parse errors exit 3");
}

#[test]
fn malformed_xml_exits_with_parse_code() {
    let mut child = xq()
        .args(["//a"])
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"<a><b></a>")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(3), "XML parse errors exit 3");
    assert!(String::from_utf8_lossy(&out.stderr).contains("parse error"));
}

/// The level column counts 16 bits: a chain at the limit answers
/// exactly, one past it is refused at ingest (exit 3) — not answered
/// from wrapped levels — from text exactly as from `.scj`.
#[test]
fn too_deep_documents_exit_with_parse_code_not_a_wrong_count() {
    let run = |depth: usize| {
        let mut child = xq()
            .args(["/descendant-or-self::a/child::a", "--count"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let xml = "<a>".repeat(depth) + &"</a>".repeat(depth);
        child
            .stdin
            .as_mut()
            .unwrap()
            .write_all(xml.as_bytes())
            .unwrap();
        child.wait_with_output().unwrap()
    };
    let out = run(65_535);
    assert!(out.status.success(), "{:?}", out);
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "65534");
    for depth in [65_537, 70_000] {
        let out = run(depth);
        assert_eq!(out.status.code(), Some(3), "depth {depth}");
        assert!(out.stdout.is_empty(), "no count printed at depth {depth}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("nested deeper than 65535 levels"), "{err}");
    }
}

#[test]
fn missing_file_exits_with_io_code() {
    let out = xq()
        .args(["//a", "/definitely/not/here.xml"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "I/O errors exit 4");
}

#[test]
fn usage_errors_exit_with_usage_code() {
    let out = xq()
        .args(["//a", "--engine", "warp-drive"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown engines exit 2");
    let out = xq().output().unwrap();
    assert_eq!(out.status.code(), Some(2), "missing query exits 2");
}

/// `--threads` is no option (every query runs on the calling thread):
/// it exits 2 with the usage text, with or without a variant, while
/// each variant alone still answers.
#[test]
fn threads_and_variant_flags() {
    let dir = tempdir();
    let file = dir.join("flags.xml");
    std::fs::write(&file, SAMPLE).unwrap();
    for variant in ["basic", "skipping", "estimation"] {
        let args = [
            "/descendant::increase/ancestor::bidder",
            file.to_str().unwrap(),
            "--count",
            "--variant",
            variant,
        ];
        let out = xq().args(args).output().unwrap();
        assert!(out.status.success(), "variant {variant}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout).trim(),
            "2",
            "variant {variant}"
        );
        let out = xq().args(args).args(["--threads", "2"]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "variant {variant} --threads 2");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: xq"));
        assert!(out.stdout.is_empty(), "no count printed");
    }
}

#[test]
fn variant_on_non_staircase_engine_exits_with_usage_code() {
    let dir = tempdir();
    let file = dir.join("variant-sql.xml");
    std::fs::write(&file, SAMPLE).unwrap();
    let out = xq()
        .args([
            "//bidder",
            file.to_str().unwrap(),
            "--engine",
            "sql",
            "--variant",
            "basic",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "--variant on the sql engine is rejected, not silently dropped"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("--variant does not apply"));
}

#[test]
fn threads_flag_applies_to_every_engine() {
    // --threads is refused alike on every engine: a usage error, as is
    // any value of it.
    let dir = tempdir();
    let file = dir.join("threads-any.xml");
    std::fs::write(&file, SAMPLE).unwrap();
    for engine in [
        "staircase",
        "pushdown",
        "fragmented",
        "naive",
        "sql",
        "auto",
    ] {
        for n in ["0", "1", "4"] {
            let out = xq()
                .args([
                    "/descendant::increase/ancestor::bidder",
                    file.to_str().unwrap(),
                    "--count",
                    "--engine",
                    engine,
                    "--threads",
                    n,
                ])
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(2), "engine {engine}, --threads {n}");
            assert!(
                String::from_utf8_lossy(&out.stderr).contains("usage: xq"),
                "engine {engine}, --threads {n}"
            );
        }
    }
    // `parallel` is no engine either.
    let out = xq()
        .args(["//bidder", file.to_str().unwrap(), "--engine", "parallel"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "--engine parallel is a usage error"
    );
}

#[test]
fn query_file_batches_queries() {
    let dir = tempdir();
    let doc = dir.join("batch.xml");
    let qf = dir.join("batch-queries.txt");
    std::fs::write(&doc, SAMPLE).unwrap();
    std::fs::write(
        &qf,
        "# the paper's Q2, then two simpler probes\n\
         /descendant::increase/ancestor::bidder\n\
         \n\
         //bidder\n\
         //date\n",
    )
    .unwrap();

    let out = xq()
        .args([
            "--query-file",
            qf.to_str().unwrap(),
            doc.to_str().unwrap(),
            "--count",
            "--warm",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "comment and blank lines skipped: {stdout}");
    assert!(lines[0].trim().starts_with("2"), "{stdout}");
    assert!(lines[0].contains("/descendant::increase/ancestor::bidder"));
    assert!(lines[1].trim().starts_with("3"), "{stdout}");
    assert!(lines[2].trim().starts_with("1"), "{stdout}");

    // Without --count: one header per query, then its nodes.
    let out = xq()
        .args(["--query-file", qf.to_str().unwrap(), doc.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let headers = stdout.lines().filter(|l| l.starts_with("# ")).count();
    assert_eq!(headers, 3, "{stdout}");
    assert!(stdout.contains("<bidder>"));
}

#[test]
fn query_file_parse_errors_continue_with_partial_code() {
    let dir = tempdir();
    let doc = dir.join("badbatch.xml");
    let qf = dir.join("bad-queries.txt");
    std::fs::write(&doc, SAMPLE).unwrap();
    // A bad line in the middle: the lines around it must still run.
    std::fs::write(&qf, "//bidder\n///bad[\n//date\n").unwrap();
    let out = xq()
        .args([
            "--query-file",
            qf.to_str().unwrap(),
            doc.to_str().unwrap(),
            "--count",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(5),
        "partial batches exit 5, not 3 (abort) or 0 (clean)"
    );
    // The error names the file and the failing line.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad-queries.txt:2"), "stderr: {stderr}");
    assert!(stderr.contains("///bad["), "stderr: {stderr}");
    // The remaining queries ran — including the one *after* the bad line.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "two good queries answered: {stdout}");
    assert!(lines[0].trim().starts_with('3'), "{stdout}");
    assert!(lines[0].contains("//bidder"));
    assert!(lines[1].trim().starts_with('1'), "{stdout}");
    assert!(lines[1].contains("//date"));

    let out = xq()
        .args([
            "--query-file",
            "/definitely/not/here.txt",
            doc.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "missing query file exits 4");
}

#[test]
fn query_file_invalid_utf8_line_is_reported_and_skipped() {
    let dir = tempdir();
    let doc = dir.join("utf8batch.xml");
    let qf = dir.join("utf8-queries.txt");
    std::fs::write(&doc, SAMPLE).unwrap();
    // Line 2 is not UTF-8. A whole-file read would abort everything;
    // the buffered per-line reader reports it and runs the rest.
    std::fs::write(&qf, b"//bidder\n\xFF\xFE\n//date\n").unwrap();
    let out = xq()
        .args([
            "--query-file",
            qf.to_str().unwrap(),
            doc.to_str().unwrap(),
            "--count",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(5),
        "a bad-encoding line is a partial batch, not an I/O abort"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("utf8-queries.txt:2"), "stderr: {stderr}");
    assert!(stderr.contains("UTF-8"), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "both good lines ran: {stdout}");
    assert!(lines[0].trim().starts_with('3'), "{stdout}");
    assert!(lines[1].trim().starts_with('1'), "{stdout}");
}

#[test]
fn query_file_all_lines_bad_still_reports_each() {
    let dir = tempdir();
    let doc = dir.join("allbad.xml");
    let qf = dir.join("all-bad-queries.txt");
    std::fs::write(&doc, SAMPLE).unwrap();
    std::fs::write(&qf, "///x[\n# comment\n//y[unclosed\n").unwrap();
    let out = xq()
        .args(["--query-file", qf.to_str().unwrap(), doc.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(5));
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Line numbers count raw file lines (the comment shifts them).
    assert!(stderr.contains("all-bad-queries.txt:1"), "{stderr}");
    assert!(stderr.contains("all-bad-queries.txt:3"), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).is_empty());
}

#[test]
fn inline_query_plus_query_file_is_a_usage_error() {
    let dir = tempdir();
    let doc = dir.join("both.xml");
    let qf = dir.join("both-queries.txt");
    std::fs::write(&doc, SAMPLE).unwrap();
    std::fs::write(&qf, "//bidder\n").unwrap();
    // Ambiguous: neither source of queries should silently win.
    let out = xq()
        .args([
            "//increase",
            "--query-file",
            qf.to_str().unwrap(),
            doc.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "ambiguous query sources exit 2");
}

#[test]
fn warm_flag_with_single_query() {
    let dir = tempdir();
    let doc = dir.join("warm.xml");
    std::fs::write(&doc, SAMPLE).unwrap();
    let out = xq()
        .args(["//bidder", doc.to_str().unwrap(), "--warm", "--count"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "3");
}

/// A live in-process server for exercising `xq --connect`.
fn serve_sample() -> staircase_server::ServerHandle {
    let session = std::sync::Arc::new(staircase_xpath::Session::parse_xml(SAMPLE).unwrap());
    staircase_server::Server::start(session, staircase_server::ServerConfig::default()).unwrap()
}

#[test]
fn connect_mode_round_trips_against_a_live_server() {
    let handle = serve_sample();
    let addr = handle.local_addr().to_string();

    let out = xq()
        .args(["//bidder", "--connect", &addr, "--count"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "3");

    // Rendered mode uses the same shared formatting as local runs.
    let out = xq()
        .args([
            "/descendant::increase/ancestor::bidder",
            "--connect",
            &addr,
            "--engine",
            "auto",
            "--stats",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 2, "{stdout}");
    assert!(stdout.contains("pre "), "{stdout}");
    assert!(stdout.contains("<bidder>"), "{stdout}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("server: touched"),
        "--stats reports the server-side counters"
    );
    handle.shutdown_and_join();
}

#[test]
fn connect_mode_maps_server_errors_to_local_exit_codes() {
    let handle = serve_sample();
    let addr = handle.local_addr().to_string();

    let out = xq().args(["///bad[", "--connect", &addr]).output().unwrap();
    assert_eq!(out.status.code(), Some(3), "server parse errors exit 3");

    let out = xq()
        .args(["//bidder", "--connect", &addr, "--engine", "warp-drive"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown engines exit 2");

    // Local-only flags are rejected up front, not silently ignored.
    let out = xq()
        .args(["//bidder", "--connect", &addr, "--warm"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "--warm with --connect exits 2");
    handle.shutdown_and_join();

    // Nobody listening: transport errors are I/O errors.
    let out = xq()
        .args(["//bidder", "--connect", &addr])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "refused connections exit 4");
}

#[test]
fn connect_mode_streams_query_files_with_partial_code() {
    let handle = serve_sample();
    let addr = handle.local_addr().to_string();
    let dir = tempdir();
    let qf = dir.join("remote-queries.txt");
    std::fs::write(&qf, "//bidder\n///bad[\n//date\n").unwrap();

    let out = xq()
        .args([
            "--query-file",
            qf.to_str().unwrap(),
            "--connect",
            &addr,
            "--count",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(5),
        "remote batches share the partial-batch contract: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("remote-queries.txt:2"), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].trim().starts_with('3'), "{stdout}");
    assert!(lines[0].contains("//bidder"), "{stdout}");
    assert!(lines[1].trim().starts_with('1'), "{stdout}");
    handle.shutdown_and_join();
}

#[test]
fn explain_prints_one_line_per_step() {
    let mut child = xq()
        .args([
            "/descendant::increase/ancestor::bidder",
            "--engine",
            "auto",
            "--explain",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(SAMPLE.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    let lines: Vec<&str> = text.lines().collect();
    // One line per step, plus the closing plan-total cost line.
    assert_eq!(lines.len(), 3, "{text}");
    for line in &lines[..2] {
        assert!(line.starts_with("step "), "{line}");
        assert!(line.contains("op "), "{line}");
        assert!(line.contains("est cost"), "{line}");
    }
    assert!(lines[2].starts_with("total"), "{text}");
    assert!(lines[2].contains("est cost"), "{text}");
    // Selective name tests on this document plan as fragment joins.
    assert!(lines[0].contains("fragment"), "{text}");
}

/// What a user typing `//` gets: the partitioning joins of the
/// explicit-axis spelling, not a plane scan plus a structural child loop.
#[test]
fn abbreviated_paths_explain_and_run_as_joins() {
    let dir = tempdir();
    let file = dir.join("abbrev.xml");
    std::fs::write(&file, SAMPLE).unwrap();
    let run = |expr: &str, flag: &str| {
        let out = xq()
            .args([expr, file.to_str().unwrap(), "--engine", "auto", flag])
            .output()
            .unwrap();
        assert!(out.status.success(), "{expr} {flag}");
        (
            String::from_utf8_lossy(&out.stdout).to_string(),
            String::from_utf8_lossy(&out.stderr).to_string(),
        )
    };
    let (plan, _) = run("//open_auction[bidder/increase]//increase", "--explain");
    assert!(!plan.contains("structural"), "{plan}");
    assert!(plan.contains("+ semijoin[bidder.increase]"), "{plan}");
    assert!(
        plan.contains("(from //open_auction[bidder/increase])"),
        "{plan}"
    );
    // Same steps, same counters as the explicit-axis spelling.
    let steps = |stderr: &str| -> Vec<String> {
        stderr
            .lines()
            .filter(|l| l.starts_with("step "))
            .map(str::to_string)
            .collect()
    };
    let (_, abbreviated) = run("//open_auction//increase", "--stats");
    let (_, explicit) = run("/descendant::open_auction/descendant::increase", "--stats");
    assert_eq!(steps(&abbreviated).len(), 2, "{abbreviated}");
    assert_eq!(steps(&abbreviated), steps(&explicit));
}

/// ROADMAP item 1, first hole: 20 000 nested predicates (60 KB) used to
/// overflow the parser's stack and abort `xq` (exit 134).
#[test]
fn deeply_nested_predicates_exit_with_parse_code() {
    let expr = format!("{}a{}", "a[".repeat(20_000), "]".repeat(20_000));
    let mut child = xq()
        .args([expr.as_str(), "--count"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(SAMPLE.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "a typed parse error, not an abort"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("nested deeper"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn explain_renders_fused_twig_steps() {
    let mut child = xq()
        .args([
            "/descendant::open_auction[descendant::bidder]/descendant::increase",
            "--engine",
            "twig",
            "--explain",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(SAMPLE.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    let lines: Vec<&str> = text.lines().collect();
    // Both vertical steps fuse into one twig step, plus the total line.
    assert_eq!(lines.len(), 2, "{text}");
    assert!(
        lines[0].contains("twig[open_auction>bidder, open_auction>increase]"),
        "{text}"
    );
    assert!(lines[1].starts_with("total"), "{text}");
}

#[test]
fn explain_covers_fixed_engines_and_query_files() {
    let dir = tempdir();
    let file = dir.join("explain.xml");
    let qf = dir.join("explain-queries.txt");
    std::fs::write(&file, SAMPLE).unwrap();
    std::fs::write(
        &qf,
        "//bidder\n# comment\n//increase/ancestor::open_auction\n",
    )
    .unwrap();

    let out = xq()
        .args([
            "--query-file",
            qf.to_str().unwrap(),
            file.to_str().unwrap(),
            "--engine",
            "naive",
            "--explain",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("# //bidder"), "{text}");
    assert!(text.contains("naive"), "{text}");
    // Three steps across the two queries, plus one header line each:
    // the planner sees `//x` as the one `descendant::x` step it stands
    // for (five before the normalisation pass, when the literal
    // `descendant-or-self::node()/child::x` expansion was planned).
    assert_eq!(text.lines().filter(|l| l.starts_with("step ")).count(), 3);
    assert!(text.contains("(from //bidder)"), "{text}");
}
