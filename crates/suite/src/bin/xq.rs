//! `xq` — query XML files with staircase-join-powered XPath.
//!
//! ```text
//! xq <XPATH> [FILE]                 query FILE (or stdin)
//! xq --query-file <QF> [FILE]      run a whole batch (one XPath per
//!                                  line); a step several lines ask is
//!                                  computed once
//! xq --encode <FILE> <OUT.scj>     encode an XML file to the binary plane
//! xq <XPATH> --encoded <FILE.scj>  query a pre-encoded document
//! xq <XPATH> --connect <ADDR>      send the query to a running
//!                                  staircase-serve instead of loading
//!                                  a document locally (--query-file
//!                                  batches work here too)
//!
//! options:
//!   --engine staircase|pushdown|fragmented|naive|sql|auto|twig|adaptive
//!                    (`adaptive` is another name for `auto`)
//!   --variant basic|skipping|estimation   staircase skipping refinement
//!   --warm           build all auxiliary structures eagerly, in parallel
//!   --timeout-ms N   run under a governor deadline of N milliseconds;
//!                    a query still running when it expires stops
//!                    cooperatively and exits 7 (in --connect mode the
//!                    deadline rides the QUERY frame and the server
//!                    answers a TIMEOUT error frame)
//!   --max-touched N  run under a governor cost budget of N nodes
//!                    touched: the sum of --stats' `touched` and
//!                    `pred_touched` over the query's steps; touching
//!                    more exits 7 (local mode only)
//!   --count          print only the number of matching nodes
//!   --stats          print per-step statistics to stderr, including the
//!                    planner's estimated cost next to the observed cost
//!                    (the join's nodes touched + seeks) for every
//!                    engine. `seeks` counts cursor repositionings over a
//!                    tag fragment (or, for a fragment join, over its
//!                    context): fragment-join and twig steps report them,
//!                    plane scans report 0. `pred_touched` and
//!                    `pred_seeks` are the step's predicates' work: their
//!                    probes, chain reductions, selection scans and
//!                    nested-loop sub-plans
//!   --explain        print the physical plan (one line per step: chosen
//!                    operator + cost estimate; a closing `total` line
//!                    sums the plan's estimated cost) instead of
//!                    running. Steps are shown as planned: `//x` is the one step
//!                    `descendant::x  (from //x)`, and a multi-step
//!                    predicate evaluated as a semijoin chain reads
//!                    `+ semijoin[bidder.increase]`. The node test is
//!                    fused into the operator wherever there is a join
//!                    or scan for it to ride — fragment and twig joins,
//!                    SQL's early name test, and every plane scan
//!                    (`staircase`, `horiz-scan`); the
//!                    operators that still filter afterwards (`naive`,
//!                    plain `sql`, `structural`) print
//!                    `+ apply-test`. Under `auto` a
//!                    `child::name` step may print
//!                    `fragment` too: the on-list child join is priced
//!                    against the hop over every child (`structural`),
//!                    which the fixed engines always take
//!   --explain --stats  run the query, then print the post-run report:
//!                    per step, the executed operator (the planned
//!                    one), planned cost, and observed cost
//!                    (touched + seeks, as under --stats)
//! ```
//!
//! Exit codes: `0` success, `2` usage or engine-configuration error,
//! `3` XPath/XML/decode parse error, `4` I/O error, `5` partial batch
//! (one or more `--query-file` lines failed to load or parse; each
//! failure is reported with its line number and the remaining queries
//! still run — the normative contract lives in
//! `staircase_server::mix`), `6` server unavailable (`SERVER_BUSY`
//! backpressure or a draining server in `--connect` mode), `7` governed
//! stop (`--timeout-ms` deadline or `--max-touched` budget tripped —
//! locally or as a server-side `TIMEOUT`/`RESOURCE`/`CANCELLED` error
//! frame). Server-side parse errors in `--connect` mode map to `3`,
//! exactly like local ones.
//!
//! Examples:
//!
//! ```text
//! xq '//open_auction[bidder/increase]/@id' auctions.xml
//! xq --encode auctions.xml auctions.scj
//! xq '/descendant::increase/ancestor::bidder' --encoded auctions.scj --stats
//! xq '//bidder' auctions.xml --variant skipping
//! xq --query-file queries.txt auctions.xml --engine auto
//! xq --query-file queries.txt auctions.xml --warm --count
//! xq '//bidder/ancestor::open_auction' auctions.xml --engine auto --explain
//! ```
//!
//! The `auto` engine plans per step: each `descendant`/`ancestor` step
//! is priced against document statistics (per-tag fragment sizes,
//! Equation-1 window estimates) and the cheaper operator — plain
//! staircase join or prebuilt tag fragment — is chosen. `--explain`
//! shows the decisions for any engine, and the plan it prints is the
//! plan that runs: `--explain --stats` reports the same operators with
//! their observed costs. `adaptive` names the same engine.
//!
//! A query file holds one expression per line; blank lines and lines
//! starting with `#` are ignored. The batch is answered through
//! `Session::execute`, one line after another: a step an earlier line
//! already evaluated (the same path prefix, the same join under other
//! predicates, a nested `following`/`preceding` region) is shared
//! instead of recomputed, and reports `touched 0` under `--stats`. A
//! line that fails to parse is reported with
//! its line number and skipped; the rest of the batch still runs, and
//! `xq` exits `5` instead of `0` so scripts can tell a partial batch
//! from a clean one.

use std::io::Read;
use std::process::exit;

use staircase_server::protocol::code as server_code;
use staircase_server::{mix, render_node, Client, ClientError, QueryOptions};
use staircase_suite::prelude::*;

const EXIT_USAGE: i32 = 2;
const EXIT_PARSE: i32 = 3;
const EXIT_IO: i32 = 4;
/// Some `--query-file` lines failed to load or parse; the rest ran.
/// (Normative contract: `staircase_server::mix`.)
const EXIT_BATCH_PARTIAL: i32 = 5;
/// The server refused the query (backpressure or shutdown) — retry
/// later; nothing was wrong with the query itself.
const EXIT_UNAVAILABLE: i32 = 6;
/// The governor stopped the query: `--timeout-ms` deadline,
/// `--max-touched` budget, or a server-side cancellation.
const EXIT_GOVERNED: i32 = 7;

struct Options {
    query: Option<String>,
    query_file: Option<String>,
    file: Option<String>,
    encoded: Option<String>,
    encode_to: Option<(String, String)>,
    connect: Option<String>,
    engine_name: String,
    variant: Option<Variant>,
    warm: bool,
    count_only: bool,
    stats: bool,
    explain: bool,
    timeout_ms: Option<u64>,
    max_touched: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: xq <XPATH> [FILE] [--engine E] [--variant V] [--warm] [--count] \
         [--stats] [--explain]\n\
         \u{20}      xq --query-file <QF> [FILE]   (one XPath per line, batched)\n\
         \u{20}      xq --encode <FILE> <OUT.scj>\n\
         \u{20}      xq <XPATH> --encoded <FILE.scj>\n\
         \u{20}      xq <XPATH> --connect <ADDR>   (query a running staircase-serve;\n\
         \u{20}      also with --query-file; local-only flags are rejected)\n\
         engines:  staircase (default) | pushdown | fragmented | naive | sql\n\
         \u{20}         | auto (cost-based per-step operator picking;\n\
         \u{20}           adaptive is an alias)\n\
         \u{20}         | twig (fuse eligible step runs into multiway leapfrog joins)\n\
         variants: basic | skipping | estimation (default)\n\
         --explain prints the physical plan (one line per step: operator +\n\
         cost estimate) instead of evaluating; fragment/twig joins, SQL's\n\
         early name test and every plane scan\n\
         (staircase, horiz-scan) fuse the node test, while naive,\n\
         plain sql and structural steps print + apply-test; under\n\
         auto a child::name step may print fragment (the on-list\n\
         child join, priced against the structural hop over every child)\n\
         --stats prints per-step counters to stderr; fragment and twig steps\n\
         report their cursor seeks (plane scans: 0), pred_touched and\n\
         pred_seeks the work of the step's predicates, and with --explain\n\
         the observed cost next to the estimate is touched + seeks\n\
         --timeout-ms N / --max-touched N run under a governor deadline /\n\
         cost budget; a tripped query stops cooperatively and xq exits 7.\n\
         The budget is in nodes touched: the sum of --stats' touched and\n\
         pred_touched"
    );
    exit(EXIT_USAGE);
}

/// Exits with the code matching the error's nature: parse-shaped errors
/// (`3`), I/O (`4`), engine configuration (`2`).
fn fail(context: &str, err: Error) -> ! {
    eprintln!(
        "xq: {context}{}{err}",
        if context.is_empty() { "" } else { ": " }
    );
    let code = match err {
        Error::Parse(_) | Error::Xml(_) | Error::Decode(_) | Error::UnsupportedAxis(_) => {
            EXIT_PARSE
        }
        Error::InvalidEngine(_) => EXIT_USAGE,
        Error::Io(_) => EXIT_IO,
        Error::DeadlineExceeded | Error::BudgetExhausted | Error::Cancelled => EXIT_GOVERNED,
        _ => EXIT_USAGE,
    };
    exit(code);
}

fn parse_args() -> Options {
    let mut opts = Options {
        query: None,
        query_file: None,
        file: None,
        encoded: None,
        encode_to: None,
        connect: None,
        engine_name: "staircase".to_string(),
        variant: None,
        warm: false,
        count_only: false,
        stats: false,
        explain: false,
        timeout_ms: None,
        max_touched: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--connect" => opts.connect = Some(args.next().unwrap_or_else(|| usage())),
            "--encode" => {
                let src = args.next().unwrap_or_else(|| usage());
                let dst = args.next().unwrap_or_else(|| usage());
                opts.encode_to = Some((src, dst));
            }
            "--encoded" => opts.encoded = Some(args.next().unwrap_or_else(|| usage())),
            "--query-file" => opts.query_file = Some(args.next().unwrap_or_else(|| usage())),
            "--warm" => opts.warm = true,
            "--engine" => {
                let name = args.next().unwrap_or_else(|| usage());
                match name.as_str() {
                    "staircase" | "pushdown" | "fragmented" | "naive" | "sql" | "auto" | "twig"
                    | "adaptive" => {
                        opts.engine_name = name;
                    }
                    _ => usage(),
                }
            }
            "--variant" => {
                opts.variant = match args.next().as_deref() {
                    Some("basic") => Some(Variant::Basic),
                    Some("skipping") => Some(Variant::Skipping),
                    Some("estimation") => Some(Variant::EstimationSkipping),
                    _ => usage(),
                };
            }
            "--timeout-ms" => {
                let n = args.next().unwrap_or_else(|| usage());
                opts.timeout_ms = match n.parse::<u64>() {
                    Ok(n) => Some(n),
                    _ => usage(),
                };
            }
            "--max-touched" => {
                let n = args.next().unwrap_or_else(|| usage());
                // A zero-node budget can never admit work; reject it.
                opts.max_touched = match n.parse::<u64>() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => usage(),
                };
            }
            "--count" => opts.count_only = true,
            "--stats" => opts.stats = true,
            "--explain" => opts.explain = true,
            "--help" | "-h" => usage(),
            other if opts.query.is_none() && opts.query_file.is_none() => {
                opts.query = Some(other.to_string())
            }
            other if opts.file.is_none() => opts.file = Some(other.to_string()),
            _ => usage(),
        }
    }
    // `xq sample.xml --query-file qf.txt`: the positional argument seen
    // before --query-file is the document, not a query.
    if opts.query_file.is_some() && opts.file.is_none() {
        opts.file = opts.query.take();
    }
    // An inline query *and* a query file is ambiguous — reject instead
    // of silently dropping one.
    if opts.query_file.is_some() && opts.query.is_some() {
        usage();
    }
    // Explain modes are about the plan (or its report), not resource
    // policy — a governed explain would be a silently different answer.
    if opts.explain && (opts.timeout_ms.is_some() || opts.max_touched.is_some()) {
        usage();
    }
    opts
}

/// The governor budget the flags ask for (fresh per query, so one
/// tripped query never retires its batch siblings), or `None` when
/// neither flag was given.
fn build_budget(opts: &Options) -> Option<std::sync::Arc<Budget>> {
    if opts.timeout_ms.is_none() && opts.max_touched.is_none() {
        return None;
    }
    let mut budget = Budget::new();
    if let Some(ms) = opts.timeout_ms {
        budget = budget.with_deadline_in(std::time::Duration::from_millis(ms));
    }
    if let Some(n) = opts.max_touched {
        budget = budget.with_max_touched(n);
    }
    Some(std::sync::Arc::new(budget))
}

/// Routes the CLI's engine/variant flags through the builders;
/// inconsistent combinations surface as [`Error::InvalidEngine`].
fn build_engine(opts: &Options) -> Result<Engine, Error> {
    // --variant only makes sense for the staircase family; reject it
    // elsewhere instead of silently dropping it.
    if let (Some(_), "naive" | "sql" | "auto" | "twig" | "adaptive") =
        (opts.variant, opts.engine_name.as_str())
    {
        return Err(Error::InvalidEngine(format!(
            "--variant does not apply to the {} engine",
            opts.engine_name
        )));
    }
    let variant = opts.variant.unwrap_or(Variant::EstimationSkipping);
    let staircase = || Engine::staircase().variant(variant);
    match opts.engine_name.as_str() {
        "staircase" => staircase().build(),
        "pushdown" => staircase().pushdown(true).build(),
        "fragmented" => staircase().fragmented(true).build(),
        "naive" => Ok(Engine::naive()),
        "sql" => Engine::sql().eq1_window(true).early_nametest(true).build(),
        "auto" => Ok(Engine::auto()),
        "twig" => Ok(Engine::twig()),
        "adaptive" => Ok(Engine::adaptive()),
        _ => usage(),
    }
}

/// Exits with the code matching a `--connect`-mode failure: server
/// parse errors are parse errors (`3`, same as local), unknown engines
/// are usage (`2`), backpressure/shutdown is `6` (retry later), and
/// everything transport-shaped is I/O (`4`).
fn fail_client(context: &str, err: ClientError) -> ! {
    eprintln!(
        "xq: {context}{}{err}",
        if context.is_empty() { "" } else { ": " }
    );
    let exit_code = match &err {
        ClientError::Server { code, .. } => match *code {
            server_code::PARSE => EXIT_PARSE,
            server_code::ENGINE => EXIT_USAGE,
            server_code::BUSY | server_code::SHUTTING_DOWN => EXIT_UNAVAILABLE,
            server_code::TIMEOUT | server_code::RESOURCE | server_code::CANCELLED => EXIT_GOVERNED,
            _ => EXIT_IO,
        },
        ClientError::Io(_) | ClientError::Protocol(_) => EXIT_IO,
    };
    exit(exit_code);
}

/// `--connect` mode: the same queries, answered by a running
/// `staircase-serve` over the frame protocol, printed with the same
/// formatting (the server renders through the shared `render_line`).
fn run_connect(addr: &str, opts: &Options) -> ! {
    // Everything that configures *local* evaluation is meaningless
    // against a server and is rejected instead of silently ignored.
    if opts.file.is_some()
        || opts.encoded.is_some()
        || opts.encode_to.is_some()
        || opts.variant.is_some()
        || opts.warm
        || opts.explain
        // The cost budget has no wire field; only the deadline rides
        // the QUERY frame.
        || opts.max_touched.is_some()
    {
        usage();
    }
    let mut client = Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("xq: {addr}: {e}");
        exit(EXIT_IO);
    });
    let query_opts = QueryOptions {
        engine: opts.engine_name.clone(),
        render: !opts.count_only,
        count_only: opts.count_only,
        deadline_ms: opts
            .timeout_ms
            .map(|ms| u32::try_from(ms).unwrap_or(u32::MAX)),
    };

    // Batch mode over the wire: one request per query-file line, one
    // connection, streamed printing. Load and parse failures follow the
    // partial-batch contract (see `staircase_server::mix`).
    if let Some(path) = &opts.query_file {
        let (lines, issues) = mix::read_query_lines(path).unwrap_or_else(|e| {
            eprintln!("xq: {path}: {e}");
            exit(EXIT_IO);
        });
        let mut failures = issues.len();
        for issue in &issues {
            eprintln!("xq: {path}:{}: {}", issue.lineno, issue.message);
        }
        for line in &lines {
            if !opts.count_only {
                println!("# {}", line.text);
            }
            let sent = client.query_streamed(&line.text, &query_opts, &mut |_| {}, &mut |text| {
                print!("{text}")
            });
            match sent {
                Ok((total, touched, batch)) => {
                    if opts.stats {
                        eprintln!("server: touched {touched}  batch {batch}");
                    }
                    if opts.count_only {
                        println!("{:>8}  {}", total, line.text);
                    }
                }
                Err(ClientError::Server { code, message }) if code == server_code::PARSE => {
                    eprintln!("xq: {path}:{}: {}: {message}", line.lineno, line.text);
                    failures += 1;
                }
                Err(other) => fail_client(&line.text, other),
            }
        }
        exit(if failures > 0 { EXIT_BATCH_PARTIAL } else { 0 });
    }

    let expr = opts.query.as_deref().unwrap_or_else(|| usage());
    let (total, touched, batch) = client
        .query_streamed(expr, &query_opts, &mut |_| {}, &mut |text| print!("{text}"))
        .unwrap_or_else(|e| fail_client("", e));
    if opts.stats {
        eprintln!("server: touched {touched}  batch {batch}");
    }
    if opts.count_only {
        println!("{total}");
    }
    exit(0);
}

fn main() {
    let opts = parse_args();

    if let Some(addr) = &opts.connect {
        run_connect(addr, &opts);
    }

    // Encoding mode.
    if let Some((src, dst)) = &opts.encode_to {
        let session = Session::open_xml(src).unwrap_or_else(|e| fail(src, e));
        let doc = session.doc();
        if let Err(e) = std::fs::write(dst, doc.to_bytes()) {
            fail(dst, e.into());
        }
        eprintln!(
            "encoded {} nodes (height {}) from {src} into {dst}",
            doc.len(),
            doc.height()
        );
        return;
    }

    if opts.query.is_none() && opts.query_file.is_none() {
        usage();
    }
    let engine = build_engine(&opts).unwrap_or_else(|e| fail("", e));

    // Document acquisition: pre-encoded plane, file, or stdin.
    let session = if let Some(path) = &opts.encoded {
        Session::open_encoded(path).unwrap_or_else(|e| fail(path, e))
    } else if let Some(path) = &opts.file {
        Session::open_xml(path).unwrap_or_else(|e| fail(path, e))
    } else {
        let mut buf = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
            fail("stdin", e.into());
        }
        Session::parse_xml(&buf).unwrap_or_else(|e| fail("stdin", e))
    };
    if opts.warm {
        session.warm();
    }

    // Batch mode: every expression in the query file, as one batch.
    // Loading is buffered and per-line (`staircase_server::mix`, the
    // same loader the server's query-mix path uses): a line that fails
    // to load (bad UTF-8) or to parse is reported with its line number
    // and skipped rather than aborting the whole batch; the exit code
    // then distinguishes the partial batch from a clean run.
    if let Some(path) = &opts.query_file {
        let (lines, issues) = mix::read_query_lines(path).unwrap_or_else(|e| fail(path, e.into()));
        let mut parse_failures = issues.len();
        for issue in &issues {
            eprintln!("xq: {path}:{}: {}", issue.lineno, issue.message);
        }
        let mut queries = Vec::new();
        for line in &lines {
            match session.prepare(&line.text) {
                Ok(query) => queries.push(query),
                Err(err) => {
                    eprintln!("xq: {path}:{}: {}: {err}", line.lineno, line.text);
                    parse_failures += 1;
                }
            }
        }
        if opts.explain && !opts.stats {
            for query in &queries {
                println!("# {}", query.text());
                print_plan(&query.explain(engine));
            }
        } else if opts.explain {
            // Post-run explain: evaluate, then report planned vs
            // observed cost per executed step.
            let refs: Vec<&_> = queries.iter().collect();
            let outputs = session.run_many(&refs, engine);
            for (query, out) in queries.iter().zip(&outputs) {
                println!("# {}", query.text());
                print_report(out);
            }
        } else {
            // A fresh budget per query: one tripped query never retires
            // its batch siblings.
            let jobs: Vec<_> = queries.iter().map(|q| (q, build_budget(&opts))).collect();
            let outputs = session.execute(&jobs, engine, None);
            let mut tripped = 0;
            for (query, out) in queries.iter().zip(&outputs) {
                let out = match out {
                    Ok(out) => out,
                    Err(e) => {
                        eprintln!("xq: {}: {e}", query.text());
                        tripped += 1;
                        continue;
                    }
                };
                if opts.stats {
                    print_stats(out);
                }
                if opts.count_only {
                    println!("{:>8}  {}", out.len(), query.text());
                } else {
                    println!("# {}", query.text());
                    for v in out {
                        println!("pre {:>8}  {}", v, render_node(session.doc(), v));
                    }
                }
            }
            if parse_failures == 0 && tripped > 0 {
                exit(EXIT_GOVERNED);
            }
        }
        if parse_failures > 0 {
            exit(EXIT_BATCH_PARTIAL);
        }
        return;
    }

    let query_text = opts.query.as_deref().unwrap_or_else(|| usage());
    let query = session.prepare(query_text).unwrap_or_else(|e| fail("", e));
    if opts.explain && !opts.stats {
        print_plan(&query.explain(engine));
        return;
    }
    let out = session
        .execute(&[(&query, build_budget(&opts))], engine, None)
        .remove(0)
        .unwrap_or_else(|e| fail("", e));
    if opts.explain {
        // Post-run explain: planned vs observed cost per executed step.
        print_report(&out);
        return;
    }

    if opts.stats {
        print_stats(&out);
    }
    if opts.count_only {
        println!("{}", out.len());
        return;
    }
    for v in &out {
        println!("pre {:>8}  {}", v, render_node(session.doc(), v));
    }
}

/// The physical plan, one line per step, closed by the plan-total cost
/// line (the number `Engine::auto` would have compared alternatives by).
fn print_plan(plan: &PhysicalPlan) {
    print!("{plan}");
    println!(
        "total {:<82} est cost {:>12.0}",
        "", // aligned under the per-step `op` column
        plan.estimated_cost()
    );
}

fn print_stats(out: &QueryOutput) {
    for s in &out.stats().steps {
        eprintln!(
            "step {:<40} result {:>8}  touched {:>10}  seeks {:>8}  duplicates {:>8}  \
             est cost {:>10.0}  obs cost {:>10.0}  pred_touched {:>10}  pred_seeks {:>8}",
            s.step,
            s.result_size,
            s.nodes_touched,
            s.seeks,
            s.tuples_produced.saturating_sub(s.result_size as u64),
            s.est_cost,
            s.observed_cost(),
            s.pred_touched,
            s.pred_seeks
        );
    }
}

/// The post-run report (`--explain --stats`): per executed step, the
/// operator that ran, the cost the plan carried for it, and the cost
/// observed while running it.
fn print_report(out: &QueryOutput) {
    for s in &out.stats().steps {
        println!(
            "step {:<36} op {:<44} est cost {:>12.0}  obs cost {:>12.0}",
            s.step,
            s.op,
            s.est_cost,
            s.observed_cost()
        );
    }
}
