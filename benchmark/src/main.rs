//! The repository's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! staircase-benchmark run --workload W --seed N --seconds S --trace 0|1   one workload, one result line
//! staircase-benchmark run [--seed N] [--seconds S] [--trace 1] [--check]  the whole suite, one child per workload
//! staircase-benchmark repeat [--sets 2] [--runs 3] [--seed N] [--check]   two sets of runs, compared
//! staircase-benchmark compare A.json B.json                                two result files, row by row
//! staircase-benchmark spec                                                 prints BENCHMARK.json
//! ```

mod check;
mod json;
mod ladder;
mod probes;
mod reference;
mod report;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Command-line options shared by the subcommands.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub check: bool,
    pub sets: usize,
    pub runs: usize,
    pub out: Option<String>,
    pub files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        check: false,
        sets: 2,
        runs: 3,
        out: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        fn num<T: std::str::FromStr>(name: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{name}: {text:?} is not a valid number"))
        }
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => parsed.seed = num("--seed", value("--seed")?)?,
            "--seconds" => {
                parsed.seconds = num("--seconds", value("--seconds")?)?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--check" => parsed.check = true,
            "--sets" => parsed.sets = num("--sets", value("--sets")?)?,
            "--runs" => parsed.runs = num("--runs", value("--runs")?)?,
            "--out" => parsed.out = Some(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            file => parsed.files.push(file.to_string()),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) if !c.starts_with("--") => (c.as_str(), rest),
        _ => ("run", argv.as_slice()),
    };
    let result = parse_args(rest).and_then(|args| match command {
        "run" if args.workload.is_some() => suite::run_one(&args),
        "run" => suite::run_suite(&args),
        "repeat" => suite::repeat(&args),
        "compare" => suite::compare(&args),
        "spec" => {
            print!("{}", spec::benchmark_json().render_pretty());
            Ok(true)
        }
        other => Err(format!(
            "unknown command {other:?}; see benchmark/README.md"
        )),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("staircase-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
