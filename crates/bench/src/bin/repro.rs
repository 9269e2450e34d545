//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [EXPERIMENT] [--factor F] [--runs N] [--csv DIR]
//!
//! EXPERIMENT: all | table1 | fig11a | fig11b | fig11c | fig11d
//!           | fig11e | fig11f | bandwidth | fragmentation | storage
//!           | density | verify | profile   (any other name exits 2)
//! --factor F  shrink the paper's 1.1/11/111/1111 MB document sweep by F
//!             (default 0.05 → ≈ 2.7 k – 2.8 M nodes; use 1.0 for the
//!             paper's full sizes if you have the patience and RAM)
//! --runs N    timing repetitions per point (median reported; default 3,
//!             at least 1)
//! --csv DIR   additionally write each table as DIR/<name>.csv
//! ```
//!
//! `--help`, an unknown flag or experiment, and a missing or unparsable
//! value print the usage to stderr and exit with status 2.

use staircase_bench::experiments as exp;
use staircase_bench::{Table, Workload};

/// Every experiment name `repro` runs, besides `all`.
const EXPERIMENTS: [&str; 13] = [
    "table1",
    "fig11a",
    "fig11b",
    "fig11c",
    "fig11d",
    "fig11e",
    "fig11f",
    "bandwidth",
    "fragmentation",
    "storage",
    "density",
    "verify",
    "profile",
];

const USAGE: &str = "usage: repro [EXPERIMENT] [--factor F] [--runs N] [--csv DIR]";

struct Args {
    experiment: String,
    factor: f64,
    runs: usize,
    csv: Option<String>,
}

/// The command line, or why it is refused (empty for `--help`).
fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        experiment: "all".into(),
        factor: 0.05,
        runs: 3,
        csv: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--factor" => {
                args.factor = it
                    .next()
                    .ok_or("--factor needs a value")?
                    .parse()
                    .map_err(|e| format!("--factor: {e}"))?;
            }
            "--runs" => {
                args.runs = it
                    .next()
                    .ok_or("--runs needs a value")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                // A median of no runs is no measurement.
                if args.runs == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
            }
            "--csv" => {
                args.csv = Some(it.next().ok_or("--csv needs a directory")?);
            }
            "--help" | "-h" => return Err(String::new()),
            other if !other.starts_with('-') => args.experiment = other.to_string(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    // Checked before any workload is generated: a misspelt (or
    // retired) experiment would otherwise build every document and
    // print nothing.
    if args.experiment != "all" && !EXPERIMENTS.contains(&args.experiment.as_str()) {
        return Err(format!(
            "unknown experiment {}; one of: all, {}",
            args.experiment,
            EXPERIMENTS.join(", ")
        ));
    }
    Ok(args)
}

fn emit(table: &Table, csv: &Option<String>) {
    println!("{table}");
    if let Some(dir) = csv {
        std::fs::create_dir_all(dir).expect("create csv dir");
        // Slug from the title's identifying prefix — up to the first ':'
        // (which keeps the figure letter), else up to the first '(':
        // alphanumeric runs joined by '-'.
        let head: &str = match table.title.find(':') {
            Some(i) => &table.title[..i],
            None => table.title.split('(').next().unwrap_or(&table.title),
        };
        let mut name = String::new();
        let mut gap = false;
        for c in head.chars() {
            if c.is_ascii_alphanumeric() {
                if gap && !name.is_empty() {
                    name.push('-');
                }
                name.push(c.to_ascii_lowercase());
                gap = false;
            } else {
                gap = true;
            }
        }
        let path = format!("{dir}/{name}.csv");
        std::fs::write(&path, table.to_csv()).expect("write csv");
        eprintln!("  (csv written to {path})");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("{why}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    // Each experiment reads the smallest document, the largest or all of
    // them (`storage` generates its own text): build only those. The
    // scales ascend.
    let scales = Workload::paper_scales(args.factor);
    let needed = match args.experiment.as_str() {
        "verify" => &scales[..1],
        "table1" | "bandwidth" | "fragmentation" | "density" => &scales[scales.len() - 1..],
        "storage" => &[][..],
        _ => &scales[..],
    };
    eprintln!(
        "generating workloads (factor {}, paper sweep 1.1/11/111/1111 MB → scales {:?}) …",
        args.factor, needed
    );
    let t0 = std::time::Instant::now();
    let workloads: Vec<Workload> = needed
        .iter()
        .map(|&s| {
            let w = Workload::generate(s);
            eprintln!(
                "  scale {:>8.3} → {:>9} nodes (height {})",
                s,
                w.doc().len(),
                w.doc().height()
            );
            w
        })
        .collect();
    eprintln!("workloads ready in {:.1}s\n", t0.elapsed().as_secs_f64());
    let largest = || workloads.last().expect("the largest workload is generated");

    let run = |name: &str| args.experiment == "all" || args.experiment == name;

    if run("profile") && args.experiment == "profile" {
        // Structural profile only (document statistics).
        for w in &workloads {
            let p = staircase_xmlgen::DocProfile::measure(w.doc());
            println!("scale {:>8.3}: {p:#?}", w.scale);
        }
        return;
    }

    if run("verify") || args.experiment == "all" {
        let ok = exp::verify_engines_agree(&workloads[0]);
        eprintln!(
            "engine cross-check on smallest workload: {}",
            if ok { "OK" } else { "MISMATCH" }
        );
        assert!(ok, "engines disagree — results would be meaningless");
    }

    if run("table1") {
        emit(&exp::table1(largest()), &args.csv);
    }
    if run("fig11a") {
        emit(&exp::fig11a(&workloads), &args.csv);
    }
    if run("fig11b") {
        emit(&exp::fig11b(&workloads, args.runs), &args.csv);
    }
    if run("fig11c") {
        emit(&exp::fig11c(&workloads), &args.csv);
    }
    if run("fig11d") {
        emit(&exp::fig11d(&workloads, args.runs), &args.csv);
    }
    if run("fig11e") {
        emit(&exp::fig11e(&workloads, args.runs), &args.csv);
    }
    if run("fig11f") {
        emit(&exp::fig11f(&workloads, args.runs), &args.csv);
    }
    if run("bandwidth") {
        emit(&exp::bandwidth(largest(), args.runs), &args.csv);
    }
    if run("fragmentation") {
        emit(&exp::fragmentation(largest(), args.runs), &args.csv);
    }
    if run("storage") {
        // Keep the XML text in memory affordable: cap the scale.
        let scale = scales[scales.len() - 1].min(20.0);
        emit(&exp::storage(scale, args.runs), &args.csv);
    }
    if run("density") {
        emit(&exp::context_density(largest()), &args.csv);
    }
}
