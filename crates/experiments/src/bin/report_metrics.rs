//! `report-metrics` — run the drift checkpoints (measured page counts vs.
//! the analytical cost model) and print the observability summary.
//!
//! ```text
//! report-metrics [--scale K] [--trials T] [--out DIR]
//! ```
//!
//! Exits nonzero when any checkpoint drifts beyond tolerance, so CI can
//! gate on it. The drift table, the metrics snapshot and the JSONL query
//! trace of the run land in `--out` (default `results/`).

use setsig_experiments::{contracts, drift};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: report-metrics [--scale K] [--trials T] [--out DIR]

  --scale K    divide N and V by K (default 64: a quick CI-sized instance)
  --trials T   queries averaged per checkpoint (default 2)
  --out DIR    directory for the drift table and trace artifacts (default results/)"
    );
    std::process::exit(2);
}

fn main() {
    let mut scale = 64u64;
    let mut trials = 2u32;
    let mut out_dir = PathBuf::from("results");
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--trials" => {
                trials = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--out" => out_dir = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }

    let report = drift::run(scale, trials);
    let ex = report.exhibit();
    ex.print();
    if let Err(e) = ex.write_csv(&out_dir) {
        eprintln!("warning: failed to write drift.csv: {e}");
    }
    if let Err(e) = ex.write_artifacts(&out_dir) {
        eprintln!("warning: failed to write drift artifacts: {e}");
    }

    let mut failed = false;
    let drifted = report.drifted();
    if drifted.is_empty() {
        println!(
            "drift: all {} checkpoints within {}x ± {} pages",
            report.points.len(),
            drift::DriftReport::TOLERANCE,
            drift::DriftReport::SLACK
        );
    } else {
        failed = true;
        eprintln!(
            "drift: {}/{} checkpoints diverged from the cost model:",
            drifted.len(),
            report.points.len()
        );
        for p in drifted {
            eprintln!(
                "  {} {} D_q={}: model {:.1} pages, measured {:.1}",
                p.exhibit, p.series, p.d_q, p.model, p.measured
            );
        }
    }

    // The static `// COST:` contracts, re-checked against the disk: every
    // measured filter stage must stay at or below its committed bound.
    let checks = contracts::check(scale, trials);
    let table = contracts::render(&checks);
    if let Err(e) = std::fs::write(out_dir.join("drift.contracts.txt"), &table) {
        eprintln!("warning: failed to write drift.contracts.txt: {e}");
    }
    let over: Vec<_> = checks.iter().filter(|c| !c.ok()).collect();
    if over.is_empty() {
        println!(
            "contracts: all {} measured series within their static page bounds",
            checks.len()
        );
    } else {
        failed = true;
        eprintln!(
            "contracts: {}/{} measured series exceed their static page bounds:",
            over.len(),
            checks.len()
        );
        eprint!("{table}");
    }

    if failed {
        std::process::exit(1);
    }
}
