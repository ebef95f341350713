//! `report-metrics` — run the page-cost conformance gate (measured page
//! accesses vs. the analytical cost model, term by term).
//!
//! ```text
//! report-metrics [--scale K] [--trials T] [--out DIR]
//! ```
//!
//! Exits nonzero when any checkpoint does not conform (see
//! `setsig_experiments::drift`) or an output file cannot be written, so CI
//! can gate on it. The drift table, the JSONL query trace and its metrics
//! fold land in `--out` (default `results/`).

use setsig_experiments::drift;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: report-metrics [--scale K] [--trials T] [--out DIR]

  --scale K    divide N and V by K (default 64: a quick CI-sized instance)
  --trials T   queries per checkpoint (default 2)
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
    // CI diffs the committed copies of these files: a failed write must not
    // leave stale ones behind a green run.
    if let Err(e) = ex.write_csv(&out_dir) {
        eprintln!(
            "error: cannot write {}: {e}",
            out_dir.join("drift.csv").display()
        );
        std::process::exit(1);
    }
    if let Err(e) = ex.write_artifacts(&out_dir) {
        eprintln!(
            "error: cannot write drift.metrics.txt / drift.trace.jsonl under {}: {e}",
            out_dir.display()
        );
        std::process::exit(1);
    }

    let drifted = report.drifted();
    if drifted.is_empty() {
        println!(
            "drift: all {} checkpoints conform — reported = disk = predicted pages on all {} \
             trials, stochastic terms within z = {} bands",
            report.points.len(),
            report.trial_count(),
            drift::Z
        );
        return;
    }
    eprintln!(
        "drift: {}/{} checkpoints diverged from the cost model:",
        drifted.len(),
        report.points.len()
    );
    for p in drifted {
        eprintln!("  {} {} D_q={}:", p.exhibit, p.series, p.d_q);
        for v in p.violations() {
            eprintln!("    {v}");
        }
    }
    std::process::exit(1);
}
