//! `repro` — regenerate the tables and figures of Ishikawa, Kitagawa & Ohbo
//! (SIGMOD 1993), and run the page-cost drift gate.
//!
//! ```text
//! repro all [--simulate] [--scale K] [--trials T] [--out DIR]
//! repro fig4 fig5 … table7 validate appc varcard
//! repro drift [--scale K] [--trials T] [--out DIR]
//! repro list
//! ```
//!
//! Exits 1 when an output file cannot be written — CI diffs the committed
//! copies, so a failed write must not leave stale ones behind a green run —
//! or when a `drift` checkpoint does not conform
//! (`setsig_experiments::drift`).

use setsig_experiments::drift;
use setsig_experiments::exhibits::{self, Options, ALL};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: repro <exhibit…|all|drift|list> [--simulate] [--scale K] [--trials T] [--out DIR]

exhibits: {}
drift:    the page-cost conformance gate (measured pages vs the cost model,
          term by term); exits 1 if a checkpoint drifts. Not part of `all`.

  --simulate   also run the real SSF/BSSF/NIX implementations and report
               measured page accesses next to the analytic columns
  --scale K    divide N and V by K for faster simulation (default 1 = the
               paper's 32,000 objects; analytic columns follow the scale)
  --trials T   queries averaged per measured point (default 3)
  --out DIR    directory for CSV copies (default results/)",
        ALL.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut opts = Options::default();
    let mut out_dir = PathBuf::from("results");
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--simulate" => opts.simulate = true,
            "--scale" => {
                opts.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--trials" => {
                opts.trials = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--out" => out_dir = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            "list" => {
                for id in ALL {
                    println!("{id}");
                }
                return;
            }
            "all" => wanted.extend(ALL.iter().map(std::string::ToString::to_string)),
            other if other.starts_with("--") => usage(),
            other => wanted.push(other.to_owned()),
        }
    }
    if wanted.is_empty() {
        usage();
    }

    println!(
        "setsig repro — Ishikawa, Kitagawa & Ohbo, SIGMOD 1993 (simulate: {}, scale: 1/{}, trials: {})\n",
        opts.simulate, opts.scale, opts.trials
    );
    let mut drifted = false;
    for id in wanted {
        let (exhibit, verdict) = if id == "drift" {
            let report = drift::run(opts.scale, opts.trials);
            (report.exhibit(), Some(report.verdict()))
        } else {
            let Some(exhibit) = exhibits::run(&id, &opts) else {
                eprintln!("unknown exhibit {id:?} — run `repro list`");
                std::process::exit(2);
            };
            (exhibit, None)
        };
        exhibit.print();
        let written = exhibit.write_csv(&out_dir);
        if let Err(e) = written.and_then(|()| exhibit.write_artifacts(&out_dir)) {
            eprintln!(
                "error: cannot write {id}'s files under {}: {e}",
                out_dir.display()
            );
            std::process::exit(1);
        }
        match verdict {
            Some(Ok(summary)) => println!("{summary}"),
            Some(Err(divergence)) => {
                eprintln!("{divergence}");
                drifted = true;
            }
            None => {}
        }
    }
    println!("CSV copies written to {}/", out_dir.display());
    if drifted {
        std::process::exit(1);
    }
}
