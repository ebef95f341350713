//! `repro` — regenerate the tables and figures of Ishikawa, Kitagawa & Ohbo
//! (SIGMOD 1993).
//!
//! ```text
//! repro all [--simulate] [--scale K] [--trials T] [--out DIR]
//! repro fig4 fig5 … table7 validate appc varcard
//! repro list
//! ```

use setsig_experiments::exhibits::{self, Options, ALL};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: repro <exhibit…|all|list> [--simulate] [--scale K] [--trials T] [--out DIR]

exhibits: {}

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
    for id in wanted {
        match exhibits::run(&id, &opts) {
            Some(exhibit) => {
                exhibit.print();
                if let Err(e) = exhibit.write_csv(&out_dir) {
                    eprintln!(
                        "warning: failed to write {}/{}.csv: {e}",
                        out_dir.display(),
                        id
                    );
                }
                if let Err(e) = exhibit.write_artifacts(&out_dir) {
                    eprintln!(
                        "warning: failed to write {} observability artifacts: {e}",
                        id
                    );
                }
            }
            None => {
                eprintln!("unknown exhibit {id:?} — run `repro list`");
                std::process::exit(2);
            }
        }
    }
    println!("CSV copies written to {}/", out_dir.display());
}
