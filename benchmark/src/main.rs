//! The repo benchmark: the paper's query text in, false-drop-verified OIDs
//! out, over SSF, BSSF and NIX, on four workloads — see `README.md` here and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! setsig-benchmark [--workload NAME|all] [--seed N] [--seconds S]
//!                  [--trace 0|1|both] [--smoke] [--out FILE] [--out-dir DIR]
//! setsig-benchmark compare BASE.jsonl NEW.jsonl [--bench BENCHMARK.json]
//! ```

mod compare;
mod e2e;
mod gen;
mod instance;
mod json;
mod layers;
mod oracle;
mod pace;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;
mod wrappers;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;
use workloads::{Scale, Spec, SPECS};

/// `run_seconds` of `BENCHMARK.json`: what one end-to-end run measures for
/// when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 35.0;
const DEFAULT_SEED: u64 = 1993;

struct RunArgs {
    workloads: Vec<&'static Spec>,
    seed: u64,
    seconds: f64,
    /// Which passes: end-to-end (`--trace 0`), traced (`--trace 1`).
    passes: Vec<bool>,
    scale: Scale,
    out: Option<PathBuf>,
    out_dir: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: setsig-benchmark [--workload {}|all] [--seed N] [--seconds S] \
         [--trace 0|1|both] [--smoke] [--out FILE] [--out-dir DIR]\n       \
         setsig-benchmark compare BASE.jsonl NEW.jsonl [--bench BENCHMARK.json]",
        names.join("|")
    )
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workloads: SPECS.iter().collect(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        passes: vec![false, true],
        scale: Scale { smoke: false },
        out: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let spec = workloads::spec(name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?;
                    run.workloads = vec![spec];
                }
            }
            "--seed" => {
                let v = value()?;
                run.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a number"))?;
            }
            "--seconds" => {
                let v = value()?;
                run.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && (0.0..=3600.0).contains(s))
                    .ok_or_else(|| format!("--seconds {v:?} is not within 0..=3600"))?;
            }
            "--trace" => {
                run.passes = match value()?.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    "both" => vec![false, true],
                    other => return Err(format!("--trace {other:?}: expected 0, 1 or both")),
                };
            }
            "--smoke" => {
                run.scale = Scale { smoke: true };
                // Smoke runs the minimum number of rounds and stops.
                run.seconds = 0.0;
            }
            "--out" => run.out = Some(PathBuf::from(value()?)),
            "--out-dir" => run.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(run)
}

fn run(args: &RunArgs) -> Result<bool, String> {
    let mut all_correct = true;
    let stdout = std::io::stdout();
    for spec in &args.workloads {
        for &traced in &args.passes {
            let report: Report = if traced {
                layers::run(spec, args.seed, args.scale, Some(&args.out_dir))?
            } else {
                e2e::run(spec, args.seed, args.seconds, args.scale)?
            };
            all_correct &= report.correct();
            let pass = if traced { "traced pass" } else { "end to end" };
            let mut out = stdout.lock();
            // The JSON object is the last line a single run prints.
            let listed = if spec.judged() {
                ""
            } else {
                " (not held to a bound: BENCHMARK.json does not list it)"
            };
            writeln!(out, "# {}{listed}: {}", spec.name, spec.why)
                .and_then(|()| write!(out, "{}", report.table(spec.name, pass)))
                .and_then(|()| writeln!(out, "{}", report.json_line(&[])))
                .map_err(|e| format!("stdout: {e}"))?;
            if let Some(path) = &args.out {
                let line = report.json_line(&[
                    ("workload", json::quote(spec.name)),
                    ("seed", args.seed.to_string()),
                    ("trace", u8::from(traced).to_string()),
                ]);
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .and_then(|mut f| writeln!(f, "{line}"))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
        }
    }
    Ok(all_correct)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench = PathBuf::from(it.next().ok_or("--bench needs a path")?);
        } else {
            files.push(PathBuf::from(a));
        }
    }
    let [base, new] = files.as_slice() else {
        return Err(format!("compare takes two result files\n{}", usage()));
    };
    let read =
        |p: &PathBuf| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let (table, any_worse) = compare::compare(&read(&bench)?, &read(base)?, &read(new)?)?;
    print!("{table}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_files(&args[1..]),
        Some("-h" | "--help") => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        _ => parse_run_args(&args).and_then(|a| run(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A failed op, or a metric worse than its bound.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("setsig-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let a = parse_run_args(&strings(&[
            "--workload",
            "subset_dt10",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workloads.len(), 1);
        assert_eq!(a.workloads[0].name, "subset_dt10");
        assert_eq!(
            (a.seed, a.seconds, a.passes.as_slice()),
            (7, 15.0, &[true][..])
        );
        assert!(parse_run_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_run_args(&strings(&["--seconds", "-1"])).is_err());
        assert!(parse_run_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_run_args(&strings(&["--seed"])).is_err());
    }

    fn benchmark_json() -> json::Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn named(doc: &json::Json, key: &str, field: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(json::Json::as_array)
            .expect("a list")
            .iter()
            .map(|m| {
                let get = |k: &str| m.get(k).and_then(json::Json::as_str).expect(k).to_owned();
                (get("name"), get(field))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_what_the_code_reports() {
        let doc = benchmark_json();
        let specs: Vec<(String, String)> = SPECS
            .iter()
            .filter(|s| s.judged())
            .map(|s| (s.name.to_owned(), s.why.to_owned()))
            .collect();
        assert_eq!(named(&doc, "workloads", "why"), specs);
        assert_eq!(
            doc.get("run_seconds").and_then(json::Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let layers: Vec<(String, String)> = layers::catalog()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(named(&doc, "per_layer", "unit"), layers);
    }

    /// Every workload at 1 % size, both passes: answers check out, and each
    /// pass reports exactly the metrics `BENCHMARK.json` lists for it.
    fn smoke(seed: u64) {
        let _tracer = trace::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let doc = benchmark_json();
        let scale = Scale { smoke: true };
        for spec in &SPECS {
            let e2e = e2e::run(spec, seed, 0.0, scale).unwrap();
            assert_eq!(e2e.failed, 0, "{} seed {seed}", spec.name);
            assert!(e2e.correct());
            let got: Vec<(String, String)> = e2e
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_owned()))
                .collect();
            assert_eq!(named(&doc, "end_to_end", "unit"), got);
            for m in e2e.metrics.iter().filter(|m| m.name != "peak_rss_mib") {
                assert!(m.value > 0.0, "{} {} is {}", spec.name, m.name, m.value);
            }

            let traced = layers::run(spec, seed, scale, None).unwrap();
            assert_eq!(traced.failed, 0, "{} traced, seed {seed}", spec.name);
            let got: Vec<(String, String)> = traced
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_owned()))
                .collect();
            assert_eq!(named(&doc, "per_layer", "unit"), got);
            // No time may read 0: every layer was really exercised.
            for m in traced
                .metrics
                .iter()
                .filter(|m| matches!(m.unit, "us" | "ns"))
            {
                assert!(m.value > 0.0, "{} {} is 0", spec.name, m.name);
            }
        }
    }

    #[test]
    fn smoke_runs_clean_on_the_default_seed() {
        smoke(DEFAULT_SEED);
    }

    #[test]
    fn smoke_runs_clean_on_a_second_seed() {
        smoke(2024);
    }
}
