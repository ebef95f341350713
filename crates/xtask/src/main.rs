//! `cargo xtask` — project task runner: `analyze`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
Usage: cargo xtask <command>

Commands:
  analyze [--root <path>] [--format text|json]
                            run the project lints over the workspace
  analyze --self-test [--bench-json <path>]
                            verify the lints against the fixture corpus;
                            optionally write per-lint wall times as a
                            bench-summary JSON

Four lints: accounting, layering, guard-across-io, stale-allow.
See DESIGN.md \"Static analysis & invariants\" for what each enforces.";

/// Output format for analyze findings.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("xtask: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("analyze") => {}
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            return Ok(ExitCode::SUCCESS);
        }
        Some(other) => return Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
    let mut root: Option<PathBuf> = None;
    let mut self_test = false;
    let mut bench_json: Option<PathBuf> = None;
    let mut format = Format::Text;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let p = it.next().ok_or_else(|| "--root needs a path".to_string())?;
                root = Some(PathBuf::from(p));
            }
            "--self-test" => self_test = true,
            "--bench-json" => {
                let p = it
                    .next()
                    .ok_or_else(|| "--bench-json needs a path".to_string())?;
                bench_json = Some(PathBuf::from(p));
            }
            "--format" => {
                let f = it
                    .next()
                    .ok_or_else(|| "--format needs `text` or `json`".to_string())?;
                format = match f.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}` (text|json)")),
                };
            }
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    let root = match root {
        Some(r) => r,
        None => default_root()?,
    };

    if self_test {
        let started = Instant::now();
        let report = xtask::selftest::self_test(&root)?;
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        // Per-lint wall time, so analysis cost stays visible as the
        // workspace grows.
        for (lint, ms) in &report.timings {
            println!("  {lint:<18} {ms:8.1} ms");
        }
        if let Some(path) = &bench_json {
            // The bench-summary shape the perf-trajectory CI job archives
            // (one result row per lint section, milliseconds).
            let mut s = String::from("{\n  \"bench\": \"xtask-analyze\",\n  \"results\": [\n");
            for (i, (lint, ms)) in report.timings.iter().enumerate() {
                let comma = if i + 1 < report.timings.len() {
                    ","
                } else {
                    ""
                };
                s.push_str(&format!(
                    "    {{\"name\": \"{lint}\", \"ms\": {ms:.3}}}{comma}\n"
                ));
            }
            s.push_str("  ]\n}\n");
            std::fs::write(path, s).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        if report.failures.is_empty() {
            println!("xtask analyze --self-test: fixture corpus OK ({elapsed_ms:.1} ms)");
            return Ok(ExitCode::SUCCESS);
        }
        for f in &report.failures {
            eprintln!("self-test failure: {f}");
        }
        eprintln!(
            "xtask analyze --self-test: {} failure(s) ({elapsed_ms:.1} ms)",
            report.failures.len()
        );
        return Ok(ExitCode::FAILURE);
    }

    let diags = xtask::analyze(&root)?;
    if format == Format::Json {
        // One JSON array; findings as objects. An empty array is still
        // valid output for downstream tooling.
        println!("[");
        for (i, d) in diags.iter().enumerate() {
            let comma = if i + 1 < diags.len() { "," } else { "" };
            println!("  {}{comma}", d.to_json());
        }
        println!("]");
        return Ok(if diags.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    if diags.is_empty() {
        let names = xtask::Lint::ALL.map(xtask::Lint::name).join(", ");
        println!("xtask analyze: workspace clean ({names})");
        return Ok(ExitCode::SUCCESS);
    }
    for d in &diags {
        println!("{d}");
    }
    eprintln!("xtask analyze: {} violation(s)", diags.len());
    Ok(ExitCode::FAILURE)
}

/// The workspace root: two levels above this crate's manifest, independent
/// of the invocation directory.
fn default_root() -> Result<PathBuf, String> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| "cannot locate workspace root".to_string())
}
