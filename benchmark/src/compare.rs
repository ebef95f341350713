//! `compare BASE NEW`: two result files (one JSON line per run, as `--out`
//! writes them) judged by the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Json};
use crate::stats;

/// An end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub lower_is_better: bool,
    /// Share of the base median the metric may get worse by.
    pub bound: f64,
}

/// The `end_to_end` bounds of `BENCHMARK.json`, by metric name.
pub fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?;
    let mut e2e = BTreeMap::new();
    for m in list {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("a metric without a name")?
            .to_owned();
        let better = m.get("better").and_then(Json::as_str);
        let bound = m.get("bound").and_then(Json::as_f64);
        let (Some(better), Some(bound)) = (better, bound) else {
            return Err(format!("{name}: needs `better` and `bound`"));
        };
        e2e.insert(
            name,
            Bound {
                lower_is_better: better == "lower",
                bound,
            },
        );
    }
    Ok(e2e)
}

/// `(workload, metric) → (unit, values over the file's runs)`, in file order.
type Runs = BTreeMap<(String, String), (String, Vec<f64>)>;

pub fn read_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no `workload`", n + 1))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("line {}: no `metrics`", n + 1))?;
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            let (Some(value), Some(unit)) = (value, unit) else {
                return Err(format!("line {}: {name} lacks value or unit", n + 1));
            };
            runs.entry((workload.to_owned(), name.clone()))
                .or_insert_with(|| (unit.to_owned(), Vec::new()))
                .1
                .push(value);
        }
    }
    Ok(runs)
}

/// How a metric's new runs stand against its base runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the base median by more than the bound.
    Within,
    /// Worse than the base median by more than the bound.
    Worse,
    /// The run-to-run spread of either side exceeds the bound, and the new
    /// runs are not all better than all base runs: no call can be made.
    Unresolved,
    /// A per-layer metric: reported, not judged.
    Unbounded,
}

pub fn judge(base: &[f64], new: &[f64], bound: &Bound) -> Verdict {
    let sign = if bound.lower_is_better { 1.0 } else { -1.0 };
    let widest = [base, new]
        .iter()
        .filter_map(|v| stats::spread(v))
        .fold(0.0, f64::max);
    if widest > bound.bound {
        let worst_new = new.iter().map(|v| v * sign).fold(f64::MIN, f64::max);
        let best_base = base.iter().map(|v| v * sign).fold(f64::MAX, f64::min);
        if worst_new >= best_base {
            return Verdict::Unresolved;
        }
    }
    let (b, n) = (stats::median(base), stats::median(new));
    if (n - b) * sign > bound.bound * b.abs() {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// The comparison table, and whether any metric is [`Verdict::Worse`].
pub fn compare(benchmark_json: &str, base: &str, new: &str) -> Result<(String, bool), String> {
    let e2e = bounds(benchmark_json)?;
    let base = read_runs(base)?;
    let new = read_runs(new)?;
    let mut out = format!(
        "{:<24} {:<36} {:>6} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  {}\n",
        "workload",
        "metric",
        "unit",
        "base median",
        "new median",
        "new/base",
        "spread b",
        "spread n",
        "bound",
        "verdict"
    );
    let mut any_worse = false;
    for ((workload, metric), (unit, base_values)) in &base {
        let Some((_, new_values)) = new.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (b, n) = (stats::median(base_values), stats::median(new_values));
        let bound = e2e.get(metric);
        let verdict = bound.map_or(Verdict::Unbounded, |bd| judge(base_values, new_values, bd));
        any_worse |= verdict == Verdict::Worse;
        let pct = |s: Option<f64>| s.map_or("-".to_owned(), |s| format!("{:.2}%", s * 100.0));
        writeln!(
            out,
            "{:<24} {:<36} {:>6} {:>14.4} {:>14.4} {:>8} {:>8} {:>8} {:>6}  {}",
            workload,
            metric,
            unit,
            b,
            n,
            if b == 0.0 {
                "-".to_owned()
            } else {
                format!("{:.4}", n / b)
            },
            pct(stats::spread(base_values)),
            pct(stats::spread(new_values)),
            bound.map_or("-".to_owned(), |bd| format!("{:.0}%", bd.bound * 100.0)),
            match verdict {
                Verdict::Within => "within bound",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved (spread > bound)",
                Verdict::Unbounded => "-",
            }
        )
        .expect("writing to a String cannot fail");
    }
    writeln!(
        out,
        "new/base is the new file's median over the base file's median ({} and {} metric rows read)",
        base.len(),
        new.len()
    )
    .expect("writing to a String cannot fail");
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound {
        lower_is_better: true,
        bound: 0.10,
    };
    const HIGHER: Bound = Bound {
        lower_is_better: false,
        bound: 0.10,
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let base = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            judge(&base, &[104.0, 105.0, 103.0, 104.5], &LOWER),
            Verdict::Within
        );
        assert_eq!(
            judge(&base, &[120.0, 121.0, 119.0, 120.5], &LOWER),
            Verdict::Worse
        );
        assert_eq!(
            judge(&base, &[80.0, 81.0, 79.0, 80.5], &LOWER),
            Verdict::Within
        );
        assert_eq!(
            judge(&base, &[80.0, 81.0, 79.0, 80.5], &HIGHER),
            Verdict::Worse
        );
        assert_eq!(
            judge(&base, &[120.0, 121.0, 119.0, 120.5], &HIGHER),
            Verdict::Within
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [100.0, 130.0, 80.0, 120.0, 90.0];
        assert_eq!(
            judge(&noisy, &[100.0, 101.0, 99.0, 100.0], &LOWER),
            Verdict::Unresolved
        );
        // Every new run beats every base run: the spread does not matter.
        assert_eq!(
            judge(&noisy, &[50.0, 51.0, 49.0, 50.0], &LOWER),
            Verdict::Within
        );
    }

    #[test]
    fn reads_bounds_and_runs() {
        let bench = r#"{"end_to_end": [{"name": "lat", "unit": "us", "better": "lower", "bound": 0.1}],
                        "per_layer": [{"name": "x.y", "unit": "ns", "better": "lower"}]}"#;
        assert_eq!(bounds(bench).unwrap()["lat"], LOWER);
        let line = |v: f64| {
            format!(
                "{{\"workload\": \"w\", \"metrics\": {{\"lat\": {{\"value\": {v}, \"unit\": \"us\"}}}}}}\n"
            )
        };
        let base: String = [10.0, 10.1, 9.9].iter().map(|&v| line(v)).collect();
        let new: String = [12.0, 12.1, 11.9].iter().map(|&v| line(v)).collect();
        let (table, worse) = compare(bench, &base, &new).unwrap();
        assert!(worse);
        assert!(table.contains("WORSE") && table.contains("1.2000"));
        let (_, worse) = compare(bench, &base, &base).unwrap();
        assert!(!worse);
    }
}
