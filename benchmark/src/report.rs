//! A pass's result: the metrics by name and unit, the failure count, and the
//! one JSON line the run command ends with.

use std::fmt::Write as _;

use crate::json;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_owned(),
            // A ratio over an empty denominator is reported as 0, never as
            // NaN, which JSON cannot carry.
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Lines for the reader: round and sample counts.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Report {
            attempted,
            failed,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The table a person reads.
    pub fn table(&self, workload: &str, pass: &str) -> String {
        let mut out = format!("== {workload} ({pass}) ==\n");
        for m in &self.metrics {
            writeln!(out, "  {:<40} {:>16.4} {}", m.name, m.value, m.unit)
                .expect("writing to a String cannot fail");
        }
        writeln!(
            out,
            "  failed_ops {} of ops_attempted {}",
            self.failed, self.attempted
        )
        .expect("writing to a String cannot fail");
        for n in &self.notes {
            writeln!(out, "  # {n}").expect("writing to a String cannot fail");
        }
        out
    }

    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`, with `extra`
    /// fields (already JSON) in front when the line goes to a result file.
    pub fn json_line(&self, extra: &[(&str, String)]) -> String {
        let mut out = String::from("{");
        for (key, value) in extra {
            write!(out, "{}: {value}, ", json::quote(key)).expect("writing to a String");
        }
        write!(
            out,
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        )
        .expect("writing to a String cannot fail");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(&m.name),
                m.value,
                json::quote(m.unit)
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report::new(10, 0);
        r.push(Metric::new("setup_s", 0.8127, "s"));
        r.push(Metric::new("ratio", f64::NAN, "ratio"));
        let doc = json::parse(&r.json_line(&[])).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&json::Json::Bool(true)));
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(0.8127)
        );
        assert_eq!(
            m.get("ratio").unwrap().get("value").unwrap().as_f64(),
            Some(0.0)
        );
        let tagged = r.json_line(&[("workload", json::quote("w")), ("seed", "7".into())]);
        let doc = json::parse(&tagged).unwrap();
        assert_eq!(doc.get("workload").unwrap().as_str(), Some("w"));
        assert_eq!(doc.get("seed").unwrap().as_f64(), Some(7.0));
    }

    #[test]
    fn a_failed_op_makes_the_run_incorrect() {
        assert!(!Report::new(10, 1).correct());
        assert!(!Report::new(0, 0).correct());
    }
}
