//! The per-query trace event, and the metrics file folded from a run of them.

use std::collections::BTreeMap;

/// One completed query — filter stage, then false-drop resolution — as
/// [`SimDb::measure_facility`](crate::SimDb::measure_facility) saw it.
///
/// Fields that do not apply to a facility are `None` (e.g. NIX has no
/// signature geometry; neither it nor SSF touches slices). The JSONL
/// rendering of this struct is the stable trace schema documented in
/// DESIGN.md §7.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// Facility short name, lowercase (`ssf`, `bssf`, `fssf`, `nix`).
    pub facility: String,
    /// Predicate kind (`HasSubset`, `InSubset`, `Equals`, `Overlaps`,
    /// `Contains`), optionally suffixed with the strategy (`:smart`).
    pub predicate: String,
    /// Query cardinality `D_q`.
    pub d_q: u64,
    /// Signature width `F` in bits, where the facility has one.
    pub f_bits: Option<u32>,
    /// Element signature weight `m`, where the facility has one.
    pub m_weight: Option<u32>,
    /// Bit slices (BSSF) or frames (FSSF) touched by the scan.
    pub slices_touched: Option<u64>,
    /// True when the scan stopped before its slice/page budget because the
    /// candidate accumulator emptied.
    pub early_exit: bool,
    /// Page accesses the filter call charged (scan plus OID look-up).
    pub pages: u64,
    /// Candidates (drops) returned by the filter.
    pub candidates: u64,
    /// True when the candidate set is exact (no verification needed).
    pub exact: bool,
    /// Drops that verification rejected.
    pub false_drops: u64,
    /// Buffer-pool hits during this query, when a pool is attached.
    pub cache_hits: Option<u64>,
    /// Buffer-pool misses during this query, when a pool is attached.
    pub cache_misses: Option<u64>,
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn push_opt_u64(out: &mut String, key: &str, v: Option<u64>) {
    match v {
        Some(v) => out.push_str(&format!(",\"{key}\":{v}")),
        None => out.push_str(&format!(",\"{key}\":null")),
    }
}

impl QueryTrace {
    /// Renders the event as one JSON object (no trailing newline). The
    /// key set is fixed; absent measurements render as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"facility\":\"");
        escape_json(&self.facility, &mut out);
        out.push_str("\",\"predicate\":\"");
        escape_json(&self.predicate, &mut out);
        out.push_str(&format!("\",\"d_q\":{}", self.d_q));
        push_opt_u64(&mut out, "f_bits", self.f_bits.map(u64::from));
        push_opt_u64(&mut out, "m_weight", self.m_weight.map(u64::from));
        push_opt_u64(&mut out, "slices_touched", self.slices_touched);
        out.push_str(&format!(",\"early_exit\":{}", self.early_exit));
        out.push_str(&format!(",\"pages\":{}", self.pages));
        out.push_str(&format!(",\"candidates\":{}", self.candidates));
        out.push_str(&format!(",\"exact\":{}", self.exact));
        out.push_str(&format!(",\"false_drops\":{}", self.false_drops));
        push_opt_u64(&mut out, "cache_hits", self.cache_hits);
        push_opt_u64(&mut out, "cache_misses", self.cache_misses);
        out.push('}');
        out
    }
}

/// One facility's share of a trace.
#[derive(Default)]
struct Tally {
    queries: u64,
    candidates: u64,
    false_drops: u64,
    early_exits: u64,
    cache_hits: Option<u64>,
    cache_misses: Option<u64>,
    pages: Vec<u64>,
}

/// Upper edge of the log₂ bucket holding `v`: 0 for 0, `2^i` for
/// `v ∈ [2^(i-1), 2^i)`, and `u64::MAX` for the top bucket.
fn bucket_edge(v: u64) -> u64 {
    match 64 - v.leading_zeros() {
        0 => 0,
        64 => u64::MAX,
        i => 1 << i,
    }
}

/// The `<id>.metrics.txt` text of `trace`: per facility, in name order,
/// `name value` lines sorted by metric name. `candidates`, `false_drops`
/// and `queries` are sums; `early_exits` appears only if some query exited
/// early and `cache_hits` / `cache_misses` only if some query ran through a
/// pool; `pages` gives count, sum, mean and the log₂-bucket edge of its
/// 99th-percentile value. It carries no wall-clock.
pub fn metrics_text(trace: &[QueryTrace]) -> String {
    let mut tallies: BTreeMap<&str, Tally> = BTreeMap::new();
    for ev in trace {
        let t = tallies.entry(&ev.facility).or_default();
        t.queries += 1;
        t.candidates += ev.candidates;
        t.false_drops += ev.false_drops;
        t.early_exits += u64::from(ev.early_exit);
        if let Some(h) = ev.cache_hits {
            *t.cache_hits.get_or_insert(0) += h;
        }
        if let Some(m) = ev.cache_misses {
            *t.cache_misses.get_or_insert(0) += m;
        }
        t.pages.push(ev.pages);
    }
    let mut out = String::new();
    for (f, mut t) in tallies {
        let mut line =
            |metric: &str, value: String| out.push_str(&format!("{f}.{metric} {value}\n"));
        if let Some(h) = t.cache_hits {
            line("cache_hits", h.to_string());
        }
        if let Some(m) = t.cache_misses {
            line("cache_misses", m.to_string());
        }
        line("candidates", t.candidates.to_string());
        if t.early_exits > 0 {
            line("early_exits", t.early_exits.to_string());
        }
        line("false_drops", t.false_drops.to_string());
        t.pages.sort_unstable();
        let (count, sum) = (t.pages.len(), t.pages.iter().sum::<u64>());
        let rank = (count as f64 * 0.99).ceil() as usize;
        line(
            "pages",
            format!(
                "count={count} sum={sum} mean={:.1} p99<={}",
                sum as f64 / count as f64,
                bucket_edge(t.pages[rank - 1])
            ),
        );
        line("queries", t.queries.to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(facility: &str, pages: u64) -> QueryTrace {
        QueryTrace {
            facility: facility.to_owned(),
            predicate: "HasSubset".to_owned(),
            d_q: 2,
            f_bits: None,
            m_weight: None,
            slices_touched: None,
            early_exit: false,
            pages,
            candidates: 2,
            exact: false,
            false_drops: 1,
            cache_hits: None,
            cache_misses: None,
        }
    }

    #[test]
    fn json_schema_is_stable() {
        let json = QueryTrace {
            predicate: "InSubset".to_owned(),
            d_q: 30,
            f_bits: Some(500),
            m_weight: Some(2),
            early_exit: true,
            candidates: 7,
            false_drops: 3,
            ..ev("bssf", 41)
        }
        .to_json();
        assert_eq!(
            json,
            "{\"facility\":\"bssf\",\"predicate\":\"InSubset\",\"d_q\":30,\
             \"f_bits\":500,\"m_weight\":2,\"slices_touched\":null,\
             \"early_exit\":true,\"pages\":41,\
             \"candidates\":7,\"exact\":false,\"false_drops\":3,\
             \"cache_hits\":null,\"cache_misses\":null}"
        );
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut e = ev("x", 1);
        e.predicate = "a\"b\\c\nd".to_owned();
        let json = e.to_json();
        assert!(json.contains("a\\\"b\\\\c\\nd"));
    }

    /// Two facilities out of name order; SSF's pages walk every bucket edge
    /// of the p99 bound, and only the pooled, early-exiting BSSF query
    /// leaves `cache_*` and `early_exits` lines.
    #[test]
    fn the_metrics_file_is_a_fold_over_the_trace() {
        let pooled = QueryTrace {
            early_exit: true,
            candidates: 7,
            false_drops: 3,
            cache_hits: Some(30),
            cache_misses: Some(10),
            ..ev("bssf", 40)
        };
        let mut trace = vec![ev("ssf", 0), pooled];
        trace.extend([1, 63, 64, 65, 1 << 63].map(|pages| ev("ssf", pages)));
        assert_eq!(
            metrics_text(&trace),
            "bssf.cache_hits 30\n\
             bssf.cache_misses 10\n\
             bssf.candidates 7\n\
             bssf.early_exits 1\n\
             bssf.false_drops 3\n\
             bssf.pages count=1 sum=40 mean=40.0 p99<=64\n\
             bssf.queries 1\n\
             ssf.candidates 12\n\
             ssf.false_drops 6\n\
             ssf.pages count=6 sum=9223372036854776001 mean=1537228672809129216.0 \
             p99<=18446744073709551615\n\
             ssf.queries 6\n"
        );
        // Each prefix's p99 bound is the edge of its largest value's bucket.
        let ssf: Vec<QueryTrace> = trace.into_iter().filter(|e| e.facility == "ssf").collect();
        let pages_line = |n: usize| {
            let text = metrics_text(&ssf[..n]);
            text.lines()
                .find(|l| l.starts_with("ssf.pages"))
                .unwrap()
                .to_owned()
        };
        let expected = [
            "ssf.pages count=1 sum=0 mean=0.0 p99<=0",
            "ssf.pages count=2 sum=1 mean=0.5 p99<=2",
            "ssf.pages count=3 sum=64 mean=21.3 p99<=64",
            "ssf.pages count=4 sum=128 mean=32.0 p99<=128",
            "ssf.pages count=5 sum=193 mean=38.6 p99<=128",
        ];
        for (n, line) in expected.into_iter().enumerate() {
            assert_eq!(pages_line(n + 1), line);
        }
    }
}
