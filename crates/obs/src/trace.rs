//! The structured per-query trace event.

/// One completed query — filter stage, then false-drop resolution — as the
/// driver that composed the two saw it.
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
    /// Page accesses the scan charged (filter stage incl. OID look-up);
    /// every facility in the workspace reports it.
    pub pages: Option<u64>,
    /// Candidates (drops) returned by the filter.
    pub candidates: u64,
    /// True when the candidate set is exact (no verification needed).
    pub exact: bool,
    /// False drops eliminated by verification; `None` only for an event
    /// built before a resolution stage ran.
    pub false_drops: Option<u64>,
    /// Buffer-pool hits during this query, when a pool is attached.
    pub cache_hits: Option<u64>,
    /// Buffer-pool misses during this query, when a pool is attached.
    pub cache_misses: Option<u64>,
    /// Wall-clock latency of the filter call in nanoseconds.
    pub latency_ns: u64,
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
        push_opt_u64(&mut out, "pages", self.pages);
        out.push_str(&format!(",\"candidates\":{}", self.candidates));
        out.push_str(&format!(",\"exact\":{}", self.exact));
        push_opt_u64(&mut out, "false_drops", self.false_drops);
        push_opt_u64(&mut out, "cache_hits", self.cache_hits);
        push_opt_u64(&mut out, "cache_misses", self.cache_misses);
        out.push_str(&format!(",\"latency_ns\":{}}}", self.latency_ns));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tag: &str) -> QueryTrace {
        QueryTrace {
            facility: tag.to_owned(),
            predicate: "InSubset".to_owned(),
            d_q: 30,
            f_bits: Some(500),
            m_weight: Some(2),
            slices_touched: None,
            early_exit: true,
            pages: Some(41),
            candidates: 7,
            exact: false,
            false_drops: None,
            cache_hits: None,
            cache_misses: None,
            latency_ns: 5150,
        }
    }

    #[test]
    fn json_schema_is_stable() {
        let json = ev("bssf").to_json();
        assert_eq!(
            json,
            "{\"facility\":\"bssf\",\"predicate\":\"InSubset\",\"d_q\":30,\
             \"f_bits\":500,\"m_weight\":2,\"slices_touched\":null,\
             \"early_exit\":true,\"pages\":41,\
             \"candidates\":7,\"exact\":false,\"false_drops\":null,\
             \"cache_hits\":null,\"cache_misses\":null,\
             \"latency_ns\":5150}"
        );
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut e = ev("x");
        e.predicate = "a\"b\\c\nd".to_owned();
        let json = e.to_json();
        assert!(json.contains("a\\\"b\\\\c\\nd"));
    }
}
