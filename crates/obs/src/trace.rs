//! Structured per-query trace events and the sinks that receive them.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::Write;

/// One completed `candidates*` call, as seen by the facility that ran it.
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
    /// False drops eliminated by verification; `None` until a resolution
    /// stage has run (the facility alone cannot know).
    pub false_drops: Option<u64>,
    /// Buffer-pool hits during this query, when a pool is attached.
    pub cache_hits: Option<u64>,
    /// Buffer-pool misses during this query, when a pool is attached.
    pub cache_misses: Option<u64>,
    /// Wall-clock latency of the call in nanoseconds.
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

/// A destination for [`QueryTrace`] events. Implementations must be cheap
/// and infallible — a sink failure may not take the query path down.
pub trait TraceSink: Send + Sync {
    /// Receives one completed query event.
    fn record(&self, ev: &QueryTrace);
}

/// A bounded in-memory ring of the most recent events.
pub struct RingSink {
    // LOCK-ORDER: obs.trace_ring leaf
    buf: Mutex<VecDeque<QueryTrace>>,
    cap: usize,
}

impl RingSink {
    /// A ring keeping the most recent `cap` events (`cap ≥ 1`).
    pub fn new(cap: usize) -> Self {
        RingSink {
            buf: Mutex::new(VecDeque::new()),
            cap: cap.max(1),
        }
    }

    /// Copies out the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<QueryTrace> {
        self.buf.lock().iter().cloned().collect()
    }

    /// Copies out and clears the buffered events, oldest first.
    pub fn drain(&self) -> Vec<QueryTrace> {
        self.buf.lock().drain(..).collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.lock().is_empty()
    }
}

impl TraceSink for RingSink {
    fn record(&self, ev: &QueryTrace) {
        let mut buf = self.buf.lock();
        if buf.len() == self.cap {
            buf.pop_front();
        }
        buf.push_back(ev.clone());
    }
}

impl std::fmt::Debug for RingSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RingSink {{ cap: {}, len: {} }}", self.cap, self.len())
    }
}

/// Writes one JSON object per event to any `Write` (a file, a `Vec<u8>`
/// for tests). Write errors are swallowed: tracing must never fail the
/// query.
pub struct JsonlSink {
    // The mutex IS this sink's serialization point: `flush` necessarily
    // flushes the writer under it (allowlisted in locks.allow).
    // LOCK-ORDER: obs.trace_jsonl leaf
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlSink {
    /// A sink writing JSONL to `out`.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: Mutex::new(out),
        }
    }

    /// Flushes the underlying writer.
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort trace sink: a full disk or closed pipe must never take the query path down"
    )]
    pub fn flush(&self) {
        let _ = self.out.lock().flush();
    }
}

impl TraceSink for JsonlSink {
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort trace sink: a full disk or closed pipe must never take the query path down"
    )]
    fn record(&self, ev: &QueryTrace) {
        let mut line = ev.to_json();
        line.push('\n');
        let _ = self.out.lock().write_all(line.as_bytes());
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JsonlSink")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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

    #[test]
    fn ring_sink_drops_oldest_beyond_capacity() {
        let ring = RingSink::new(3);
        for i in 0..5 {
            ring.record(&ev(&format!("f{i}")));
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].facility, "f2");
        assert_eq!(events[2].facility, "f4");
        assert_eq!(ring.drain().len(), 3);
        assert!(ring.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        // Shared byte buffer so the written output is observable.
        #[derive(Clone, Default)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(Box::new(buf.clone()));
        sink.record(&ev("a"));
        sink.record(&ev("b"));
        sink.flush();
        let text = String::from_utf8(buf.0.lock().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"facility\":\"a\""));
        assert!(lines[1].ends_with("}"));
    }
}
