//! # setsig-obs — per-query tracing and metrics
//!
//! A small observability layer for the set access facilities: the paper's
//! whole argument rests on page-access counts, so every measured number
//! should be attributable to one query and cross-checkable against the
//! analytic cost model. This crate provides the three pieces the rest of
//! the workspace threads through:
//!
//! * [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s and log2-bucket
//!   [`Histogram`]s, lock-free on the update path,
//! * [`QueryTrace`] — one structured event per `candidates*` call (query
//!   shape, pages, slices, early exit, cache traffic, latency), emitted
//!   through pluggable [`TraceSink`]s ([`RingSink`], [`JsonlSink`]),
//! * [`Recorder`] — the bundle a facility holds (as an
//!   `Option<Arc<Recorder>>`): when absent, the facilities skip all clock
//!   reads and event construction, so disabled observability costs
//!   nothing.
//!
//! The crate sits at the bottom of the workspace DAG (it may not see the
//! facilities or the harness) and uses no external dependencies beyond the
//! vendored `parking_lot` stand-in.

#![warn(missing_docs)]

mod metrics;
mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, MetricsRegistry, MetricsSnapshot,
};
pub use trace::{JsonlSink, QueryTrace, RingSink, TraceSink};

use std::sync::Arc;

/// The per-facility observability bundle: a metrics registry plus zero or
/// more trace sinks. Facilities hold `Option<Arc<Recorder>>` — `None` (the
/// default) means no clocks are read and no events are built.
pub struct Recorder {
    registry: MetricsRegistry,
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl Recorder {
    /// A recorder with a fresh registry and no sinks.
    pub fn new() -> Self {
        Recorder {
            registry: MetricsRegistry::new(),
            sinks: Vec::new(),
        }
    }

    /// Adds a trace sink (builder style).
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// The metrics registry fed by [`Recorder::record_query`].
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Records one completed query: updates the standard per-facility
    /// metrics (see DESIGN.md §7 for the name schema) and forwards the
    /// event to every sink.
    pub fn record_query(&self, ev: &QueryTrace) {
        let f = &ev.facility;
        self.registry.counter(&format!("{f}.queries")).inc();
        self.registry
            .histogram(&format!("{f}.latency_ns"))
            .record(ev.latency_ns);
        if let Some(p) = ev.pages {
            self.registry.histogram(&format!("{f}.pages")).record(p);
        }
        self.registry
            .counter(&format!("{f}.candidates"))
            .add(ev.candidates);
        if let Some(d) = ev.false_drops {
            self.registry.counter(&format!("{f}.false_drops")).add(d);
        }
        if let Some(h) = ev.cache_hits {
            self.registry.counter(&format!("{f}.cache_hits")).add(h);
        }
        if let Some(m) = ev.cache_misses {
            self.registry.counter(&format!("{f}.cache_misses")).add(m);
        }
        if ev.early_exit {
            self.registry.counter(&format!("{f}.early_exits")).inc();
        }
        for sink in &self.sinks {
            sink.record(ev);
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Recorder {{ sinks: {} }}", self.sinks.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(facility: &str, latency: u64) -> QueryTrace {
        QueryTrace {
            facility: facility.to_owned(),
            predicate: "HasSubset".to_owned(),
            d_q: 2,
            f_bits: Some(500),
            m_weight: Some(2),
            slices_touched: Some(4),
            early_exit: false,
            pages: Some(5),
            candidates: 3,
            exact: false,
            false_drops: Some(1),
            cache_hits: Some(2),
            cache_misses: Some(3),
            latency_ns: latency,
        }
    }

    #[test]
    fn recorder_updates_standard_metrics() {
        let rec = Recorder::new();
        rec.record_query(&trace("bssf", 1000));
        rec.record_query(&trace("bssf", 3000));
        let snap = rec.registry().snapshot();
        assert_eq!(snap.get_counter("bssf.queries"), Some(2));
        assert_eq!(snap.get_counter("bssf.candidates"), Some(6));
        assert_eq!(snap.get_counter("bssf.false_drops"), Some(2));
        assert_eq!(snap.get_counter("bssf.cache_hits"), Some(4));
        let h = snap.get_histogram("bssf.latency_ns").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 4000);
    }

    #[test]
    fn recorder_forwards_to_sinks() {
        let ring = Arc::new(RingSink::new(8));
        let rec = Recorder::new().with_sink(Arc::clone(&ring) as Arc<dyn TraceSink>);
        rec.record_query(&trace("ssf", 10));
        rec.record_query(&trace("nix", 20));
        let events = ring.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].facility, "ssf");
        assert_eq!(events[1].facility, "nix");
    }
}
