//! # setsig-obs — per-query tracing and metrics
//!
//! A small observability layer for the set access facilities: the paper's
//! whole argument rests on page-access counts, so every measured number
//! should be attributable to one query and cross-checkable against the
//! analytic cost model. This crate provides the three pieces the rest of
//! the workspace threads through:
//!
//! * [`MetricsRegistry`] — named [`Counter`]s and log2-bucket
//!   [`Histogram`]s, lock-free on the update path,
//! * [`QueryTrace`] — one structured event per query (query shape, pages,
//!   slices, early exit, drops and false drops, cache traffic, latency).
//!   The facilities do not build it: a filter call returns its facts, and
//!   the driver that also resolves the drops builds the event,
//! * [`Recorder`] — a registry plus the standard per-facility metrics a
//!   [`QueryTrace`] feeds.
//!
//! The crate sits at the bottom of the workspace DAG (it may not see the
//! facilities or the harness) and uses no external dependencies beyond the
//! vendored `parking_lot` stand-in.

#![warn(missing_docs)]

mod metrics;
mod trace;

pub use metrics::{
    Counter, Histogram, HistogramSnapshot, MetricValue, MetricsRegistry, MetricsSnapshot,
};
pub use trace::QueryTrace;

/// A metrics registry with the standard per-facility query metrics on top.
#[derive(Debug, Default)]
pub struct Recorder {
    registry: MetricsRegistry,
}

impl Recorder {
    /// A recorder with a fresh registry.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// The metrics registry fed by [`Recorder::record_query`].
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Records one completed query: updates the standard per-facility
    /// metrics (see DESIGN.md §7 for the name schema).
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
}
