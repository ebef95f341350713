//! Glue between the facilities and the `setsig-obs` recorder.
//!
//! A facility holds an `Option<Arc<Recorder>>` (default `None`). At each
//! `candidates*` entry it calls [`QueryObs::start`]; with no recorder
//! attached that returns `None` without reading the clock or the cache
//! counters, so disabled observability adds nothing to the query path.

use crate::facility::{CandidateSet, ScanCounters};
use crate::query::SetQuery;
use setsig_obs::{QueryTrace, Recorder};
use setsig_pagestore::CacheStats;
use std::sync::Arc;
use std::time::Instant;

/// Everything the trace event needs that only the facility knows.
pub(crate) struct QueryOutcome<'a> {
    /// Facility short name, lowercase (`"ssf"`, `"bssf"`, …).
    pub facility: &'static str,
    /// Strategy suffix for the predicate field (`Some("smart")`), if any.
    pub strategy: Option<&'static str>,
    /// Signature geometry `(F, m)`, for facilities that have one.
    pub geometry: Option<(u32, u32)>,
    /// The query's own counters.
    pub ctr: &'a ScanCounters,
    /// Whether the slices/frames-touched counter is meaningful for this
    /// facility (BSSF slices, FSSF frames; false for SSF row scans).
    pub track_slices: bool,
    /// The drops the filter returned.
    pub set: &'a CandidateSet,
    /// Buffer-pool counters after the query, when a pool is attached.
    pub cache_after: Option<CacheStats>,
}

/// Armed observability context for one query: holds the recorder, the
/// entry timestamp and the entry cache counters.
pub(crate) struct QueryObs {
    rec: Arc<Recorder>,
    start: Instant,
    cache_before: Option<CacheStats>,
}

impl QueryObs {
    /// Arms observability for one query, or returns `None` (doing no work
    /// at all) when no recorder is attached. `cache` is only invoked when
    /// a recorder is present.
    pub(crate) fn start(
        rec: &Option<Arc<Recorder>>,
        cache: impl FnOnce() -> Option<CacheStats>,
    ) -> Option<QueryObs> {
        rec.as_ref().map(|r| QueryObs {
            rec: Arc::clone(r),
            start: Instant::now(),
            cache_before: cache(),
        })
    }

    /// Builds the [`QueryTrace`] for a completed query and hands it to the
    /// recorder (metrics + sinks).
    pub(crate) fn finish(self, query: &SetQuery, out: QueryOutcome<'_>) {
        let predicate = match out.strategy {
            Some(s) => format!("{:?}:{s}", query.predicate),
            None => format!("{:?}", query.predicate),
        };
        let (cache_hits, cache_misses, cache_pinned_hits) =
            match (self.cache_before, out.cache_after) {
                (Some(before), Some(after)) => (
                    Some(after.hits.saturating_sub(before.hits)),
                    Some(after.misses.saturating_sub(before.misses)),
                    Some(after.pinned_hits.saturating_sub(before.pinned_hits)),
                ),
                _ => (None, None, None),
            };
        self.rec.record_query(&QueryTrace {
            facility: out.facility.to_owned(),
            predicate,
            d_q: query.elements.len() as u64,
            f_bits: out.geometry.map(|(f, _)| f),
            m_weight: out.geometry.map(|(_, m)| m),
            slices_touched: out.track_slices.then_some(out.ctr.slices),
            early_exit: out.ctr.early_exit,
            pages: Some(out.ctr.pages),
            candidates: out.set.len() as u64,
            exact: out.set.exact,
            false_drops: None,
            cache_hits,
            cache_misses,
            cache_pinned_hits,
            latency_ns: self.start.elapsed().as_nanos() as u64,
        });
    }
}
