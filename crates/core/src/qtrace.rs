//! The one filter-stage driver every facility's `candidates_with_stats`
//! goes through.
//!
//! A facility describes itself in a [`FilterStage`] and hands
//! [`FilterStage::run`] its scan. The driver arms observability (only when a
//! recorder is attached — otherwise it reads neither the clock nor the cache
//! counters), gives the scan a fresh [`ScanCounters`] on this call's stack,
//! turns the counters into the call's [`ScanStats`], and emits the
//! [`QueryTrace`]. The signature files add the OID-file look-up between scan
//! and stats through `run_positions`.

use crate::error::Result;
use crate::facility::{CandidateSet, ScanCounters, ScanStats};
use crate::oidfile::OidFile;
use crate::query::SetQuery;
use setsig_obs::{QueryTrace, Recorder};
use setsig_pagestore::{CacheStats, PageIo};
use std::sync::Arc;
use std::time::Instant;

/// What the filter-stage driver needs to know about the facility it runs.
pub struct FilterStage<'a> {
    /// Facility short name, lowercase (`"ssf"`, `"bssf"`, …), as traces and
    /// metrics spell it.
    pub facility: &'static str,
    /// Signature geometry `(F, m)`, for facilities that have one.
    pub geometry: Option<(u32, u32)>,
    /// Whether [`ScanCounters::slices`] means something for this facility
    /// (BSSF slices, FSSF frames; not SSF row scans or B-tree probes).
    pub track_slices: bool,
    /// The attached recorder, if any.
    pub recorder: Option<&'a Arc<Recorder>>,
    /// The facility's I/O handle, asked for its cache counters.
    pub io: &'a dyn PageIo,
}

impl FilterStage<'_> {
    /// Runs `scan` as the filter stage of `query`: the drops it returns,
    /// with the pages it charged to its counters as this call's stats.
    pub fn run(
        self,
        query: &SetQuery,
        scan: impl FnOnce(&mut ScanCounters) -> Result<CandidateSet>,
    ) -> Result<(CandidateSet, Option<ScanStats>)> {
        let armed = self
            .recorder
            .map(|rec| (rec, Instant::now(), self.io.cache_stats()));
        let mut ctr = ScanCounters::default();
        let set = scan(&mut ctr)?;
        if let Some((rec, start, before)) = armed {
            let cache = before.zip(self.io.cache_stats());
            let delta = |f: fn(&CacheStats) -> u64| {
                cache.map(|(before, after)| f(&after).saturating_sub(f(&before)))
            };
            rec.record_query(&QueryTrace {
                facility: self.facility.to_owned(),
                predicate: match query.cap() {
                    Some(_) => format!("{:?}:smart", query.predicate),
                    None => format!("{:?}", query.predicate),
                },
                d_q: query.elements.len() as u64,
                f_bits: self.geometry.map(|(f, _)| f),
                m_weight: self.geometry.map(|(_, m)| m),
                slices_touched: self.track_slices.then_some(ctr.slices),
                early_exit: ctr.early_exit,
                pages: Some(ctr.pages),
                candidates: set.len() as u64,
                exact: set.exact,
                false_drops: None,
                cache_hits: delta(|c| c.hits),
                cache_misses: delta(|c| c.misses),
                latency_ns: start.elapsed().as_nanos() as u64,
            });
        }
        Ok((set, Some(ScanStats { pages: ctr.pages })))
    }

    /// [`run`](Self::run) for a signature file: `scan` says which positions
    /// match, and the OID-file look-up that maps them to drops is charged
    /// (the paper's `LC_OID`) and performed here.
    pub(crate) fn run_positions(
        self,
        query: &SetQuery,
        oid_file: &OidFile,
        scan: impl FnOnce(&mut ScanCounters) -> Result<Vec<u64>>,
    ) -> Result<(CandidateSet, Option<ScanStats>)> {
        self.run(query, |ctr| {
            let positions = scan(ctr)?;
            ctr.pages += OidFile::pages_touched(&positions);
            let resolved = oid_file.lookup_positions(&positions)?;
            Ok(CandidateSet::new(
                resolved.into_iter().map(|(_, oid)| oid).collect(),
                false,
            ))
        })
    }
}
