//! Sharded query service over set access facilities.
//!
//! The paper's experiments (Ishikawa, Kitagawa & Ohbo, SIGMOD '93)
//! measure each signature-file organisation as a single-threaded scan.
//! This crate is the serving layer above those facilities: the object
//! store and its signature files are hash-partitioned into `N` shards by
//! OID ([`shard_of`]), and a [`QueryService`] holds one facility per shard
//! behind that shard's reader/writer lock. A query runs every shard's
//! filtering stage in turn on the caller's thread, then merges the parts:
//! the candidate union, and the *sum* of the per-shard scan stats, so the
//! page charge is conserved.
//!
//! Concurrency comes from the callers, not from the service: any number of
//! them query at once under the shards' read locks, and an insert or delete
//! takes only the write lock of the shard that owns its OID. No query hands
//! work to another thread — a shard task takes microseconds, and a thread
//! wake-up costs more than that (DESIGN.md §8 has the numbers).
//!
//! [`QueryService`] implements
//! [`SetAccessFacility`] itself, so the measurement harness and exhibit
//! pipeline drive a sharded store exactly like a flat one. With one shard
//! ([`ServiceConfig::new`]`(1)`) the service is answer- and page-identical
//! to the facility it wraps, which is what keeps the drift gate meaningful.
//!
//! Correctness story (exercised by the repository's `tests/history.rs`
//! and `tests/concurrency.rs`): a sharded, concurrently-updated service
//! must agree with a serial, single-shard oracle at every quiescent point
//! — same candidates, no OID duplicated or dropped across the shard
//! boundary, page totals conserved under the merge.

#![warn(missing_docs)]

#[cfg(test)]
mod testutil;

use parking_lot::RwLock;
use setsig_core::{
    CandidateSet, ElementKey, Error, Oid, Result, ScanStats, SetAccessFacility, SetQuery,
};
use setsig_pagestore::CacheStats;

/// The shard an OID belongs to, out of `shards` partitions.
///
/// A [SplitMix64](https://prng.di.unimi.it/splitmix64.c) finalizer over
/// the raw OID: sequential OIDs (the common allocation pattern) spread
/// uniformly instead of striping, and the assignment is a pure function
/// of `(oid, shards)` — stable across runs, which the model-checked
/// history (`tests/history.rs`) relies on.
pub fn shard_of(oid: Oid, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard_of needs at least one shard");
    let mut z = oid.raw().wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % shards.max(1) as u64) as usize
}

/// How a [`QueryService`] is laid out: how many shards the store is
/// hash-partitioned into. Set by the program that builds the service; no
/// environment variable spells it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of hash partitions (≥ 1). One facility instance per shard.
    pub shards: usize,
}

impl ServiceConfig {
    /// A config for `shards` partitions.
    pub fn new(shards: usize) -> Self {
        ServiceConfig { shards }
    }

    /// Does nothing: a query's shards run on the caller's thread, so there
    /// are no workers to size. It stays only because
    /// `benchmark/src/instance.rs` (`service_of`) calls it; ROADMAP item
    /// 5(f) deletes it with that call.
    #[must_use]
    pub fn with_workers(self, _workers: usize) -> Self {
        self
    }
}

/// Merges per-shard answers: the candidate union (shards hold disjoint OIDs,
/// so it never collapses duplicates in practice) and the sum of the
/// per-shard scan stats (`ScanStats`'s `Add`: pages and slices add up,
/// `early_exit` is an OR). The merged stats are `Some` only when every
/// shard reported stats: one non-reporting facility makes the total
/// meaningless.
fn merge(parts: Vec<(CandidateSet, Option<ScanStats>)>) -> (CandidateSet, Option<ScanStats>) {
    let mut stats = Some(ScanStats::default());
    let mut sets = Vec::with_capacity(parts.len());
    for (set, part_stats) in parts {
        sets.push(set);
        stats = stats.zip(part_stats).map(|(acc, s)| acc + s);
    }
    (CandidateSet::union(sets), stats)
}

/// One shard: a facility instance behind its reader/writer lock. No code
/// path holds two shard guards at once.
struct Shard<F> {
    facility: RwLock<F>,
}

/// A sharded set access facility: OID-hash partitions, each behind its
/// own reader/writer lock, queried one after another on the caller's
/// thread, with live inserts and deletes interleaving per shard.
///
/// Implements [`SetAccessFacility`] — a sharded store is a set access
/// facility whose filtering stage happens to run per partition — so the
/// measurement harness (`SimDb::measure_facility`) and the exhibits drive
/// it unmodified, the smart exhibits included: the cap rides in the
/// `SetQuery` each shard receives.
pub struct QueryService<F> {
    shards: Vec<Shard<F>>,
    name: &'static str,
}

impl<F: SetAccessFacility> QueryService<F> {
    /// Builds a service over `facilities`, one per shard, in shard order.
    /// Fails unless there are exactly `config.shards` of them, and at
    /// least one: a service with nowhere to route is a config error, not
    /// an empty store.
    pub fn new(facilities: Vec<F>, config: ServiceConfig) -> Result<Self> {
        if facilities.len() != config.shards {
            return Err(Error::BadConfig(format!(
                "service configured for {} shards but given {} facilities",
                config.shards,
                facilities.len()
            )));
        }
        let Some(first) = facilities.first() else {
            return Err(Error::BadConfig(
                "service shards must be >= 1, got 0".to_string(),
            ));
        };
        let name = first.name();
        Ok(QueryService {
            shards: facilities
                .into_iter()
                .map(|f| Shard {
                    facility: RwLock::new(f),
                })
                .collect(),
            name,
        })
    }

    fn owner(&self, oid: Oid) -> &Shard<F> {
        &self.shards[shard_of(oid, self.shards.len())]
    }

    /// Indexes `(oid, set)` in the owning shard, under that shard's
    /// write guard only — queries on the other shards proceed
    /// untouched.
    pub fn insert(&self, oid: Oid, set: &[ElementKey]) -> Result<()> {
        self.owner(oid).facility.write().insert(oid, set)
    }

    /// Removes `(oid, set)` from the owning shard.
    pub fn delete(&self, oid: Oid, set: &[ElementKey]) -> Result<()> {
        self.owner(oid).facility.write().delete(oid, set)
    }

    /// Runs `query`'s filtering stage on one shard, under its read guard.
    pub fn query_shard(
        &self,
        shard: usize,
        query: &SetQuery,
    ) -> Result<(CandidateSet, Option<ScanStats>)> {
        let Some(s) = self.shards.get(shard) else {
            return Err(Error::BadQuery(format!(
                "shard {shard} out of range ({} shards)",
                self.shards.len()
            )));
        };
        let guard = s.facility.read();
        guard.candidates_with_stats(query)
    }
}

impl<F: SetAccessFacility> SetAccessFacility for QueryService<F> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn insert(&mut self, oid: Oid, set: &[ElementKey]) -> Result<()> {
        QueryService::insert(self, oid, set)
    }

    fn delete(&mut self, oid: Oid, set: &[ElementKey]) -> Result<()> {
        QueryService::delete(self, oid, set)
    }

    /// Queries every shard in turn on the caller's thread, then merges;
    /// the first shard error is the answer.
    fn candidates_with_stats(&self, query: &SetQuery) -> Result<(CandidateSet, Option<ScanStats>)> {
        let parts = (0..self.shards.len())
            .map(|shard| self.query_shard(shard, query))
            .collect::<Result<Vec<_>>>()?;
        Ok(merge(parts))
    }

    fn indexed_count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.facility.read().indexed_count())
            .sum()
    }

    fn storage_pages(&self) -> Result<u64> {
        let mut total = 0u64;
        for s in &self.shards {
            total += s.facility.read().storage_pages()?;
        }
        Ok(total)
    }

    /// Summed buffer-pool counters, when at least one shard is cached.
    fn cache_stats(&self) -> Option<CacheStats> {
        let mut acc: Option<CacheStats> = None;
        for s in &self.shards {
            if let Some(stats) = s.facility.read().cache_stats() {
                acc = Some(acc.unwrap_or_default() + stats);
            }
        }
        acc
    }

    /// Shard 0's geometry with the shards' `Σ|T|` summed, so
    /// `Database::plan` prices a sharded store as the flat facility it
    /// partitions; `None` if any shard has no profile.
    fn signature_profile(&self) -> Option<(u32, u32, u64)> {
        let mut profiles = self
            .shards
            .iter()
            .map(|s| s.facility.read().signature_profile());
        let first = profiles.next()??;
        profiles.try_fold(first, |(f, m, sum), p| p.map(|(_, _, e)| (f, m, sum + e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MockFacility;

    fn service(shards: usize) -> QueryService<MockFacility> {
        QueryService::new(
            (0..shards).map(|_| MockFacility::new()).collect(),
            ServiceConfig::new(shards),
        )
        .expect("valid config")
    }

    fn key(e: u64) -> ElementKey {
        ElementKey::from(e)
    }

    #[test]
    fn shard_of_is_deterministic_and_total() {
        for shards in [1usize, 2, 7, 16] {
            for raw in 0..500u64 {
                let s = shard_of(Oid::new(raw), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(Oid::new(raw), shards), "stable");
            }
        }
    }

    #[test]
    fn shard_of_spreads_sequential_oids() {
        let shards = 8;
        let mut counts = vec![0u32; shards];
        for raw in 0..8000u64 {
            counts[shard_of(Oid::new(raw), shards)] += 1;
        }
        // Uniform would be 1000 per shard; accept a generous band. A
        // striping or constant assignment fails this by miles.
        for (i, c) in counts.iter().enumerate() {
            assert!((700..=1300).contains(c), "shard {i} got {c} of 8000");
        }
    }

    #[test]
    fn merge_conserves_stats_and_pools_candidates() {
        let parts = vec![
            (
                CandidateSet::new(vec![Oid::new(4), Oid::new(1)], false),
                Some(ScanStats {
                    pages: 3,
                    slices: 2,
                    early_exit: true,
                }),
            ),
            (
                CandidateSet::new(vec![Oid::new(2)], false),
                Some(ScanStats {
                    pages: 5,
                    slices: 4,
                    early_exit: false,
                }),
            ),
        ];
        let (set, stats) = merge(parts);
        assert_eq!(set.oids, vec![Oid::new(1), Oid::new(2), Oid::new(4)]);
        let merged = ScanStats {
            pages: 8,
            slices: 6,
            early_exit: true,
        };
        assert_eq!(stats, Some(merged));
    }

    #[test]
    fn merge_drops_stats_if_any_shard_is_silent() {
        let parts = vec![
            (CandidateSet::new(vec![], false), Some(ScanStats::default())),
            (CandidateSet::new(vec![], false), None),
        ];
        assert_eq!(merge(parts).1, None);
    }

    #[test]
    fn mismatched_shard_count_is_rejected() {
        let Err(err) = QueryService::new(vec![MockFacility::new()], ServiceConfig::new(2)) else {
            panic!("mismatched shard count accepted")
        };
        assert!(err.to_string().contains("2 shards"), "{err}");
        let Err(err) = QueryService::<MockFacility>::new(vec![], ServiceConfig::new(0)) else {
            panic!("zero shards accepted")
        };
        assert!(err.to_string().contains("shards must be >= 1"), "{err}");
        // The worker count is gone; the call that sets it changes nothing.
        assert_eq!(ServiceConfig::new(2).with_workers(8), ServiceConfig::new(2));
    }

    #[test]
    fn writes_go_to_the_owning_shard_only() {
        let svc = service(4);
        for raw in 0..100u64 {
            svc.insert(Oid::new(raw), &[key(raw)]).unwrap();
        }
        assert_eq!(svc.indexed_count(), 100);
        // Each object must live in exactly the shard the hash names.
        for raw in 0..100u64 {
            let owner = shard_of(Oid::new(raw), 4);
            let q = SetQuery::has_subset(vec![key(raw)]);
            for shard in 0..4 {
                let (set, _) = svc.query_shard(shard, &q).unwrap();
                assert_eq!(
                    !set.oids.is_empty(),
                    shard == owner,
                    "oid {raw} shard {shard}"
                );
            }
        }
        // Deleting removes from the owner and only the owner.
        svc.delete(Oid::new(7), &[key(7)]).unwrap();
        assert_eq!(svc.indexed_count(), 99);
        assert!(svc
            .query_shard(4, &SetQuery::has_subset(vec![key(0)]))
            .is_err());
    }

    #[test]
    fn a_query_merges_every_shard() {
        let svc = service(3);
        for raw in 0..30u64 {
            svc.insert(Oid::new(raw), &[key(raw % 5)]).unwrap();
        }
        let q = SetQuery::has_subset(vec![key(2)]);
        let (set, stats) = svc.candidates_with_stats(&q).unwrap();
        let expected: Vec<Oid> = (0..30u64).filter(|r| r % 5 == 2).map(Oid::new).collect();
        assert_eq!(set.oids, expected);
        // MockFacility charges one page per query; the merged charge is
        // the conserved sum over shards.
        assert_eq!(stats.map(|s| s.pages), Some(3));
    }

    #[test]
    fn shard_errors_propagate_to_the_caller() {
        let svc = service(2);
        // MockFacility rejects empty query sets with BadQuery.
        let q = SetQuery::has_subset(vec![]);
        let err = svc.candidates_with_stats(&q).unwrap_err();
        assert!(matches!(err, Error::BadQuery(_)), "{err}");
    }

    #[test]
    fn concurrent_callers_and_writers_never_lose_answers() {
        let svc = service(4);
        for raw in 0..100u64 {
            svc.insert(Oid::new(raw), &[key(raw % 5)]).unwrap();
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                for raw in 100..200u64 {
                    svc.insert(Oid::new(raw), &[key(raw % 5)]).unwrap();
                }
            });
            for t in 0..4u64 {
                let svc = &svc;
                s.spawn(move || {
                    let q = SetQuery::has_subset(vec![key(t % 5)]);
                    for _ in 0..20 {
                        let (set, _) = svc.candidates_with_stats(&q).unwrap();
                        // Every pre-existing answer must be present
                        // whatever the writer is doing (no false
                        // negatives on committed objects).
                        for raw in (0..100u64).filter(|r| r % 5 == t % 5) {
                            assert!(set.oids.contains(&Oid::new(raw)), "lost oid {raw}");
                        }
                    }
                });
            }
        });
        assert_eq!(svc.indexed_count(), 200);
    }
}
