//! OID-hash sharding: partition assignment, per-shard reader/writer
//! access, and the merge of per-shard answers back into one.
//!
//! A [`ShardRouter`] owns `N` facility instances behind per-shard
//! `RwLock`s. Queries take read guards (many concurrent readers per
//! shard), updates take the one shard's write guard — so a live insert
//! only ever blocks queries on the shard that owns the OID. The router
//! never holds two shard guards at once and never holds any guard across
//! page I/O issued by *another* shard, which keeps the lock DAG flat:
//! `service.shard` ranks below the pool's `service.admission` (a worker
//! may query a shard while the admission lock is notionally above it in
//! the hierarchy) and above nothing.

use setsig_core::{
    CandidateSet, ElementKey, Error, Oid, Result, ScanStats, SetAccessFacility, SetQuery,
};
use setsig_pagestore::CacheStats;

use parking_lot::RwLock;

/// One query's answer: the candidate set plus the scan-stats charge, when
/// the facility reports one. The shape every [`SetAccessFacility`]
/// returns from `candidates_with_stats`, and what [`merge_parts`] pools.
pub type QueryAnswer = (CandidateSet, Option<ScanStats>);

/// The shard an OID belongs to, out of `shards` partitions.
///
/// A [SplitMix64](https://prng.di.unimi.it/splitmix64.c) finalizer over
/// the raw OID: sequential OIDs (the common allocation pattern) spread
/// uniformly instead of striping, and the assignment is a pure function
/// of `(oid, shards)` — stable across runs, which the differential
/// oracle tests rely on.
pub fn shard_of(oid: Oid, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard_of needs at least one shard");
    let mut z = oid.raw().wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % shards.max(1) as u64) as usize
}

/// Merges per-shard `(candidates, stats)` parts into one answer: the
/// candidate union (shards hold disjoint OIDs, so this never collapses
/// duplicates in practice) and the *sum* of per-shard scan stats
/// (`ScanStats`'s `Add`: pages and slices add up, `early_exit` is an OR).
///
/// The page total is conserved — the merged charge is exactly what the
/// shards charged individually, no page counted twice or dropped. The
/// merged stats are `Some` only when every shard reported stats: a
/// single non-reporting facility makes the total meaningless.
pub fn merge_parts(parts: Vec<QueryAnswer>) -> QueryAnswer {
    let mut stats = Some(ScanStats::default());
    let mut sets = Vec::with_capacity(parts.len());
    for (set, part_stats) in parts {
        sets.push(set);
        stats = match (stats, part_stats) {
            (Some(acc), Some(s)) => Some(acc + s),
            _ => None,
        };
    }
    (CandidateSet::union(sets), stats)
}

/// One shard: a facility instance behind its reader/writer lock.
struct Shard<F> {
    // LOCK-ORDER: service.shard < service.admission
    facility: RwLock<F>,
}

/// Routes OIDs and queries across `N` facility shards.
///
/// Implements [`SetAccessFacility`] itself — a sharded store is a set
/// access facility whose filtering stage happens to run per-partition —
/// so the measurement harness (`SimDb::measure_facility`) and the
/// exhibits drive it unmodified, the smart exhibits included: the cap
/// rides in the `SetQuery` each shard receives. The trait's
/// `candidates_with_stats` runs the shards serially in-caller; the
/// concurrent path is the worker pool in
/// [`QueryService`](crate::QueryService).
pub struct ShardRouter<F> {
    shards: Vec<Shard<F>>,
    name: &'static str,
    geometry: Option<(u32, u32)>,
}

impl<F: SetAccessFacility> ShardRouter<F> {
    /// Builds a router over `facilities`, one per shard. Fails on an
    /// empty vector — a router with nowhere to route is a config error,
    /// not an empty store.
    pub fn new(facilities: Vec<F>) -> Result<Self> {
        let Some(first) = facilities.first() else {
            return Err(Error::BadConfig(
                "shard router needs at least one facility".to_string(),
            ));
        };
        let (name, geometry) = (first.name(), first.signature_geometry());
        Ok(ShardRouter {
            shards: facilities
                .into_iter()
                .map(|f| Shard {
                    facility: RwLock::new(f),
                })
                .collect(),
            name,
            geometry,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `oid`.
    pub fn shard_of_oid(&self, oid: Oid) -> usize {
        shard_of(oid, self.shards.len())
    }

    /// Indexes `(oid, set)` in the owning shard, under that shard's
    /// write guard only — queries on the other shards proceed
    /// untouched.
    pub fn insert(&self, oid: Oid, set: &[ElementKey]) -> Result<()> {
        let mut guard = self.shards[self.shard_of_oid(oid)].facility.write();
        guard.insert(oid, set)
    }

    /// Removes `(oid, set)` from the owning shard.
    pub fn delete(&self, oid: Oid, set: &[ElementKey]) -> Result<()> {
        let mut guard = self.shards[self.shard_of_oid(oid)].facility.write();
        guard.delete(oid, set)
    }

    /// Runs `query`'s filtering stage on one shard, under its read
    /// guard. This is the unit of work the pool's workers execute
    /// concurrently.
    pub fn query_shard(&self, shard: usize, query: &SetQuery) -> Result<QueryAnswer> {
        let Some(s) = self.shards.get(shard) else {
            return Err(Error::BadQuery(format!(
                "shard {shard} out of range ({} shards)",
                self.shards.len()
            )));
        };
        let guard = s.facility.read();
        guard.candidates_with_stats(query)
    }

    /// Runs `query` on every shard serially (in the caller's thread) and
    /// merges — the oracle twin of the pooled path, and what the
    /// [`SetAccessFacility`] impl uses.
    pub fn query_serial(&self, query: &SetQuery) -> Result<QueryAnswer> {
        let mut parts = Vec::with_capacity(self.shards.len());
        for shard in 0..self.shards.len() {
            parts.push(self.query_shard(shard, query)?);
        }
        Ok(merge_parts(parts))
    }

    /// Runs `f` with exclusive access to one shard's facility — the seam
    /// for concrete-type operations the trait does not carry (a per-shard
    /// `bulk_load`).
    pub fn with_shard_mut<R>(&self, shard: usize, f: impl FnOnce(&mut F) -> R) -> R {
        let mut guard = self.shards[shard].facility.write();
        f(&mut guard)
    }

    /// Total objects indexed across all shards.
    pub fn total_indexed(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.facility.read().indexed_count())
            .sum()
    }

    /// Total pages occupied across all shards.
    pub fn total_storage_pages(&self) -> Result<u64> {
        let mut total = 0u64;
        for s in &self.shards {
            total += s.facility.read().storage_pages()?;
        }
        Ok(total)
    }

    /// Summed buffer-pool counters, when at least one shard is cached.
    pub fn total_cache_stats(&self) -> Option<CacheStats> {
        let mut acc: Option<CacheStats> = None;
        for s in &self.shards {
            if let Some(stats) = s.facility.read().cache_stats() {
                acc = Some(acc.unwrap_or_default() + stats);
            }
        }
        acc
    }
}

impl<F: SetAccessFacility> SetAccessFacility for ShardRouter<F> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn insert(&mut self, oid: Oid, set: &[ElementKey]) -> Result<()> {
        ShardRouter::insert(self, oid, set)
    }

    fn delete(&mut self, oid: Oid, set: &[ElementKey]) -> Result<()> {
        ShardRouter::delete(self, oid, set)
    }

    fn candidates_with_stats(&self, query: &SetQuery) -> Result<(CandidateSet, Option<ScanStats>)> {
        self.query_serial(query)
    }

    fn indexed_count(&self) -> u64 {
        self.total_indexed()
    }

    fn storage_pages(&self) -> Result<u64> {
        self.total_storage_pages()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.total_cache_stats()
    }

    fn signature_geometry(&self) -> Option<(u32, u32)> {
        self.geometry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MockFacility;

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
        let (set, stats) = merge_parts(parts);
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
        assert_eq!(merge_parts(parts).1, None);
    }

    #[test]
    fn router_requires_a_shard() {
        assert!(ShardRouter::<MockFacility>::new(vec![]).is_err());
    }

    #[test]
    fn router_routes_writes_to_the_owning_shard_only() {
        let router = ShardRouter::new((0..4).map(|_| MockFacility::new()).collect::<Vec<_>>())
            .expect("non-empty");
        for raw in 0..100u64 {
            router
                .insert(Oid::new(raw), &[ElementKey::from(raw)])
                .unwrap();
        }
        assert_eq!(router.total_indexed(), 100);
        // Each object must live in exactly the shard the hash names.
        for raw in 0..100u64 {
            let owner = router.shard_of_oid(Oid::new(raw));
            for shard in 0..4 {
                let holds = router.with_shard_mut(shard, |f| f.contains(Oid::new(raw)));
                assert_eq!(holds, shard == owner, "oid {raw} shard {shard}");
            }
        }
        // Deleting removes from the owner and only the owner.
        router
            .delete(Oid::new(7), &[ElementKey::from(7u64)])
            .unwrap();
        assert_eq!(router.total_indexed(), 99);
    }

    #[test]
    fn serial_query_merges_all_shards() {
        let router = ShardRouter::new((0..3).map(|_| MockFacility::new()).collect::<Vec<_>>())
            .expect("non-empty");
        for raw in 0..30u64 {
            router
                .insert(Oid::new(raw), &[ElementKey::from(raw % 5)])
                .unwrap();
        }
        let q = SetQuery::has_subset(vec![ElementKey::from(2u64)]);
        let (set, stats) = router.query_serial(&q).unwrap();
        let expected: Vec<Oid> = (0..30u64).filter(|r| r % 5 == 2).map(Oid::new).collect();
        assert_eq!(set.oids, expected);
        // MockFacility charges one page per query; the merged charge is
        // the conserved sum over shards.
        assert_eq!(stats.map(|s| s.pages), Some(3));
    }
}
