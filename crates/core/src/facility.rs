//! The common interface of set access facilities.

use crate::element::ElementKey;
use crate::error::Result;
use crate::oid::Oid;
use crate::query::SetQuery;
use crate::sorted;
use setsig_pagestore::CacheStats;

/// What one filter-stage call did: its page-access accounting plus the two
/// scan facts a trace line carries.
///
/// `pages` is what the scan requested from its I/O handle, including the
/// OID-file look-up that maps matching signature positions to candidate
/// OIDs (the paper's `LC_OID`) — what the paper's serial protocol charges,
/// whether a buffer pool under the handle served a read from memory or from
/// disk. No scan counts its own pages: each `candidates_with_stats` (one
/// for the three signature file layouts, one for the nested index) runs its
/// filter inside
/// [`count_reads`](setsig_pagestore::count_reads), the per-thread tally of
/// the pages the store serves — each `Disk` read and each buffer-pool hit
/// counts one — so a read cannot go uncharged, whatever handle made it. A
/// query runs on one thread, so concurrent queries on one facility each
/// observe exactly their own counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Slice/signature/OID pages the scan read.
    pub pages: u64,
    /// Bit slices (BSSF) or frames (FSSF) touched; SSF row scans and B-tree
    /// probes have none.
    pub slices: u64,
    /// Whether the scan stopped before its slice/page budget.
    pub early_exit: bool,
}

/// Pools the parts of one query run over disjoint partitions: pages and
/// slices add up, and the query exited early if any part did.
impl std::ops::Add for ScanStats {
    type Output = ScanStats;

    fn add(self, rhs: ScanStats) -> ScanStats {
        ScanStats {
            pages: self.pages + rhs.pages,
            slices: self.slices + rhs.slices,
            early_exit: self.early_exit | rhs.early_exit,
        }
    }
}

impl std::iter::Sum for ScanStats {
    fn sum<I: Iterator<Item = ScanStats>>(iter: I) -> ScanStats {
        iter.fold(ScanStats::default(), |acc, s| acc + s)
    }
}

/// The candidate objects (*drops*) produced by the filtering stage of a set
/// access facility, before false-drop resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateSet {
    /// Candidate OIDs, deduplicated, in ascending order.
    pub oids: Vec<Oid>,
    /// Whether the candidates are *exact* (already known to satisfy the
    /// predicate, no resolution needed). Signature files always return
    /// `false`; the nested index returns `true` for `T ⊇ Q` (an OID-list
    /// intersection proves the predicate) and for `T ⊆ Q` / `T = Q` (each
    /// posting carries `|T|`, so the lists' union counts the proof), and
    /// `false` for a smart-capped `T ⊇ Q` or a set past `|T| = 0xFFFF`.
    pub exact: bool,
}

impl CandidateSet {
    /// Creates a candidate set, sorting and deduplicating the OIDs.
    pub fn new(mut oids: Vec<Oid>, exact: bool) -> Self {
        sorted::sort_dedup(&mut oids);
        CandidateSet { oids, exact }
    }

    /// Number of drops.
    pub fn len(&self) -> usize {
        self.oids.len()
    }

    /// True when no candidate survived the filter.
    pub fn is_empty(&self) -> bool {
        self.oids.is_empty()
    }

    /// Unions candidate sets produced by disjoint partitions of one store
    /// (the sharded query path): OIDs are pooled, re-sorted and
    /// deduplicated, and the union is exact only when *every* part was —
    /// a single inexact shard means the merged drops still need
    /// resolution.
    pub fn union<I: IntoIterator<Item = CandidateSet>>(parts: I) -> CandidateSet {
        let mut oids = Vec::new();
        let mut exact = true;
        for part in parts {
            exact &= part.exact;
            oids.extend(part.oids);
        }
        CandidateSet::new(oids, exact)
    }
}

/// A *set access facility* (the paper's term): an auxiliary structure that,
/// given a set predicate, produces candidate objects far cheaper than a
/// database scan.
///
/// Implemented by [`Ssf`](crate::Ssf), [`Bssf`](crate::Bssf),
/// [`Fssf`](crate::Fssf), and the nested index `Nix` in `setsig-nix`. The
/// contract is **no false negatives**: every object whose stored set
/// satisfies the predicate must appear in the candidates.
pub trait SetAccessFacility {
    /// Short organization name ("SSF", "BSSF", "NIX") used in reports.
    fn name(&self) -> &'static str;

    /// Indexes `set` as the set-attribute value of object `oid`.
    ///
    /// Duplicate elements are tolerated and deduplicated; the paper's model
    /// assumes each object is inserted once.
    fn insert(&mut self, oid: Oid, set: &[ElementKey]) -> Result<()>;

    /// Removes object `oid` (whose indexed value was `set`) from the
    /// facility.
    fn delete(&mut self, oid: Oid, set: &[ElementKey]) -> Result<()>;

    /// Runs the filtering stage for `query`, returning the drops together
    /// with that call's page accounting.
    ///
    /// The [`ScanStats`] belong to this call alone. Every facility in this
    /// workspace reports `Some`; `None` is for an implementor with no page
    /// accounting at all.
    ///
    /// A query carrying a smart cap ([`SetQuery::with_cap`]) bounds what the
    /// filter inspects where the facility has such a strategy; the drops are
    /// then a superset of the plain filter's.
    fn candidates_with_stats(&self, query: &SetQuery) -> Result<(CandidateSet, Option<ScanStats>)>;

    /// Runs the filtering stage for `query`, returning just the drops.
    fn candidates(&self, query: &SetQuery) -> Result<CandidateSet> {
        Ok(self.candidates_with_stats(query)?.0)
    }

    /// Number of objects currently indexed.
    fn indexed_count(&self) -> u64;

    /// Pages occupied by the facility — the measured counterpart of the
    /// paper's storage cost `SC`.
    fn storage_pages(&self) -> Result<u64>;

    /// Hit/miss counters of the facility's buffer pool, when its reads are
    /// routed through one ([`BufferPool`](setsig_pagestore::BufferPool));
    /// `None` for uncached facilities.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// The facility's [`Profile`]: its layout, and the distinct elements of
    /// the indexed sets summed. What a planner prices a query with, and
    /// what a trace line reports as `f_bits` / `m_weight`. `None` for a
    /// facility that keeps no such count.
    fn profile(&self) -> Option<Profile> {
        None
    }
}

/// What a facility is, for a planner: how it lays out its index, and
/// `Σ|T|`, the distinct elements of the indexed sets summed — with
/// [`indexed_count`](SetAccessFacility::indexed_count), the mean target
/// cardinality `D_t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Profile {
    /// The index's organization.
    pub layout: IndexLayout,
    /// `Σ|T|` over the indexed objects; an empty set adds 0.
    pub elements: u64,
}

/// The organization a [`Profile`] names: what a planner's cost model is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexLayout {
    /// A signature file (SSF, BSSF, FSSF) of `f`-bit signatures, `m` bits
    /// set per element.
    Signature {
        /// Signature width `F`.
        f: u32,
        /// Bits set per element `m`.
        m: u32,
    },
    /// A nested index: a B-tree of per-element posting lists.
    Nested {
        /// The distinct elements it holds a posting list for: the domain
        /// `V` its queries are drawn against.
        keys: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_set_sorts_and_dedups() {
        let c = CandidateSet::new(vec![Oid::new(3), Oid::new(1), Oid::new(3)], false);
        assert_eq!(c.oids, vec![Oid::new(1), Oid::new(3)]);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert!(!c.exact);
    }

    #[test]
    fn empty_candidates() {
        let c = CandidateSet::new(vec![], true);
        assert!(c.is_empty());
        assert!(c.exact);
    }

    #[test]
    fn scan_stats_sum() {
        let a = ScanStats {
            pages: 3,
            slices: 2,
            early_exit: false,
        };
        let b = ScanStats {
            pages: 2,
            slices: 1,
            early_exit: true,
        };
        let sum = ScanStats {
            pages: 5,
            slices: 3,
            early_exit: true,
        };
        assert_eq!(a + b, sum);
        assert_eq!(b + a, sum);
        assert!(!(a + a).early_exit);
        assert_eq!([a, b].into_iter().sum::<ScanStats>(), a + b);
        assert_eq!(
            std::iter::empty::<ScanStats>().sum::<ScanStats>(),
            ScanStats::default()
        );
    }

    #[test]
    fn union_pools_sorts_and_tracks_exactness() {
        let a = CandidateSet::new(vec![Oid::new(5), Oid::new(1)], true);
        let b = CandidateSet::new(vec![Oid::new(3), Oid::new(1)], true);
        let u = CandidateSet::union([a.clone(), b.clone()]);
        assert_eq!(u.oids, vec![Oid::new(1), Oid::new(3), Oid::new(5)]);
        assert!(u.exact, "all-exact parts stay exact");
        let inexact = CandidateSet::new(vec![Oid::new(9)], false);
        assert!(!CandidateSet::union([a, inexact]).exact);
        // The empty union is the exact empty answer.
        let empty = CandidateSet::union(std::iter::empty());
        assert!(empty.is_empty() && empty.exact);
    }
}
