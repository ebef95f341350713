//! Test-only facility: an exact, in-memory [`SetAccessFacility`] with a
//! deterministic one-page scan charge per query. Lets the service tests
//! assert merged candidate sets and conserved stats without paging real
//! signature files.

use std::collections::BTreeMap;

use setsig_core::{
    verify_predicate, CandidateSet, ElementKey, ElementSet, Error, Oid, Result, ScanStats,
    SetAccessFacility, SetQuery,
};

/// Exact in-memory store: every answer is evaluated with
/// [`verify_predicate`], so candidate sets are the ground truth (no
/// false drops *or* false positives), and every query charges exactly
/// one page.
pub(crate) struct MockFacility {
    sets: BTreeMap<Oid, ElementSet>,
}

impl MockFacility {
    pub(crate) fn new() -> Self {
        MockFacility {
            sets: BTreeMap::new(),
        }
    }
}

impl SetAccessFacility for MockFacility {
    fn name(&self) -> &'static str {
        "MOCK"
    }

    fn insert(&mut self, oid: Oid, set: &[ElementKey]) -> Result<()> {
        self.sets.insert(oid, set.iter().cloned().collect());
        Ok(())
    }

    fn delete(&mut self, oid: Oid, _set: &[ElementKey]) -> Result<()> {
        match self.sets.remove(&oid) {
            Some(_) => Ok(()),
            None => Err(Error::OidNotFound(oid)),
        }
    }

    fn candidates_with_stats(&self, query: &SetQuery) -> Result<(CandidateSet, Option<ScanStats>)> {
        if query.elements.is_empty() {
            return Err(Error::BadQuery("empty query set".to_string()));
        }
        let oids: Vec<Oid> = self
            .sets
            .iter()
            .filter(|(_, target)| verify_predicate(query.predicate, target, &query.elements))
            .map(|(&oid, _)| oid)
            .collect();
        let stats = ScanStats {
            pages: 1,
            ..ScanStats::default()
        };
        Ok((CandidateSet::new(oids, true), Some(stats)))
    }

    fn indexed_count(&self) -> u64 {
        self.sets.len() as u64
    }

    fn storage_pages(&self) -> Result<u64> {
        Ok(1)
    }
}
