//! Differential test harness: on random workloads, every facility's
//! filtering stage is checked against ground truth computed directly from
//! the sets, and the sharded service is checked against the flat facility.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code

use proptest::prelude::*;
use setsig::core::{ElementSet, Error};
use setsig::nix::Nix;
use setsig::prelude::*;
use setsig::service::{shard_of, QueryService, ServiceConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Ground truth for `T ⊇ Q`: positions whose set contains every query
/// element.
fn truth_superset(sets: &[Vec<u64>], q: &[u64]) -> BTreeSet<u64> {
    sets.iter()
        .enumerate()
        .filter(|(_, s)| q.iter().all(|e| s.contains(e)))
        .map(|(i, _)| i as u64)
        .collect()
}

/// Ground truth for `T ⊆ Q`: positions whose set is contained in the query.
fn truth_subset(sets: &[Vec<u64>], q: &[u64]) -> BTreeSet<u64> {
    sets.iter()
        .enumerate()
        .filter(|(_, s)| s.iter().all(|e| q.contains(e)))
        .map(|(i, _)| i as u64)
        .collect()
}

fn keys(elems: &[u64]) -> Vec<ElementKey> {
    elems.iter().map(|&e| ElementKey::from(e)).collect()
}

fn oid_set(c: &CandidateSet) -> BTreeSet<u64> {
    c.oids.iter().map(|o| o.raw()).collect()
}

/// The three predicates a random query draws: `T ⊇ Q`, `T ⊆ Q`, `T = Q`.
fn predicate(pick: u8) -> SetPredicate {
    [
        SetPredicate::HasSubset,
        SetPredicate::InSubset,
        SetPredicate::Equals,
    ][usize::from(pick % 3)]
}

fn run_workload(sets: &[Vec<u64>], queries: &[(u8, Vec<u64>)]) -> Result<(), TestCaseError> {
    let cfg = || SignatureConfig::new(64, 2).unwrap();
    let build_io = || {
        let disk = Arc::new(Disk::new());
        Arc::clone(&disk) as Arc<dyn PageIo>
    };
    let items: Vec<(Oid, Vec<ElementKey>)> = sets
        .iter()
        .enumerate()
        .map(|(i, s)| (Oid::new(i as u64), keys(s)))
        .collect();

    let mut ssf = Ssf::create(build_io(), "d", cfg()).unwrap();
    let mut nix = Nix::on_io(build_io(), "d");
    for (oid, set) in &items {
        ssf.insert(*oid, set).unwrap();
        nix.insert(*oid, set).unwrap();
    }
    nix.verify().unwrap();
    let mut bssf = Bssf::create(build_io(), "d", cfg()).unwrap();
    bssf.bulk_load(&items).unwrap();

    for (pick, elems) in queries {
        let q = SetQuery::new(predicate(*pick), keys(elems));
        let truth: BTreeSet<u64> = match q.predicate {
            SetPredicate::HasSubset => truth_superset(sets, elems),
            SetPredicate::InSubset => truth_subset(sets, elems),
            _ => truth_subset(sets, elems)
                .intersection(&truth_superset(sets, elems))
                .copied()
                .collect(),
        };

        // No false negatives, ever: the signature filters must drop a
        // superset of the truth.
        for facility in [&ssf as &dyn SetAccessFacility, &bssf] {
            let got = oid_set(&facility.candidates(&q).unwrap());
            prop_assert!(
                truth.is_subset(&got),
                "false negative: {} query {:?} truth {:?} got {:?}",
                q.predicate,
                elems,
                truth,
                got
            );
        }
        // NIX answers all three exactly: ⊇ by intersection, ⊆ and = by
        // counting each object's |T| — except ⊇ ∅, which no posting list
        // can enumerate.
        if q.predicate == SetPredicate::HasSubset && elems.is_empty() {
            prop_assert!(matches!(nix.candidates(&q), Err(Error::BadQuery(_))));
            continue;
        }
        let n = nix.candidates(&q).unwrap();
        prop_assert!(n.exact, "NIX must be exact on {}", q.predicate);
        prop_assert_eq!(oid_set(&n), truth, "NIX on {} {:?}", q.predicate, elems);
    }
    Ok(())
}

/// Sharded-service invariants against the unsharded facility: on every
/// workload and every shard count, (1) each OID lands on exactly one
/// shard, (2) the merged candidate set is *identical* to the flat BSSF's
/// (no OID duplicated or dropped across the shard boundary), and (3) the
/// merged [`ScanStats`] are the exact sum of the per-shard charges (the
/// early exits ORed) — with
/// one shard, byte-identical to the flat facility's stats.
fn run_sharded_workload(
    sets: &[Vec<u64>],
    queries: &[(bool, Vec<u64>)],
) -> Result<(), TestCaseError> {
    let cfg = || SignatureConfig::new(64, 2).unwrap();
    let items: Vec<(Oid, Vec<ElementKey>)> = sets
        .iter()
        .enumerate()
        .map(|(i, s)| (Oid::new(i as u64), keys(s)))
        .collect();
    let built_queries: Vec<SetQuery> = queries
        .iter()
        .map(|(is_superset, elems)| {
            if *is_superset {
                SetQuery::has_subset(keys(elems))
            } else {
                SetQuery::in_subset(keys(elems))
            }
        })
        .collect();

    let mut flat = Bssf::create(Arc::new(Disk::new()) as Arc<dyn PageIo>, "flat", cfg()).unwrap();
    flat.bulk_load(&items).unwrap();
    let flat_answers: Vec<(CandidateSet, ScanStats)> = built_queries
        .iter()
        .map(|q| {
            let (set, stats) = flat.candidates_with_stats(q).unwrap();
            (set, stats.expect("bssf reports stats"))
        })
        .collect();

    for shards in [1usize, 2, 7, 16] {
        // (1) The hash is total: each OID goes to exactly one in-range
        // shard, so the partition is a true partition.
        let mut partitions: Vec<Vec<(Oid, Vec<ElementKey>)>> = vec![Vec::new(); shards];
        for (oid, set) in &items {
            let s = shard_of(*oid, shards);
            prop_assert!(s < shards, "oid {oid} routed out of range");
            partitions[s].push((*oid, set.clone()));
        }
        let total: usize = partitions.iter().map(Vec::len).sum();
        prop_assert_eq!(total, items.len(), "partition lost or duplicated an OID");

        let disk = Arc::new(Disk::new());
        let facilities: Vec<Bssf> = partitions
            .iter()
            .enumerate()
            .map(|(i, part)| {
                let mut b = Bssf::create(
                    Arc::clone(&disk) as Arc<dyn PageIo>,
                    &format!("shard{i}"),
                    cfg(),
                )
                .unwrap();
                b.bulk_load(part).unwrap();
                b
            })
            .collect();
        let service = QueryService::new(facilities, ServiceConfig::new(shards)).unwrap();

        for (q, (flat_set, flat_stats)) in built_queries.iter().zip(&flat_answers) {
            // Per-shard parts, summed by hand — the conservation oracle.
            let mut by_hand = ScanStats::default();
            for shard in 0..shards {
                let (_, part_stats) = service.query_shard(shard, q).unwrap();
                let part_stats = part_stats.expect("bssf reports stats");
                by_hand.pages += part_stats.pages;
                by_hand.slices += part_stats.slices;
                by_hand.early_exit |= part_stats.early_exit;
            }
            let (merged, merged_stats) = service.candidates_with_stats(q).unwrap();
            // (2) Candidate identity: a BSSF match depends only on the
            // object's signature, never on which file holds it.
            prop_assert_eq!(
                &merged,
                flat_set,
                "sharded candidates diverged at {} shards",
                shards
            );
            for w in merged.oids.windows(2) {
                prop_assert!(w[0] < w[1], "merged candidates duplicated {}", w[0]);
            }
            // (3) Conservation: merged charge == sum of shard charges.
            let merged_stats = merged_stats.expect("merge keeps stats when all shards report");
            prop_assert_eq!(merged_stats, by_hand, "merge altered the page charge");
            if shards == 1 {
                prop_assert_eq!(
                    merged_stats,
                    *flat_stats,
                    "one shard must be page-identical to the flat facility"
                );
            }
        }
    }
    Ok(())
}

/// The smart strategies through the path that could not run them while
/// they were inherent methods: a capped query through `QueryService<Bssf>`
/// and `QueryService<Nix>` returns a superset of the
/// plain candidates, resolves to exactly the brute-force answer, and at one
/// shard charges the flat facility's pages.
fn run_capped_sharded_workload(
    sets: &[Vec<u64>],
    elems: &[u64],
    cap: usize,
) -> Result<(), TestCaseError> {
    let cfg = || SignatureConfig::new(64, 2).unwrap();
    let items: Vec<(Oid, Vec<ElementKey>)> = sets
        .iter()
        .enumerate()
        .map(|(i, s)| (Oid::new(i as u64), keys(s)))
        .collect();
    let source = |oid: Oid| -> setsig::core::Result<ElementSet> {
        Ok(keys(&sets[oid.raw() as usize]).into_iter().collect())
    };
    let io = || Arc::new(Disk::new()) as Arc<dyn PageIo>;
    let mut flat_bssf = Bssf::create(io(), "flat", cfg()).unwrap();
    flat_bssf.bulk_load(&items).unwrap();
    let mut flat_nix = Nix::on_io(io(), "flat");
    for (oid, set) in &items {
        flat_nix.insert(*oid, set).unwrap();
    }

    let sup = SetQuery::has_subset(keys(elems));
    let sub = SetQuery::in_subset(keys(elems));
    // ⊆ caps count zero-slices, of which there are up to F = 64.
    let cases = [
        (&sup, cap, truth_superset(sets, elems)),
        (&sub, cap * 12, truth_subset(sets, elems)),
    ];
    for shards in [1usize, 4] {
        let mut bssf_parts: Vec<Vec<(Oid, Vec<ElementKey>)>> = vec![Vec::new(); shards];
        let mut nix_shards: Vec<Nix> = (0..shards)
            .map(|i| Nix::on_io(io(), &format!("n{i}")))
            .collect();
        for (oid, set) in &items {
            let s = shard_of(*oid, shards);
            bssf_parts[s].push((*oid, set.clone()));
            nix_shards[s].insert(*oid, set).unwrap();
        }
        let bssf_shards: Vec<Bssf> = bssf_parts
            .iter()
            .enumerate()
            .map(|(i, part)| {
                let mut b = Bssf::create(io(), &format!("b{i}"), cfg()).unwrap();
                b.bulk_load(part).unwrap();
                b
            })
            .collect();
        let service = QueryService::new(bssf_shards, ServiceConfig::new(shards)).unwrap();
        let nix_service = QueryService::new(nix_shards, ServiceConfig::new(shards)).unwrap();

        for (plain, cap, truth) in &cases {
            let capped = (*plain).clone().with_cap(*cap).unwrap();
            let mut paths: Vec<(&str, &dyn SetAccessFacility, &dyn SetAccessFacility)> =
                vec![("service<bssf>", &service, &flat_bssf)];
            if plain.predicate == SetPredicate::HasSubset {
                paths.push(("service<nix>", &nix_service, &flat_nix));
            }
            for (name, sharded, flat) in paths {
                let (smart, smart_stats) = sharded.candidates_with_stats(&capped).unwrap();
                let plain_set = oid_set(&sharded.candidates(plain).unwrap());
                prop_assert!(
                    plain_set.is_subset(&oid_set(&smart)),
                    "{name}: the cap lost a plain candidate at {shards} shards"
                );
                let report = resolve_drops(&capped, &smart, &source).unwrap();
                let resolved: BTreeSet<u64> = report.actual.iter().map(|o| o.raw()).collect();
                prop_assert_eq!(&resolved, truth, "{} at {} shards", name, shards);
                if shards == 1 {
                    let (flat_set, flat_stats) = flat.candidates_with_stats(&capped).unwrap();
                    prop_assert_eq!(&smart, &flat_set, "{}", name);
                    prop_assert_eq!(smart_stats, flat_stats, "{}", name);
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn capped_queries_run_through_the_service(
        sets in proptest::collection::vec(
            proptest::collection::btree_set(0u64..30, 1..6)
                .prop_map(|s| s.into_iter().collect::<Vec<u64>>()),
            1..40,
        ),
        elems in proptest::collection::btree_set(0u64..30, 1..8)
            .prop_map(|s| s.into_iter().collect::<Vec<u64>>()),
        cap in 1usize..5,
    ) {
        run_capped_sharded_workload(&sets, &elems, cap)?;
    }

    /// Seven elements, empty sets and queries allowed: ⊆ and = meet often.
    #[test]
    fn facilities_agree_on_random_workloads(
        sets in proptest::collection::vec(
            proptest::collection::btree_set(0u64..7, 0..7)
                .prop_map(|s| s.into_iter().collect::<Vec<u64>>()),
            1..40,
        ),
        queries in proptest::collection::vec(
            (0u8..3, proptest::collection::btree_set(0u64..7, 0..7)
                .prop_map(|s| s.into_iter().collect::<Vec<u64>>())),
            1..5,
        ),
    ) {
        run_workload(&sets, &queries)?;
    }

    #[test]
    fn sharded_routing_and_merge_agree_with_the_flat_facility(
        sets in proptest::collection::vec(
            proptest::collection::btree_set(0u64..50, 1..7)
                .prop_map(|s| s.into_iter().collect::<Vec<u64>>()),
            1..40,
        ),
        queries in proptest::collection::vec(
            (any::<bool>(), proptest::collection::btree_set(0u64..50, 1..7)
                .prop_map(|s| s.into_iter().collect::<Vec<u64>>())),
            1..5,
        ),
    ) {
        run_sharded_workload(&sets, &queries)?;
    }
}
