//! Soak test: replay a long mixed trace (inserts, deletes, queries)
//! against all four facilities simultaneously and check they agree with an
//! in-memory model after every query.

use setsig::nix::Nix;
use setsig::prelude::*;
use setsig::workload::{generate_trace, TraceConfig, TraceOp};
use std::collections::BTreeMap;
use std::sync::Arc;

fn element_keys(set: &[u64]) -> Vec<ElementKey> {
    set.iter().map(|&e| ElementKey::from(e)).collect()
}

#[test]
fn facilities_survive_a_long_mixed_trace() {
    let cfg = TraceConfig {
        domain: 120,
        d_t: 6,
        d_q_superset: 2,
        d_q_subset: 12,
        weights: [30, 10, 30, 30],
        length: 600,
        seed: 0x50a6,
    };
    let trace = generate_trace(&cfg);

    let disk = Arc::new(Disk::new());
    let io = || Arc::clone(&disk) as Arc<dyn PageIo>;
    let mut ssf = Ssf::create(io(), "s", SignatureConfig::new(64, 2).unwrap()).unwrap();
    let mut bssf = Bssf::create(io(), "b", SignatureConfig::new(64, 2).unwrap()).unwrap();
    let mut fssf = Fssf::create(io(), "f", FssfConfig::new(64, 8, 2).unwrap()).unwrap();
    let mut nix = Nix::on_io(io(), "n");

    // In-memory ground truth: oid → set.
    let mut model: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut next = 0u64;

    for (step, op) in trace.iter().enumerate() {
        match op {
            TraceOp::Insert { set } => {
                let oid = Oid::new(next);
                next += 1;
                let keys = element_keys(set);
                ssf.insert(oid, &keys).unwrap();
                bssf.insert(oid, &keys).unwrap();
                fssf.insert(oid, &keys).unwrap();
                nix.insert(oid, &keys).unwrap();
                model.insert(oid.raw(), set.clone());
            }
            TraceOp::Delete { victim } => {
                if model.is_empty() {
                    continue;
                }
                let idx = (*victim as usize) % model.len();
                let (&raw, set) = model.iter().nth(idx).map(|(k, v)| (k, v.clone())).unwrap();
                let keys = element_keys(&set);
                let oid = Oid::new(raw);
                ssf.delete(oid, &keys).unwrap();
                bssf.delete(oid, &keys).unwrap();
                fssf.delete(oid, &keys).unwrap();
                nix.delete(oid, &keys).unwrap();
                model.remove(&raw);
            }
            TraceOp::SupersetQuery { query } | TraceOp::SubsetQuery { query } => {
                let superset = matches!(op, TraceOp::SupersetQuery { .. });
                let q = if superset {
                    SetQuery::has_subset(element_keys(query))
                } else {
                    SetQuery::in_subset(element_keys(query))
                };
                // The true answers from the model.
                let expected: Vec<u64> = model
                    .iter()
                    .filter(|(_, set)| {
                        if superset {
                            query.iter().all(|e| set.contains(e))
                        } else {
                            set.iter().all(|e| query.contains(e))
                        }
                    })
                    .map(|(&oid, _)| oid)
                    .collect();
                for (name, candidates) in [
                    ("SSF", ssf.candidates(&q).unwrap()),
                    ("BSSF", bssf.candidates(&q).unwrap()),
                    ("FSSF", fssf.candidates(&q).unwrap()),
                    ("NIX", nix.candidates(&q).unwrap()),
                ] {
                    // One-sided filter: every true answer is a candidate.
                    for e in &expected {
                        assert!(
                            candidates.oids.contains(&Oid::new(*e)),
                            "step {step}: {name} missed oid {e} on {}",
                            q.predicate
                        );
                    }
                    // And no candidate is a deleted object.
                    for oid in &candidates.oids {
                        assert!(
                            model.contains_key(&oid.raw()),
                            "step {step}: {name} returned deleted oid {oid}"
                        );
                    }
                    // NIX is exact on both: intersection, and counting |T|.
                    if name == "NIX" {
                        let got: Vec<u64> = candidates.oids.iter().map(|o| o.raw()).collect();
                        assert_eq!(got, expected, "step {step}: NIX on {}", q.predicate);
                        assert!(candidates.exact);
                    }
                }
            }
        }
    }
    // Structural invariants held to the end, and every posting's |T|.
    nix.verify().unwrap();
    assert_eq!(ssf.indexed_count(), model.len() as u64);
    assert_eq!(bssf.indexed_count(), model.len() as u64);
    assert_eq!(fssf.indexed_count(), model.len() as u64);
    assert_eq!(nix.indexed_count(), model.len() as u64);
}

/// Burst soak: the service sits idle, then 40 callers query it at once
/// while a writer inserts into the same shards, and that repeats five
/// times. Every answer must hold every object committed before its burst,
/// be sorted with no candidate duplicated across shards, and carry the
/// merged scan stats.
#[test]
fn service_survives_bursts_of_concurrent_callers_and_a_writer() {
    use setsig::service::{QueryService, ServiceConfig};
    use std::sync::Barrier;

    let shards = 4usize;
    let disk = Arc::new(Disk::new());
    let sig = SignatureConfig::new(64, 2).unwrap();
    let facilities: Vec<Bssf> = (0..shards)
        .map(|i| {
            Bssf::create(
                Arc::clone(&disk) as Arc<dyn PageIo>,
                &format!("burst{i}"),
                sig,
            )
            .unwrap()
        })
        .collect();
    // Inserts go through the service so placement follows the hash.
    let svc = QueryService::new(facilities, ServiceConfig::new(shards)).unwrap();
    let keys =
        |i: u64| -> Vec<ElementKey> { (0..4).map(|j| ElementKey::from(i % 40 + j)).collect() };
    let seeded = 300u64;
    for i in 0..seeded {
        svc.insert(Oid::new(i), &keys(i)).unwrap();
    }

    // Ground truth per probe element over the objects committed so far.
    let expected = |e: u64, committed: u64| -> Vec<Oid> {
        (0..committed)
            .filter(|i| {
                let lo = i % 40;
                e >= lo && e < lo + 4
            })
            .map(Oid::new)
            .collect()
    };

    let bursts = 5u64;
    let burst_size = 40u64;
    let per_burst_writes = 20u64;
    for burst in 0..bursts {
        let committed = seeded + burst * per_burst_writes;
        // Every caller and the writer start together.
        let start = Barrier::new(burst_size as usize + 1);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for oid in committed..committed + per_burst_writes {
                    svc.insert(Oid::new(oid), &keys(oid)).unwrap();
                }
            });
            let callers: Vec<_> = (0..burst_size)
                .map(|i| {
                    let (svc, start) = (&svc, &start);
                    s.spawn(move || {
                        let e = i % 20;
                        let q = SetQuery::has_subset(vec![ElementKey::from(e)]);
                        start.wait();
                        let (set, stats) = svc.candidates_with_stats(&q).unwrap();
                        (e, set, stats)
                    })
                })
                .collect();
            for caller in callers {
                let (e, set, stats) = caller.join().expect("burst caller");
                // The signature filter never loses a committed answer, and
                // the merge never duplicates a candidate across shards.
                for oid in expected(e, committed) {
                    assert!(
                        set.oids.contains(&oid),
                        "burst {burst} dropped true answer {oid} for {e}"
                    );
                }
                for w in set.oids.windows(2) {
                    assert!(w[0] < w[1], "burst {burst} duplicated candidate {}", w[0]);
                }
                assert!(stats.is_some(), "burst {burst} lost merged stats");
            }
        });
    }
    assert_eq!(
        svc.indexed_count(),
        seeded + bursts * per_burst_writes,
        "every write landed exactly once"
    );
}
