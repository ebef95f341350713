//! Soak test: bursts of concurrent callers and a writer against the
//! sharded service. The serial model check of every facility is
//! `tests/history.rs`.

use setsig::prelude::*;
use std::sync::{Arc, Barrier};

/// Burst soak: the service sits idle, then 40 callers query it at once
/// while a writer inserts into the same shards, and that repeats five
/// times. Every answer must hold every object committed before its burst,
/// be sorted with no candidate duplicated across shards, and carry the
/// merged scan stats.
#[test]
fn service_survives_bursts_of_concurrent_callers_and_a_writer() {
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
