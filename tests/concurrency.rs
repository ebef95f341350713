//! Concurrent read paths: facilities are `&self` for queries and the disk
//! is internally synchronized, so many threads can query the same
//! structures simultaneously and must all see consistent answers.

#![allow(clippy::unwrap_used)] // test code

use setsig::nix::Nix;
use setsig::prelude::*;
use setsig::workload::{generate_trace, TraceConfig, TraceOp};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

#[test]
fn parallel_queries_agree_with_serial_answers() {
    let disk = Arc::new(Disk::new());
    let io = || Arc::clone(&disk) as Arc<dyn PageIo>;
    let mut bssf = Bssf::create(io(), "b", SignatureConfig::new(128, 2).unwrap()).unwrap();
    let mut nix = Nix::on_io(io(), "n");
    let items: Vec<(Oid, Vec<ElementKey>)> = (0..1000u64)
        .map(|i| {
            (
                Oid::new(i),
                (0..5).map(|j| ElementKey::from(i * 3 + j)).collect(),
            )
        })
        .collect();
    bssf.bulk_load(&items).unwrap();
    for (oid, set) in &items {
        nix.insert(*oid, set).unwrap();
    }
    let bssf = Arc::new(bssf);
    let nix = Arc::new(nix);

    // Serial ground truth.
    let queries: Vec<SetQuery> = (0..16u64)
        .map(|t| SetQuery::has_subset(vec![ElementKey::from(t * 50), ElementKey::from(t * 50 + 1)]))
        .collect();
    let expected: Vec<_> = queries
        .iter()
        .map(|q| bssf.candidates(q).unwrap())
        .collect();

    let handles: Vec<_> = queries
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, q)| {
            let bssf = Arc::clone(&bssf);
            let nix = Arc::clone(&nix);
            std::thread::spawn(move || {
                let mut results = Vec::new();
                for _ in 0..10 {
                    results.push((bssf.candidates(&q).unwrap(), nix.candidates(&q).unwrap()));
                }
                (i, results)
            })
        })
        .collect();

    for h in handles {
        let (i, results) = h.join().expect("no panics under concurrency");
        for (b, n) in results {
            assert_eq!(b, expected[i], "BSSF thread {i} diverged");
            // NIX is exact on ⊇, so its candidates are the true answers —
            // a subset of BSSF's drops.
            for oid in &n.oids {
                assert!(b.oids.contains(oid));
            }
        }
    }
}

#[test]
fn scan_stats_equal_filter_stage_disk_reads_on_every_predicate() {
    // End to end, on every predicate shape: the page count a query reports
    // is exactly the disk traffic of its filtering stage (slice pages plus
    // the OID-file look-up).
    let items: Vec<(Oid, Vec<ElementKey>)> = (0..2000u64)
        .map(|i| {
            (
                Oid::new(i),
                (0..6).map(|j| ElementKey::from(i * 5 + j)).collect(),
            )
        })
        .collect();
    let disk = Arc::new(Disk::new());
    let io = Arc::clone(&disk) as Arc<dyn PageIo>;
    let mut bssf = Bssf::create(io, "p", SignatureConfig::new(256, 3).unwrap()).unwrap();
    bssf.bulk_load(&items).unwrap();

    let mut queries: Vec<SetQuery> = (0..12u64)
        .flat_map(|t| {
            let base = t * 160;
            vec![
                SetQuery::has_subset(vec![
                    ElementKey::from(base * 5),
                    ElementKey::from(base * 5 + 1),
                ]),
                SetQuery::in_subset((0..8).map(|j| ElementKey::from(base * 5 + j)).collect()),
                SetQuery::equals((0..6).map(|j| ElementKey::from(base * 5 + j)).collect()),
                SetQuery::overlaps(vec![ElementKey::from(base * 5 + 2)]),
            ]
        })
        .collect();
    // A miss query so the superset early exit is exercised.
    queries.push(SetQuery::has_subset(
        (0..6)
            .map(|j| ElementKey::from(10_000_000 + j))
            .collect::<Vec<ElementKey>>(),
    ));

    for q in &queries {
        disk.reset_stats();
        let (_, stats) = bssf.candidates_with_stats(q).unwrap();
        let stats = stats.expect("bssf reports per-query stats");
        assert_eq!(
            disk.snapshot().reads,
            stats.pages,
            "page charge diverged from disk reads on {:?}",
            q.predicate
        );
    }
}

#[test]
fn concurrent_queries_each_observe_their_own_scan_stats() {
    // Regression for the shared-counter race: two queries with very
    // different page footprints run simultaneously on one facility, many
    // times over — on every facility, and on a 2-shard service, all on one
    // disk. Every call must report exactly the stats of its own scan —
    // equal to a serial baseline — never a blend of both.
    let items: Vec<(Oid, Vec<ElementKey>)> = (0..3000u64)
        .map(|i| {
            (
                Oid::new(i),
                (0..5).map(|j| ElementKey::from(i * 9 + j)).collect(),
            )
        })
        .collect();
    let disk = Arc::new(Disk::new());
    let io = || Arc::clone(&disk) as Arc<dyn PageIo>;
    let sig = SignatureConfig::new(256, 3).unwrap();
    let mut bssf = Bssf::create(io(), "r", sig).unwrap();
    bssf.bulk_load(&items).unwrap();
    let mut ssf = Ssf::create(io(), "s", sig).unwrap();
    let mut fssf = Fssf::create(io(), "f", FssfConfig::new(256, 16, 3).unwrap()).unwrap();
    let mut nix = Nix::on_io(io(), "n");
    let shards = (0..2).map(|i| Bssf::create(io(), &format!("q{i}"), sig).unwrap());
    let service = QueryService::new(shards.collect(), ServiceConfig::new(2)).unwrap();
    for (oid, set) in &items {
        ssf.insert(*oid, set).unwrap();
        fssf.insert(*oid, set).unwrap();
        nix.insert(*oid, set).unwrap();
        service.insert(*oid, set).unwrap();
    }

    // A cheap query (superset, early exit on a miss) and an expensive
    // one (subset reads every zero slice of the query signature).
    let q_cheap = SetQuery::has_subset(
        (0..5)
            .map(|j| ElementKey::from(20_000_000 + j))
            .collect::<Vec<ElementKey>>(),
    );
    let q_costly = SetQuery::in_subset((0..9).map(ElementKey::from).collect());
    let queries = [&q_cheap, &q_costly];
    race(&bssf, queries);
    race(&ssf, queries);
    race(&fssf, queries);
    race(&nix, queries);
    race(&service, queries);
}

/// Runs `queries` on two threads at once, 25 times each, and checks that
/// every call returns the candidates and stats a serial call did.
fn race(facility: &(impl SetAccessFacility + Sync), queries: [&SetQuery; 2]) {
    let name = facility.name();
    let serial = queries.map(|q| facility.candidates_with_stats(q).unwrap());
    let pages = serial.each_ref().map(|(_, stats)| stats.unwrap().pages);
    assert_ne!(
        pages[0], pages[1],
        "{name}: queries must differ in cost for the race to be observable"
    );
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for (i, (q, want)) in queries.into_iter().zip(&serial).enumerate() {
            let start = &start;
            s.spawn(move || {
                start.wait();
                for _ in 0..25 {
                    let got = facility.candidates_with_stats(q).unwrap();
                    assert_eq!(&got, want, "{name}: query {i} blended with the other query");
                }
            });
        }
    });
}

#[test]
fn concurrent_io_accounting_is_exact() {
    // Counter totals must equal the sum of per-thread work even under
    // contention.
    let disk = Arc::new(Disk::new());
    let f = disk.create_file("t");
    disk.extend_to(f, 4).unwrap();
    disk.reset_stats();
    let threads = 8;
    let reads_each = 500;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let d = Arc::clone(&disk);
            std::thread::spawn(move || {
                for i in 0..reads_each {
                    let _ = d.read_page(f, (i % 4) as u32).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(disk.snapshot().reads, threads * reads_each);
}

/// A read miss drops the pool lock for its disk read; a write of the same
/// page that lands meanwhile must not be overwritten in the frame by the
/// older bytes the miss brings back. One thread writes a counter into the
/// four pages of a 2-frame pool and reads each write back through the
/// pool; one thread reads the same pages, missing most of the time.
#[test]
fn a_read_miss_never_installs_a_page_older_than_a_concurrent_write() {
    use setsig::pagestore::Page;
    use std::sync::atomic::{AtomicBool, Ordering};

    let pool = BufferPool::new(Arc::new(Disk::new()), 2);
    let f = pool.create_file("t");
    pool.extend_to(f, 4).unwrap();
    // Without the epoch check: 19-41 stale read-backs per run (2 vCPUs).
    let writes: u64 = if cfg!(miri) { 2_000 } else { 300_000 };
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut n = 0u32;
            while !done.load(Ordering::Relaxed) {
                let _ = pool.read_page(f, n % 4).unwrap();
                n = n.wrapping_add(1);
            }
        });
        let mut stale = 0u64;
        for i in 1..=writes {
            let n = (i % 4) as u32;
            let mut page = Page::zeroed();
            page.write_u64(0, i);
            pool.write_page(f, n, &page).unwrap();
            stale += u64::from(pool.read_page(f, n).unwrap().read_u64(0) != i);
        }
        done.store(true, Ordering::Relaxed);
        assert_eq!(stale, 0, "stale read-backs in {writes} writes");
    });
}

/// A trace op with its victims pre-resolved, so the sharded service and
/// the serial oracle replay *the same* concrete operations.
enum ResolvedOp {
    Insert(Oid, Vec<u64>),
    Delete(Oid, Vec<u64>),
    Superset(Vec<u64>),
    Subset(Vec<u64>),
}

/// The oracle differential: a randomized mixed trace (inserts, deletes,
/// queries) runs against a 4-shard BSSF query service with the chunk's
/// mutations applied from concurrent writer threads while a reader
/// queries it; at every quiescent point the chunk's queries are
/// answered by both the service and a serial single-file oracle that
/// replayed the identical op-log, and the candidate sets must agree
/// exactly — a BSSF match depends only on the object's signature, never
/// on shard placement or on the order the writers' updates land in.
#[test]
fn sharded_service_agrees_with_a_serial_oracle_at_quiescent_points() {
    use setsig::service::{QueryService, ServiceConfig};

    let trace = generate_trace(&TraceConfig {
        domain: 100,
        d_t: 5,
        d_q_superset: 2,
        d_q_subset: 10,
        weights: [35, 10, 30, 25],
        length: 400,
        seed: 0x0_5ac1e,
    });

    // Resolve Delete victims against a serial model up front: both sides
    // then execute byte-identical op-logs.
    let mut model: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut next = 0u64;
    let mut ops: Vec<ResolvedOp> = Vec::new();
    for op in &trace {
        match op {
            TraceOp::Insert { set } => {
                let oid = Oid::new(next);
                next += 1;
                model.insert(oid.raw(), set.clone());
                ops.push(ResolvedOp::Insert(oid, set.clone()));
            }
            TraceOp::Delete { victim } => {
                if model.is_empty() {
                    continue;
                }
                let idx = (*victim as usize) % model.len();
                let (&raw, set) = model.iter().nth(idx).map(|(k, v)| (k, v.clone())).unwrap();
                model.remove(&raw);
                ops.push(ResolvedOp::Delete(Oid::new(raw), set));
            }
            TraceOp::SupersetQuery { query } => ops.push(ResolvedOp::Superset(query.clone())),
            TraceOp::SubsetQuery { query } => ops.push(ResolvedOp::Subset(query.clone())),
        }
    }

    let sig = || SignatureConfig::new(64, 2).unwrap();
    let keys =
        |set: &[u64]| -> Vec<ElementKey> { set.iter().map(|&e| ElementKey::from(e)).collect() };

    let service_disk = Arc::new(Disk::new());
    let shards = 4usize;
    let facilities: Vec<Bssf> = (0..shards)
        .map(|i| {
            Bssf::create(
                Arc::clone(&service_disk) as Arc<dyn PageIo>,
                &format!("svc{i}"),
                sig(),
            )
            .unwrap()
        })
        .collect();
    let svc = Arc::new(QueryService::new(facilities, ServiceConfig::new(shards)).unwrap());
    let mut oracle =
        Bssf::create(Arc::new(Disk::new()) as Arc<dyn PageIo>, "oracle", sig()).unwrap();

    let probe = SetQuery::has_subset(vec![ElementKey::from(1u64)]);
    let mut ever_inserted: BTreeSet<u64> = BTreeSet::new();

    for chunk in ops.chunks(50) {
        // Split the chunk's mutations across two writers by OID, so
        // per-object order (insert before its delete) is preserved while
        // the writers genuinely race on the shard locks.
        let mut lanes: [Vec<(bool, Oid, Vec<u64>)>; 2] = [Vec::new(), Vec::new()];
        for op in chunk {
            match op {
                ResolvedOp::Insert(oid, set) => {
                    ever_inserted.insert(oid.raw());
                    lanes[(oid.raw() % 2) as usize].push((true, *oid, set.clone()));
                }
                ResolvedOp::Delete(oid, set) => {
                    lanes[(oid.raw() % 2) as usize].push((false, *oid, set.clone()));
                }
                _ => {}
            }
        }
        let writers: Vec<_> = lanes
            .into_iter()
            .map(|lane| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    for (is_insert, oid, set) in lane {
                        let keys: Vec<ElementKey> =
                            set.iter().map(|&e| ElementKey::from(e)).collect();
                        if is_insert {
                            svc.insert(oid, &keys).unwrap();
                        } else {
                            svc.delete(oid, &keys).unwrap();
                        }
                    }
                })
            })
            .collect();
        let reader = {
            let svc = Arc::clone(&svc);
            let probe = probe.clone();
            let known = ever_inserted.clone();
            std::thread::spawn(move || {
                for _ in 0..15 {
                    let (set, _) = svc.candidates_with_stats(&probe).unwrap();
                    // Mid-churn answers are transient but never invented:
                    // sorted, deduplicated, and only ever-inserted OIDs.
                    for w in set.oids.windows(2) {
                        assert!(w[0] < w[1], "duplicated candidate {}", w[0]);
                    }
                    for oid in &set.oids {
                        assert!(known.contains(&oid.raw()), "phantom candidate {oid}");
                    }
                }
            })
        };
        for w in writers {
            w.join().expect("writer");
        }
        reader.join().expect("reader");

        // Quiescent point: the oracle replays the identical mutations
        // serially, then both sides answer the chunk's queries.
        for op in chunk {
            match op {
                ResolvedOp::Insert(oid, set) => oracle.insert(*oid, &keys(set)).unwrap(),
                ResolvedOp::Delete(oid, set) => oracle.delete(*oid, &keys(set)).unwrap(),
                _ => {}
            }
        }
        for (i, op) in chunk.iter().enumerate() {
            let q = match op {
                ResolvedOp::Superset(query) => SetQuery::has_subset(keys(query)),
                ResolvedOp::Subset(query) => SetQuery::in_subset(keys(query)),
                _ => continue,
            };
            let (sharded, stats) = svc.candidates_with_stats(&q).unwrap();
            let serial = oracle.candidates(&q).unwrap();
            assert_eq!(
                sharded.oids, serial.oids,
                "sharded service diverged from serial oracle at op {i} ({})",
                q.predicate
            );
            assert!(stats.is_some(), "merged stats dropped at op {i}");
        }
    }

    // End state: both sides hold exactly the surviving population.
    assert_eq!(svc.indexed_count(), model.len() as u64);
    assert_eq!(oracle.indexed_count(), model.len() as u64);
}
