//! The sharded query service versus the flat facility: pooled query
//! fan-out at shard counts 1/2/4/8 over identical instances, and the
//! live-update mix (inserts racing queries across shard locks).
//!
//! The 1-shard service answers through the same admission queue and
//! worker pool as the sharded ones, so `pooled/1` vs `flat/1` isolates
//! the pool overhead and `pooled/N` the sharding win. With
//! `BENCH_JSON=BENCH_service.json` the harness writes the summary CI
//! uploads for the perf trajectory.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // bench code

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use setsig_core::{Bssf, ElementKey, Oid, SetAccessFacility, SetQuery, SignatureConfig};
use setsig_pagestore::{Disk, PageIo};
use setsig_service::{shard_of, QueryService, ServiceConfig};
use setsig_workload::{Cardinality, Distribution, QueryGen, SetGenerator, WorkloadConfig};
use std::sync::Arc;

const N: u64 = 32_768 + 1_000;
const DOMAIN: u64 = 8_000;
const D_T: u32 = 10;
const F: u32 = 500;
const M: u32 = 2;

fn sets() -> Vec<(Oid, Vec<ElementKey>)> {
    let cfg = WorkloadConfig {
        n_objects: N,
        domain: DOMAIN,
        cardinality: Cardinality::Fixed(D_T),
        distribution: Distribution::Uniform,
        seed: 0x5e41_11ce,
    };
    SetGenerator::new(cfg)
        .generate_all()
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            (
                Oid::new(i as u64),
                s.iter().map(|&e| ElementKey::from(e)).collect(),
            )
        })
        .collect()
}

fn build_service(items: &[(Oid, Vec<ElementKey>)], shards: usize) -> QueryService<Bssf> {
    let disk = Arc::new(Disk::new());
    let mut partitions: Vec<Vec<(Oid, Vec<ElementKey>)>> = vec![Vec::new(); shards];
    for (oid, set) in items {
        partitions[shard_of(*oid, shards)].push((*oid, set.clone()));
    }
    let facilities: Vec<Bssf> = partitions
        .iter()
        .enumerate()
        .map(|(i, part)| {
            let mut b = Bssf::create(
                Arc::clone(&disk) as Arc<dyn PageIo>,
                &format!("svc{i}"),
                SignatureConfig::new(F, M).unwrap(),
            )
            .unwrap();
            b.bulk_load(part).unwrap();
            b
        })
        .collect();
    QueryService::new(facilities, ServiceConfig::new(shards)).unwrap()
}

fn build_flat(items: &[(Oid, Vec<ElementKey>)]) -> Bssf {
    let disk = Arc::new(Disk::new());
    let mut b = Bssf::create(
        Arc::clone(&disk) as Arc<dyn PageIo>,
        "flat",
        SignatureConfig::new(F, M).unwrap(),
    )
    .unwrap();
    b.bulk_load(items).unwrap();
    b
}

fn queries(count: usize) -> Vec<SetQuery> {
    let mut qg = QueryGen::new(DOMAIN, 0xbe_5e41);
    (0..count)
        .map(|_| SetQuery::has_subset(qg.random(3).into_iter().map(ElementKey::from).collect()))
        .collect()
}

fn bench_service(c: &mut Criterion) {
    let items = sets();
    let qs = queries(16);
    let mut group = c.benchmark_group("service");
    group.sample_size(10);

    let flat = build_flat(&items);
    group.bench_function("flat/1", |b| {
        b.iter(|| {
            for q in &qs {
                criterion::black_box(flat.candidates_with_stats(q).unwrap());
            }
        });
    });

    for shards in [1usize, 2, 4, 8] {
        let svc = build_service(&items, shards);
        group.bench_with_input(BenchmarkId::new("pooled", shards), &svc, |b, svc| {
            b.iter(|| {
                criterion::black_box(svc.query_batch(&qs).unwrap());
            });
        });
    }

    // Live-update mix: queries riding the pool while inserts take shard
    // write locks — the concurrency story the serial paper protocol
    // cannot express.
    let svc = build_service(&items, 4);
    let fresh: Vec<(Oid, Vec<ElementKey>)> = (0..64u64)
        .map(|i| {
            (
                Oid::new(N + i),
                (0..D_T as u64)
                    .map(|j| ElementKey::from(j * 17 + i))
                    .collect(),
            )
        })
        .collect();
    group.bench_function("mixed/4", |b| {
        b.iter(|| {
            let tickets: Vec<_> = qs.iter().map(|q| svc.submit(q)).collect();
            for (oid, set) in &fresh {
                svc.insert(*oid, set).unwrap();
                svc.delete(*oid, set).unwrap();
            }
            for t in tickets {
                criterion::black_box(t.wait().unwrap());
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_service);
criterion_main!(benches);
