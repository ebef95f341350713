//! Ablations of the design choices DESIGN.md calls out:
//!
//! * insert paths: the BSSF writer one row at a time (m_t + 1 writes),
//!   batched and bulk, next to FSSF's frames-per-insert,
//! * buffer pool on/off under an SSF scan and a NIX look-up storm,
//! * signature width F sweep for the ⊇ filter.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // bench code

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use setsig_bench::{bench_db, superset_query};
use setsig_core::{Bssf, ElementKey, Fssf, FssfConfig, Oid, SetAccessFacility, SignatureConfig};
use setsig_pagestore::{BufferPool, Disk, PageIo};
use std::sync::Arc;

fn insert_paths(c: &mut Criterion) {
    let sim = bench_db(10);
    let set: Vec<ElementKey> = sim.sets[0].iter().map(|&e| ElementKey::from(e)).collect();
    let mut group = c.benchmark_group("ablation_bssf_insert_paths");
    group.sample_size(10);

    let mut bssf = sim.build_bssf(500, 2);
    let mut next = sim.sets.len() as u64;
    group.bench_function("bssf_m_t_plus_1", |b| {
        b.iter(|| {
            next += 1;
            bssf.insert(Oid::new(next), &set).unwrap();
        });
    });

    let disk = Arc::new(Disk::new());
    let io = Arc::clone(&disk) as Arc<dyn PageIo>;
    let mut fssf = Fssf::create(io, "fr", FssfConfig::new(500, 50, 3).unwrap()).unwrap();
    let mut next = 0u64;
    group.bench_function("fssf_frames_per_insert", |b| {
        b.iter(|| {
            next += 1;
            fssf.insert(Oid::new(next), &set).unwrap();
        });
    });

    let items: Vec<(Oid, Vec<ElementKey>)> = sim
        .sets
        .iter()
        .enumerate()
        .map(|(i, s)| {
            (
                Oid::new(i as u64),
                s.iter().map(|&e| ElementKey::from(e)).collect(),
            )
        })
        .collect();
    group.bench_function("batch_insert_64", |b| {
        let disk = Arc::new(Disk::new());
        let io = Arc::clone(&disk) as Arc<dyn PageIo>;
        let mut bssf = Bssf::create(io, "batch", SignatureConfig::new(500, 2).unwrap()).unwrap();
        let mut offset = 0usize;
        b.iter(|| {
            let chunk: Vec<(Oid, Vec<ElementKey>)> = items
                .iter()
                .take(64)
                .map(|(_, set)| {
                    offset += 1;
                    (Oid::new(offset as u64 + 1_000_000), set.clone())
                })
                .collect();
            bssf.insert_batch(&chunk).unwrap();
        });
    });

    group.bench_function("bulk_load_whole_db", |b| {
        b.iter(|| {
            let disk = Arc::new(Disk::new());
            let io = Arc::clone(&disk) as Arc<dyn PageIo>;
            let mut bssf = Bssf::create(io, "bulk", SignatureConfig::new(500, 2).unwrap()).unwrap();
            bssf.bulk_load(&items).unwrap();
        });
    });
    group.finish();
}

fn buffer_pool(c: &mut Criterion) {
    // Repeated NIX root/non-leaf reads are exactly what a page cache
    // absorbs; the paper's model assumes no cache.
    let sim = bench_db(10);
    let nix = sim.build_nix();
    let q = superset_query(&sim, 3, 7);
    let mut group = c.benchmark_group("ablation_buffer_pool");
    group.sample_size(10);
    group.bench_function("nix_uncached", |b| b.iter(|| nix.candidates(&q).unwrap()));
    // A cached variant: same tree pages behind a 64-frame pool.
    let pooled_disk = Arc::new(Disk::new());
    let pool: Arc<dyn PageIo> = Arc::new(BufferPool::new(Arc::clone(&pooled_disk), 64));
    let mut nix_cached = setsig_nix::Nix::on_io(pool, "cached");
    for (i, set) in sim.sets.iter().enumerate() {
        let keys: Vec<ElementKey> = set.iter().map(|&e| ElementKey::from(e)).collect();
        nix_cached.insert(Oid::new(i as u64), &keys).unwrap();
    }
    group.bench_function("nix_cached_64_frames", |b| {
        b.iter(|| nix_cached.candidates(&q).unwrap());
    });
    group.finish();
}

fn f_sweep(c: &mut Criterion) {
    let sim = bench_db(10);
    let mut group = c.benchmark_group("ablation_f_sweep_superset");
    group.sample_size(10);
    for f in [125u32, 250, 500, 1000] {
        let bssf = sim.build_bssf(f, 2);
        let q = superset_query(&sim, 3, 11);
        group.bench_with_input(BenchmarkId::new("bssf", f), &q, |b, q| {
            b.iter(|| sim.measure_facility(&bssf, q));
        });
    }
    group.finish();
}

criterion_group!(benches, insert_paths, buffer_pool, f_sweep);
criterion_main!(benches);
