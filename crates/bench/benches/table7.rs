//! Table 7 workload: single-object insert and delete costs on each
//! facility.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // bench code

use criterion::{criterion_group, criterion_main, Criterion};
use setsig_bench::bench_db;
use setsig_core::{ElementKey, Oid, SetAccessFacility};

fn table7(c: &mut Criterion) {
    let sim = bench_db(10);
    let mut group = c.benchmark_group("table7_updates");
    group.sample_size(10);
    let set: Vec<ElementKey> = sim.sets[0].iter().map(|&e| ElementKey::from(e)).collect();
    let n = sim.sets.len() as u64;

    let mut ssf = sim.build_ssf(250, 2);
    let mut fresh = n;
    group.bench_function("ssf_insert_delete", |b| {
        b.iter(|| {
            fresh += 1;
            ssf.insert(Oid::new(fresh), &set).unwrap();
            ssf.delete(Oid::new(fresh), &set).unwrap();
        });
    });

    let mut bssf = sim.build_bssf(250, 2);
    let mut fresh = n;
    group.bench_function("bssf_insert_delete", |b| {
        b.iter(|| {
            fresh += 1;
            bssf.insert(Oid::new(fresh), &set).unwrap();
            bssf.delete(Oid::new(fresh), &set).unwrap();
        });
    });

    let mut nix = sim.build_nix();
    let mut fresh = n;
    group.bench_function("nix_insert_delete", |b| {
        b.iter(|| {
            fresh += 1;
            nix.insert(Oid::new(fresh), &set).unwrap();
            nix.delete(Oid::new(fresh), &set).unwrap();
        });
    });
    group.finish();
}

criterion_group!(benches, table7);
criterion_main!(benches);
