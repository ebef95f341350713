//! Table 6 workload: building all three facilities (whose storage the
//! table compares) over the same instance.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // bench code

use criterion::{criterion_group, criterion_main, Criterion};
use setsig_bench::bench_db;
use setsig_core::SetAccessFacility;

fn table6(c: &mut Criterion) {
    let sim = bench_db(10);
    let mut group = c.benchmark_group("table6_build_and_storage");
    group.sample_size(10);
    group.bench_function("build_ssf_f250", |b| {
        b.iter(|| sim.build_ssf(250, 2).storage_pages().unwrap());
    });
    group.bench_function("build_bssf_f250_bulk", |b| {
        b.iter(|| sim.build_bssf(250, 2).storage_pages().unwrap());
    });
    group.bench_function("build_nix", |b| {
        b.iter(|| sim.build_nix().storage_pages().unwrap());
    });
    group.finish();
}

criterion_group!(benches, table6);
criterion_main!(benches);
