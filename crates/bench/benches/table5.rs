//! Table 5 workload: building the nested index (whose size the table
//! reports) and evaluating its analytic storage model.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // bench code

use criterion::{criterion_group, criterion_main, Criterion};
use setsig_bench::bench_db;
use setsig_core::SetAccessFacility;
use setsig_costmodel::{NixModel, Params};

fn table5(c: &mut Criterion) {
    let mut group = c.benchmark_group("table5_nix_storage");
    group.sample_size(10);
    group.bench_function("model_dt10_dt100", |b| {
        b.iter(|| {
            let p = Params::paper();
            (NixModel::new(p, 10).sc(), NixModel::new(p, 100).sc())
        });
    });
    let sim = bench_db(10);
    group.bench_function("build_nix_dt10", |b| {
        b.iter(|| {
            let nix = sim.build_nix();
            nix.storage_pages().unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, table5);
criterion_main!(benches);
