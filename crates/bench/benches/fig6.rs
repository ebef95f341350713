//! Figure 6 workload: smart `T ⊇ Q` retrieval at D_t = 10 — plain vs smart
//! strategies on BSSF and NIX.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // bench code

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use setsig_bench::{bench_db, superset_query};

fn fig6(c: &mut Criterion) {
    let sim = bench_db(10);
    let bssf = sim.build_bssf(500, 2);
    let nix = sim.build_nix();

    let mut group = c.benchmark_group("fig6_smart_superset_dt10");
    group.sample_size(20);
    for d_q in [2u32, 5, 10] {
        let q = superset_query(&sim, d_q, 60 + d_q as u64);
        let smart = q.clone().with_cap(2).unwrap();
        group.bench_with_input(BenchmarkId::new("bssf_plain", d_q), &q, |b, q| {
            b.iter(|| sim.measure_facility(&bssf, q));
        });
        group.bench_with_input(BenchmarkId::new("bssf_smart", d_q), &smart, |b, q| {
            b.iter(|| sim.measure_facility(&bssf, q));
        });
        group.bench_with_input(BenchmarkId::new("nix_plain", d_q), &q, |b, q| {
            b.iter(|| sim.measure_facility(&nix, q));
        });
        group.bench_with_input(BenchmarkId::new("nix_smart", d_q), &smart, |b, q| {
            b.iter(|| sim.measure_facility(&nix, q));
        });
    }
    group.finish();
}

criterion_group!(benches, fig6);
criterion_main!(benches);
