//! Figure 5 workload: `T ⊇ Q` on BSSF with small weights m = 1..4 vs NIX.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use setsig_bench::{bench_db, superset_query};

fn fig5(c: &mut Criterion) {
    let sim = bench_db(10);
    let bssfs: Vec<_> = (1..=4u32).map(|m| (m, sim.build_bssf(500, m))).collect();
    let nix = sim.build_nix();

    let mut group = c.benchmark_group("fig5_superset_small_m");
    group.sample_size(20);
    let q = superset_query(&sim, 3, 50);
    for (m, bssf) in &bssfs {
        group.bench_with_input(BenchmarkId::new("bssf_m", m), &q, |b, q| {
            b.iter(|| sim.measure_facility(bssf, q));
        });
    }
    group.bench_with_input(BenchmarkId::new("nix", 0), &q, |b, q| {
        b.iter(|| sim.measure_facility(&nix, q));
    });
    group.finish();
}

criterion_group!(benches, fig5);
criterion_main!(benches);
