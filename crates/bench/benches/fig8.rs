//! Figure 8 workload: plain `T ⊆ Q` retrieval — SSF vs BSSF vs NIX across
//! query cardinalities.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use setsig_bench::{bench_db, subset_query};

fn fig8(c: &mut Criterion) {
    let sim = bench_db(10);
    let ssf = sim.build_ssf(500, 2);
    let bssf = sim.build_bssf(500, 2);
    let nix = sim.build_nix();

    let mut group = c.benchmark_group("fig8_subset_plain");
    group.sample_size(10);
    for d_q in [10u32, 100, 400] {
        let q = subset_query(&sim, d_q, 80 + d_q as u64);
        group.bench_with_input(BenchmarkId::new("ssf", d_q), &q, |b, q| {
            b.iter(|| sim.measure_facility(&ssf, q));
        });
        group.bench_with_input(BenchmarkId::new("bssf", d_q), &q, |b, q| {
            b.iter(|| sim.measure_facility(&bssf, q));
        });
        group.bench_with_input(BenchmarkId::new("nix", d_q), &q, |b, q| {
            b.iter(|| sim.measure_facility(&nix, q));
        });
    }
    group.finish();
}

criterion_group!(benches, fig8);
criterion_main!(benches);
