//! Figure 4 workload: `T ⊇ Q` retrieval at the text-retrieval weight
//! `m = m_opt` — SSF full scan vs BSSF slice reads vs NIX look-ups.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use setsig_bench::{bench_db, superset_query};

fn fig4(c: &mut Criterion) {
    let sim = bench_db(10);
    let ssf = sim.build_ssf(500, 35);
    let bssf = sim.build_bssf(500, 35);
    let nix = sim.build_nix();

    let mut group = c.benchmark_group("fig4_superset_mopt");
    group.sample_size(20);
    for d_q in [1u32, 3, 10] {
        let q = superset_query(&sim, d_q, 40 + d_q as u64);
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

criterion_group!(benches, fig4);
criterion_main!(benches);
