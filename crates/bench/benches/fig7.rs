//! Figure 7 workload: smart `T ⊇ Q` retrieval at D_t = 100 (BSSF m = 3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use setsig_bench::{bench_db, superset_query};

fn fig7(c: &mut Criterion) {
    let sim = bench_db(100);
    let bssf = sim.build_bssf(2500, 3);
    let nix = sim.build_nix();

    let mut group = c.benchmark_group("fig7_smart_superset_dt100");
    group.sample_size(10);
    for d_q in [2u32, 10, 50] {
        let q = superset_query(&sim, d_q, 70 + d_q as u64);
        group.bench_with_input(BenchmarkId::new("bssf_smart", d_q), &q, |b, q| {
            b.iter(|| sim.measure_smart(q, || bssf.candidates_superset_smart(q, 3)));
        });
        group.bench_with_input(BenchmarkId::new("nix_smart", d_q), &q, |b, q| {
            b.iter(|| sim.measure_smart(q, || nix.candidates_superset_smart(q, 2)));
        });
    }
    group.finish();
}

criterion_group!(benches, fig7);
criterion_main!(benches);
