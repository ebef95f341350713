//! Figure 7 workload: smart `T ⊇ Q` retrieval at D_t = 100 (BSSF m = 3).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // bench code

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use setsig_bench::{bench_db, superset_query};
use setsig_core::SetAccessFacility;

fn fig7(c: &mut Criterion) {
    let sim = bench_db(100);
    let bssf = sim.build_bssf(2500, 3);
    let nix = sim.build_nix();

    let mut group = c.benchmark_group("fig7_smart_superset_dt100");
    group.sample_size(10);
    for d_q in [2u32, 10, 50] {
        let q = superset_query(&sim, d_q, 70 + d_q as u64);
        for (name, facility, cap) in [
            ("bssf_smart", &bssf as &dyn SetAccessFacility, 3),
            ("nix_smart", &nix as &dyn SetAccessFacility, 2),
        ] {
            let smart = q.clone().with_cap(cap).unwrap();
            group.bench_with_input(BenchmarkId::new(name, d_q), &smart, |b, q| {
                b.iter(|| sim.measure_facility(facility, q));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, fig7);
criterion_main!(benches);
