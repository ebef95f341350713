//! Observability overhead: the same BSSF query stream with the recorder
//! detached (the default — the `obs: None` fast path must cost nothing
//! beyond the per-query counter allocation) and attached (ring sink).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // bench code

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use setsig_bench::{bench_db, bench_workload, subset_query, superset_query};
use setsig_core::SetAccessFacility;
use setsig_experiments::SimDb;

fn obs_overhead(c: &mut Criterion) {
    let plain = bench_db(10);
    let mut traced = SimDb::build(bench_workload(10, 8));
    traced.enable_observability(4096);

    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(30);
    for (label, sim) in [("detached", &plain), ("attached", &traced)] {
        let bssf = sim.build_bssf(500, 2);
        let q_sup = superset_query(sim, 3, 50);
        let q_sub = subset_query(sim, 50, 51);
        group.bench_with_input(BenchmarkId::new("superset", label), &q_sup, |b, q| {
            b.iter(|| bssf.candidates_with_stats(q).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("subset", label), &q_sub, |b, q| {
            b.iter(|| bssf.candidates_with_stats(q).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, obs_overhead);
criterion_main!(benches);
