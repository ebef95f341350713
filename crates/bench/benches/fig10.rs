//! Figure 10 workload: smart `T ⊆ Q` retrieval at D_t = 100 (BSSF m = 3).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // bench code

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use setsig_bench::{bench_db, subset_query};
use setsig_costmodel::{BssfModel, Params};

fn fig10(c: &mut Criterion) {
    let sim = bench_db(100);
    let bssf = sim.build_bssf(2500, 3);
    let nix = sim.build_nix();
    let p = Params::scaled(sim.cfg.n_objects, sim.cfg.domain);
    let model = BssfModel::new(p, 2500, 3, 100);
    let opt = model.d_q_opt().round().max(1.0) as u32;
    let slice_cap = (2500.0 - model.m_s(opt)).round().max(1.0) as usize;

    let mut group = c.benchmark_group("fig10_smart_subset_dt100");
    group.sample_size(10);
    for d_q in [150u32, 400] {
        let q = subset_query(&sim, d_q, 100 + d_q as u64);
        let smart = q.clone().with_cap(slice_cap).unwrap();
        group.bench_with_input(BenchmarkId::new("bssf_smart", d_q), &smart, |b, q| {
            b.iter(|| sim.measure_facility(&bssf, q));
        });
        group.bench_with_input(BenchmarkId::new("nix", d_q), &q, |b, q| {
            b.iter(|| sim.measure_facility(&nix, q));
        });
    }
    group.finish();
}

criterion_group!(benches, fig10);
criterion_main!(benches);
