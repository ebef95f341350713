//! System benchmark: a mixed operation trace (inserts, deletes, both query
//! types) replayed against each facility — the deployment view the paper's
//! per-cost tables imply but never run.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // bench code

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use setsig_core::{
    Bssf, ElementKey, Fssf, FssfConfig, Oid, SetAccessFacility, SetQuery, SignatureConfig, Ssf,
};
use setsig_nix::Nix;
use setsig_pagestore::{Disk, PageIo};
use setsig_workload::{generate_trace, TraceConfig, TraceOp};
use std::sync::Arc;

fn replay(facility: &mut dyn SetAccessFacility, trace: &[TraceOp]) -> u64 {
    let mut live: Vec<(Oid, Vec<ElementKey>)> = Vec::new();
    let mut next = 0u64;
    let mut answered = 0u64;
    for op in trace {
        match op {
            TraceOp::Insert { set } => {
                let keys: Vec<ElementKey> = set.iter().map(|&e| ElementKey::from(e)).collect();
                let oid = Oid::new(next);
                next += 1;
                facility.insert(oid, &keys).unwrap();
                live.push((oid, keys));
            }
            TraceOp::Delete { victim } => {
                if !live.is_empty() {
                    let i = (*victim as usize) % live.len();
                    let (oid, keys) = live.swap_remove(i);
                    facility.delete(oid, &keys).unwrap();
                }
            }
            TraceOp::SupersetQuery { query } => {
                let q = SetQuery::has_subset(query.iter().map(|&e| ElementKey::from(e)).collect());
                answered += facility.candidates(&q).unwrap().len() as u64;
            }
            TraceOp::SubsetQuery { query } => {
                let q = SetQuery::in_subset(query.iter().map(|&e| ElementKey::from(e)).collect());
                answered += facility.candidates(&q).unwrap().len() as u64;
            }
        }
    }
    answered
}

fn mixed(c: &mut Criterion) {
    let mut group = c.benchmark_group("mixed_trace");
    group.sample_size(10);
    for (mix_name, cfg) in [
        ("query_heavy", TraceConfig::query_heavy(400)),
        ("insert_heavy", TraceConfig::insert_heavy(400)),
    ] {
        let trace = generate_trace(&cfg);
        group.bench_with_input(BenchmarkId::new("ssf", mix_name), &trace, |b, trace| {
            b.iter(|| {
                let disk = Arc::new(Disk::new());
                let io = Arc::clone(&disk) as Arc<dyn PageIo>;
                let mut f = Ssf::create(io, "s", SignatureConfig::new(250, 2).unwrap()).unwrap();
                replay(&mut f, trace)
            });
        });
        group.bench_with_input(BenchmarkId::new("bssf", mix_name), &trace, |b, trace| {
            b.iter(|| {
                let disk = Arc::new(Disk::new());
                let io = Arc::clone(&disk) as Arc<dyn PageIo>;
                let mut f = Bssf::create(io, "b", SignatureConfig::new(250, 2).unwrap()).unwrap();
                replay(&mut f, trace)
            });
        });
        group.bench_with_input(BenchmarkId::new("fssf", mix_name), &trace, |b, trace| {
            b.iter(|| {
                let disk = Arc::new(Disk::new());
                let io = Arc::clone(&disk) as Arc<dyn PageIo>;
                let mut f = Fssf::create(io, "f", FssfConfig::new(250, 25, 3).unwrap()).unwrap();
                replay(&mut f, trace)
            });
        });
        group.bench_with_input(BenchmarkId::new("nix", mix_name), &trace, |b, trace| {
            b.iter(|| {
                let disk = Arc::new(Disk::new());
                let mut f = Nix::create(disk, "n");
                replay(&mut f, trace)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, mixed);
criterion_main!(benches);
