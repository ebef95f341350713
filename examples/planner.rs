//! A cost-based query planner over set access facilities.
//!
//! §6 lists "query processing schemes based on BSSF" as further work. This
//! example builds one: given a query, consult the paper's cost model to
//! choose between BSSF (plain or smart) and NIX — including the smart
//! parameter (`j` element cap for ⊇, slice budget for ⊆) — then execute
//! the chosen plan and compare against what the other plans would have
//! cost. The `T ⊆ Q` slice budget is `BssfModel::subset_cap` and the NIX
//! `T ⊇ Q` element cap `NixModel::best_superset_cap`, the two functions
//! `Database::run_query` plans with; each BSSF `T ⊆ Q` plan chosen here is
//! checked to measure no more pages than the plain scan. A BSSF `T ⊇ Q`
//! cap is chosen here by pages alone; `run_query` does not plan it, since
//! the false drops it admits cost more time than the slices it skips.
//!
//! NIX `T ⊆ Q` is planned with the paper's union cost
//! (`NixModel::rc_subset`), not the counting retrieval the engine runs
//! (`NixModel::rc_subset_counting`), so the plan chosen is the paper's.
//!
//! ```text
//! cargo run --release --example planner
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // example code

use setsig::nix::Nix;
use setsig::prelude::*;
use std::sync::Arc;

/// The plans the planner chooses among.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Plan {
    BssfPlain,
    BssfSmart { cap: u32 },
    NixPlain,
    NixSmart { cap: u32 },
}

/// Pick the cheapest plan for a query under the cost model.
fn choose(p: Params, f: u32, m: u32, d_t: u32, q: &SetQuery) -> (Plan, f64) {
    let bssf = BssfModel::new(p, f, m, d_t);
    let nix = NixModel::new(p, d_t);
    let d_q = q.d_q() as u32;
    let mut plans: Vec<(Plan, f64)> = Vec::new();
    match q.predicate {
        SetPredicate::HasSubset => {
            plans.push((Plan::BssfPlain, bssf.rc_superset(d_q)));
            let cap = bssf.best_superset_cap(d_q.max(1));
            plans.push((Plan::BssfSmart { cap }, bssf.rc_superset_smart(d_q, cap)));
            plans.push((Plan::NixPlain, nix.rc_superset(d_q)));
            let j = nix.best_superset_cap(d_q);
            plans.push((Plan::NixSmart { cap: j }, nix.rc_superset_smart(d_q, j)));
        }
        SetPredicate::InSubset => {
            plans.push((Plan::BssfPlain, bssf.rc_subset(d_q)));
            if let Some(cap) = bssf.subset_cap(d_q) {
                plans.push((Plan::BssfSmart { cap }, bssf.rc_subset_smart(d_q)));
            }
            plans.push((Plan::NixPlain, nix.rc_subset(d_q)));
        }
        _ => plans.push((Plan::BssfPlain, f64::INFINITY)),
    }
    plans
        .into_iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap()
}

fn main() {
    let d_t = 10;
    // A 1/8-scale paper instance.
    let p = Params::scaled(4000, 1625);
    let cfg = WorkloadConfig {
        n_objects: p.n,
        domain: p.v,
        ..WorkloadConfig::paper(d_t)
    };
    let sets = SetGenerator::new(cfg).generate_all();

    let disk = Arc::new(Disk::new());
    let io = || Arc::clone(&disk) as Arc<dyn PageIo>;
    let (f, m) = (500u32, 2u32);
    let mut bssf = Bssf::create(io(), "pl", SignatureConfig::new(f, m).unwrap()).unwrap();
    let items: Vec<(Oid, Vec<ElementKey>)> = sets
        .iter()
        .enumerate()
        .map(|(i, s)| {
            (
                Oid::new(i as u64),
                s.iter().map(|&e| ElementKey::from(e)).collect(),
            )
        })
        .collect();
    bssf.bulk_load(&items).unwrap();
    let mut nix = Nix::on_io(io(), "pl");
    for (oid, set) in &items {
        nix.insert(*oid, set).unwrap();
    }

    let mut qg = QueryGen::new(cfg.domain, 2024);
    let workload: Vec<SetQuery> = vec![
        SetQuery::has_subset(qg.random(1).into_iter().map(ElementKey::from).collect()),
        SetQuery::has_subset(qg.random(2).into_iter().map(ElementKey::from).collect()),
        SetQuery::has_subset(qg.random(8).into_iter().map(ElementKey::from).collect()),
        SetQuery::in_subset(qg.random(30).into_iter().map(ElementKey::from).collect()),
        SetQuery::in_subset(qg.random(200).into_iter().map(ElementKey::from).collect()),
        SetQuery::in_subset(qg.random(1000).into_iter().map(ElementKey::from).collect()),
    ];

    println!(
        "planner: F = {f}, m = {m}, D_t = {d_t}, N = {}, V = {}\n",
        p.n, p.v
    );
    // Filter pages plus one page per candidate fetched for resolution.
    let measure = |facility: &dyn SetAccessFacility, q: &SetQuery| {
        let before = disk.snapshot();
        let candidates = facility.candidates(q).unwrap();
        let pages = disk.snapshot().since(before).accesses() + candidates.len() as u64;
        (pages, candidates.len())
    };
    for q in &workload {
        let (plan, predicted) = choose(p, f, m, d_t, q);
        // A smart plan is the same query carrying the plan's cap.
        let smart = |cap: u32| q.clone().with_cap(cap as usize).unwrap();
        let (total, candidates) = match plan {
            Plan::BssfPlain => measure(&bssf, q),
            Plan::BssfSmart { cap } => measure(&bssf, &smart(cap)),
            Plan::NixPlain => measure(&nix, q),
            Plan::NixSmart { cap } => measure(&nix, &smart(cap)),
        };
        println!("{} (D_q = {:>4}) → {:?}", q.predicate, q.d_q(), plan);
        println!(
            "    predicted {predicted:>8.1} pages   measured {total:>6} pages   {candidates} candidates"
        );
        if let (SetPredicate::InSubset, Plan::BssfSmart { .. }) = (q.predicate, plan) {
            let (plain, _) = measure(&bssf, q);
            println!("    plain BSSF scan: {plain} pages");
            assert!(
                total <= plain,
                "the slice cap cost {total} pages, the plain scan {plain}"
            );
        }
    }
    println!("\nok.");
}
