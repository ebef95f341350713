//! Tuning the signature design parameters `F` and `m` with the cost model.
//!
//! The paper's central design lesson (§5.1.2, §6): the text-retrieval
//! optimum `m_opt = F·ln2/D_t` minimizes *false drops* but not *total
//! retrieval cost* for BSSF — a small `m` (1–3) is far better because each
//! query-signature bit costs a slice read. This example sweeps the design
//! space analytically, prints the trade-off, picks a configuration, and
//! then verifies the choice by measuring the real implementation.
//!
//! ```text
//! cargo run --release --example tuning
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // example code

use setsig::costmodel::{advise, m_opt, WorkloadProfile};
use setsig::prelude::*;
use std::sync::Arc;

fn main() {
    let p = Params::paper();
    let d_t = 10;

    // ── Analytic sweep: RC(T ⊇ Q, D_q = 3) over m for F = 500 ─────────
    println!("BSSF retrieval cost (T ⊇ Q, D_t = 10, F = 500, D_q = 3) as m varies:");
    println!("{:>4} {:>12} {:>14}", "m", "RC (pages)", "false drop F_d");
    let mut best = (1u32, f64::INFINITY);
    for m in 1..=40u32 {
        let model = BssfModel::new(p, 500, m, d_t);
        let rc = model.rc_superset(3);
        if rc < best.1 {
            best = (m, rc);
        }
        if m <= 6 || m % 10 == 0 || m == 35 {
            let fd = setsig::costmodel::fd_superset(500, m, d_t, 3);
            println!("{m:>4} {rc:>12.1} {fd:>14.2e}");
        }
    }
    let opt = m_opt(500, d_t);
    println!(
        "\n→ total-cost optimum m = {} (RC = {:.1}); the false-drop optimum m_opt = {:.1} costs {:.1} pages",
        best.0,
        best.1,
        opt,
        BssfModel::new(p, 500, opt.round() as u32, d_t).rc_superset(3)
    );

    // ── F sweep at the chosen m ─────────────────────────────────────────
    println!("\nStorage/retrieval trade-off over F (m = {}):", best.0);
    println!(
        "{:>6} {:>10} {:>14} {:>14}",
        "F", "SC pages", "RC ⊇ (D_q=3)", "RC ⊆ (D_q=100)"
    );
    for f in [125u32, 250, 500, 1000, 2000] {
        let model = BssfModel::new(p, f, best.0, d_t);
        println!(
            "{f:>6} {:>10} {:>14.1} {:>14.1}",
            model.sc(),
            model.rc_superset(3),
            model.rc_subset(100)
        );
    }

    // ── Verify the headline with the real implementation ───────────────
    // Small instance: 4,000 objects over a 1,625-element domain (the
    // paper's geometry divided by 8).
    let cfg = WorkloadConfig {
        n_objects: 4000,
        domain: 1625,
        ..WorkloadConfig::paper(d_t)
    };
    let sets = SetGenerator::new(cfg).generate_all();
    let disk = Arc::new(Disk::new());
    let io = || Arc::clone(&disk) as Arc<dyn PageIo>;

    let mut small_m = Bssf::create(io(), "m2", SignatureConfig::new(500, 2).unwrap()).unwrap();
    let mut opt_m = Bssf::create(io(), "m35", SignatureConfig::new(500, 35).unwrap()).unwrap();
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
    small_m.bulk_load(&items).unwrap();
    opt_m.bulk_load(&items).unwrap();

    let mut qg = QueryGen::new(cfg.domain, 99);
    let trials = 20;
    let mut pages = [0u64; 2];
    for _ in 0..trials {
        let q = SetQuery::has_subset(qg.random(3).into_iter().map(ElementKey::from).collect());
        for (i, facility) in [&small_m, &opt_m].into_iter().enumerate() {
            let before = disk.snapshot();
            let c = facility.candidates(&q).unwrap();
            pages[i] += disk.snapshot().since(before).accesses() + c.len() as u64;
        }
    }
    println!(
        "\nMeasured filter cost over {trials} random ⊇ queries (D_q = 3, N = {}):",
        cfg.n_objects
    );
    println!(
        "  m = 2  : {:>6.1} pages/query",
        pages[0] as f64 / trials as f64
    );
    println!(
        "  m = 35 : {:>6.1} pages/query  (m_opt — reads 3×35 ≈ 105 slices!)",
        pages[1] as f64 / trials as f64
    );
    assert!(pages[0] < pages[1]);
    println!("\nok — small m wins, as §5.1.2 concludes.");

    // ── Let the advisor search the whole design space ───────────────────
    let profile = WorkloadProfile::paper_default();
    let rec = advise(p, &profile);
    println!(
        "\nAdvisor (mixed ⊇/⊆ workload, 10% inserts, D_t = {}):",
        profile.d_t
    );
    println!(
        "  recommended: {:?} — {:.1} pages/op expected, {} pages of storage",
        rec.organization, rec.expected_cost, rec.storage_pages
    );
    println!("  runners-up:");
    for (org, cost, sc) in rec.candidates.iter().skip(1).take(4) {
        println!("    {org:?} — {cost:.1} pages/op, {sc} pages");
    }
    let heavy_insert = WorkloadProfile {
        superset_fraction: 0.05,
        subset_fraction: 0.05,
        insert_fraction: 0.90,
        ..profile
    };
    let rec = advise(p, &heavy_insert);
    println!(
        "  under a 90%-insert workload it switches to: {:?} ({:.1} pages/op)",
        rec.organization, rec.expected_cost
    );
}
