//! Persisting and reloading a signature-indexed database.
//!
//! Builds a BSSF and a nested index over a workload, checkpoints their
//! catalog state (`sync_meta`), saves the entire simulated disk to a real
//! file, reloads it in a "second session", reopens both facilities from
//! their meta files, and verifies queries answer identically — at the same
//! page-access cost.
//!
//! ```text
//! cargo run --release --example persistence
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // example code

use setsig::nix::Nix;
use setsig::prelude::*;
use std::sync::Arc;

fn main() {
    let image = std::env::temp_dir().join("setsig-demo-image.bin");
    let cfg = WorkloadConfig {
        n_objects: 2000,
        domain: 800,
        ..WorkloadConfig::paper(10)
    };
    let sets = SetGenerator::new(cfg).generate_all();
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

    // ── Session 1: build, checkpoint, save ──────────────────────────────
    let disk = Arc::new(Disk::new());
    let io = || Arc::clone(&disk) as Arc<dyn PageIo>;
    let sig_cfg = SignatureConfig::new(250, 2).unwrap();
    let mut bssf = Bssf::create(io(), "hobbies", sig_cfg).unwrap();
    bssf.bulk_load(&items).unwrap();
    let mut nix = Nix::on_io(io(), "hobbies");
    for (oid, set) in &items {
        nix.insert(*oid, set).unwrap();
    }

    let probe = SetQuery::has_subset(vec![
        ElementKey::from(sets[7][0]),
        ElementKey::from(sets[7][1]),
    ]);
    let before = disk.snapshot();
    let original = bssf.candidates(&probe).unwrap();
    let original_cost = disk.snapshot().since(before).accesses();
    let original_nix = nix.candidates(&probe).unwrap();

    let bssf_meta = bssf.sync_meta().unwrap();
    let nix_meta = nix.sync_meta().unwrap();
    disk.save_to(&image).unwrap();
    println!(
        "session 1: indexed {} objects, checkpointed catalogs, saved {} pages to {}",
        sets.len(),
        disk.total_pages(),
        image.display()
    );

    // ── Session 2: load, reopen from catalog, re-query ─────────────────
    let loaded = Arc::new(Disk::load_from(&image).unwrap());
    let io = || Arc::clone(&loaded) as Arc<dyn PageIo>;
    let reopened_bssf = Bssf::open(io(), bssf_meta).unwrap();
    let reopened_nix = Nix::open(io(), nix_meta).unwrap();
    println!(
        "session 2: reopened BSSF ({} entries) and NIX ({} objects, rc = {})",
        reopened_bssf.indexed_count(),
        reopened_nix.indexed_count(),
        reopened_nix.tree().rc_lookup()
    );

    let before = loaded.snapshot();
    let answer = reopened_bssf.candidates(&probe).unwrap();
    let cost = loaded.snapshot().since(before).accesses();
    assert_eq!(answer, original, "reloaded BSSF must answer identically");
    assert_eq!(cost, original_cost, "…at the same page-access cost");
    println!(
        "  BSSF: same {} candidates at {} page accesses (was {})",
        answer.len(),
        cost,
        original_cost
    );

    let answer = reopened_nix.candidates(&probe).unwrap();
    assert_eq!(answer, original_nix, "reloaded NIX must answer identically");
    println!("  NIX:  same {} candidates", answer.len());

    std::fs::remove_file(&image).ok();
    println!("ok.");
}
