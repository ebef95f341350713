//! University workload: all four set access facilities side by side.
//!
//! Generates a few thousand students with hobby sets (the §1 scenario at
//! scale), indexes `Student.hobbies` with SSF, BSSF, FSSF and NIX over the same
//! database, and compares measured page-access costs on the paper's two
//! query types — including the full-scan baseline nothing in the paper
//! would stoop to.
//!
//! ```text
//! cargo run --release --example university
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // example code

use setsig::prelude::*;
use setsig::workload::university_hobbies;
use std::sync::Arc;

fn main() {
    const N: usize = 5000;
    let students = university_hobbies(N, 8, 6, 0x5e7516);

    let mut db = Database::in_memory();
    let student = db
        .define_class(ClassDef::new(
            "Student",
            vec![
                ("name", AttrType::Str),
                ("hobbies", AttrType::set_of(AttrType::Str)),
            ],
        ))
        .unwrap();

    for s in &students {
        db.insert_object(
            student,
            vec![
                Value::str(&s.name),
                Value::set(s.hobbies.iter().map(|h| Value::str(h)).collect()),
            ],
        )
        .unwrap();
    }

    // Four facilities over the same attribute, same disk: measured costs
    // are directly comparable.
    let io = || Arc::clone(db.disk()) as Arc<dyn PageIo>;
    let ssf = Ssf::create(io(), "hob", SignatureConfig::new(128, 2).unwrap()).unwrap();
    let bssf = Bssf::create(io(), "hob", SignatureConfig::new(128, 2).unwrap()).unwrap();
    let fssf = Fssf::create(io(), "hob", FssfConfig::new(128, 16, 2).unwrap()).unwrap();
    let nix = Nix::on_io(io(), "hob");
    let ssf_idx = db
        .register_facility(student, "hobbies", Box::new(ssf))
        .unwrap();
    let bssf_idx = db
        .register_facility(student, "hobbies", Box::new(bssf))
        .unwrap();
    let fssf_idx = db
        .register_facility(student, "hobbies", Box::new(fssf))
        .unwrap();
    let nix_idx = db
        .register_facility(student, "hobbies", Box::new(nix))
        .unwrap();

    println!(
        "{N} students, {} object-store pages",
        db.store().storage_pages().unwrap()
    );
    for (name, idx) in [
        ("SSF", ssf_idx),
        ("BSSF", bssf_idx),
        ("FSSF", fssf_idx),
        ("NIX", nix_idx),
    ] {
        let pages = db.facility(idx).unwrap().storage_pages().unwrap();
        println!("  {name:<5} storage: {pages} pages");
    }

    let queries = vec![
        (
            "hobbies has-subset (Baseball, Fishing)        [T ⊇ Q]",
            SetQuery::has_subset(vec![
                ElementKey::from("Baseball"),
                ElementKey::from("Fishing"),
            ]),
        ),
        (
            "hobbies has-subset (Chess, Go, Shogi)         [T ⊇ Q]",
            SetQuery::has_subset(vec![
                ElementKey::from("Chess"),
                ElementKey::from("Go"),
                ElementKey::from("Shogi"),
            ]),
        ),
        (
            "hobbies in-subset (Baseball, Fishing, Tennis) [T ⊆ Q]",
            SetQuery::in_subset(vec![
                ElementKey::from("Baseball"),
                ElementKey::from("Fishing"),
                ElementKey::from("Tennis"),
            ]),
        ),
        (
            "hobbies overlaps (Surfing, Sailing)           [T ∩ Q ≠ ∅]",
            SetQuery::overlaps(vec![
                ElementKey::from("Surfing"),
                ElementKey::from("Sailing"),
            ]),
        ),
    ];

    for (label, q) in queries {
        println!("\nselect Student where {label}");
        let scan = db.scan_set_query(student, "hobbies", &q).unwrap();
        let mut answers: Option<Vec<Oid>> = None;
        for (name, idx) in [
            ("SSF", ssf_idx),
            ("BSSF", bssf_idx),
            ("FSSF", fssf_idx),
            ("NIX", nix_idx),
        ] {
            let r = db.execute_set_query(idx, &q).unwrap();
            println!(
                "  {name:<9} {:>5} pages  ({} candidates, {} false drops, {} answers)",
                r.io.accesses(),
                r.drops.len(),
                r.false_drops,
                r.actual.len()
            );
            // All facilities must agree with each other and the scan.
            if let Some(prev) = &answers {
                assert_eq!(prev, &r.actual, "{name} disagrees");
            }
            assert_eq!(r.actual, scan.actual, "{name} disagrees with full scan");
            answers = Some(r.actual);
        }
        println!(
            "  full scan {:>5} pages  ({} answers)",
            scan.io.accesses(),
            scan.actual.len()
        );
    }
    println!("\nok — every facility agreed with the full scan on every query.");
}
