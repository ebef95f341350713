//! Failure injection: every facility propagates disk errors as `Err`,
//! never panics, and recovers once the fault clears.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code

use setsig::nix::Nix;
use setsig::prelude::*;
use std::sync::Arc;

fn setup() -> (Arc<Disk>, Ssf, Bssf, Nix) {
    let disk = Arc::new(Disk::new());
    let io = || Arc::clone(&disk) as Arc<dyn PageIo>;
    let mut ssf = Ssf::create(io(), "s", SignatureConfig::new(64, 2).unwrap()).unwrap();
    let mut bssf = Bssf::create(io(), "b", SignatureConfig::new(64, 2).unwrap()).unwrap();
    let mut nix = Nix::on_io(io(), "n");
    for i in 0..200u64 {
        let set: Vec<ElementKey> = (0..4).map(|j| ElementKey::from(i * 7 + j)).collect();
        ssf.insert(Oid::new(i), &set).unwrap();
        bssf.insert(Oid::new(i), &set).unwrap();
        nix.insert(Oid::new(i), &set).unwrap();
    }
    (disk, ssf, bssf, nix)
}

#[test]
fn queries_fail_cleanly_mid_read_and_recover() {
    let (disk, ssf, bssf, nix) = setup();
    let q = SetQuery::has_subset(vec![
        ElementKey::from(7u64 * 7),
        ElementKey::from(7u64 * 7 + 1),
    ]);

    // Fail immediately: every facility reports an error, no panic.
    disk.inject_fault_after(0);
    assert!(ssf.candidates(&q).is_err());
    assert!(bssf.candidates(&q).is_err());
    assert!(nix.candidates(&q).is_err());

    // Fail mid-operation: still an error.
    disk.inject_fault_after(1);
    assert!(ssf.candidates(&q).is_err());

    // Clear: everything works again and answers correctly.
    disk.clear_fault();
    let a = ssf.candidates(&q).unwrap();
    let b = bssf.candidates(&q).unwrap();
    let c = nix.candidates(&q).unwrap();
    assert!(a.oids.contains(&Oid::new(7)));
    assert!(b.oids.contains(&Oid::new(7)));
    assert!(c.oids.contains(&Oid::new(7)));
}

#[test]
fn inserts_fail_cleanly() {
    let (disk, mut ssf, mut bssf, mut nix) = setup();
    let set: Vec<ElementKey> = (0..4).map(|j| ElementKey::from(9000 + j)).collect();
    disk.inject_fault_after(0);
    assert!(ssf.insert(Oid::new(900), &set).is_err());
    assert!(bssf.insert(Oid::new(900), &set).is_err());
    assert!(nix.insert(Oid::new(900), &set).is_err());
    disk.clear_fault();
    // The nix tree may have a torn multi-element insert (one key in, the
    // rest not) — the tree itself must still be structurally sound.
    nix.tree().check_integrity().unwrap();
}

#[test]
fn database_layer_propagates_faults() {
    let mut db = Database::in_memory();
    let class = db
        .define_class(ClassDef::new(
            "C",
            vec![("xs", AttrType::set_of(AttrType::Int))],
        ))
        .unwrap();
    let io = Arc::clone(db.disk()) as Arc<dyn PageIo>;
    let bssf = Bssf::create(io, "x", SignatureConfig::new(64, 2).unwrap()).unwrap();
    let idx = db.register_facility(class, "xs", Box::new(bssf)).unwrap();
    for i in 0..50i64 {
        db.insert_object(
            class,
            vec![Value::set(vec![Value::Int(i), Value::Int(i + 1)])],
        )
        .unwrap();
    }
    let q = SetQuery::has_subset(vec![ElementKey::from(25u64)]);
    // Fault during drop resolution (object fetches happen after the slice
    // reads): the executor surfaces the error.
    db.disk().inject_fault_after(3);
    assert!(db.execute_set_query(idx, &q).is_err());
    db.disk().clear_fault();
    let r = db.execute_set_query(idx, &q).unwrap();
    assert!(!r.actual.is_empty());
}

#[test]
fn persistence_load_failures_are_errors() {
    // Saving with a fault active fails without corrupting the source.
    let (disk, _ssf, _bssf, _nix) = setup();
    let dir = std::env::temp_dir().join(format!("setsig-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("img.bin");
    disk.save_to(&path).unwrap();
    // A truncated image errors on load.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..100]).unwrap();
    assert!(Disk::load_from(&path).is_err());
    std::fs::remove_dir_all(&dir).ok();
}
