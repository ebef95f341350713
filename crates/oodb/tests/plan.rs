//! The plan `run_query` runs (§5.2.2, Appendix C): on a 4,000-object
//! instance, a BSSF `T ⊆ Q` query below `D_q^opt` reads the instance's
//! slice budget and one at or above it every zero-slice; every other
//! query, and every query on SSF or NIX, costs what the unplanned query
//! costs; answers equal the full scan's; and a BSSF bulk loaded, or saved
//! and reopened, plans the same cap.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code

use setsig_core::{Bssf, ElementKey, Oid, SetAccessFacility, SetQuery, SignatureConfig, Ssf};
use setsig_costmodel::{BssfModel, Params};
use setsig_nix::Nix;
use setsig_oodb::{AttrType, ClassDef, ClassId, Database, Value};
use setsig_pagestore::{Disk, PageIo};
use setsig_workload::{random_set, superset_of, SplitMix64};
use std::sync::Arc;

const N: u64 = 4_000;
/// `V/N` as in the paper (13,000 / 32,000).
const DOMAIN: u64 = 1_625;
const D_T: usize = 10;
const F: u32 = 500;
const M: u32 = 2;

fn cfg() -> SignatureConfig {
    SignatureConfig::new(F, M).unwrap()
}

fn class_db() -> (Database, ClassId) {
    let mut db = Database::in_memory();
    let class = db
        .define_class(ClassDef::new(
            "Synthetic",
            vec![("elems", AttrType::set_of(AttrType::Int))],
        ))
        .unwrap();
    (db, class)
}

fn keys(set: &[u64]) -> Vec<ElementKey> {
    set.iter().map(|&e| ElementKey::from(e)).collect()
}

fn sets() -> Vec<Vec<u64>> {
    let mut rng = SplitMix64::new(1993);
    (0..N).map(|_| random_set(&mut rng, DOMAIN, D_T)).collect()
}

type Make = fn(Arc<dyn PageIo>) -> Box<dyn SetAccessFacility>;

const SSF: Make = |io| Box::new(Ssf::create(io, "ssf", cfg()).unwrap());
const BSSF: Make = |io| Box::new(Bssf::create(io, "bssf", cfg()).unwrap());
const NIX: Make = |io| Box::new(Nix::on_io(io, "nix"));

/// The objects of `sets`, indexed by the one facility `make` builds.
fn instance(sets: &[Vec<u64>], make: Make) -> (Database, ClassId) {
    let (mut db, class) = class_db();
    let facility = make(Arc::clone(db.disk()) as Arc<dyn PageIo>);
    db.register_facility(class, "elems", facility).unwrap();
    for set in sets {
        let value = Value::set(set.iter().map(|&e| Value::Int(e as i64)).collect());
        db.insert_object(class, vec![value]).unwrap();
    }
    (db, class)
}

fn text(predicate: &str, elements: &[u64]) -> String {
    let list: Vec<String> = elements.iter().map(u64::to_string).collect();
    format!(
        "select Synthetic where elems {predicate} ({})",
        list.join(", ")
    )
}

#[test]
fn run_query_caps_a_bssf_subset_scan_below_d_q_opt_and_nothing_else() {
    let sets = sets();
    let (db, class) = instance(&sets, BSSF);
    let others = [instance(&sets, SSF).0, instance(&sets, NIX).0];
    let model = BssfModel::new(Params::scaled(N, DOMAIN), F, M, D_T as u32);
    let (opt, budget) = model.subset_budget().unwrap();
    assert!((300..400).contains(&opt), "D_q^opt = {opt}");

    let mut rng = SplitMix64::new(7);
    for (i, d_q) in [20usize, 50, 100, 200, 400, 600].into_iter().enumerate() {
        let target = i * 97;
        let elements = superset_of(&mut rng, DOMAIN, &sets[target], d_q);
        let text = text("in-subset", &elements);
        let query = SetQuery::in_subset(keys(&elements));
        let what = format!("D_q = {}", query.d_q());
        let scan = db.scan_set_query(class, "elems", &query).unwrap();
        assert!(scan.actual.contains(&Oid::new(target as u64)), "{what}");

        let planned = db.run_query(&text).unwrap();
        assert_eq!(planned.actual, scan.actual, "{what}");
        let slices = planned.stats.unwrap().slices;
        let zeros = u64::from(F) - u64::from(cfg().signature(&query.elements).count_ones());
        match model.subset_cap(query.d_q() as u32) {
            Some(cap) => {
                assert_eq!(cap, budget, "{what}");
                assert!(zeros > u64::from(cap), "{what}: the cap binds");
                assert_eq!(slices, u64::from(cap), "{what}");
                let plain = db.execute_set_query(0, &query).unwrap();
                assert_eq!(plain.stats.unwrap().slices, zeros, "{what}");
                assert!(planned.io.accesses() < plain.io.accesses(), "{what}");
            }
            None => {
                assert!(query.d_q() as u32 >= opt, "{what}");
                assert_eq!(slices, zeros, "{what}");
            }
        }

        // SSF and NIX: the same pages and answer as the unplanned query.
        for other in &others {
            let plain = other.execute_set_query(0, &query).unwrap();
            let planned = other.run_query(&text).unwrap();
            assert_eq!(
                (&planned.actual, planned.io),
                (&scan.actual, plain.io),
                "{what}"
            );
        }
    }

    // `T ⊇ Q` is not planned, on any facility.
    for (i, d_q) in [1usize, 2, 3, 5].into_iter().enumerate() {
        let elements = sets[i * 13][..d_q].to_vec();
        let text = text("has-subset", &elements);
        let query = SetQuery::has_subset(keys(&elements));
        assert_eq!(db.plan(0, query.clone()), query);
        for db in [&db, &others[0], &others[1]] {
            let plain = db.execute_set_query(0, &query).unwrap();
            let planned = db.run_query(&text).unwrap();
            assert_eq!((planned.actual, planned.io), (plain.actual, plain.io));
        }
    }
}

#[test]
fn a_bulk_loaded_or_reopened_bssf_plans_the_same_cap() {
    let sets = sets();
    let (db, _) = instance(&sets, BSSF);
    let query = SetQuery::in_subset(keys(&sets[0]));
    let cap = db.plan(0, query.clone()).cap();
    assert!(cap.is_some());

    // The same objects through `insert_batch`, and through inserts
    // checkpointed, saved and loaded.
    let items: Vec<(Oid, Vec<ElementKey>)> = (0..N)
        .map(|i| (Oid::new(i), keys(&sets[i as usize])))
        .collect();
    let disk = Arc::new(Disk::new());
    let mut batched = Bssf::create(Arc::clone(&disk) as Arc<dyn PageIo>, "batched", cfg()).unwrap();
    batched.insert_batch(&items).unwrap();
    let mut inserted =
        Bssf::create(Arc::clone(&disk) as Arc<dyn PageIo>, "inserted", cfg()).unwrap();
    for (oid, set) in &items {
        inserted.insert(*oid, set).unwrap();
    }
    let meta = inserted.sync_meta().unwrap();
    let path = std::env::temp_dir().join(format!("setsig-plan-{}.img", std::process::id()));
    disk.save_to(&path).unwrap();
    let loaded = Arc::new(Disk::load_from(&path).unwrap());
    std::fs::remove_file(&path).ok();
    let reopened = Bssf::open(loaded, meta).unwrap();

    for bssf in [batched, reopened] {
        assert_eq!(bssf.signature_profile(), Some((F, M, N * D_T as u64)));
        // A database with no objects registers the facility as it is.
        let (mut empty, class) = class_db();
        let fidx = empty
            .register_facility(class, "elems", Box::new(bssf))
            .unwrap();
        assert_eq!(empty.plan(fidx, query.clone()).cap(), cap);
    }
}
