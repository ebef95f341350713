//! The plan `run_query` runs (§5.1.3, §5.2.2, Appendix C): on a 4,000-object
//! instance, a BSSF `T ⊆ Q` query below `D_q^opt` reads the instance's
//! slice budget and one at or above it every zero-slice; a NIX `T ⊇ Q`
//! query above the model's `j`, priced on the index's keys, looks up `j` of
//! its elements; every other query, and every other query on SSF, BSSF or
//! NIX, costs what the unplanned query costs; answers equal the full scan's;
//! and a BSSF bulk loaded, or saved and reopened, plans the same cap.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code

use setsig_core::{
    Bssf, ElementKey, IndexLayout, Oid, Profile, SetAccessFacility, SetQuery, SignatureConfig, Ssf,
};
use setsig_costmodel::{BssfModel, NixModel, Params};
use setsig_nix::Nix;
use setsig_oodb::{AttrType, ClassDef, ClassId, Database, Error, Value};
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
}

#[test]
fn run_query_caps_a_nix_superset_lookup_above_j_and_nothing_else() {
    let sets = sets();
    let (db, class) = instance(&sets, NIX);
    let others = [instance(&sets, SSF).0, instance(&sets, BSSF).0];
    // Priced as `plan` prices it: the facility's `N`, `D_t` and keys as
    // `V` (4,000 sets of 10 hold every value), the paper's other constants.
    assert_eq!(nested_keys(&db), DOMAIN);
    let model = NixModel::new(Params::scaled(N, DOMAIN), D_T as u32);
    let mut planned_any = false;
    for (i, d_q) in [1usize, 2, 3, 5, 8].into_iter().enumerate() {
        // A subset of a stored set: the intersection never empties.
        let elements = sets[i * 13][..d_q].to_vec();
        let text = text("has-subset", &elements);
        let query = SetQuery::has_subset(keys(&elements));
        let what = format!("D_q = {d_q}");
        let scan = db.scan_set_query(class, "elems", &query).unwrap();
        assert!(!scan.actual.is_empty(), "{what}");

        let j = model.best_superset_cap(d_q as u32);
        assert_eq!(j as usize, d_q.min(2), "{what}: the paper's j");
        let plan = db.plan(0, query.clone());
        let plain = db.execute_set_query(0, &query).unwrap();
        let planned = db.run_query(&text).unwrap();
        assert_eq!(planned.actual, scan.actual, "{what}");
        if d_q > j as usize {
            planned_any = true;
            assert_eq!(plan.cap(), Some(j as usize), "{what}");
            assert!(!planned.drops.exact, "{what}: the rest is verified");
            assert!(
                planned.filter_io.reads < plain.filter_io.reads,
                "{what}: {} ≥ {}",
                planned.filter_io.reads,
                plain.filter_io.reads
            );
        } else {
            assert_eq!(plan, query, "{what}: D_q ≤ j");
            assert_eq!((planned.actual, planned.io), (plain.actual, plain.io));
        }

        // SSF and BSSF: the same pages and answer as the unplanned query.
        for other in &others {
            assert_eq!(other.plan(0, query.clone()), query, "{what}");
            let plain = other.execute_set_query(0, &query).unwrap();
            let planned = other.run_query(&text).unwrap();
            assert_eq!(
                (&planned.actual, planned.io),
                (&scan.actual, plain.io),
                "{what}"
            );
        }
    }
    assert!(planned_any);

    // A query that already carries a cap keeps it.
    let capped = SetQuery::has_subset(keys(&sets[0][..5]))
        .with_cap(4)
        .unwrap();
    assert_eq!(db.plan(0, capped.clone()), capped);
    // `T ⊇ ∅` is not planned, and NIX still refuses it.
    let nothing = SetQuery::has_subset(vec![]);
    assert_eq!(db.plan(0, nothing.clone()), nothing);
    let refused = db.run_query("select Synthetic where elems has-subset ()");
    assert!(matches!(refused, Err(Error::BadQuery(_))), "{refused:?}");
    // An empty NIX has no `D_t` to price a cap on.
    let (empty, _) = instance(&[], NIX);
    let profile = empty.facility(0).unwrap().profile();
    let nested = Some(Profile {
        layout: IndexLayout::Nested { keys: 0 },
        elements: 0,
    });
    assert_eq!(profile, nested);
    let query = SetQuery::has_subset(keys(&sets[0][..5]));
    assert_eq!(empty.plan(0, query.clone()), query);
}

/// The keys of facility 0, a NIX: the domain `plan` prices it on.
fn nested_keys(db: &Database) -> u64 {
    match db.facility(0).unwrap().profile().unwrap().layout {
        IndexLayout::Nested { keys } => keys,
        other => panic!("{other:?}"),
    }
}

/// A NIX `T ⊇ Q` plan is priced on the index's own domain, its keys: on
/// 2,000 objects over 1,625 values the model's `j` for `D_q = 5` is 2,
/// where the paper's `V = 13,000` gives 1, whose one posting list leaves
/// a dozen false drops for resolution to fetch.
#[test]
fn a_nix_superset_plan_is_priced_on_the_indexs_keys() {
    let sets = sets();
    let (db, _) = instance(&sets[..2_000], NIX);
    assert_eq!(nested_keys(&db), DOMAIN);
    let paper = NixModel::new(Params::scaled(2_000, 13_000), D_T as u32);
    assert_eq!(paper.best_superset_cap(5), 1);

    let query = SetQuery::has_subset(keys(&sets[0][..5]));
    assert_eq!(db.plan(0, query.clone()).cap(), Some(2));
    let run = |cap| {
        let capped = query.clone().with_cap(cap).unwrap();
        db.execute_set_query(0, &capped).unwrap()
    };
    let (planned, one) = (run(2), run(1));
    assert_eq!(planned.actual, one.actual);
    assert!(planned.actual.contains(&Oid::new(0)));
    assert!(
        one.false_drops >= planned.false_drops + 8,
        "j = 1: {} false drops, j = 2: {}",
        one.false_drops,
        planned.false_drops
    );
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
        let profile = Profile {
            layout: IndexLayout::Signature { f: F, m: M },
            elements: N * D_T as u64,
        };
        assert_eq!(bssf.profile(), Some(profile));
        // A database with no objects registers the facility as it is.
        let (mut empty, class) = class_db();
        let fidx = empty
            .register_facility(class, "elems", Box::new(bssf))
            .unwrap();
        assert_eq!(empty.plan(fidx, query.clone()).cap(), cap);
    }
}
