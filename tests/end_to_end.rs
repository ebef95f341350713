//! Cross-crate integration: the full OODB + all four facilities through
//! inserts, queries, deletes, and every predicate.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code

use setsig::nix::Nix;
use setsig::prelude::*;
use std::sync::Arc;

fn hobby_db() -> (Database, setsig::oodb::ClassId) {
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
    (db, student)
}

fn register_all(db: &mut Database, class: setsig::oodb::ClassId) -> [usize; 4] {
    let io = || Arc::clone(db.disk()) as Arc<dyn PageIo>;
    let ssf = Ssf::create(io(), "h", SignatureConfig::new(128, 2).unwrap()).unwrap();
    let bssf = Bssf::create(io(), "h", SignatureConfig::new(128, 2).unwrap()).unwrap();
    let fssf = Fssf::create(io(), "h", FssfConfig::new(128, 16, 2).unwrap()).unwrap();
    let nix = Nix::on_io(io(), "h");
    [
        db.register_facility(class, "hobbies", Box::new(ssf))
            .unwrap(),
        db.register_facility(class, "hobbies", Box::new(bssf))
            .unwrap(),
        db.register_facility(class, "hobbies", Box::new(fssf))
            .unwrap(),
        db.register_facility(class, "hobbies", Box::new(nix))
            .unwrap(),
    ]
}

fn insert_student(
    db: &mut Database,
    class: setsig::oodb::ClassId,
    name: &str,
    hobbies: &[&str],
) -> Oid {
    db.insert_object(
        class,
        vec![
            Value::str(name),
            Value::set(hobbies.iter().map(|h| Value::str(h)).collect()),
        ],
    )
    .unwrap()
}

#[test]
fn all_predicates_agree_across_facilities_and_scan() {
    let (mut db, student) = hobby_db();
    let facilities = register_all(&mut db, student);

    let data: &[(&str, &[&str])] = &[
        ("Jeff", &["Baseball", "Fishing"]),
        ("Ann", &["Baseball", "Fishing", "Tennis"]),
        ("Bob", &["Chess"]),
        ("Carol", &["Baseball"]),
        ("Dan", &["Fishing", "Golf", "Chess"]),
        ("Eve", &["Tennis", "Baseball"]),
        ("Finn", &[]),
    ];
    for (name, hobbies) in data {
        insert_student(&mut db, student, name, hobbies);
    }

    let queries = vec![
        SetQuery::has_subset(vec![
            ElementKey::from("Baseball"),
            ElementKey::from("Fishing"),
        ]),
        SetQuery::has_subset(vec![ElementKey::from("Chess")]),
        SetQuery::in_subset(vec![
            ElementKey::from("Baseball"),
            ElementKey::from("Fishing"),
            ElementKey::from("Tennis"),
        ]),
        SetQuery::equals(vec![
            ElementKey::from("Baseball"),
            ElementKey::from("Fishing"),
        ]),
        SetQuery::overlaps(vec![ElementKey::from("Golf"), ElementKey::from("Tennis")]),
        SetQuery::contains(ElementKey::from("Fishing")),
        // Degenerate: empty ⊆ and = queries match only the empty set (Finn's).
        SetQuery::in_subset(vec![]),
        SetQuery::equals(vec![]),
    ];
    for q in &queries {
        let scan = db.scan_set_query(student, "hobbies", q).unwrap();
        for &idx in &facilities {
            let r = db.execute_set_query(idx, q).unwrap();
            assert_eq!(
                r.actual,
                scan.actual,
                "facility {} disagrees with scan on {}",
                db.facility(idx).unwrap().name(),
                q.predicate
            );
        }
    }
}

#[test]
fn deletes_propagate_everywhere() {
    let (mut db, student) = hobby_db();
    let facilities = register_all(&mut db, student);
    let jeff = insert_student(&mut db, student, "Jeff", &["Baseball", "Fishing"]);
    let ann = insert_student(&mut db, student, "Ann", &["Baseball", "Fishing"]);

    db.delete_object(jeff).unwrap();

    let q = SetQuery::has_subset(vec![ElementKey::from("Baseball")]);
    for idx in facilities {
        let r = db.execute_set_query(idx, &q).unwrap();
        assert_eq!(r.actual, vec![ann], "{}", db.facility(idx).unwrap().name());
    }
    assert!(db.get_object(jeff).is_err());
    // Deleting again fails cleanly.
    assert!(db.delete_object(jeff).is_err());
}

#[test]
fn facility_costs_scale_as_the_paper_predicts() {
    // A mid-sized instance; checks cost *ordering*, not absolutes: every
    // facility must beat the full scan on ⊇, and on ⊆ the paper's model
    // ranks BSSF above its NIX while the engine's NIX fetches no false drop.
    let (mut db, student) = hobby_db();
    let facilities = register_all(&mut db, student);
    let hobby = |i: u64| format!("hobby-{}", i % 40);
    for i in 0..2000u64 {
        let hobbies: Vec<String> = (0..4).map(|j| hobby(i * 7 + j)).collect();
        let refs: Vec<&str> = hobbies.iter().map(String::as_str).collect();
        insert_student(&mut db, student, &format!("s{i}"), &refs);
    }

    let q_sup = SetQuery::has_subset(vec![ElementKey::from(hobby(3).as_str())]);
    let scan = db.scan_set_query(student, "hobbies", &q_sup).unwrap();
    for &idx in &facilities {
        let r = db.execute_set_query(idx, &q_sup).unwrap();
        assert_eq!(r.actual, scan.actual);
        assert!(
            r.io.accesses() < scan.io.accesses() / 2,
            "{} cost {:?} vs scan {:?}",
            db.facility(idx).unwrap().name(),
            r.io,
            scan.io
        );
    }

    let q_sub = SetQuery::in_subset(
        (0..10)
            .map(|i| ElementKey::from(hobby(i).as_str()))
            .collect(),
    );
    let bssf = db.execute_set_query(facilities[1], &q_sub).unwrap();
    let nix = db.execute_set_query(facilities[3], &q_sub).unwrap();
    assert_eq!(bssf.actual, nix.actual);
    assert!(!nix.actual.is_empty());
    // The paper's ordering on T ⊆ Q is its model's: the §4.3 union fetches
    // every object sharing an element with Q, while BSSF reads slices.
    let p = Params::paper();
    let (bssf_model, nix_model) = (BssfModel::new(p, 500, 2, 10), NixModel::new(p, 10));
    for d_q in [20, 50, 100, 200, 500] {
        assert!(
            bssf_model.rc_subset(d_q) < nix_model.rc_subset(d_q),
            "D_q = {d_q}: the paper has BSSF beat NIX on T ⊆ Q"
        );
    }
    // The engine's NIX counts each object's |T| in the union: it fetches
    // only its answers.
    assert_eq!(nix.report.false_drops, 0, "{:?}", nix.report);
    assert_eq!(nix.report.candidates, nix.actual.len() as u64);
}

#[test]
fn mixed_classes_do_not_leak_between_facilities() {
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
    let club = db
        .define_class(ClassDef::new(
            "Club",
            vec![
                ("name", AttrType::Str),
                ("hobbies", AttrType::set_of(AttrType::Str)),
            ],
        ))
        .unwrap();
    let io = Arc::clone(db.disk()) as Arc<dyn PageIo>;
    let bssf = Bssf::create(io, "student-hobbies", SignatureConfig::new(128, 2).unwrap()).unwrap();
    let idx = db
        .register_facility(student, "hobbies", Box::new(bssf))
        .unwrap();

    let s = insert_student(&mut db, student, "Jeff", &["Baseball"]);
    // Same attribute name on a different, unindexed class.
    db.insert_object(
        club,
        vec![
            Value::str("Baseball Club"),
            Value::set(vec![Value::str("Baseball")]),
        ],
    )
    .unwrap();

    let q = SetQuery::has_subset(vec![ElementKey::from("Baseball")]);
    let r = db.execute_set_query(idx, &q).unwrap();
    assert_eq!(r.actual, vec![s], "club object must not appear");
}

#[test]
fn empty_database_answers_empty() {
    let (mut db, student) = hobby_db();
    let facilities = register_all(&mut db, student);
    let q = SetQuery::has_subset(vec![ElementKey::from("Baseball")]);
    for idx in facilities {
        let r = db.execute_set_query(idx, &q).unwrap();
        assert!(r.actual.is_empty());
        assert_eq!(r.report.candidates, 0);
    }
}
