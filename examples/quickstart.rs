//! Quickstart: the paper's §1–§3 walked end to end.
//!
//! Builds the sample database (Students with `hobbies` and `courses` set
//! attributes), shows how element signatures superimpose into set
//! signatures, demonstrates an actual drop and a false drop exactly like
//! Figures 1 and 2, and runs the paper's queries Q1 (`has-subset`) and Q2
//! (`in-subset`) through a bit-sliced signature file.
//!
//! ```text
//! cargo run --example quickstart
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // example code

use setsig::prelude::*;
use std::sync::Arc;

fn main() {
    // ── 1. Signatures by hand (Figure 1 / Figure 2) ────────────────────
    // Tiny parameters so the bit patterns are printable: F = 16, m = 2.
    let cfg = SignatureConfig::new(16, 2).unwrap();
    let show = |label: &str, sig: &Bitmap| {
        let bits: String = (0..16)
            .map(|i| if sig.get(i) { '1' } else { '0' })
            .collect();
        println!("  {label:<32} {bits}");
    };

    println!("Element signatures (F = 16, m = 2):");
    for name in ["Baseball", "Fishing", "Football", "Tennis"] {
        show(name, &cfg.signature([&ElementKey::from(name)]));
    }

    let query_set = vec![ElementKey::from("Baseball"), ElementKey::from("Fishing")];
    let query_sig = cfg.signature(&query_set);
    println!("\nQuery signature for {{Baseball, Fishing}} (T ⊇ Q):");
    show("query", &query_sig);

    let actual = cfg.signature(&[
        ElementKey::from("Baseball"),
        ElementKey::from("Golf"),
        ElementKey::from("Fishing"),
    ]);
    println!("\nTarget {{Baseball, Golf, Fishing}} — a true superset:");
    show("target", &actual);
    println!("  matches: {} (actual drop)", actual.covers(&query_sig));

    // Hunt for a false drop: a set that matches the signature test without
    // containing the query elements. With F = 16 they are easy to find.
    let mut false_drop = None;
    for i in 0..10_000u64 {
        let set = vec![ElementKey::from(i), ElementKey::from(i + 13_000)];
        let sig = cfg.signature(&set);
        if sig.covers(&query_sig) {
            false_drop = Some((set, sig));
            break;
        }
    }
    if let Some((set, sig)) = false_drop {
        println!("\nA false drop — signature matches, set does not qualify:");
        show(&format!("target {set:?}"), &sig);
        println!("  this is why drop resolution re-checks every candidate");
    }

    // ── 2. The sample database of §1 ───────────────────────────────────
    let mut db = Database::in_memory();
    let course = db
        .define_class(ClassDef::new(
            "Course",
            vec![("name", AttrType::Str), ("category", AttrType::Str)],
        ))
        .unwrap();
    let student = db
        .define_class(ClassDef::new(
            "Student",
            vec![
                ("name", AttrType::Str),
                ("courses", AttrType::set_of(AttrType::Ref)),
                ("hobbies", AttrType::set_of(AttrType::Str)),
            ],
        ))
        .unwrap();

    let db_theory = db
        .insert_object(course, vec![Value::str("DB Theory"), Value::str("DB")])
        .unwrap();
    let db_systems = db
        .insert_object(course, vec![Value::str("DB Systems"), Value::str("DB")])
        .unwrap();
    let algorithms = db
        .insert_object(course, vec![Value::str("Algorithms"), Value::str("CS")])
        .unwrap();

    // Index Student.hobbies with a BSSF (m = 2 — the paper's recommended
    // small weight) and Student.courses with another.
    let io = Arc::clone(db.disk()) as Arc<dyn PageIo>;
    let hobbies_bssf = Bssf::create(
        Arc::clone(&io),
        "hobbies",
        SignatureConfig::new(256, 2).unwrap(),
    )
    .unwrap();
    let hobbies_idx = db
        .register_facility(student, "hobbies", Box::new(hobbies_bssf))
        .unwrap();
    let courses_bssf = Bssf::create(io, "courses", SignatureConfig::new(256, 2).unwrap()).unwrap();
    let courses_idx = db
        .register_facility(student, "courses", Box::new(courses_bssf))
        .unwrap();

    let jeff = db
        .insert_object(
            student,
            vec![
                Value::str("Jeff"),
                Value::set(vec![Value::Ref(db_theory), Value::Ref(db_systems)]),
                Value::set(vec![Value::str("Baseball"), Value::str("Fishing")]),
            ],
        )
        .unwrap();
    let ann = db
        .insert_object(
            student,
            vec![
                Value::str("Ann"),
                Value::set(vec![Value::Ref(db_theory), Value::Ref(algorithms)]),
                Value::set(vec![
                    Value::str("Baseball"),
                    Value::str("Fishing"),
                    Value::str("Tennis"),
                ]),
            ],
        )
        .unwrap();
    let bob = db
        .insert_object(
            student,
            vec![
                Value::str("Bob"),
                Value::set(vec![Value::Ref(algorithms)]),
                Value::set(vec![Value::str("Chess")]),
            ],
        )
        .unwrap();

    // ── 3. Query Q1: hobbies has-subset ("Baseball", "Fishing") ────────
    let q1 = SetQuery::has_subset(vec![
        ElementKey::from("Baseball"),
        ElementKey::from("Fishing"),
    ]);
    let r1 = db.execute_set_query(hobbies_idx, &q1).unwrap();
    println!("\nQ1  select Student where hobbies has-subset (Baseball, Fishing)");
    for oid in &r1.actual {
        let obj = db.get_object(*oid).unwrap();
        println!("  → {:?}", obj.values[0]);
    }
    assert_eq!(r1.actual, vec![jeff, ann]);
    println!(
        "  cost: {} page accesses, {} candidates, {} false drops",
        r1.io.accesses(),
        r1.report.candidates,
        r1.report.false_drops
    );

    // ── 4. Query Q2: hobbies in-subset (Baseball, Fishing, Tennis) ─────
    let q2 = SetQuery::in_subset(vec![
        ElementKey::from("Baseball"),
        ElementKey::from("Fishing"),
        ElementKey::from("Tennis"),
    ]);
    let r2 = db.execute_set_query(hobbies_idx, &q2).unwrap();
    println!("\nQ2  select Student where hobbies in-subset (Baseball, Fishing, Tennis)");
    assert_eq!(r2.actual, vec![jeff, ann]);
    for oid in &r2.actual {
        let obj = db.get_object(*oid).unwrap();
        println!("  → {:?}", obj.values[0]);
    }

    // ── 5. The §1 motivating query over object references ──────────────
    // "Find all students who take all of the lectures in the DB category":
    // step 1 collects DB-category course OIDs, step 2 is a ⊇ query.
    let db_courses = vec![ElementKey::from(db_theory), ElementKey::from(db_systems)];
    let q3 = SetQuery::has_subset(db_courses);
    let r3 = db.execute_set_query(courses_idx, &q3).unwrap();
    println!("\n§1  students taking ALL DB-category courses:");
    assert_eq!(r3.actual, vec![jeff]);
    for oid in &r3.actual {
        println!("  → {:?}", db.get_object(*oid).unwrap().values[0]);
    }

    // ── 6. The same family of queries through a PATH index ─────────────
    // The paper's nested index really lives on paths like
    // Student.courses.category: index each student by the categories of
    // the courses they reference, so "take ONLY DB lectures" is one ⊆
    // query with no join.
    let io = Arc::clone(db.disk()) as Arc<dyn PageIo>;
    let path_bssf = Bssf::create(io, "categories", SignatureConfig::new(64, 2).unwrap()).unwrap();
    let path_idx = db
        .register_path_facility(student, "courses", course, "category", Box::new(path_bssf))
        .unwrap();
    let only_db = SetQuery::in_subset(vec![ElementKey::from("DB")]);
    let r4 = db.execute_set_query(path_idx, &only_db).unwrap();
    println!("\n§1  students taking ONLY DB-category courses (path index):");
    assert_eq!(r4.actual, vec![jeff]);
    for oid in &r4.actual {
        println!("  → {:?}", db.get_object(*oid).unwrap().values[0]);
    }

    // ── 7. The paper's query language (§2) ──────────────────────────────
    let r5 = db
        .run_query(r#"select Student where hobbies has-subset ("Baseball", "Fishing")"#)
        .unwrap();
    println!(
        "\n§2  via the SQL-like surface: {} matches",
        r5.actual.len()
    );
    assert_eq!(r5.actual, vec![jeff, ann]);

    let _ = bob;
    println!("\nok.");
}
