//! Property-based cross-crate consistency: on arbitrary databases, SSF,
//! BSSF, NIX and the full scan answer every query identically.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code

use proptest::prelude::*;
use setsig::nix::Nix;
use setsig::prelude::*;
use std::sync::Arc;

fn run_database(
    sets: &[Vec<u64>],
    deletions: &[usize],
    queries: &[(u8, Vec<u64>)],
) -> Result<(), TestCaseError> {
    let mut db = Database::in_memory();
    let class = db
        .define_class(ClassDef::new(
            "Obj",
            vec![("elems", AttrType::set_of(AttrType::Int))],
        ))
        .unwrap();
    let io = || Arc::clone(db.disk()) as Arc<dyn PageIo>;
    let ssf = Ssf::create(io(), "x", SignatureConfig::new(64, 2).unwrap()).unwrap();
    let bssf = Bssf::create(io(), "x", SignatureConfig::new(64, 2).unwrap()).unwrap();
    let fssf = Fssf::create(io(), "x", FssfConfig::new(64, 8, 2).unwrap()).unwrap();
    let nix = Nix::on_io(io(), "x");
    let fids = [
        db.register_facility(class, "elems", Box::new(ssf)).unwrap(),
        db.register_facility(class, "elems", Box::new(bssf))
            .unwrap(),
        db.register_facility(class, "elems", Box::new(fssf))
            .unwrap(),
        db.register_facility(class, "elems", Box::new(nix)).unwrap(),
    ];

    let mut oids = Vec::new();
    for set in sets {
        let value = Value::Set(set.iter().map(|&e| Value::Int(e as i64)).collect());
        oids.push(db.insert_object(class, vec![value]).unwrap());
    }
    for &d in deletions {
        let victim = oids[d % oids.len()];
        // Ignore double deletions: the model allows them to fail.
        db.delete_object(victim).ok();
    }

    for (pred, elems) in queries {
        let keys: Vec<ElementKey> = elems.iter().map(|&e| ElementKey::from(e)).collect();
        let q = match pred % 5 {
            0 => SetQuery::has_subset(keys),
            1 => SetQuery::in_subset(keys),
            2 => SetQuery::equals(keys),
            3 => SetQuery::overlaps(keys),
            _ => match keys.into_iter().next() {
                Some(k) => SetQuery::contains(k),
                None => continue,
            },
        };
        let scan = db.scan_set_query(class, "elems", &q).unwrap();
        for &idx in &fids {
            let r = db.execute_set_query(idx, &q).unwrap();
            prop_assert_eq!(
                &r.actual,
                &scan.actual,
                "{} disagrees with scan on {}",
                db.facility(idx).unwrap().name(),
                q.predicate
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn facilities_always_agree_with_full_scan(
        sets in proptest::collection::vec(
            proptest::collection::btree_set(0u64..50, 1..6)
                .prop_map(|s| s.into_iter().collect::<Vec<u64>>()),
            1..20,
        ),
        deletions in proptest::collection::vec(0usize..20, 0..4),
        queries in proptest::collection::vec(
            (0u8..5, proptest::collection::btree_set(0u64..50, 1..6)
                .prop_map(|s| s.into_iter().collect::<Vec<u64>>())),
            1..6,
        ),
    ) {
        run_database(&sets, &deletions, &queries)?;
    }
}
