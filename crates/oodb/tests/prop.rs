//! Property tests for the OODB substrate: value codec fuzzing and the
//! object store against a HashMap model.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code

use proptest::prelude::*;
use setsig_core::{
    resolve_drops, CandidateSet, ElementKey, Oid, SetPredicate, SetQuery, TargetSetSource,
};
use setsig_oodb::{
    AttrShape, AttrType, ClassDef, ClassId, Database, Object, ObjectStore, Prim, Value,
};
use setsig_pagestore::{Disk, PageIo};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A recursive strategy for arbitrary values (bounded depth and fanout).
/// Beside values drawn from wide ranges it draws from narrow ones, so a set
/// holds repeats and near neighbours: integers of both signs around the
/// byte boundaries (256 encodes before -1), empty and multi-byte strings
/// (one to four bytes a char, so equal byte lengths come from different
/// char counts), and a handful of references.
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Value::Int),
        (-300i64..300).prop_map(Value::Int),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::Str),
        "[abé€😀]{0,3}".prop_map(Value::Str),
        (0u64..1_000_000).prop_map(|v| Value::Ref(Oid::new(v))),
        (0u64..4).prop_map(|v| Value::Ref(Oid::new(v))),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Set),
            proptest::collection::vec(inner, 0..4).prop_map(Value::Tuple),
        ]
    })
}

/// Element `i` of a small domain of one kind, so that stored and query sets
/// share elements: integers either side of zero, strings whose
/// length-prefixed order is not their key order, references.
fn element(kind: u8, i: u8) -> Value {
    match kind {
        0 => Value::Int(i64::from(i) - 8),
        1 => Value::Str(["a", "bb", "c", "", "ab", "b", "cc", "é"][usize::from(i % 8)].to_owned()),
        _ => Value::Ref(Oid::new(u64::from(i))),
    }
}

/// The only public way to a `ClassId`.
fn class_of(attrs: Vec<(&str, AttrType)>) -> (Database, ClassId) {
    let mut db = Database::in_memory();
    let class = db.define_class(ClassDef::new("C", attrs)).unwrap();
    (db, class)
}

/// What `Object::walk_attr` must report for attribute `attr` of a record
/// that decodes to `obj`: its shape and, for the two shapes a caller reads,
/// the keys visited, in stored order.
fn model_walk(obj: &Object, attr: usize) -> (AttrShape, Vec<ElementKey>) {
    let prims = |vs: &[Value]| {
        vs.iter()
            .filter_map(Value::to_element_key)
            .collect::<Vec<_>>()
    };
    match obj.values.get(attr) {
        None => (AttrShape::Missing, vec![]),
        Some(Value::Tuple(_)) => (AttrShape::Other, vec![]),
        Some(Value::Set(elems)) if prims(elems).len() == elems.len() => {
            (AttrShape::PrimSet, prims(elems))
        }
        Some(Value::Set(_)) => (AttrShape::Other, vec![]),
        Some(v) => (AttrShape::Prim, prims(std::slice::from_ref(v))),
    }
}

/// Holds `walk_attr(bytes, attr)` against `Object::decode(bytes)` for every
/// attribute index the record could have, and one past.
fn assert_readers_agree(bytes: &[u8], nvalues: usize) -> Result<(), TestCaseError> {
    let decoded = Object::decode(bytes);
    for attr in 0..=nvalues {
        let mut keys = Vec::new();
        let mut key_bytes = Vec::new();
        let mut buf = Vec::new();
        let walked = Object::walk_attr(bytes, attr, &mut |p: Prim<'_>| {
            keys.push(p.to_element_key());
            p.with_key_bytes(&mut buf, &mut |k| key_bytes.push(k.to_vec()));
        });
        match (&decoded, walked) {
            (Err(_), Err(_)) => {}
            (Ok(obj), Ok((oid, shape))) => {
                let (want_shape, want_keys) = model_walk(obj, attr);
                prop_assert_eq!(oid, obj.oid);
                prop_assert_eq!(shape, want_shape);
                if shape != AttrShape::Other {
                    prop_assert_eq!(&keys, &want_keys);
                }
                let as_bytes: Vec<&[u8]> = keys.iter().map(ElementKey::as_bytes).collect();
                prop_assert_eq!(key_bytes, as_bytes);
            }
            (d, w) => prop_assert!(false, "attribute {}: decode {:?}, walk {:?}", attr, d, w),
        }
    }
    Ok(())
}

proptest! {
    /// Resolving through the store's borrowed bytes answers every predicate
    /// as `Object::decode` and a `BTreeSet` do: whatever else the object
    /// holds, inline or spanning, and however the set was stored —
    /// normalised, or as given with repeats and in any order.
    #[test]
    fn walk_and_verify_agrees_with_decode_and_a_set_model(
        kind in 0u8..3,
        objects in proptest::collection::vec(
            (
                proptest::collection::vec(0u8..16, 0..12),
                any::<bool>(),
                "[a-z]{0,9}",
                // One object in four spans pages.
                prop_oneof![3 => 0usize..1, 1 => 600usize..1400],
            ),
            1..6,
        ),
        query in proptest::collection::vec(0u8..16, 0..8),
    ) {
        let elem_ty = [AttrType::Int, AttrType::Str, AttrType::Ref][usize::from(kind)].clone();
        let (mut db, class) = class_of(vec![
            ("name", AttrType::Str),
            ("pad", AttrType::set_of(AttrType::Int)),
            ("elems", AttrType::set_of(elem_ty)),
            ("tail", AttrType::Int),
        ]);
        let mut oids = Vec::new();
        for (elems, normalise, name, pad) in &objects {
            let elems: Vec<Value> = elems.iter().map(|&i| element(kind, i)).collect();
            let pad = (0..*pad as i64).map(Value::Int).collect();
            oids.push(db.insert_object(class, vec![
                Value::Str(name.clone()),
                Value::Set(pad),
                if *normalise { Value::set(elems) } else { Value::Set(elems) },
                Value::Int(-1),
            ]).unwrap());
        }
        let source = db.target_source(class, "elems").unwrap();
        let candidates = CandidateSet::new(oids.clone(), false);
        let q: Vec<ElementKey> =
            query.iter().map(|&i| element(kind, i).to_element_key().unwrap()).collect();
        let q_set: BTreeSet<&ElementKey> = q.iter().collect();

        let mut queries = vec![
            SetQuery::has_subset(q.clone()),
            SetQuery::in_subset(q.clone()),
            SetQuery::equals(q.clone()),
            SetQuery::overlaps(q.clone()),
        ];
        queries.extend(q.first().cloned().map(SetQuery::contains));
        for query in &queries {
            let mut want = Vec::new();
            for &oid in &oids {
                let stored = db.get_object(oid).unwrap().values[2].as_element_set().unwrap();
                let t_set: BTreeSet<&ElementKey> = stored.iter().collect();
                let holds = match query.predicate {
                    SetPredicate::HasSubset => t_set.is_superset(&q_set),
                    SetPredicate::InSubset => t_set.is_subset(&q_set),
                    SetPredicate::Equals => t_set == q_set,
                    SetPredicate::Overlaps => !t_set.is_disjoint(&q_set),
                    SetPredicate::Contains => t_set.contains(&q[0]),
                };
                if holds {
                    want.push(oid);
                }
                // The owned form is the model's set, and reads the same pages.
                let before = db.disk().snapshot();
                let fetched = source.fetch_set(oid).unwrap();
                let fetch_reads = db.disk().snapshot().since(before).reads;
                prop_assert_eq!(fetched.iter().collect::<BTreeSet<_>>(), t_set);
                let before = db.disk().snapshot();
                source.visit_set(oid, &mut |_| {}).unwrap();
                prop_assert_eq!(db.disk().snapshot().since(before).reads, fetch_reads);
            }
            let report = resolve_drops(query, &candidates, &source).unwrap();
            prop_assert_eq!(&report.actual, &want, "{}", query.predicate);
            prop_assert_eq!(report.false_drops as usize, oids.len() - want.len());
        }
    }

    /// For a record cut short, grown, or with bytes flipped, the in-place
    /// walk and `Object::decode` both refuse it or both read the same thing
    /// out of it, whichever attribute the walk was after; neither panics.
    #[test]
    fn damaged_records_read_alike_or_not_at_all(
        values in proptest::collection::vec(value_strategy(), 0..5),
        oid in prop_oneof![4 => 0u64..1000, 1 => any::<u64>().prop_map(|v| v & Oid::MAX_VALUE)],
        damage in proptest::collection::vec((0u8..4, 0usize..400, 1u8..=255), 1..4),
    ) {
        let (_db, class) = class_of(vec![]);
        let nvalues = values.len();
        let mut bytes = Object { oid: Oid::new(oid), class, values }.encode();
        assert_readers_agree(&bytes, nvalues)?;
        for (kind, at, byte) in damage {
            match kind {
                0 => bytes.truncate(at % (bytes.len() + 1)),
                1 => bytes.push(byte),
                // The low byte of the value count: one more, one fewer.
                2 if bytes.len() > 12 => bytes[12] = bytes[12].wrapping_add(byte % 3).wrapping_sub(1),
                _ if !bytes.is_empty() => {
                    let at = at % bytes.len();
                    bytes[at] ^= byte;
                }
                _ => {}
            }
            // A damaged count may promise more values than there were.
            assert_readers_agree(&bytes, nvalues + 2)?;
        }
    }

    /// Every value the model can construct round-trips through the binary
    /// codec, and the decoder consumes the exact record.
    #[test]
    fn value_codec_roundtrips(v in value_strategy()) {
        let bytes = v.encode();
        let mut pos = 0;
        let back = Value::decode(&bytes, &mut pos).unwrap();
        prop_assert_eq!(pos, bytes.len());
        prop_assert_eq!(back, v);
    }

    /// `Value::set` orders its elements by their encoding without encoding
    /// them: its record is byte-identical to the normalisation it replaced
    /// (sort by `encode()`, dedup), and `cmp_encoded` is the byte order of
    /// the two encodings for every pair of elements.
    #[test]
    fn set_order_is_the_encoding_byte_order(
        elems in proptest::collection::vec(value_strategy(), 0..12),
    ) {
        let mut oracle = elems.clone();
        oracle.sort_by_key(Value::encode);
        oracle.dedup();
        prop_assert_eq!(Value::set(elems.clone()).encode(), Value::Set(oracle).encode());
        for a in &elems {
            for b in &elems {
                prop_assert_eq!(a.cmp_encoded(b), a.encode().cmp(&b.encode()), "{:?} vs {:?}", a, b);
            }
        }
    }

    /// The decoder never panics on arbitrary garbage — it returns errors.
    #[test]
    fn value_decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let mut pos = 0;
        Value::decode(&bytes, &mut pos).ok(); // must not panic
    }

    /// Truncating a valid record always produces an error, never a wrong
    /// value or a panic.
    #[test]
    fn truncated_records_error(v in value_strategy(), cut in 0usize..64) {
        let obj = Object { oid: Oid::new(1), class: {
            // Obtain a ClassId the only public way: through a database.
            let mut db = Database::in_memory();
            db.define_class(ClassDef::new("C", vec![])).unwrap()
        }, values: vec![v] };
        let bytes = obj.encode();
        if cut < bytes.len() {
            let truncated = &bytes[..bytes.len() - cut - 1];
            prop_assert!(Object::decode(truncated).is_err());
        }
    }

    /// The object store behaves like a HashMap<Oid, Object> under puts,
    /// overwrites, deletes and gets.
    #[test]
    fn store_matches_hashmap_model(
        ops in proptest::collection::vec(
            (0u64..12, 0u8..3, proptest::collection::vec(any::<i64>(), 0..6)),
            1..60,
        ),
    ) {
        let disk = Arc::new(Disk::new());
        let io: Arc<dyn PageIo> = disk as Arc<dyn PageIo>;
        let mut store = ObjectStore::create(io, "objs");
        let mut model: HashMap<u64, Object> = HashMap::new();
        let class = {
            let mut db = Database::in_memory();
            db.define_class(ClassDef::new("C", vec![("xs", AttrType::set_of(AttrType::Int))]))
                .unwrap()
        };

        for (oid_raw, action, ints) in ops {
            let oid = Oid::new(oid_raw);
            match action {
                // put (insert or overwrite)
                0 | 1 => {
                    let obj = Object {
                        oid,
                        class,
                        values: vec![Value::set(ints.iter().map(|&i| Value::Int(i)).collect())],
                    };
                    store.put(&obj).unwrap();
                    model.insert(oid_raw, obj);
                }
                // delete
                _ => {
                    let expected = model.remove(&oid_raw).is_some();
                    prop_assert_eq!(store.delete(oid).is_ok(), expected);
                }
            }
            prop_assert_eq!(store.len() as usize, model.len());
        }
        for (raw, obj) in &model {
            prop_assert_eq!(&store.get(Oid::new(*raw)).unwrap(), obj);
        }
    }
}
