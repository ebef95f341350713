//! Property tests for the OODB substrate: value codec fuzzing and the
//! object store against a HashMap model.

use proptest::prelude::*;
use setsig_core::Oid;
use setsig_oodb::{AttrType, ClassDef, Database, Object, ObjectStore, Value};
use setsig_pagestore::{Disk, PageIo};
use std::collections::HashMap;
use std::sync::Arc;

/// A recursive strategy for arbitrary values (bounded depth and fanout).
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Value::Int),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::Str),
        (0u64..1_000_000).prop_map(|v| Value::Ref(Oid::new(v))),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Set),
            proptest::collection::vec(inner, 0..4).prop_map(Value::Tuple),
        ]
    })
}

proptest! {
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
