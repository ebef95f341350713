//! Property tests: the page-oriented B-tree behaves exactly like a
//! `BTreeMap<u64, Vec<u64>>` under arbitrary interleavings of inserts,
//! removals and look-ups, and its structural invariants survive.

use proptest::prelude::*;
use setsig_nix::BTree;
use setsig_pagestore::{Disk, PageIo};
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Insert { key: u64, oid: u64 },
    Remove { key: u64, oid: u64 },
    Lookup { key: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // A small key space forces long posting lists and leaf churn; a large
    // one forces splits. Mix both.
    let key = prop_oneof![0u64..8, 0u64..512];
    prop_oneof![
        4 => (key.clone(), 0u64..1000).prop_map(|(key, oid)| Op::Insert { key, oid }),
        2 => (key.clone(), 0u64..1000).prop_map(|(key, oid)| Op::Remove { key, oid }),
        1 => key.prop_map(|key| Op::Lookup { key }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn btree_matches_btreemap_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let disk = Arc::new(Disk::new());
        let io: Arc<dyn PageIo> = disk as Arc<dyn PageIo>;
        let mut tree = BTree::create(io, "t");
        let mut model: BTreeMap<u64, Vec<u64>> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Insert { key, oid } => {
                    tree.insert(key, oid).unwrap();
                    model.entry(key).or_default().push(oid);
                }
                Op::Remove { key, oid } => {
                    let expected = model.get(&key).is_some_and(|v| v.contains(&oid));
                    let got = tree.remove(key, oid).unwrap();
                    prop_assert_eq!(got, expected, "remove({}, {})", key, oid);
                    if expected {
                        let list = model.get_mut(&key).unwrap();
                        let pos = list.iter().position(|&o| o == oid).unwrap();
                        list.remove(pos);
                        if list.is_empty() {
                            model.remove(&key);
                        }
                    }
                }
                Op::Lookup { key } => {
                    let mut got = tree.lookup(key, &mut 0).unwrap();
                    got.sort_unstable();
                    let mut expected = model.get(&key).cloned().unwrap_or_default();
                    expected.sort_unstable();
                    prop_assert_eq!(got, expected, "lookup({})", key);
                }
            }
        }

        prop_assert_eq!(tree.key_count(), model.len() as u64);
        prop_assert_eq!(
            tree.posting_count(),
            model.values().map(|v| v.len() as u64).sum::<u64>()
        );
        tree.check_integrity().unwrap();

        // Final sweep: every key answers exactly.
        for (key, expected) in &model {
            let mut got = tree.lookup(*key, &mut 0).unwrap();
            got.sort_unstable();
            let mut want = expected.clone();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }

    /// Bulk insertion in any order produces equivalent trees.
    #[test]
    fn insertion_order_is_immaterial(
        mut pairs in proptest::collection::btree_set((0u64..2000, 0u64..50), 1..300)
            .prop_map(|s| s.into_iter().collect::<Vec<_>>()),
        seed in any::<u64>(),
    ) {
        let build = |pairs: &[(u64, u64)]| {
            let disk = Arc::new(Disk::new());
            let io: Arc<dyn PageIo> = disk as Arc<dyn PageIo>;
            let mut tree = BTree::create(io, "t");
            for &(k, o) in pairs {
                tree.insert(k, o).unwrap();
            }
            tree
        };
        let fwd = build(&pairs);
        // Deterministic shuffle.
        let mut x = seed | 1;
        let len = pairs.len();
        for i in (1..len).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            pairs.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let shuffled = build(&pairs);
        prop_assert_eq!(fwd.key_count(), shuffled.key_count());
        for &(k, _) in &pairs {
            let mut a = fwd.lookup(k, &mut 0).unwrap();
            let mut b = shuffled.lookup(k, &mut 0).unwrap();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
        fwd.check_integrity().unwrap();
        shuffled.check_integrity().unwrap();
    }
}
