//! Property tests: the page-oriented B-tree behaves exactly like a
//! `BTreeMap<u64, Vec<u64>>` under arbitrary interleavings of inserts,
//! removals and look-ups, and its structural invariants survive; the nested
//! index answers every predicate as a brute-force scan of the sets does.

use proptest::prelude::*;
use setsig_core::{ElementKey, Error, Oid, SetAccessFacility, SetPredicate, SetQuery};
use setsig_nix::{BTree, Nix};
use setsig_pagestore::{Disk, PageIo};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Insert {
        key: u64,
        oid: u64,
    },
    Remove {
        key: u64,
        oid: u64,
    },
    Lookup {
        key: u64,
    },
    /// Ascending, distinct keys: present, absent, the chained [`HOT`] key,
    /// the [`SEEDED`] ones and `u64::MAX`.
    LookupMany {
        keys: Vec<u64>,
    },
}

/// Keys seeded with one posting each before the ops run: enough leaves for
/// a root that splits a `LookupMany`'s keys between them.
const SEEDED: std::ops::Range<u64> = 1_000..1_700;

/// The key seeded with a posting past `MAX_INLINE_OIDS` (400): it lives in
/// an overflow chain. No insert or remove draws it, so its chain only ever
/// grew and is as long as [`BTree::chain_links`] of its list.
const HOT: u64 = 600;

fn op_strategy() -> impl Strategy<Value = Op> {
    // A small key space forces long posting lists and leaf churn; a large
    // one forces splits. Mix both.
    let key = prop_oneof![0u64..8, 0u64..512];
    let keys = proptest::collection::btree_set(
        prop_oneof![
            4 => key.clone(),
            3 => 900u64..1_800,
            1 => Just(HOT),
            1 => Just(u64::MAX),
        ],
        0..40,
    );
    prop_oneof![
        4 => (key.clone(), 0u64..1000).prop_map(|(key, oid)| Op::Insert { key, oid }),
        2 => (key.clone(), 0u64..1000).prop_map(|(key, oid)| Op::Remove { key, oid }),
        1 => key.prop_map(|key| Op::Lookup { key }),
        1 => keys.prop_map(|keys| Op::LookupMany { keys: keys.into_iter().collect() }),
    ]
}

/// Runs of updates on ~30 keys, two of them hot enough that their postings
/// cross `MAX_INLINE_OIDS` (400) and move to a chain, and drain again.
#[derive(Debug, Clone)]
enum Run {
    /// `n` fresh OIDs appended to `key`'s posting, one insert each.
    Insert {
        key: u64,
        n: usize,
    },
    /// `n` removes from `key`'s posting, each at a position `from` picks;
    /// one past the end names an OID the posting does not hold.
    Remove {
        key: u64,
        n: usize,
        from: usize,
    },
    Lookup {
        key: u64,
    },
}

fn run_strategy() -> impl Strategy<Value = Run> {
    let key = prop_oneof![0u64..2, 0u64..30];
    prop_oneof![
        5 => (key.clone(), 1usize..60).prop_map(|(key, n)| Run::Insert { key, n }),
        2 => (key.clone(), prop_oneof![3 => 1usize..80, 1 => 300usize..900], any::<usize>())
            .prop_map(|(key, n, from)| Run::Remove { key, n, from }),
        1 => key.prop_map(|key| Run::Lookup { key }),
    ]
}

/// Objects as (set, deleted again): 0–12 elements of a 40-element domain,
/// repeats included, so posting lists overlap and run long.
fn objects() -> impl Strategy<Value = Vec<(Vec<u64>, bool)>> {
    let set = proptest::collection::vec(0u64..40, 0..=12);
    let deleted = prop_oneof![4 => Just(false), 1 => Just(true)];
    proptest::collection::vec((set, deleted), 0..=300)
}

/// Queries as (predicate, elements): up to 150 elements drawn from the
/// domain, or from a wider range most of which no object holds.
fn queries() -> impl Strategy<Value = Vec<(usize, Vec<u64>)>> {
    let elements = prop_oneof![
        proptest::collection::vec(0u64..44, 0..=150),
        proptest::collection::vec(0u64..400, 0..=150),
    ];
    proptest::collection::vec((0usize..5, elements), 1..=8)
}

const PREDICATES: [SetPredicate; 5] = [
    SetPredicate::HasSubset,
    SetPredicate::InSubset,
    SetPredicate::Equals,
    SetPredicate::Overlaps,
    SetPredicate::Contains,
];

/// Whether a set `t` satisfies `predicate` against `q`.
fn holds(predicate: SetPredicate, t: &BTreeSet<u64>, q: &BTreeSet<u64>) -> bool {
    match predicate {
        SetPredicate::HasSubset | SetPredicate::Contains => q.is_subset(t),
        SetPredicate::InSubset => t.is_subset(q),
        SetPredicate::Equals => t == q,
        SetPredicate::Overlaps => !t.is_disjoint(q),
    }
}

fn element_keys(elements: &[u64]) -> Vec<ElementKey> {
    elements.iter().map(|&e| ElementKey::from(e)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn btree_matches_btreemap_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let disk = Arc::new(Disk::new());
        let mut tree = BTree::create(Arc::clone(&disk) as Arc<dyn PageIo>, "t");
        let mut model: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        // A chained hot key, the largest key there is, and a run of keys
        // that spans several leaves.
        let seeded = SEEDED.map(|key| (key, 0..1));
        let hot = [(HOT, 2_000..2_450), (u64::MAX, 2_000..2_003)];
        for (key, oids) in hot.into_iter().chain(seeded) {
            for oid in oids {
                tree.insert(key, oid).unwrap();
                model.entry(key).or_default().push(oid);
            }
        }
        prop_assert!(tree.height() >= 1);
        let reads = |op: &mut dyn FnMut()| {
            let before = disk.snapshot();
            op();
            disk.snapshot().since(before).reads
        };

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
                    let mut got = tree.lookup(key).unwrap();
                    got.sort_unstable();
                    let mut expected = model.get(&key).cloned().unwrap_or_default();
                    expected.sort_unstable();
                    prop_assert_eq!(got, expected, "lookup({})", key);
                }
                Op::LookupMany { keys } => {
                    let mut visited = Vec::new();
                    let read = reads(&mut || {
                        let visit = |key, out: &mut Vec<u64>| {
                            let mut list = std::mem::take(out);
                            list.sort_unstable();
                            visited.push((key, list));
                            true
                        };
                        tree.lookup_many(&keys, &mut Vec::new(), visit).unwrap();
                    });
                    let expected: Vec<(u64, Vec<u64>)> = (keys.iter())
                        .map(|&key| {
                            let mut list = model.get(&key).cloned().unwrap_or_default();
                            list.sort_unstable();
                            (key, list)
                        })
                        .collect();
                    prop_assert_eq!(visited, expected, "lookup_many({:?})", keys);
                    // Every page on the keys' paths once, and each chain once,
                    // as long as the model's list makes it.
                    let mut pages: Vec<u32> =
                        keys.iter().flat_map(|&key| tree.path(key).unwrap()).collect();
                    pages.sort_unstable();
                    pages.dedup();
                    let chains: u64 = (keys.iter())
                        .filter_map(|key| model.get(key))
                        .map(|list| BTree::chain_links(list.len() as u64))
                        .sum();
                    prop_assert_eq!(read, pages.len() as u64 + chains, "lookup_many({:?})", keys);
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
            let mut got = tree.lookup(*key).unwrap();
            got.sort_unstable();
            let mut want = expected.clone();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }

    /// Against a `BTreeMap<u64, Vec<u64>>` model, with leaves compacting and
    /// splitting and postings migrating to chains: every look-up returns the
    /// model's OIDs — in order while the posting is inline —, the counters
    /// agree after every update, and an update that neither grows the file
    /// nor touches a chain costs `height + 1` reads and one write (none when
    /// the remove finds nothing).
    #[test]
    fn updates_match_the_model_and_cost_one_descent_and_one_write(
        runs in proptest::collection::vec(run_strategy(), 1..200)
    ) {
        let disk = Arc::new(Disk::new());
        let mut tree = BTree::create(Arc::clone(&disk) as Arc<dyn PageIo>, "t");
        let mut model: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        // Keys whose posting lives in an overflow chain.
        let mut chained = BTreeSet::new();
        let mut next_oid = 0u64;
        let check = |tree: &BTree, model: &BTreeMap<u64, Vec<u64>>, chained: &BTreeSet<u64>, key: u64| {
            let got = tree.lookup(key).unwrap();
            let mut want = model.get(&key).cloned().unwrap_or_default();
            if chained.contains(&key) {
                let mut got = got;
                got.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(got, want, "chained key {}", key);
            } else {
                prop_assert_eq!(got, want, "inline key {}", key);
            }
            Ok(())
        };
        for run in runs {
            let (key, n) = match run {
                Run::Insert { key, n } | Run::Remove { key, n, .. } => (key, n),
                Run::Lookup { key } => {
                    check(&tree, &model, &chained, key)?;
                    continue;
                }
            };
            for j in 0..n {
                let list = model.entry(key).or_default();
                let (pages, height, was_chained) =
                    (tree.storage_pages().unwrap(), tree.height(), chained.contains(&key));
                let before = disk.snapshot();
                let wrote = if let Run::Remove { from, .. } = run {
                    let at = from.wrapping_add(j * 7) % (list.len() + 1);
                    let oid = list.get(at).copied().unwrap_or(u64::MAX >> 16);
                    let found = tree.remove(key, oid).unwrap();
                    prop_assert_eq!(found, at < list.len(), "remove({}, {})", key, oid);
                    if found {
                        list.remove(at);
                    }
                    u64::from(found)
                } else {
                    tree.insert(key, next_oid).unwrap();
                    list.push(next_oid);
                    next_oid += 1;
                    if list.len() > 400 {
                        chained.insert(key);
                    }
                    1
                };
                let io = disk.snapshot().since(before);
                if list.is_empty() {
                    model.remove(&key);
                    chained.remove(&key);
                }
                let grew = tree.storage_pages().unwrap() != pages;
                if !grew && !was_chained && !chained.contains(&key) {
                    prop_assert_eq!(
                        (io.reads, io.writes),
                        (u64::from(height) + 1, wrote),
                        "{:?} #{}", run, j
                    );
                }
                prop_assert_eq!(tree.key_count(), model.len() as u64);
                prop_assert_eq!(
                    tree.posting_count(),
                    model.values().map(|v| v.len() as u64).sum::<u64>()
                );
            }
        }
        tree.check_integrity().unwrap();
        for key in 0..30 {
            check(&tree, &model, &chained, key)?;
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
            let mut a = fwd.lookup(k).unwrap();
            let mut b = shuffled.lookup(k).unwrap();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
        fwd.check_integrity().unwrap();
        shuffled.check_integrity().unwrap();
    }

    /// Every predicate, on instances whose `T ⊆ Q` and `T ≬ Q` unions pool
    /// from none to thousands of posting words, answers exactly what a scan
    /// of the live sets does.
    #[test]
    fn nix_answers_match_brute_force(objects in objects(), queries in queries()) {
        let mut nix = Nix::on_io(Arc::new(Disk::new()), "p");
        for (i, (set, _)) in objects.iter().enumerate() {
            nix.insert(Oid::new(i as u64), &element_keys(set)).unwrap();
        }
        for (i, (set, deleted)) in objects.iter().enumerate() {
            if *deleted {
                nix.delete(Oid::new(i as u64), &element_keys(set)).unwrap();
            }
        }
        nix.verify().unwrap();
        let live: Vec<(u64, BTreeSet<u64>)> = objects
            .iter()
            .enumerate()
            .filter(|(_, (_, deleted))| !deleted)
            .map(|(i, (set, _))| (i as u64, set.iter().copied().collect()))
            .collect();

        for (predicate, mut elements) in queries {
            let predicate = PREDICATES[predicate];
            if predicate == SetPredicate::Contains {
                elements = vec![elements.first().copied().unwrap_or(0)];
            }
            let query = SetQuery::new(predicate, element_keys(&elements));
            let q: BTreeSet<u64> = elements.into_iter().collect();
            let got = nix.candidates(&query);
            if predicate == SetPredicate::HasSubset && q.is_empty() {
                prop_assert!(matches!(got, Err(Error::BadQuery(_))), "T ⊇ ∅: {:?}", got);
                continue;
            }
            let got = got.unwrap();
            let want: Vec<Oid> = live
                .iter()
                .filter(|(_, t)| holds(predicate, t, &q))
                .map(|&(oid, _)| Oid::new(oid))
                .collect();
            prop_assert!(got.exact, "{} D_q {}", predicate, q.len());
            prop_assert_eq!(got.oids, want, "{} D_q {}", predicate, q.len());
        }
    }
}
