//! The answer oracle: a brute-force scan of the generator's ground-truth
//! sets, replaying inserts and deletes on a shadow map, and the checksum by
//! which answers are compared.

use std::collections::{BTreeMap, HashMap};

use crate::gen::{Op, Pred};

/// One in this many queries of the op list is checked by brute force …
pub const EVERY: usize = 64;
/// … up to this many checks (a scan of 32,000 sets takes 1–3 ms).
pub const MAX_CHECKS: usize = 160;

/// An order-independent checksum of an answer: the sum of the mixed OIDs
/// plus the count, so neither a swapped nor a dropped OID goes unnoticed.
pub fn checksum(oids: impl IntoIterator<Item = u64>) -> u64 {
    let mut sum = 0u64;
    let mut count = 0u64;
    for oid in oids {
        let mut z = oid.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        sum = sum.wrapping_add(z ^ (z >> 31));
        count += 1;
    }
    sum.wrapping_add(count.wrapping_mul(0x2545_f491_4f6c_dd1d))
}

/// The [`checksum`] of an answer as the crates return it.
pub fn oid_sum(oids: &[setsig_core::Oid]) -> u64 {
    checksum(oids.iter().map(|o| o.raw()))
}

/// Both slices sorted and distinct.
fn is_subset(small: &[u64], big: &[u64]) -> bool {
    small.len() <= big.len() && small.iter().all(|e| big.binary_search(e).is_ok())
}

pub fn satisfies(pred: Pred, target: &[u64], query: &[u64]) -> bool {
    match pred {
        Pred::HasSubset => is_subset(query, target),
        Pred::InSubset => is_subset(target, query),
    }
}

/// Expected answer checksums, by op index, for every [`EVERY`]-th query of
/// `ops` (the first included) up to [`MAX_CHECKS`] of them.
pub fn expected(sets: &[Vec<u64>], ops: &[Op]) -> HashMap<usize, u64> {
    let mut live: BTreeMap<u64, &[u64]> = sets
        .iter()
        .enumerate()
        .map(|(i, s)| (i as u64, s.as_slice()))
        .collect();
    let mut next_obj = sets.len() as u64;
    let mut out = HashMap::new();
    let mut queries = 0usize;
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Query { pred, elems, .. } => {
                if queries.is_multiple_of(EVERY) {
                    let hits = live
                        .iter()
                        .filter(|(_, t)| satisfies(*pred, t, elems))
                        .map(|(&obj, _)| obj);
                    out.insert(i, checksum(hits));
                    if out.len() == MAX_CHECKS {
                        break;
                    }
                }
                queries += 1;
            }
            Op::Insert { set } => {
                live.insert(next_obj, set);
                next_obj += 1;
            }
            Op::Delete { obj } => {
                live.remove(obj);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::query_text;

    fn q(pred: Pred, elems: &[u64]) -> Op {
        Op::Query {
            text: query_text(pred, elems),
            pred,
            elems: elems.to_vec(),
        }
    }

    #[test]
    fn checksum_ignores_order_and_sees_count() {
        assert_eq!(checksum([1, 2, 3]), checksum([3, 1, 2]));
        assert_ne!(checksum([1, 2, 3]), checksum([1, 2]));
        assert_ne!(checksum([1, 2, 3]), checksum([1, 2, 4]));
        assert_ne!(checksum([]), checksum([0]));
    }

    #[test]
    fn predicates_are_the_papers() {
        assert!(satisfies(Pred::HasSubset, &[1, 2, 3], &[1, 3]));
        assert!(!satisfies(Pred::HasSubset, &[1, 2, 3], &[1, 4]));
        assert!(satisfies(Pred::InSubset, &[1, 3], &[1, 2, 3]));
        assert!(!satisfies(Pred::InSubset, &[1, 4], &[1, 2, 3]));
    }

    #[test]
    fn shadow_map_follows_inserts_and_deletes() {
        let sets = vec![vec![1, 2], vec![2, 3]];
        let mut ops = vec![q(Pred::HasSubset, &[2])];
        ops.push(Op::Delete { obj: 0 });
        ops.push(Op::Insert { set: vec![2, 9] });
        // Queries 1..EVERY are not checked; the EVERY-th is.
        for _ in 0..EVERY {
            ops.push(q(Pred::HasSubset, &[2]));
        }
        let exp = expected(&sets, &ops);
        assert_eq!(exp.len(), 2);
        assert_eq!(exp[&0], checksum([0, 1]));
        assert_eq!(exp[&(ops.len() - 1)], checksum([1, 2]));
    }
}
