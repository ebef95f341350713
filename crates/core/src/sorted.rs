//! Set algebra on ascending, duplicate-free lists — the posting-list and
//! row-position representation every filter stage shares. A union is
//! `extend` then [`sort_dedup`]; an intersection is one two-pointer pass.

/// Sorts `v` and drops duplicates: the union of whatever lists were
/// `extend`ed into it.
pub fn sort_dedup<T: Ord>(v: &mut Vec<T>) {
    v.sort_unstable();
    v.dedup();
}

/// How many distinct items `items` holds, in any order: one allocation of
/// references, none for a strictly ascending list.
pub fn distinct_count<T: Ord>(items: &[T]) -> usize {
    if items.windows(2).all(|w| w[0] < w[1]) {
        return items.len();
    }
    let mut refs: Vec<&T> = items.iter().collect();
    sort_dedup(&mut refs);
    refs.len()
}

/// The elements common to `a` and `b`, both ascending and duplicate-free,
/// in ascending order.
pub fn intersect<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while let (Some(x), Some(y)) = (a.get(i), b.get(j)) {
        match x.cmp(y) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(*x);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_extended_lists_is_ascending_and_distinct() {
        let mut v = vec![5u64, 1, 9];
        v.extend([9, 2, 1]);
        sort_dedup(&mut v);
        assert_eq!(v, [1, 2, 5, 9]);
        let mut empty: Vec<u64> = Vec::new();
        sort_dedup(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn distinct_count_ignores_order_and_repeats() {
        assert_eq!(distinct_count(&[1u64, 2, 5]), 3);
        assert_eq!(distinct_count(&[5u64, 1, 5, 2, 1]), 3);
        assert_eq!(distinct_count(&[7u64, 7]), 1);
        assert_eq!(distinct_count::<u64>(&[]), 0);
    }

    #[test]
    fn intersection_walks_both_lists_once() {
        assert_eq!(intersect(&[1u64, 3, 5, 7], &[3, 4, 5, 8]), [3, 5]);
        assert_eq!(intersect(&[1u64, 2], &[3, 4]), [] as [u64; 0]);
        assert_eq!(intersect(&[] as &[u64], &[1]), [] as [u64; 0]);
        assert_eq!(intersect(&[2u64, 4], &[2, 4]), [2, 4]);
    }
}
