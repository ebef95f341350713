//! The benchmark's inputs: a SplitMix64 generator, the stored target sets,
//! the op lists and the query-text formatter.
//!
//! Everything is a pure function of the seed and is materialised before any
//! clock starts; the system under test only ever sees the query text, the
//! sets handed to `insert_object` and the OIDs handed to `delete_object`.

use std::fmt::Write as _;

/// Domain cardinality `V` of the paper's §5 experiments.
pub const V: u64 = 13_000;

/// SplitMix64 (Steele, Lea & Flood): one 64-bit state word, no dependencies.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁹ for the
    /// `n ≤ 32,768` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The two predicates the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pred {
    /// `T ⊇ Q`
    HasSubset,
    /// `T ⊆ Q`
    InSubset,
}

impl Pred {
    pub fn keyword(self) -> &'static str {
        match self {
            Pred::HasSubset => "has-subset",
            Pred::InSubset => "in-subset",
        }
    }
}

/// One operation of a workload. Objects are named by their insertion index
/// (the initial population is `0..n`, every `Insert` takes the next index),
/// which is also the OID a fresh `Database` allocates; the runner checks
/// that equality on every insert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Query {
        text: String,
        pred: Pred,
        elems: Vec<u64>,
    },
    Insert {
        set: Vec<u64>,
    },
    Delete {
        obj: u64,
    },
}

impl Op {
    pub fn is_query(&self) -> bool {
        matches!(self, Op::Query { .. })
    }
}

/// Which op list a workload replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `has-subset`, `D_q ∈ {1,2,3,5}`, four in five subsets of a stored
    /// target.
    Superset,
    /// `in-subset`, `D_q ∈ {20,50,100}`, every other one a superset of a
    /// stored target.
    Subset,
    /// `has-subset`, `D_q ∈ {2,3,5}`, all subsets of stored targets.
    ServiceSuperset,
    /// 60 % `has-subset` (`D_q = 3`), 10 % `in-subset` (`D_q = 50`), 15 %
    /// inserts, 15 % deletes of a live object.
    MixedRw,
}

/// A sorted set of `d` distinct elements of `0..V`.
pub fn random_set(rng: &mut SplitMix64, d: usize) -> Vec<u64> {
    superset_of(rng, &[], d)
}

/// `d` distinct elements of `target` (all of it when `d ≥ |target|`).
fn subset_of(rng: &mut SplitMix64, target: &[u64], d: usize) -> Vec<u64> {
    let mut pool = target.to_vec();
    let d = d.min(pool.len());
    for i in 0..d {
        let j = i + rng.below((pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(d);
    pool.sort_unstable();
    pool
}

/// `target` (sorted, distinct) padded with random elements up to `d` elements.
fn superset_of(rng: &mut SplitMix64, target: &[u64], d: usize) -> Vec<u64> {
    let mut out = target.to_vec();
    while out.len() < d {
        while out.len() < d {
            out.push(rng.below(V));
        }
        out.sort_unstable();
        out.dedup();
    }
    out
}

/// The paper's query surface: `select Synthetic where elems <op> (e1, e2, …)`.
pub fn query_text(pred: Pred, elems: &[u64]) -> String {
    let mut text = format!("select Synthetic where elems {} (", pred.keyword());
    for (i, e) in elems.iter().enumerate() {
        if i > 0 {
            text.push_str(", ");
        }
        write!(text, "{e}").expect("writing to a String cannot fail");
    }
    text.push(')');
    text
}

fn query(pred: Pred, elems: Vec<u64>) -> Op {
    Op::Query {
        text: query_text(pred, &elems),
        pred,
        elems,
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    /// The initial population: object `i` holds `sets[i]`.
    pub sets: Vec<Vec<u64>>,
    /// The op list.
    pub ops: Vec<Op>,
}

/// `has-subset` cardinalities, 1:2:3:2 over `{1,2,3,5}`. A uniform mix puts
/// the median latency on the boundary between the `D_q = 3` and `D_q = 5`
/// modes, where it flips between them from run to run; this one puts it
/// inside the `D_q = 3` mode and the p99 inside the `D_q = 1` mode (whose
/// ~25 hits per query are the slow tail).
const SUPERSET_DQ: [usize; 8] = [1, 2, 3, 5, 2, 3, 3, 5];
const SUBSET_DQ: [usize; 3] = [20, 50, 100];
const SERVICE_DQ: [usize; 3] = [2, 3, 5];

/// One shuffled block of the mixed trace: 12 `has-subset`, 2 `in-subset`,
/// 3 inserts, 3 deletes.
const MIXED_BLOCK: [u8; 20] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 2, 3, 3, 3];

/// Generates `n` target sets of `d_t` elements and `n_ops` operations.
///
/// Cardinalities and op kinds follow fixed cycles (shuffled per block in the
/// mixed trace) and only the elements are drawn, so two seeds differ in
/// *which* sets are asked for, not in how many queries of each shape a run
/// contains.
pub fn generate(seed: u64, mix: Mix, n: usize, d_t: usize, n_ops: usize) -> Inputs {
    let mut rng = SplitMix64::new(seed);
    let sets: Vec<Vec<u64>> = (0..n).map(|_| random_set(&mut rng, d_t)).collect();
    let mut ops = Vec::with_capacity(n_ops);
    let stored = |rng: &mut SplitMix64| rng.below(n as u64) as usize;
    match mix {
        Mix::Superset => {
            for i in 0..n_ops {
                let d_q = SUPERSET_DQ[i % SUPERSET_DQ.len()];
                let elems = if i % 5 == 4 {
                    random_set(&mut rng, d_q)
                } else {
                    let t = stored(&mut rng);
                    subset_of(&mut rng, &sets[t], d_q)
                };
                ops.push(query(Pred::HasSubset, elems));
            }
        }
        Mix::Subset => {
            for i in 0..n_ops {
                let d_q = SUBSET_DQ[i % SUBSET_DQ.len()];
                let elems = if (i / SUBSET_DQ.len()).is_multiple_of(2) {
                    let t = stored(&mut rng);
                    superset_of(&mut rng, &sets[t], d_q)
                } else {
                    random_set(&mut rng, d_q)
                };
                ops.push(query(Pred::InSubset, elems));
            }
        }
        Mix::ServiceSuperset => {
            for i in 0..n_ops {
                let t = stored(&mut rng);
                let elems = subset_of(&mut rng, &sets[t], SERVICE_DQ[i % SERVICE_DQ.len()]);
                ops.push(query(Pred::HasSubset, elems));
            }
        }
        Mix::MixedRw => {
            // Shadow of the live population: (object index, its set).
            let mut live: Vec<(u64, Vec<u64>)> = sets
                .iter()
                .enumerate()
                .map(|(i, s)| (i as u64, s.clone()))
                .collect();
            let mut next_obj = n as u64;
            while ops.len() < n_ops {
                let mut block = MIXED_BLOCK;
                for i in (1..block.len()).rev() {
                    block.swap(i, rng.below(i as u64 + 1) as usize);
                }
                for kind in block {
                    if ops.len() == n_ops {
                        break;
                    }
                    let pick = rng.below(live.len() as u64) as usize;
                    match kind {
                        0 => {
                            let elems = subset_of(&mut rng, &live[pick].1, 3);
                            ops.push(query(Pred::HasSubset, elems));
                        }
                        1 => {
                            let elems = superset_of(&mut rng, &live[pick].1, 50);
                            ops.push(query(Pred::InSubset, elems));
                        }
                        2 => {
                            let set = random_set(&mut rng, d_t);
                            live.push((next_obj, set.clone()));
                            next_obj += 1;
                            ops.push(Op::Insert { set });
                        }
                        _ => {
                            let (obj, _) = live.swap_remove(pick);
                            ops.push(Op::Delete { obj });
                        }
                    }
                }
            }
        }
    }
    Inputs { sets, ops }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Mix; 4] = [
        Mix::Superset,
        Mix::Subset,
        Mix::ServiceSuperset,
        Mix::MixedRw,
    ];

    #[test]
    fn splitmix_matches_the_reference_vector() {
        // First outputs of the reference implementation for seed 1234567.
        let mut rng = SplitMix64::new(1_234_567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn same_seed_yields_byte_identical_inputs() {
        for mix in ALL {
            let a = generate(1993, mix, 300, 10, 500);
            let b = generate(1993, mix, 300, 10, 500);
            assert_eq!(format!("{:?}", a.sets), format!("{:?}", b.sets));
            assert_eq!(format!("{:?}", a.ops), format!("{:?}", b.ops));
            let c = generate(2024, mix, 300, 10, 500);
            assert_ne!(format!("{:?}", a.ops), format!("{:?}", c.ops));
        }
    }

    #[test]
    fn sets_are_sorted_distinct_and_sized() {
        let mut rng = SplitMix64::new(7);
        for d in [1, 10, 100] {
            let s = random_set(&mut rng, d);
            assert_eq!(s.len(), d);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.iter().all(|&e| e < V));
        }
        let target = random_set(&mut rng, 10);
        let sub = subset_of(&mut rng, &target, 3);
        assert_eq!(sub.len(), 3);
        assert!(sub.iter().all(|e| target.contains(e)));
        let sup = superset_of(&mut rng, &target, 50);
        assert_eq!(sup.len(), 50);
        assert!(target.iter().all(|e| sup.contains(e)));
        assert!(sup.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn query_text_is_the_papers_surface() {
        assert_eq!(
            query_text(Pred::HasSubset, &[3, 14, 159]),
            "select Synthetic where elems has-subset (3, 14, 159)"
        );
        assert_eq!(
            query_text(Pred::InSubset, &[7]),
            "select Synthetic where elems in-subset (7)"
        );
    }

    #[test]
    fn mixed_trace_keeps_its_shares_and_only_deletes_live_objects() {
        let inputs = generate(5, Mix::MixedRw, 200, 10, 2_000);
        let mut live: Vec<bool> = vec![true; 200];
        let (mut has, mut within, mut ins, mut del) = (0, 0, 0, 0);
        for op in &inputs.ops {
            match op {
                Op::Query {
                    pred: Pred::HasSubset,
                    ..
                } => has += 1,
                Op::Query { .. } => within += 1,
                Op::Insert { .. } => {
                    live.push(true);
                    ins += 1;
                }
                Op::Delete { obj } => {
                    assert!(live[*obj as usize], "object {obj} deleted twice");
                    live[*obj as usize] = false;
                    del += 1;
                }
            }
        }
        assert_eq!((has, within, ins, del), (1_200, 200, 300, 300));
    }
}
