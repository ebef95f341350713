//! Mixed operation traces: realistic interleavings of queries and updates.
//!
//! The paper evaluates retrieval, storage and update costs separately; a
//! deployed facility sees them interleaved. A [`TraceConfig`] describes the
//! mix (the same shape the cost-model advisor consumes) and
//! [`generate_trace`] expands it into a deterministic operation sequence
//! for system benchmarks and soak tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// One operation in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// Insert a new object with this target set.
    Insert {
        /// The new object's set-attribute value.
        set: Vec<u64>,
    },
    /// Delete the `i`-th still-live object (modulo the live count at
    /// execution time; no-op on an empty database).
    Delete {
        /// Selector into the live population.
        victim: u64,
    },
    /// A `T ⊇ Q` query.
    SupersetQuery {
        /// The query set.
        query: Vec<u64>,
    },
    /// A `T ⊆ Q` query.
    SubsetQuery {
        /// The query set.
        query: Vec<u64>,
    },
}

/// The mix and shape of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Domain cardinality `V`.
    pub domain: u64,
    /// Target set cardinality for inserts.
    pub d_t: u32,
    /// `D_q` for ⊇ queries.
    pub d_q_superset: u32,
    /// `D_q` for ⊆ queries.
    pub d_q_subset: u32,
    /// Relative weights of (insert, delete, ⊇ query, ⊆ query).
    pub weights: [u32; 4],
    /// Number of operations.
    pub length: usize,
    /// RNG seed.
    pub seed: u64,
}

impl TraceConfig {
    /// A query-dominated mix over a scaled paper domain.
    pub fn query_heavy(length: usize) -> Self {
        TraceConfig {
            domain: 1625,
            d_t: 10,
            d_q_superset: 3,
            d_q_subset: 50,
            weights: [10, 2, 44, 44],
            length,
            seed: 0x7ace,
        }
    }

    /// An ingest-dominated mix (bulk loading with occasional reads).
    pub fn insert_heavy(length: usize) -> Self {
        TraceConfig {
            weights: [80, 5, 10, 5],
            ..Self::query_heavy(length)
        }
    }
}

/// Expands `cfg` into a deterministic operation sequence.
#[expect(
    clippy::unreachable,
    reason = "cumulative weights sum to `total` and `pick` is drawn in [0, total), so the walk always lands"
)]
pub fn generate_trace(cfg: &TraceConfig) -> Vec<TraceOp> {
    assert!(
        cfg.weights.iter().sum::<u32>() > 0,
        "weights must not all be zero"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let total: u32 = cfg.weights.iter().sum();
    let draw_set = |rng: &mut StdRng, card: u32| -> Vec<u64> {
        let mut set = BTreeSet::new();
        while (set.len() as u32) < card.min(cfg.domain as u32) {
            set.insert(rng.gen_range(0..cfg.domain));
        }
        set.into_iter().collect()
    };
    (0..cfg.length)
        .map(|_| {
            let mut pick = rng.gen_range(0..total);
            for (i, &w) in cfg.weights.iter().enumerate() {
                if pick < w {
                    return match i {
                        0 => TraceOp::Insert {
                            set: draw_set(&mut rng, cfg.d_t),
                        },
                        1 => TraceOp::Delete { victim: rng.gen() },
                        2 => TraceOp::SupersetQuery {
                            query: draw_set(&mut rng, cfg.d_q_superset),
                        },
                        _ => TraceOp::SubsetQuery {
                            query: draw_set(&mut rng, cfg.d_q_subset),
                        },
                    };
                }
                pick -= w;
            }
            unreachable!("pick < total by construction")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_and_sized() {
        let cfg = TraceConfig::query_heavy(500);
        let a = generate_trace(&cfg);
        let b = generate_trace(&cfg);
        assert_eq!(a.len(), 500);
        assert_eq!(a, b);
    }

    #[test]
    fn mix_roughly_matches_weights() {
        let cfg = TraceConfig::query_heavy(10_000);
        let trace = generate_trace(&cfg);
        let inserts = trace
            .iter()
            .filter(|o| matches!(o, TraceOp::Insert { .. }))
            .count();
        let sups = trace
            .iter()
            .filter(|o| matches!(o, TraceOp::SupersetQuery { .. }))
            .count();
        // Weights 10/2/44/44: inserts ≈ 10%, ⊇ ≈ 44%.
        assert!(
            (0.07..0.13).contains(&(inserts as f64 / 10_000.0)),
            "{inserts}"
        );
        assert!((0.40..0.48).contains(&(sups as f64 / 10_000.0)), "{sups}");
    }

    #[test]
    fn sets_respect_cardinalities_and_domain() {
        let cfg = TraceConfig::insert_heavy(300);
        for op in generate_trace(&cfg) {
            match op {
                TraceOp::Insert { set } => {
                    assert_eq!(set.len() as u32, cfg.d_t);
                    assert!(set.iter().all(|&e| e < cfg.domain));
                }
                TraceOp::SupersetQuery { query } => {
                    assert_eq!(query.len() as u32, cfg.d_q_superset);
                }
                TraceOp::SubsetQuery { query } => {
                    assert_eq!(query.len() as u32, cfg.d_q_subset);
                }
                TraceOp::Delete { .. } => {}
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_weights_rejected() {
        let cfg = TraceConfig {
            weights: [0; 4],
            ..TraceConfig::query_heavy(10)
        };
        let _ = generate_trace(&cfg);
    }
}
