//! Set-value and query-set generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// How target-set cardinalities are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cardinality {
    /// Every set has exactly `D_t` elements — the paper's assumption.
    Fixed(u32),
    /// Uniformly between the bounds (inclusive) — the "cardinality of
    /// target sets varies" extension of §6.
    UniformRange(u32, u32),
}

impl Cardinality {
    fn sample(&self, rng: &mut StdRng) -> u32 {
        match *self {
            Cardinality::Fixed(d) => d,
            Cardinality::UniformRange(lo, hi) => rng.gen_range(lo..=hi),
        }
    }

    /// The mean cardinality (the `D_t` to hand the cost model).
    pub fn mean(&self) -> f64 {
        match *self {
            Cardinality::Fixed(d) => d as f64,
            Cardinality::UniformRange(lo, hi) => (lo + hi) as f64 / 2.0,
        }
    }
}

/// The data half of a workload: `N` objects over a `V`-element domain,
/// elements drawn uniformly — the paper's assumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Number of objects `N`.
    pub n_objects: u64,
    /// Domain cardinality `V`.
    pub domain: u64,
    /// Target set cardinality policy.
    pub cardinality: Cardinality,
    /// RNG seed; equal configs generate equal workloads.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The paper's Table 2 data regime with the given `D_t`.
    pub fn paper(d_t: u32) -> Self {
        WorkloadConfig {
            n_objects: 32_000,
            domain: 13_000,
            cardinality: Cardinality::Fixed(d_t),
            seed: 0x1993_5160,
        }
    }

    /// A proportionally scaled-down instance (for fast simulation):
    /// divides both `N` and `V` by `factor`, keeping `d = D_t·N/V` intact.
    pub fn paper_scaled(d_t: u32, factor: u64) -> Self {
        let mut cfg = Self::paper(d_t);
        cfg.n_objects /= factor;
        cfg.domain = (cfg.domain / factor).max(d_t as u64 * 2);
        cfg
    }
}

/// Generates target sets according to a [`WorkloadConfig`].
pub struct SetGenerator {
    cfg: WorkloadConfig,
    rng: StdRng,
}

impl SetGenerator {
    /// Creates the generator.
    pub fn new(cfg: WorkloadConfig) -> Self {
        SetGenerator {
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
        }
    }

    /// The config in force.
    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    /// Draws one target set: distinct elements, ascending order.
    pub fn next_set(&mut self) -> Vec<u64> {
        let d = self
            .cfg
            .cardinality
            .sample(&mut self.rng)
            .min(self.cfg.domain as u32);
        let mut set = BTreeSet::new();
        while (set.len() as u32) < d {
            set.insert(self.rng.gen_range(0..self.cfg.domain));
        }
        set.into_iter().collect()
    }

    /// Generates the whole database: `N` target sets.
    pub fn generate_all(&mut self) -> Vec<Vec<u64>> {
        (0..self.cfg.n_objects).map(|_| self.next_set()).collect()
    }
}

/// Generates query sets.
pub struct QueryGen {
    domain: u64,
    rng: StdRng,
}

impl QueryGen {
    /// Creates a query generator over a `domain`-element domain.
    pub fn new(domain: u64, seed: u64) -> Self {
        QueryGen {
            domain,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A uniform random query set of cardinality `d_q` — the paper's
    /// default (mostly unsuccessful-search) regime.
    pub fn random(&mut self, d_q: u32) -> Vec<u64> {
        assert!(d_q as u64 <= self.domain);
        let mut set = BTreeSet::new();
        while (set.len() as u32) < d_q {
            set.insert(self.rng.gen_range(0..self.domain));
        }
        set.into_iter().collect()
    }

    /// A `T ⊇ Q` query guaranteed to hit `target`: a random `d_q`-subset of
    /// the target set. Panics if `d_q > |target|`.
    pub fn subset_of_target(&mut self, target: &[u64], d_q: u32) -> Vec<u64> {
        assert!(
            d_q as usize <= target.len(),
            "d_q exceeds target cardinality"
        );
        let mut pool: Vec<u64> = target.to_vec();
        // Partial Fisher–Yates: the first d_q positions become the sample.
        for i in 0..d_q as usize {
            let j = self.rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        let mut q: Vec<u64> = pool[..d_q as usize].to_vec();
        q.sort_unstable();
        q
    }

    /// A `T ⊆ Q` query guaranteed to hit `target`: the target set plus
    /// random padding up to cardinality `d_q`. Panics if `d_q < |target|`.
    pub fn superset_of_target(&mut self, target: &[u64], d_q: u32) -> Vec<u64> {
        assert!(d_q as usize >= target.len(), "d_q below target cardinality");
        let mut set: BTreeSet<u64> = target.iter().copied().collect();
        while (set.len() as u32) < d_q {
            set.insert(self.rng.gen_range(0..self.domain));
        }
        set.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_cardinality_sets_are_exact_and_distinct() {
        let mut g = SetGenerator::new(WorkloadConfig::paper_scaled(10, 32));
        for _ in 0..100 {
            let s = g.next_set();
            assert_eq!(s.len(), 10);
            for w in s.windows(2) {
                assert!(w[0] < w[1], "sorted distinct");
            }
            assert!(*s.last().unwrap() < g.config().domain);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = SetGenerator::new(WorkloadConfig::paper_scaled(10, 64)).generate_all();
        let b = SetGenerator::new(WorkloadConfig::paper_scaled(10, 64)).generate_all();
        assert_eq!(a, b);
        let mut cfg = WorkloadConfig::paper_scaled(10, 64);
        cfg.seed += 1;
        let c = SetGenerator::new(cfg).generate_all();
        assert_ne!(a, c);
    }

    #[test]
    fn variable_cardinality_stays_in_range() {
        let cfg = WorkloadConfig {
            cardinality: Cardinality::UniformRange(5, 15),
            ..WorkloadConfig::paper_scaled(10, 32)
        };
        let mut g = SetGenerator::new(cfg);
        let mut seen_not_ten = false;
        for _ in 0..200 {
            let s = g.next_set();
            assert!((5..=15).contains(&(s.len() as u32)));
            if s.len() != 10 {
                seen_not_ten = true;
            }
        }
        assert!(seen_not_ten, "range should actually vary");
        assert_eq!(Cardinality::UniformRange(5, 15).mean(), 10.0);
    }

    #[test]
    fn element_usage_roughly_uniform() {
        // Supports the d = D_t·N/V assumption of the NIX model.
        let cfg = WorkloadConfig {
            n_objects: 2000,
            domain: 100,
            cardinality: Cardinality::Fixed(5),
            seed: 5,
        };
        let sets = SetGenerator::new(cfg).generate_all();
        let mut counts = vec![0u32; 100];
        for s in &sets {
            for &e in s {
                counts[e as usize] += 1;
            }
        }
        let expect = 2000.0 * 5.0 / 100.0; // d = 100
        for (e, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > expect * 0.6 && (c as f64) < expect * 1.4,
                "element {e}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn subset_query_hits_its_target() {
        let mut qg = QueryGen::new(1000, 9);
        let target: Vec<u64> = (0..10).map(|i| i * 37).collect();
        for d_q in 1..=10 {
            let q = qg.subset_of_target(&target, d_q);
            assert_eq!(q.len(), d_q as usize);
            assert!(q.iter().all(|e| target.contains(e)));
            for w in q.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn superset_query_contains_its_target() {
        let mut qg = QueryGen::new(1000, 9);
        let target: Vec<u64> = vec![3, 14, 159];
        let q = qg.superset_of_target(&target, 20);
        assert_eq!(q.len(), 20);
        for e in &target {
            assert!(q.contains(e));
        }
    }

    #[test]
    fn random_queries_have_requested_cardinality() {
        let mut qg = QueryGen::new(50, 1);
        for d_q in [1u32, 10, 50] {
            assert_eq!(qg.random(d_q).len(), d_q as usize);
        }
    }
}
