//! The seeded stream and the set draws, and the set-value and query-set
//! generators built on them.

/// SplitMix64 (Steele, Lea & Flood): one 64-bit state word, no dependencies.
/// The benchmark's generator (`benchmark/src/gen.rs`): the same seed draws
/// the same sets there and here.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose first state word is `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁹ for
    /// `n ≤ 32,768`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A sorted set of `d` distinct elements of `0..domain`. Panics if
/// `d > domain`.
pub fn random_set(rng: &mut SplitMix64, domain: u64, d: usize) -> Vec<u64> {
    superset_of(rng, domain, &[], d)
}

/// `d` distinct elements of `target` (all of it when `d ≥ |target|`).
pub fn subset_of(rng: &mut SplitMix64, target: &[u64], d: usize) -> Vec<u64> {
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

/// `target` (sorted, distinct) padded with random elements of `0..domain` up
/// to `d` elements. Panics if `d > domain`: the padding could never finish.
pub fn superset_of(rng: &mut SplitMix64, domain: u64, target: &[u64], d: usize) -> Vec<u64> {
    assert!(
        d as u64 <= domain,
        "cannot draw {d} distinct elements from a {domain}-element domain"
    );
    let mut out = target.to_vec();
    while out.len() < d {
        while out.len() < d {
            out.push(rng.below(domain));
        }
        out.sort_unstable();
        out.dedup();
    }
    out
}

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
    fn sample(&self, rng: &mut SplitMix64) -> u32 {
        match *self {
            Cardinality::Fixed(d) => d,
            Cardinality::UniformRange(lo, hi) => {
                assert!(lo <= hi, "empty cardinality range {lo}..={hi}");
                lo + rng.below(u64::from(hi - lo) + 1) as u32
            }
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
}

/// Generates target sets according to a [`WorkloadConfig`].
pub struct SetGenerator {
    cfg: WorkloadConfig,
    rng: SplitMix64,
}

impl SetGenerator {
    /// Creates the generator.
    pub fn new(cfg: WorkloadConfig) -> Self {
        SetGenerator {
            rng: SplitMix64::new(cfg.seed),
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
        random_set(&mut self.rng, self.cfg.domain, d as usize)
    }

    /// Generates the whole database: `N` target sets.
    pub fn generate_all(&mut self) -> Vec<Vec<u64>> {
        (0..self.cfg.n_objects).map(|_| self.next_set()).collect()
    }
}

/// Generates query sets.
pub struct QueryGen {
    domain: u64,
    rng: SplitMix64,
}

impl QueryGen {
    /// Creates a query generator over a `domain`-element domain.
    pub fn new(domain: u64, seed: u64) -> Self {
        QueryGen {
            domain,
            rng: SplitMix64::new(seed),
        }
    }

    /// A uniform random query set of cardinality `d_q` — the paper's
    /// default (mostly unsuccessful-search) regime. Panics if
    /// `d_q > domain`.
    pub fn random(&mut self, d_q: u32) -> Vec<u64> {
        random_set(&mut self.rng, self.domain, d_q as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's `D_t = 10` regime on `n` objects over `domain` elements.
    fn small(n_objects: u64, domain: u64) -> WorkloadConfig {
        WorkloadConfig {
            n_objects,
            domain,
            ..WorkloadConfig::paper(10)
        }
    }

    #[test]
    fn splitmix_matches_the_reference_vector() {
        // First outputs of the reference implementation for seed 1234567.
        let mut rng = SplitMix64::new(1_234_567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn seed_1993_draws_the_benchmarks_sets() {
        // What `benchmark/src/gen.rs` draws at seed 1993 over its V = 13,000:
        // three `random_set(·, 10)`, then `subset_of(first, 3)` and
        // `superset_of(second, 15)`.
        let mut rng = SplitMix64::new(1993);
        let sets: Vec<Vec<u64>> = (0..3).map(|_| random_set(&mut rng, 13_000, 10)).collect();
        assert_eq!(
            sets,
            [
                [2532, 5327, 5556, 6731, 6937, 7404, 9742, 11247, 12580, 12756],
                [1092, 2381, 3653, 4715, 4971, 5695, 6231, 7998, 10942, 12985],
                [524, 990, 2269, 2907, 5999, 6591, 6823, 7903, 10576, 12397],
            ]
        );
        assert_eq!(subset_of(&mut rng, &sets[0], 3), [6937, 12580, 12756]);
        assert_eq!(
            superset_of(&mut rng, 13_000, &sets[1], 15),
            [
                1092, 2381, 3653, 4258, 4715, 4752, 4971, 5321, 5695, 6231, 7655, 7998, 9655,
                10942, 12985
            ]
        );
    }

    #[test]
    #[should_panic(expected = "cannot draw 6 distinct elements from a 5-element domain")]
    fn a_superset_larger_than_the_domain_is_refused() {
        superset_of(&mut SplitMix64::new(1), 5, &[1, 3], 6);
    }

    #[test]
    #[should_panic(expected = "empty cardinality range 15..=5")]
    fn an_empty_cardinality_range_is_refused() {
        let cfg = WorkloadConfig {
            cardinality: Cardinality::UniformRange(15, 5),
            ..small(1000, 406)
        };
        SetGenerator::new(cfg).next_set();
    }

    #[test]
    fn fixed_cardinality_sets_are_exact_and_distinct() {
        let mut g = SetGenerator::new(small(1000, 406));
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
        let a = SetGenerator::new(small(500, 203)).generate_all();
        let b = SetGenerator::new(small(500, 203)).generate_all();
        assert_eq!(a, b);
        let mut cfg = small(500, 203);
        cfg.seed += 1;
        let c = SetGenerator::new(cfg).generate_all();
        assert_ne!(a, c);
    }

    #[test]
    fn variable_cardinality_stays_in_range() {
        let cfg = WorkloadConfig {
            cardinality: Cardinality::UniformRange(5, 15),
            ..small(1000, 406)
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
        let mut rng = SplitMix64::new(9);
        let target: Vec<u64> = (0..10).map(|i| i * 37).collect();
        for d_q in 1..=10 {
            let q = subset_of(&mut rng, &target, d_q);
            assert_eq!(q.len(), d_q);
            assert!(q.iter().all(|e| target.contains(e)));
            for w in q.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn superset_query_contains_its_target() {
        let target: Vec<u64> = vec![3, 14, 159];
        let q = superset_of(&mut SplitMix64::new(9), 1000, &target, 20);
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
