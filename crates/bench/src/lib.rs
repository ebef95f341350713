//! Shared fixtures for the Criterion benchmark suite.
//!
//! Each `benches/figN.rs` / `benches/tableN.rs` target times the workload
//! behind the corresponding paper exhibit — the `repro` binary reports the
//! page-access counts (the paper's metric); these benches report the
//! wall-clock the real implementations take to do that work, plus
//! ablations of the design choices DESIGN.md calls out.

use setsig_core::{ElementKey, SetQuery};
use setsig_experiments::SimDb;
use setsig_workload::{Cardinality, Distribution, WorkloadConfig};

/// A reduced-scale paper instance for benchmarking: `N = 32,000/scale`,
/// `V = 13,000/scale`, fixed `D_t`.
pub fn bench_workload(d_t: u32, scale: u64) -> WorkloadConfig {
    WorkloadConfig {
        n_objects: 32_000 / scale,
        domain: (13_000 / scale).max(2 * d_t as u64),
        cardinality: Cardinality::Fixed(d_t),
        distribution: Distribution::Uniform,
        seed: 0x000b_e0c4 + d_t as u64,
    }
}

/// Builds the standard bench instance (scale 1/8 ⇒ 4,000 objects).
pub fn bench_db(d_t: u32) -> SimDb {
    SimDb::build(bench_workload(d_t, 8))
}

/// A deterministic random ⊇ query of cardinality `d_q`.
pub fn superset_query(sim: &SimDb, d_q: u32, seed: u64) -> SetQuery {
    let mut qg = sim.query_gen(seed);
    SetQuery::has_subset(qg.random(d_q).into_iter().map(ElementKey::from).collect())
}

/// A deterministic random ⊆ query of cardinality `d_q`.
pub fn subset_query(sim: &SimDb, d_q: u32, seed: u64) -> SetQuery {
    let mut qg = sim.query_gen(seed);
    SetQuery::in_subset(qg.random(d_q).into_iter().map(ElementKey::from).collect())
}
