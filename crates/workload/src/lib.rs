//! # setsig-workload — synthetic set-attribute workloads
//!
//! Generators matching the paper's data assumptions (§4): `N` objects, each
//! with an indexed set attribute of cardinality `D_t` drawn uniformly
//! without replacement from a `V`-element domain; and the query-set
//! generators the experiments need:
//!
//! * random query sets of a chosen cardinality `D_q` (the paper's
//!   unsuccessful-search regime — actual drops are governed by §4.4's
//!   hypergeometrics),
//! * *hit* queries derived from a stored target set, forcing actual drops
//!   (subset-of-target for `T ⊇ Q`, superset-of-target for `T ⊆ Q`),
//! * variable target cardinality for the extension experiments §6 lists
//!   as further work,
//! * the university scenario (Students × hobbies/courses) from §1, used by
//!   the examples.
//!
//! Every draw comes from one seeded [`SplitMix64`] stream through
//! [`random_set`], [`subset_of`] and [`superset_of`]: the benchmark's
//! generator (`benchmark/src/gen.rs`), so a seed draws the same sets here
//! and there. Everything is deterministic given the seed.

#![warn(missing_docs)]

mod generator;
mod scenario;

pub use generator::{
    random_set, subset_of, superset_of, Cardinality, QueryGen, SetGenerator, SplitMix64,
    WorkloadConfig,
};
pub use scenario::{university_hobbies, UniversityScenario, HOBBY_NAMES};
