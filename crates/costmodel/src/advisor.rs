//! A design advisor built on the paper's cost model (extension).
//!
//! §6 closes with a design recommendation ("BSSF with a small m is a very
//! promising set access facility"). This module mechanizes that judgment:
//! given a workload profile — target cardinality, query mix, update rate,
//! optional storage budget — it enumerates the design space the paper
//! studies (SSF / BSSF / FSSF / NIX, `F` grid, small `m`, frame counts) and
//! returns the configuration minimizing expected page accesses per
//! operation. The `tuning` example drives it; tests pin the paper's own
//! conclusions.
//!
//! NIX is costed with the paper's §4.3 `T ⊆ Q` union
//! ([`NixModel::rc_subset`]), not with the counting retrieval the engine
//! runs ([`NixModel::rc_subset_counting`]): the advisor mechanizes the
//! paper's verdict.

use crate::bssf::BssfModel;
use crate::fssf::FssfModel;
use crate::nix::NixModel;
use crate::params::Params;
use crate::ssf::SsfModel;

/// A workload description for the advisor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Target set cardinality `D_t`.
    pub d_t: u32,
    /// Fraction of operations that are `T ⊇ Q` queries.
    pub superset_fraction: f64,
    /// Fraction of operations that are `T ⊆ Q` queries.
    pub subset_fraction: f64,
    /// Fraction of operations that are insertions.
    pub insert_fraction: f64,
    /// Typical `D_q` for ⊇ queries.
    pub d_q_superset: u32,
    /// Typical `D_q` for ⊆ queries.
    pub d_q_subset: u32,
    /// Reject configurations above this many pages, if set.
    pub storage_budget_pages: Option<u64>,
}

impl WorkloadProfile {
    /// The paper's implicit profile: query-dominated, both query types,
    /// `D_t = 10`.
    pub fn paper_default() -> Self {
        WorkloadProfile {
            d_t: 10,
            superset_fraction: 0.45,
            subset_fraction: 0.45,
            insert_fraction: 0.10,
            d_q_superset: 3,
            d_q_subset: 100,
            storage_budget_pages: None,
        }
    }
}

/// A candidate organization with its design parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Organization {
    /// Sequential signature file with `(F, m)`.
    Ssf {
        /// Signature width.
        f: u32,
        /// Element weight.
        m: u32,
    },
    /// Bit-sliced signature file with `(F, m)`, smart strategies on.
    Bssf {
        /// Signature width.
        f: u32,
        /// Element weight.
        m: u32,
    },
    /// Frame-sliced signature file with `(F, k, m)`.
    Fssf {
        /// Signature width.
        f: u32,
        /// Frame count.
        k: u32,
        /// Element weight within the frame.
        m: u32,
    },
    /// The nested index.
    Nix,
}

/// The advisor's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// Chosen organization and parameters.
    pub organization: Organization,
    /// Expected page accesses per operation under the profile.
    pub expected_cost: f64,
    /// Storage cost in pages.
    pub storage_pages: u64,
    /// Every evaluated candidate `(organization, expected cost, storage)`,
    /// best first — so callers can show the trade-off table.
    pub candidates: Vec<(Organization, f64, u64)>,
}

fn profile_cost(profile: &WorkloadProfile, rc_sup: f64, rc_sub: f64, uc_ins: f64) -> f64 {
    profile.superset_fraction * rc_sup
        + profile.subset_fraction * rc_sub
        + profile.insert_fraction * uc_ins
}

/// Evaluates the design space and returns the cheapest admissible
/// configuration under `profile`.
pub fn advise(params: Params, profile: &WorkloadProfile) -> Recommendation {
    assert!(
        (profile.superset_fraction + profile.subset_fraction + profile.insert_fraction - 1.0).abs()
            < 1e-6,
        "operation fractions must sum to 1"
    );
    let d_t = profile.d_t;
    // F grid scaled to the cardinality regime, as the paper scales its own
    // choices (250/500 at D_t = 10, 1000/2500 at D_t = 100).
    let f_grid: Vec<u32> = [12, 25, 50, 100, 250]
        .iter()
        .map(|&mult| (mult * d_t).max(64))
        .collect();
    let mut candidates: Vec<(Organization, f64, u64)> = Vec::new();

    for &f in &f_grid {
        for m in 1..=4u32 {
            let ssf = SsfModel::new(params, f, m, d_t);
            candidates.push((
                Organization::Ssf { f, m },
                profile_cost(
                    profile,
                    ssf.rc_superset(profile.d_q_superset),
                    ssf.rc_subset(profile.d_q_subset),
                    ssf.uc_insert(),
                ),
                ssf.sc(),
            ));
            let bssf = BssfModel::new(params, f, m, d_t);
            let cap = bssf.best_superset_cap(profile.d_q_superset.max(1));
            candidates.push((
                Organization::Bssf { f, m },
                profile_cost(
                    profile,
                    bssf.rc_superset_smart(profile.d_q_superset, cap),
                    bssf.rc_subset_smart(profile.d_q_subset),
                    bssf.uc_insert(),
                ),
                bssf.sc(),
            ));
            // Frame counts dividing F, frames wide enough for m bits.
            for k in [f / 5, f / 10, f / 25] {
                if k == 0 || f % k != 0 || m > f / k {
                    continue;
                }
                let fssf = FssfModel::new(params, f, k, m, d_t);
                candidates.push((
                    Organization::Fssf { f, k, m },
                    profile_cost(
                        profile,
                        fssf.rc_superset(profile.d_q_superset),
                        fssf.rc_subset(profile.d_q_subset),
                        fssf.uc_insert(),
                    ),
                    fssf.sc(),
                ));
            }
        }
    }
    let nix = NixModel::new(params, d_t);
    candidates.push((
        Organization::Nix,
        profile_cost(
            profile,
            nix.rc_superset_smart(profile.d_q_superset, 2),
            nix.rc_subset(profile.d_q_subset),
            nix.uc_insert(),
        ),
        nix.sc(),
    ));

    if let Some(budget) = profile.storage_budget_pages {
        candidates.retain(|(_, _, sc)| *sc <= budget);
        assert!(
            !candidates.is_empty(),
            "no organization fits {budget} pages"
        );
    }
    candidates.sort_by(|a, b| a.1.total_cmp(&b.1));
    let best = candidates[0];
    Recommendation {
        organization: best.0,
        expected_cost: best.1,
        storage_pages: best.2,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_picks_small_m_bssf() {
        // §6's conclusion, mechanized: the mixed-query profile at D_t = 10
        // chooses BSSF with m ≤ 3.
        let rec = advise(Params::paper(), &WorkloadProfile::paper_default());
        match rec.organization {
            Organization::Bssf { f, m } => {
                // Far below the text-retrieval optimum m_opt = F·ln2/D_t.
                let m_opt = crate::m_opt(f, 10);
                assert!(
                    (m as f64) < m_opt / 3.0,
                    "{:?} vs m_opt {m_opt}",
                    rec.organization
                );
            }
            other => panic!("expected BSSF, got {other:?}"),
        }
        assert!(rec.expected_cost > 0.0);
    }

    #[test]
    fn insert_heavy_profile_avoids_plain_bssf() {
        // 90% inserts: BSSF's F+1 is ruinous; SSF (UC_I = 2) or FSSF
        // (≈ D_t+1) must win.
        let profile = WorkloadProfile {
            superset_fraction: 0.05,
            subset_fraction: 0.05,
            insert_fraction: 0.90,
            ..WorkloadProfile::paper_default()
        };
        let rec = advise(Params::paper(), &profile);
        assert!(
            !matches!(
                rec.organization,
                Organization::Bssf { .. } | Organization::Nix
            ),
            "{:?}",
            rec.organization
        );
    }

    #[test]
    fn subset_only_profile_picks_bssf() {
        // The paper: "for the query T ⊆ Q, BSSF … overwhelms NIX".
        let profile = WorkloadProfile {
            superset_fraction: 0.0,
            subset_fraction: 1.0,
            insert_fraction: 0.0,
            ..WorkloadProfile::paper_default()
        };
        let rec = advise(Params::paper(), &profile);
        assert!(
            matches!(rec.organization, Organization::Bssf { .. }),
            "{:?}",
            rec.organization
        );
        // And NIX should rank at or near the bottom among candidates.
        let nix_cost = rec
            .candidates
            .iter()
            .find(|(o, _, _)| matches!(o, Organization::Nix))
            .unwrap()
            .1;
        assert!(nix_cost > 5.0 * rec.expected_cost);
    }

    #[test]
    fn storage_budget_filters_candidates() {
        let profile = WorkloadProfile {
            storage_budget_pages: Some(200),
            ..WorkloadProfile::paper_default()
        };
        let rec = advise(Params::paper(), &profile);
        assert!(rec.storage_pages <= 200);
        for (_, _, sc) in &rec.candidates {
            assert!(*sc <= 200);
        }
    }

    #[test]
    #[should_panic]
    fn inconsistent_fractions_rejected() {
        let profile = WorkloadProfile {
            superset_fraction: 0.9,
            subset_fraction: 0.9,
            insert_fraction: 0.9,
            ..WorkloadProfile::paper_default()
        };
        let _ = advise(Params::paper(), &profile);
    }

    #[test]
    fn candidates_are_sorted_best_first() {
        let rec = advise(Params::paper(), &WorkloadProfile::paper_default());
        for w in rec.candidates.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(rec.candidates[0].1, rec.expected_cost);
    }
}
