//! # setsig-costmodel — the analytical cost model of the paper
//!
//! A faithful transcription of every equation in Ishikawa, Kitagawa & Ohbo
//! (SIGMOD 1993): false drop probabilities (§3.2), the retrieval / storage /
//! update cost model for SSF, BSSF and NIX (§4), actual drop estimation
//! (§4.4), the smart object retrieval strategies (§5.1.3, §5.2.2) and the
//! `D_q^opt` derivation of Appendix C.
//!
//! The model is pure arithmetic — no I/O — and is what the experiment
//! harness uses to regenerate the paper's figures; the measured counterparts
//! come from running the real implementations in `setsig-core` /
//! `setsig-nix` on the accounting disk.
//!
//! Numerical care: the actual-drop probabilities involve binomial
//! coefficients like `C(13000, 100)` (≈ 10^241), far beyond `f64`; all
//! combinatorial ratios are evaluated in log space via a Lanczos `ln Γ`.
//!
//! ```
//! use setsig_costmodel::{Params, BssfModel, NixModel};
//!
//! let p = Params::paper();          // Table 2 constants
//! let bssf = BssfModel::new(p, 500, 2, 10);
//! let nix = NixModel::new(p, 10);
//! // Figure 5's headline: for D_q ≥ 2 a small-m BSSF rivals the nested
//! // index on T ⊇ Q.
//! assert!(bssf.rc_superset(3) < 2.0 * nix.rc_superset(3));
//! ```

#![warn(missing_docs)]

mod actual;
mod advisor;
mod bssf;
mod extops;
mod falsedrop;
mod fssf;
mod math;
mod nix;
mod params;
mod ssf;

pub use actual::{
    actual_drops_subset, actual_drops_superset, expected_subset_union_accesses,
    objects_sharing_all_of,
};
pub use advisor::{advise, Organization, Recommendation, WorkloadProfile};
pub use bssf::BssfModel;
pub use falsedrop::{
    expected_query_weight, expected_target_weight, fd_subset, fd_superset, fd_superset_mixture,
    fd_superset_uniform_range, m_opt,
};
pub use fssf::FssfModel;
pub use math::{binomial_ratio, ln_binomial, ln_gamma};
pub use nix::NixModel;
pub use params::Params;
pub use ssf::SsfModel;

/// The OID-file look-up cost `LC_OID` (§4.1).
///
/// With `α = A/SC_OID` actual drops per OID-file page and `F_d·(O_p − α)`
/// false drops per page, each page is visited iff it holds a candidate;
/// the expected per-page cost saturates at one access:
/// `LC_OID = SC_OID · min(F_d·(O_p − α) + α, 1)`.
pub fn lc_oid(params: &Params, fd: f64, actual: f64) -> f64 {
    let sc_oid = params.sc_oid() as f64;
    let alpha = actual / sc_oid;
    sc_oid * (fd * (params.o_p() as f64 - alpha) + alpha).min(1.0)
}

/// Object-access cost of the false drop resolution step,
/// `P_s·A + P_p·F_d·(N − A)` (Eq. 7).
pub fn object_access_cost(params: &Params, fd: f64, actual: f64) -> f64 {
    params.p_s * actual + params.p_p * fd * (params.n as f64 - actual)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lc_oid_saturates_at_full_scan() {
        let p = Params::paper();
        // Fd = 1: every OID page read once.
        assert_eq!(lc_oid(&p, 1.0, 0.0), p.sc_oid() as f64);
        // Fd = 0, no actual drops: free.
        assert_eq!(lc_oid(&p, 0.0, 0.0), 0.0);
    }

    #[test]
    fn lc_oid_counts_sparse_candidates() {
        let p = Params::paper();
        // One expected false drop in the whole file → expected pages ≈ 1.
        let fd = 1.0 / p.n as f64;
        let lc = lc_oid(&p, fd, 0.0);
        assert!((lc - 1.0).abs() < 0.05, "lc = {lc}");
    }

    #[test]
    fn object_cost_splits_actual_and_false() {
        let p = Params::paper();
        let c = object_access_cost(&p, 0.0, 7.0);
        assert_eq!(c, 7.0);
        let c = object_access_cost(&p, 1.0, 0.0);
        assert_eq!(c, p.n as f64);
    }
}
