//! Cost models for the §6 "other set operations" (extension): equality,
//! overlap and membership, derived with the paper's machinery.

use crate::actual::objects_sharing_all_of;
use crate::bssf::BssfModel;
use crate::math::ln_binomial;
use crate::nix::NixModel;
use crate::{lc_oid, object_access_cost};

impl BssfModel {
    /// False-drop probability of the overlap filter, which admits a row
    /// sharing at least `m` one-bits with the query signature (the weight
    /// of one element's signature): a disjoint target passes iff at least
    /// `m` of the query's `m·D_q` bit draws land on its ones, each with the
    /// ones-fraction `φ = 1 − e^{−m·D_t/F}` of Eq. (2) —
    /// `F_d = P(Bin(m·D_q, φ) ≥ m)`.
    pub fn fd_overlap(&self, d_q: u32) -> f64 {
        let phi = 1.0 - (-f64::from(self.m) * f64::from(self.d_t) / f64::from(self.f)).exp();
        let draws = u64::from(self.m) * u64::from(d_q);
        let below: f64 = (0..u64::from(self.m).min(draws + 1))
            .map(|i| {
                (ln_binomial(draws, i)
                    + i as f64 * phi.ln()
                    + (draws - i) as f64 * (1.0 - phi).ln())
                .exp()
            })
            .sum();
        (1.0 - below).max(0.0)
    }

    /// Expected number of targets truly overlapping a `D_q`-element query:
    /// `A = N·(1 − C(V−D_q, D_t)/C(V, D_t))`.
    pub fn actual_overlaps(&self, d_q: u32) -> f64 {
        let ln = ln_binomial(self.params.v.saturating_sub(d_q as u64), self.d_t as u64)
            - ln_binomial(self.params.v, self.d_t as u64);
        self.params.n as f64 * (1.0 - ln.exp())
    }

    /// Retrieval cost of the overlap operator on BSSF: read the `m_s`
    /// 1-slices and count per row, then the usual look-up/resolution.
    pub fn rc_overlap(&self, d_q: u32) -> f64 {
        let fd = self.fd_overlap(d_q);
        let a = self.actual_overlaps(d_q);
        self.slice_pages() as f64 * self.m_s(d_q)
            + lc_oid(&self.params, fd, a)
            + object_access_cost(&self.params, fd, a)
    }

    /// Retrieval cost of set equality on BSSF: both bit polarities must be
    /// checked, so **all `F` slices** are read; the false-drop probability
    /// is bounded by the tighter of the two inclusion filters.
    pub fn rc_equality(&self, d_q: u32) -> f64 {
        let fd = crate::falsedrop::fd_superset(self.f, self.m, self.d_t, d_q)
            .min(crate::falsedrop::fd_subset(self.f, self.m, self.d_t, d_q));
        // A target equals the query only if it IS the query set.
        let a = self.params.n as f64
            * if d_q == self.d_t {
                (-ln_binomial(self.params.v, self.d_t as u64)).exp()
            } else {
                0.0
            };
        self.slice_pages() as f64 * self.f as f64
            + lc_oid(&self.params, fd, a)
            + object_access_cost(&self.params, fd, a)
    }
}

impl NixModel {
    /// Retrieval cost of the overlap operator on NIX: union the `D_q`
    /// posting lists — exact, every member fetched as an answer.
    pub fn rc_overlap(&self, d_q: u32) -> f64 {
        let ln = ln_binomial(self.params.v.saturating_sub(d_q as u64), self.d_t as u64)
            - ln_binomial(self.params.v, self.d_t as u64);
        let a = self.params.n as f64 * (1.0 - ln.exp());
        self.rc_lookup() * d_q as f64 + self.params.p_s * a
    }

    /// Retrieval cost of set equality on NIX: intersect the `D_q` posting
    /// lists (like ⊇), then verify candidates — strict supersets of the
    /// query are false drops that must be fetched and rejected.
    pub fn rc_equality(&self, d_q: u32) -> f64 {
        let candidates = objects_sharing_all_of(&self.params, self.d_t, d_q);
        self.rc_lookup() * d_q as f64 + self.params.p_p * candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Params;

    fn bssf() -> BssfModel {
        BssfModel::new(Params::paper(), 500, 2, 10)
    }

    #[test]
    fn overlap_actuals_grow_with_d_q() {
        let m = bssf();
        // One query element overlaps d ≈ 24.6 targets.
        let a1 = m.actual_overlaps(1);
        assert!((a1 - 24.6).abs() < 0.2, "a1 = {a1}");
        assert!(m.actual_overlaps(10) > a1);
        assert!(m.actual_overlaps(10) < 10.0 * a1, "inclusion-exclusion");
    }

    #[test]
    fn overlap_cost_dominated_by_drops() {
        let m = bssf();
        // Overlap pays its answers plus the false drops and OID look-up:
        // RC ≈ m_s + LC_OID + A + F_d·N ≈ 6 + 63 + 74 + 653 ≈ 796.
        let rc = m.rc_overlap(3);
        let a = m.actual_overlaps(3);
        assert!(rc > a + 600.0 && rc < a + 800.0, "rc = {rc}, a = {a}");
        // NIX pays rc·D_q + A — cheaper filter, same answers.
        let nix = NixModel::new(Params::paper(), 10);
        assert!(nix.rc_overlap(3) < rc);
    }

    #[test]
    fn equality_reads_all_slices_on_bssf() {
        let m = bssf();
        let rc = m.rc_equality(10);
        assert!(rc >= 500.0, "rc = {rc}");
        assert!(rc < 520.0, "fd for equality is tiny: rc = {rc}");
        // NIX equality: 10 look-ups + the ≈0 candidates sharing all 10.
        let nix = NixModel::new(Params::paper(), 10);
        let rc = nix.rc_equality(10);
        assert!((rc - 30.0).abs() < 1.0, "rc = {rc}");
    }

    #[test]
    fn fd_overlap_bounds() {
        let m = bssf();
        let f1 = m.fd_overlap(1);
        let f10 = m.fd_overlap(10);
        // One element: both of its m = 2 bits must be covered — Eq. (2).
        let eq2 = crate::falsedrop::fd_superset(500, 2, 10, 1);
        assert!((f1 - eq2).abs() < 1e-12, "f1 = {f1}, Eq. 2 = {eq2}");
        // Ten elements: any 2 of the 20 draws, at most C(20, 2) ways.
        assert!(f10 > f1 && f10 < 190.0 * f1 && f10 < 1.0);
    }
}
