//! The BSSF cost model (§4.2, §5.1.2–§5.2.2, Appendix C).

use crate::actual::{actual_drops_subset, actual_drops_superset};
use crate::falsedrop::{expected_query_weight, fd_subset, fd_superset};
use crate::params::Params;
use crate::{lc_oid, object_access_cost};

/// Analytical model of a bit-sliced signature file with design parameters
/// `(F, m)` over targets of cardinality `D_t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BssfModel {
    /// Database constants.
    pub params: Params,
    /// Signature width `F` in bits (= number of slice files).
    pub f: u32,
    /// Element signature weight `m`.
    pub m: u32,
    /// Target set cardinality `D_t`.
    pub d_t: u32,
}

impl BssfModel {
    /// Creates the model.
    pub fn new(params: Params, f: u32, m: u32, d_t: u32) -> Self {
        BssfModel { params, f, m, d_t }
    }

    /// Pages per slice file: `⌈N/(P·b)⌉` (= 1 for the paper's parameters).
    pub fn slice_pages(&self) -> u64 {
        self.params.slice_pages()
    }

    /// Expected query signature weight `m_s` for a query of cardinality
    /// `d_q` — the number of slice files a `T ⊇ Q` retrieval reads.
    pub fn m_s(&self, d_q: u32) -> f64 {
        expected_query_weight(self.f, self.m, d_q)
    }

    /// Retrieval cost for `T ⊇ Q` — Eq. (8):
    /// `RC = ⌈N/(P·b)⌉·m_s + LC_OID + P_s·A + P_p·F_d·(N−A)`.
    pub fn rc_superset(&self, d_q: u32) -> f64 {
        let fd = fd_superset(self.f, self.m, self.d_t, d_q);
        let a = actual_drops_superset(&self.params, self.d_t, d_q);
        self.slice_pages() as f64 * self.m_s(d_q)
            + lc_oid(&self.params, fd, a)
            + object_access_cost(&self.params, fd, a)
    }

    /// Retrieval cost for `T ⊆ Q` — Eq. (8):
    /// `RC = ⌈N/(P·b)⌉·(F − m_s) + LC_OID + P_s·A + P_p·F_d·(N−A)`.
    pub fn rc_subset(&self, d_q: u32) -> f64 {
        let fd = fd_subset(self.f, self.m, self.d_t, d_q);
        let a = actual_drops_subset(&self.params, self.d_t, d_q);
        self.slice_pages() as f64 * (self.f as f64 - self.m_s(d_q))
            + lc_oid(&self.params, fd, a)
            + object_access_cost(&self.params, fd, a)
    }

    /// The §5.1.3 smart strategy for `T ⊇ Q`: form the query signature from
    /// at most `j_cap` query elements, so for `D_q ≥ j_cap` the cost is the
    /// constant `rc_superset(j_cap)` (with drop resolution still enforcing
    /// the full predicate — the fetched-object count is that of the reduced
    /// query, which is exactly what `rc_superset(j_cap)` prices).
    pub fn rc_superset_smart(&self, d_q: u32, j_cap: u32) -> f64 {
        self.rc_superset(d_q.min(j_cap.max(1)))
    }

    /// The element cap `j*` minimizing [`rc_superset`](Self::rc_superset) —
    /// the generalization of the paper's fixed `j = 2` (optimal for
    /// `m = 2`, `F = 500`, `D_t = 10`; other regimes may prefer 1–3 more
    /// look-ups).
    pub fn best_superset_cap(&self, d_q_max: u32) -> u32 {
        (1..=d_q_max.max(1))
            .min_by(|&a, &b| self.rc_superset(a).total_cmp(&self.rc_superset(b)))
            .unwrap_or(1)
    }

    /// Appendix C: the query cardinality `D_q^opt` minimizing `rc_subset`,
    /// or `None` where the instance has no interior optimum.
    ///
    /// Approximating `RC ≈ S·(F − m_s) + F_d·(SC_OID·O_p + P_p·N)` with
    /// `x = 1 − e^{−m·D_q/F}` (the ones-fraction), setting `dRC/dD_q = 0`
    /// gives `x* = (S·F / (C·m·D_t))^{1/(m·D_t − 1)}` and
    /// `D_q^opt = −(F/m)·ln(1 − x*)`. That needs `m·D_t > 1` and
    /// `x* ∈ [0, 1)`: an empty instance (`N = 0`), `m·D_t ≤ 1`, or one whose
    /// slice reads outweigh its false drops (`S·F > C·m·D_t`, e.g. `N = 1`,
    /// `F = 4096`, `m = 1`, `D_t = 2`) has none.
    pub fn d_q_opt(&self) -> Option<f64> {
        let s = self.slice_pages() as f64;
        let c = (self.params.sc_oid() * self.params.o_p()) as f64
            + self.params.p_p * self.params.n as f64;
        let m = self.m as f64;
        let f = self.f as f64;
        let m_d_t = m * self.d_t as f64;
        if m_d_t <= 1.0 {
            return None;
        }
        let x = (s * f / (c * m_d_t)).powf(1.0 / (m_d_t - 1.0));
        (0.0..1.0).contains(&x).then(|| -(f / m) * (1.0 - x).ln())
    }

    /// The §5.2.2 slice budget: `(D_q^opt, F − m_s(D_q^opt))`, with
    /// `D_q^opt` rounded to a query cardinality ≥ 1 and the budget to a
    /// slice count in `[1, F]`; `None` where [`d_q_opt`](Self::d_q_opt) is
    /// none, or for a geometry no signature file has (`F = 0`, `m > F`).
    pub fn subset_budget(&self) -> Option<(u32, u32)> {
        if self.f == 0 || self.m > self.f {
            return None;
        }
        // `m_s` raises to an `i32` power; past that the budget is 1 anyway.
        let opt = self.d_q_opt()?.round().clamp(1.0, f64::from(i32::MAX)) as u32;
        let budget = (f64::from(self.f) - self.m_s(opt)).round().max(1.0) as u32;
        Some((opt, budget))
    }

    /// The §5.2.2 plan for a `T ⊆ Q` query of cardinality `d_q`: read at
    /// most the slice budget of [`subset_budget`](Self::subset_budget) of
    /// its zero-slices when `d_q < D_q^opt`; `None` — read all `F − m_q` —
    /// otherwise, or where the instance has no budget. Any cap is in
    /// `[1, F]`.
    pub fn subset_cap(&self, d_q: u32) -> Option<u32> {
        let (opt, budget) = self.subset_budget()?;
        (d_q < opt).then_some(budget)
    }

    /// The §5.2.2 smart strategy for `T ⊆ Q`: for `D_q ≤ D_q^opt`, read
    /// only the `F − m_s(D_q^opt)` most useful zero-slices, making the cost
    /// the constant `rc_subset(D_q^opt)`; beyond `D_q^opt`, or without one,
    /// behave normally.
    pub fn rc_subset_smart(&self, d_q: u32) -> f64 {
        let opt = self.subset_budget().map_or(0, |(opt, _)| opt);
        self.rc_subset(d_q.max(opt))
    }

    /// Storage cost `SC = ⌈N/(P·b)⌉·F + SC_OID`.
    pub fn sc(&self) -> u64 {
        self.slice_pages() * self.f as u64 + self.params.sc_oid()
    }

    /// Insertion cost `UC_I = F + 1` — the paper's worst case (Table 7):
    /// every slice file plus the OID file. The engine runs
    /// [`uc_insert_sparse`](Self::uc_insert_sparse).
    pub fn uc_insert(&self) -> f64 {
        self.f as f64 + 1.0
    }

    /// Insertion cost of the engine's writer, which touches only the slices
    /// whose bit is 1 (the improvement §6 anticipates): `m_t + 1` writes in
    /// expectation, `weight(signature) + 1` for one given set.
    pub fn uc_insert_sparse(&self) -> f64 {
        crate::falsedrop::expected_target_weight(self.f, self.m, self.d_t) + 1.0
    }

    /// Deletion cost `UC_D = SC_OID/2` (same tombstone scan as SSF).
    pub fn uc_delete(&self) -> f64 {
        self.params.sc_oid() as f64 / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(f: u32, m: u32, d_t: u32) -> BssfModel {
        BssfModel::new(Params::paper(), f, m, d_t)
    }

    #[test]
    fn storage_matches_paper() {
        // D_t = 10: F = 250 → 313, F = 500 → 563.
        assert_eq!(model(250, 2, 10).sc(), 313);
        assert_eq!(model(500, 2, 10).sc(), 563);
        // D_t = 100: F = 1000 → 1063, F = 2500 → 2563 (16% / 38% of NIX's
        // 6531, as §6 reports).
        assert_eq!(model(1000, 3, 100).sc(), 1063);
        assert_eq!(model(2500, 3, 100).sc(), 2563);
    }

    #[test]
    fn superset_cost_grows_with_d_q_at_m_opt() {
        // §5.1.1: with m = m_opt, Fd ≈ 0 but m_s grows with D_q, so the
        // slice-read term makes BSSF increasingly expensive.
        let m = model(500, 35, 10);
        let rc1 = m.rc_superset(1);
        let rc5 = m.rc_superset(5);
        let rc10 = m.rc_superset(10);
        assert!(rc1 < rc5 && rc5 < rc10);
        // D_q = 1: 35 slice reads + LC_OID(≈A) + P_s·A with A ≈ 24.6,
        // ≈ 84 pages.
        assert!((rc1 - 84.2).abs() < 3.0, "rc1 = {rc1}");
    }

    #[test]
    fn small_m_beats_m_opt_for_superset_total_cost() {
        // §5.1.2's central claim.
        let opt = model(500, 35, 10);
        let small = model(500, 2, 10);
        for d_q in 2..=10 {
            assert!(
                small.rc_superset(d_q) < opt.rc_superset(d_q),
                "d_q = {d_q}: small {} vs opt {}",
                small.rc_superset(d_q),
                opt.rc_superset(d_q)
            );
        }
    }

    #[test]
    fn too_small_m_blows_up_on_false_drops() {
        // §5.1.2: "if m becomes too small the total cost increases
        // drastically" — m = 1 at D_q = 1 admits many false drops.
        let m1 = model(500, 1, 10);
        let m2 = model(500, 2, 10);
        assert!(m1.rc_superset(1) > m2.rc_superset(1));
    }

    #[test]
    fn smart_superset_is_constant_beyond_cap() {
        let m = model(500, 2, 10);
        let at_cap = m.rc_superset_smart(2, 2);
        for d_q in 3..=10 {
            assert_eq!(m.rc_superset_smart(d_q, 2), at_cap);
        }
        // And never worse than the plain strategy.
        for d_q in 1..=10 {
            assert!(m.rc_superset_smart(d_q, 2) <= m.rc_superset(d_q) + 1e-9);
        }
    }

    #[test]
    fn best_cap_is_two_for_papers_figure5_setting() {
        let m = model(500, 2, 10);
        assert_eq!(m.best_superset_cap(10), 2);
    }

    #[test]
    fn subset_cost_has_interior_minimum() {
        // §5.2.2: RC(D_q) for T ⊆ Q first falls (fewer zero-slices) then
        // rises (false drops), with the minimum near D_q^opt ≈ 300.
        let m = model(500, 2, 10);
        let opt = m.d_q_opt().unwrap();
        assert!(opt > 150.0 && opt < 450.0, "d_q_opt = {opt}");
        let rc_small = m.rc_subset(20);
        let rc_opt = m.rc_subset(opt.round() as u32);
        let rc_big = m.rc_subset(5000);
        assert!(rc_opt < rc_small, "opt {rc_opt} vs small {rc_small}");
        assert!(rc_opt < rc_big, "opt {rc_opt} vs big {rc_big}");
        // Numerically confirm it's a near-minimizer over a grid.
        let grid_min = (1..=40)
            .map(|i| m.rc_subset(i * 25))
            .fold(f64::INFINITY, f64::min);
        assert!(
            rc_opt < grid_min * 1.1,
            "rc_opt = {rc_opt}, grid = {grid_min}"
        );
    }

    #[test]
    fn smart_subset_is_constant_below_opt_and_never_worse() {
        let m = model(500, 2, 10);
        let opt = m.d_q_opt().unwrap().round() as u32;
        let floor = m.rc_subset(opt);
        for d_q in [10u32, 50, 100, 200] {
            if d_q <= opt {
                assert_eq!(m.rc_subset_smart(d_q), floor);
                assert!(m.rc_subset_smart(d_q) <= m.rc_subset(d_q) + 1e-9);
            }
        }
        // Above the optimum the plain cost applies.
        assert_eq!(m.rc_subset_smart(opt + 500), m.rc_subset(opt + 500));
    }

    #[test]
    fn the_subset_cap_is_appendix_cs_budget_below_d_q_opt() {
        let m = model(500, 2, 10);
        let (opt, budget) = m.subset_budget().unwrap();
        assert_eq!((opt, budget), (271, 169));
        for d_q in [0, 1, 50, 270] {
            assert_eq!(m.subset_cap(d_q), Some(169), "d_q = {d_q}");
        }
        for d_q in [271, 1000] {
            assert_eq!(m.subset_cap(d_q), None, "d_q = {d_q}");
        }
    }

    #[test]
    fn an_instance_without_an_optimum_plans_nothing() {
        let at =
            |n: u64, f: u32, m: u32, d_t: u32| BssfModel::new(Params::scaled(n, 13_000), f, m, d_t);
        for (what, model) in [
            ("N = 0", at(0, 500, 2, 10)),
            ("D_t = 0", at(32_000, 500, 2, 0)),
            ("m·D_t = 1", at(32_000, 500, 1, 1)),
            ("S·F > C·m·D_t", at(1, 4096, 1, 2)),
            ("F = 0", at(32_000, 0, 2, 10)),
            ("m > F", at(32_000, 4, 8, 10)),
        ] {
            assert_eq!(model.subset_budget(), None, "{what}");
            assert_eq!(model.subset_cap(1), None, "{what}");
            let plain = model.rc_subset(5).to_bits();
            assert_eq!(model.rc_subset_smart(5).to_bits(), plain, "{what}");
        }
    }

    #[test]
    fn subset_beats_ssf_everywhere_in_figure8() {
        // §5.2.1: "For all D_q values, Figure 8 shows superiority of BSSF
        // over the corresponding SSF."
        let bssf = model(500, 2, 10);
        let ssf = crate::SsfModel::new(Params::paper(), 500, 2, 10);
        for d_q in [10u32, 30, 100, 300, 1000] {
            assert!(bssf.rc_subset(d_q) < ssf.rc_subset(d_q), "d_q = {d_q}");
        }
    }

    #[test]
    fn update_costs_match_table7() {
        let m = model(500, 2, 10);
        assert_eq!(m.uc_insert(), 501.0);
        assert_eq!(m.uc_delete(), 31.5);
        // m_t(500, 2, 10) ≈ 19.6 set bits → ≈ 20.6 writes, far below F+1.
        assert!((m.uc_insert_sparse() - 20.6).abs() < 1.0);
        let m = model(2500, 3, 100);
        assert_eq!(m.uc_insert(), 2501.0);
    }
}
