//! The nested index (NIX) cost model (§4.3, Appendix B).
//!
//! NIX is a B-tree whose leaf entries pair a set-element key with the list
//! of OIDs of all objects whose indexed set attribute contains that element
//! (Bertino & Kim's nested index, specialized to one path level). The model
//! follows §4.3 with the Table 4 parameters.

use crate::actual::{
    actual_drops_subset, actual_drops_superset, expected_subset_union_accesses,
    objects_sharing_all_of,
};
use crate::params::Params;

/// Analytical model of a nested index over targets of cardinality `D_t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NixModel {
    /// Database constants.
    pub params: Params,
    /// Target set cardinality `D_t`.
    pub d_t: u32,
    /// Key size `kl` in bytes (Table 4: 8).
    pub kl: u64,
    /// OID-count field size `mid` in bytes (Table 4: 2).
    pub mid: u64,
    /// Average non-leaf fanout `f` (Table 4: 218).
    pub fanout: u64,
}

impl NixModel {
    /// Creates the model with the paper's Table 4 constants.
    pub fn new(params: Params, d_t: u32) -> Self {
        NixModel {
            params,
            d_t,
            kl: 8,
            mid: 2,
            fanout: 218,
        }
    }

    /// Average objects per key `d = D_t·N/V`: how many objects' sets
    /// contain a given element (each object draws `D_t` of the `V` values).
    pub fn d(&self) -> f64 {
        self.d_t as f64 * self.params.n as f64 / self.params.v as f64
    }

    /// Average leaf entry size `il = d·oid + kl + mid` bytes.
    pub fn il(&self) -> f64 {
        self.d() * self.params.oid as f64 + (self.kl + self.mid) as f64
    }

    /// Leaf entries per page `⌊P/il⌋`.
    pub fn leaf_entries_per_page(&self) -> u64 {
        ((self.params.p as f64 / self.il()).floor() as u64).max(1)
    }

    /// Number of leaf pages `lp = ⌈V / ⌊P/il⌋⌉` (assuming every domain
    /// value has at least one referencing object).
    pub fn lp(&self) -> u64 {
        self.params.v.div_ceil(self.leaf_entries_per_page())
    }

    /// Pages of each non-leaf level, the one above the leaves first, the
    /// root (one page) last: levels of `⌈·/f⌉` until a single root — one
    /// root page even above a single leaf.
    fn non_leaf_levels(&self) -> Vec<u64> {
        let mut levels = vec![];
        let mut level = self.lp();
        while level > 1 {
            level = level.div_ceil(self.fanout);
            levels.push(level);
        }
        if levels.is_empty() {
            levels.push(1);
        }
        levels
    }

    /// Number of non-leaf pages.
    pub fn nlp(&self) -> u64 {
        self.non_leaf_levels().iter().sum()
    }

    /// Number of non-leaf levels (the height above the leaves).
    pub fn height(&self) -> u32 {
        self.non_leaf_levels().len() as u32
    }

    /// Leaf pages one entry spans: 1 unless `il > P`.
    fn leaf_pages_per_entry(&self) -> f64 {
        (self.il() / self.params.p as f64).ceil().max(1.0)
    }

    /// Per-element look-up cost `rc` = non-leaf levels + leaf page(s)
    /// (paper: `rc = 2 + 1 = 3` for both `D_t` values).
    pub fn rc_lookup(&self) -> f64 {
        self.height() as f64 + self.leaf_pages_per_entry()
    }

    /// Pages `k` look-ups of distinct, uniformly drawn keys read when one
    /// sorted descent serves them all and reads each page once: on every
    /// level of `b` pages, the `b·(1 − (1 − 1/b)^k)` distinct pages `k`
    /// uniform picks hit (Cardenas's closed form of Yao's block-access
    /// estimate), summed over the root, the other non-leaf levels and the
    /// `lp` leaves. One key costs [`rc_lookup`](NixModel::rc_lookup); `k`
    /// keys never more than `rc·k`, nor more pages than the index holds.
    /// The paper prices each look-up alone (`rc·D_q`).
    pub fn rc_lookup_many(&self, k: u32) -> f64 {
        let touched = |b: u64| {
            let b = b as f64;
            b * (1.0 - (1.0 - 1.0 / b).powf(f64::from(k)))
        };
        let non_leaf: f64 = self.non_leaf_levels().into_iter().map(touched).sum();
        non_leaf + self.leaf_pages_per_entry() * touched(self.lp())
    }

    /// Retrieval cost for `T ⊇ Q` (§4.3): `RC = rc·D_q + P_s·A` — the
    /// OID-list intersection is exact, so only the `A` qualifying objects
    /// are fetched.
    pub fn rc_superset(&self, d_q: u32) -> f64 {
        let a = actual_drops_superset(&self.params, self.d_t, d_q);
        self.rc_lookup() * d_q as f64 + self.params.p_s * a
    }

    /// Retrieval cost for `T ⊆ Q` (§4.3, Appendix B): after `D_q` look-ups
    /// and a union, every object sharing ≥ 1 element with `Q` is fetched;
    /// those sharing some-but-not-all fail verification:
    /// `RC = rc·D_q + P_p·N·Σ_{j=1}^{D_t−1}(C(D_q,j)·C(V−D_q,D_t−j))/C(V,D_t)
    ///      + P_s·A`.
    pub fn rc_subset(&self, d_q: u32) -> f64 {
        let fail = expected_subset_union_accesses(&self.params, self.d_t, d_q);
        let a = actual_drops_subset(&self.params, self.d_t, d_q);
        self.rc_lookup() * d_q as f64 + self.params.p_p * fail + self.params.p_s * a
    }

    /// Retrieval cost for `T ⊆ Q` as the engine's NIX runs it: each posting
    /// carries `|T|`, so an object is a candidate only when the union meets
    /// it `|T|` times and only the `A` answers are fetched; and the `D_q`
    /// look-ups share one sorted descent, which reads each page once:
    /// `RC = rc_many(D_q) + P_s·A` ([`rc_lookup_many`]). [`rc_subset`] is
    /// the paper's form.
    ///
    /// [`rc_lookup_many`]: NixModel::rc_lookup_many
    /// [`rc_subset`]: NixModel::rc_subset
    pub fn rc_subset_counting(&self, d_q: u32) -> f64 {
        let a = actual_drops_subset(&self.params, self.d_t, d_q);
        self.rc_lookup_many(d_q) + self.params.p_s * a
    }

    /// The §5.1.3 smart strategy for `T ⊇ Q`: for `D_q > j_cap`, look up
    /// only `j_cap` elements, intersect, and resolve the candidates against
    /// the full predicate:
    /// `RC = rc·j + P_p·(E[∩ of j lists] − A) + P_s·A`.
    pub fn rc_superset_smart(&self, d_q: u32, j_cap: u32) -> f64 {
        let j = d_q.min(j_cap.max(1));
        if j == d_q {
            return self.rc_superset(d_q);
        }
        let candidates = objects_sharing_all_of(&self.params, self.d_t, j);
        let a = actual_drops_superset(&self.params, self.d_t, d_q);
        self.rc_lookup() * j as f64
            + self.params.p_p * (candidates - a).max(0.0)
            + self.params.p_s * a
    }

    /// Storage cost `SC = lp + nlp` (Table 5).
    pub fn sc(&self) -> u64 {
        self.lp() + self.nlp()
    }

    /// Insertion cost `UC_I = rc·D_t` (one index maintenance per element;
    /// node splits ignored, as §4.3 assumes).
    pub fn uc_insert(&self) -> f64 {
        self.rc_lookup() * self.d_t as f64
    }

    /// Deletion cost `UC_D = rc·D_t`.
    pub fn uc_delete(&self) -> f64 {
        self.rc_lookup() * self.d_t as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_storage_costs() {
        let p = Params::paper();
        let m10 = NixModel::new(p, 10);
        assert_eq!(m10.lp(), 685);
        assert_eq!(m10.nlp(), 5);
        assert_eq!(m10.sc(), 690);
        let m100 = NixModel::new(p, 100);
        assert_eq!(m100.lp(), 6500);
        assert_eq!(m100.nlp(), 31);
        assert_eq!(m100.sc(), 6531);
    }

    #[test]
    fn lookup_cost_is_three_pages() {
        let p = Params::paper();
        assert_eq!(NixModel::new(p, 10).rc_lookup(), 3.0);
        assert_eq!(NixModel::new(p, 100).rc_lookup(), 3.0);
        assert_eq!(NixModel::new(p, 10).height(), 2);
    }

    #[test]
    fn superset_cost_is_linear_in_d_q() {
        let m = NixModel::new(Params::paper(), 10);
        // A is tiny for D_q ≥ 2, so RC ≈ 3·D_q.
        let rc2 = m.rc_superset(2);
        let rc7 = m.rc_superset(7);
        assert!((rc2 - 6.0).abs() < 0.2, "rc2 = {rc2}");
        assert!((rc7 - 21.0).abs() < 0.1, "rc7 = {rc7}");
        // D_q = 1 additionally fetches d ≈ 24.6 qualifying objects.
        let rc1 = m.rc_superset(1);
        assert!((rc1 - (3.0 + 24.6)).abs() < 0.2, "rc1 = {rc1}");
    }

    #[test]
    fn smart_superset_caps_lookups_but_pays_candidates() {
        let m = NixModel::new(Params::paper(), 10);
        // For D_q = 7 with cap 2: 2 look-ups + E[pairwise intersection]
        // ≈ 0.017 objects ≈ 6 pages total.
        let smart = m.rc_superset_smart(7, 2);
        assert!(smart < m.rc_superset(7));
        assert!((smart - 6.0).abs() < 0.2, "smart = {smart}");
        // Below the cap the plain cost applies.
        assert_eq!(m.rc_superset_smart(1, 2), m.rc_superset(1));
        assert_eq!(m.rc_superset_smart(2, 2), m.rc_superset(2));
    }

    #[test]
    fn subset_cost_grows_toward_n() {
        let m = NixModel::new(Params::paper(), 10);
        let rc10 = m.rc_subset(10);
        let rc100 = m.rc_subset(100);
        let rc1000 = m.rc_subset(1000);
        assert!(rc10 < rc100 && rc100 < rc1000);
        // §5.2: even small D_q is expensive because the union fetches every
        // overlapping object (≈ N·(1−(1−D_q/V)^{D_t}) objects).
        assert!(rc100 > 2000.0, "rc100 = {rc100}");
        assert!(rc1000 > 17000.0, "rc1000 = {rc1000}");
    }

    #[test]
    fn counting_subset_cost_is_the_shared_descent_plus_the_answers() {
        let m = NixModel::new(Params::paper(), 10);
        // A ≈ 10^-18 at D_q = 100: the descent is the whole cost — the root,
        // all 4 pages of the level below it (`1 − (3/4)^100 ≈ 1`) and 93 of
        // the 685 leaves, where the paper's separate look-ups read 300.
        let descent = m.rc_lookup_many(100);
        assert!((m.rc_subset_counting(100) - descent).abs() < 1e-6);
        let leaves = 685.0 * (1.0 - (684.0f64 / 685.0).powi(100));
        assert!((descent - (1.0 + 4.0 + leaves)).abs() < 1e-9, "{descent}");
        assert!((descent - 98.1).abs() < 0.05, "{descent}");
        for d_q in [10, 100, 1000, 5000] {
            let saved = m.rc_lookup() * f64::from(d_q) - m.rc_lookup_many(d_q);
            let fetched = m.rc_subset(d_q) - m.rc_subset_counting(d_q) - saved;
            let fails = m.params.p_p * expected_subset_union_accesses(&m.params, 10, d_q);
            assert!(
                (fetched - fails).abs() < 1e-6 * fails.max(1.0),
                "D_q = {d_q}"
            );
        }
    }

    #[test]
    fn a_shared_descent_costs_rc_for_one_key_and_never_more_than_the_index() {
        let p = Params::paper();
        for d_t in [10, 100] {
            let m = NixModel::new(p, d_t);
            assert_eq!(m.rc_lookup_many(0), 0.0);
            assert!(
                (m.rc_lookup_many(1) - m.rc_lookup()).abs() < 1e-9,
                "D_t = {d_t}"
            );
            let mut last = 0.0;
            for k in [1, 2, 5, 10, 50, 100, 1_000, 13_000, 100_000] {
                let pages = m.rc_lookup_many(k);
                assert!(pages > last, "D_t = {d_t}: monotone in k, k = {k}");
                assert!(
                    pages <= m.rc_lookup() * f64::from(k) + 1e-9,
                    "≤ rc·k at k = {k}"
                );
                assert!(
                    pages <= m.sc() as f64 + 1e-9,
                    "≤ the index's pages at k = {k}"
                );
                last = pages;
            }
            // Past a few keys per leaf, nearly every page is read once.
            assert!(m.sc() as f64 - last < 1.0, "D_t = {d_t}: {last}");
        }
        // A single leaf still has a root above it.
        let tiny = NixModel::new(Params::scaled(10, 10), 10);
        assert_eq!((tiny.lp(), tiny.nlp(), tiny.height()), (1, 1, 1));
        assert!((tiny.rc_lookup_many(5) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn update_costs_table7() {
        let p = Params::paper();
        assert_eq!(NixModel::new(p, 10).uc_insert(), 30.0);
        assert_eq!(NixModel::new(p, 10).uc_delete(), 30.0);
        assert_eq!(NixModel::new(p, 100).uc_insert(), 300.0);
    }

    #[test]
    fn d_and_il_match_paper_derivation() {
        let m = NixModel::new(Params::paper(), 10);
        assert!((m.d() - 24.615).abs() < 0.01);
        assert!((m.il() - 206.9).abs() < 0.5);
        assert_eq!(m.leaf_entries_per_page(), 19);
    }
}
