//! Property tests on the analytical model: probabilities stay in range,
//! monotonicity claims from the paper hold across the parameter space, and
//! log-space combinatorics agree with exact arithmetic where exact
//! arithmetic is possible.

use proptest::prelude::*;
use setsig_costmodel::{
    actual_drops_subset, actual_drops_superset, expected_query_weight, fd_subset, fd_superset,
    ln_binomial, BssfModel, NixModel, Params, SsfModel,
};

fn exact_binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    let mut acc = 1.0f64;
    for i in 0..k {
        acc *= (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

proptest! {
    /// ln C(n, k) agrees with exact multiplication for moderate inputs.
    #[test]
    fn ln_binomial_matches_exact(n in 1u64..400, k in 0u64..400) {
        let exact = exact_binomial(n, k);
        let ln = ln_binomial(n, k);
        if k > n {
            prop_assert_eq!(ln, f64::NEG_INFINITY);
        } else {
            let got = ln.exp();
            prop_assert!(
                (got - exact).abs() / exact.max(1.0) < 1e-9,
                "C({n},{k}): got {got}, exact {exact}"
            );
        }
    }

    /// False drop probabilities are probabilities, and Eq. (2) is
    /// monotone: more query elements can only shrink it; bigger targets
    /// can only grow it.
    #[test]
    fn fd_superset_bounds_and_monotonicity(
        f_exp in 5u32..12,
        m in 1u32..8,
        d_t in 1u32..200,
        d_q in 1u32..50,
    ) {
        let f = 1 << f_exp;
        let fd = fd_superset(f, m, d_t, d_q);
        prop_assert!((0.0..=1.0).contains(&fd), "fd = {fd}");
        prop_assert!(fd_superset(f, m, d_t, d_q + 1) <= fd + 1e-12);
        prop_assert!(fd_superset(f, m, d_t + 1, d_q) >= fd - 1e-12);
        // Duality with Eq. (6).
        let dual = fd_subset(f, m, d_q, d_t);
        prop_assert!((fd - dual).abs() < 1e-12);
    }

    /// Expected signature weights stay within (0, F] and increase with
    /// cardinality.
    #[test]
    fn query_weight_bounds(f_exp in 5u32..12, m in 1u32..8, d_q in 1u32..500) {
        let f = 1 << f_exp;
        let m = m.min(f);
        let w = expected_query_weight(f, m, d_q);
        prop_assert!(w > 0.0 && w <= f as f64);
        prop_assert!(expected_query_weight(f, m, d_q + 1) >= w);
    }

    /// Actual drops are between 0 and N, and ⊇ drops shrink as the query
    /// grows.
    #[test]
    fn actual_drops_sane(d_t in 1u32..200, d_q in 1u32..200) {
        let p = Params::paper();
        let a_sup = actual_drops_superset(&p, d_t, d_q);
        prop_assert!((0.0..=p.n as f64).contains(&a_sup));
        prop_assert!(actual_drops_superset(&p, d_t, d_q + 1) <= a_sup + 1e-9);
        let a_sub = actual_drops_subset(&p, d_t, d_q);
        prop_assert!((0.0..=p.n as f64).contains(&a_sub));
    }

    /// The `T ⊆ Q` planner is total: any instance — empty, tiny, with
    /// `m·D_t ≤ 1` or `m > F`, or with no interior optimum — plans a cap in
    /// `[1, F]` or none, and never panics; a cap comes only below
    /// `D_q^opt`, and is the instance's slice budget.
    #[test]
    fn the_subset_cap_is_total_and_within_f(
        n in 0u64..1_000_000,
        f in 1u32..8_192,
        m in 0u32..80,
        d_t in 0u32..400,
        d_q in 0u32..u32::MAX,
    ) {
        let bssf = BssfModel::new(Params { n, ..Params::paper() }, f, m, d_t);
        let budget = bssf.subset_budget();
        match bssf.subset_cap(d_q) {
            Some(cap) => {
                prop_assert!((1..=f).contains(&cap), "cap = {cap}");
                prop_assert!(matches!(budget, Some((opt, b)) if d_q < opt && b == cap));
            }
            None => prop_assert!(!matches!(budget, Some((opt, _)) if d_q < opt)),
        }
    }

    /// Retrieval costs are finite, positive, and smart variants never
    /// exceed their plain counterparts.
    #[test]
    fn costs_positive_and_smart_never_worse(
        f in prop_oneof![Just(250u32), Just(500u32), Just(1000u32), Just(2500u32)],
        m in 1u32..6,
        d_t in prop_oneof![Just(10u32), Just(50u32), Just(100u32)],
        d_q in 1u32..1000,
    ) {
        let p = Params::paper();
        let bssf = BssfModel::new(p, f, m, d_t);
        let ssf = SsfModel::new(p, f, m, d_t);
        let nix = NixModel::new(p, d_t);

        for rc in [
            bssf.rc_superset(d_q),
            bssf.rc_subset(d_q),
            ssf.rc_superset(d_q),
            ssf.rc_subset(d_q),
            nix.rc_superset(d_q),
            nix.rc_subset(d_q),
        ] {
            prop_assert!(rc.is_finite() && rc > 0.0, "rc = {rc}");
        }
        // Smart is only guaranteed to win when the cap is chosen by cost —
        // a fixed j = 2 can lose when small-m false drops explode (which
        // is why best_superset_cap exists).
        let cap = bssf.best_superset_cap(d_q);
        prop_assert!(bssf.rc_superset_smart(d_q, cap) <= bssf.rc_superset(d_q) + 1e-9);
        prop_assert!(bssf.rc_subset_smart(d_q) <= bssf.rc_subset(d_q) + 1e-9);
        // NIX smart with the paper's j = 2 pays at most the pairwise
        // intersection's extra fetches over the plain strategy.
        let pairwise = setsig_costmodel::objects_sharing_all_of(&p, d_t, 2);
        prop_assert!(
            nix.rc_superset_smart(d_q, 2) <= nix.rc_superset(d_q) + pairwise + 1e-6
        );
    }

    /// Storage costs add up: each facility's SC is at least its OID file
    /// (or leaf count) and grows with F.
    #[test]
    fn storage_monotone_in_f(m in 1u32..4, d_t in prop_oneof![Just(10u32), Just(100u32)]) {
        let p = Params::paper();
        let mut prev = 0u64;
        for f in [125u32, 250, 500, 1000, 2000] {
            let sc = BssfModel::new(p, f, m, d_t).sc();
            prop_assert!(sc > prev);
            prev = sc;
            prop_assert!(sc >= p.sc_oid());
            let ssf_sc = SsfModel::new(p, f, m, d_t).sc();
            prop_assert!(ssf_sc >= p.sc_oid());
        }
    }
}

/// The paper's instance (Table 2, `F = 500`, `m = 2`, `D_t = 10`) reads
/// Appendix C's 169 zero-slices for every `T ⊆ Q` query below `D_q^opt`.
#[test]
fn the_papers_instance_caps_a_subset_scan_at_169_slices() {
    let bssf = BssfModel::new(Params::paper(), 500, 2, 10);
    for d_q in [1, 20, 50, 100, 200] {
        assert_eq!(bssf.subset_cap(d_q), Some(169), "D_q = {d_q}");
    }
}
