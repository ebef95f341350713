//! False drop probabilities (§3.2) and signature weights.

/// Expected number of `1`s in a target signature (§3.2.1):
/// `m_t = F·(1 − (1 − m/F)^{D_t})`.
pub fn expected_target_weight(f: u32, m: u32, d_t: u32) -> f64 {
    let f = f as f64;
    f * (1.0 - (1.0 - m as f64 / f).powi(d_t as i32))
}

/// Expected number of `1`s in a query signature — same form with `D_q`.
/// This is the `m_s` of §4.2 that prices BSSF's slice reads.
pub fn expected_query_weight(f: u32, m: u32, d_q: u32) -> f64 {
    expected_target_weight(f, m, d_q)
}

/// False drop probability for `T ⊇ Q` — Eq. (2):
/// `F_d = (1 − e^{−m·D_t/F})^{m·D_q}`.
///
/// Derivation: a false drop needs every one of the query's `m·D_q` bit
/// draws to land on a position already set in the target signature, and the
/// fraction of set positions is `1 − e^{−m·D_t/F}` under ideal hashing.
pub fn fd_superset(f: u32, m: u32, d_t: u32, d_q: u32) -> f64 {
    if d_q == 0 {
        return 1.0; // empty query: everything matches (not a false drop in
                    // practice, but the filter passes everything).
    }
    let f = f as f64;
    let m = m as f64;
    let ones_fraction = 1.0 - (-m * d_t as f64 / f).exp();
    ones_fraction.powf(m * d_q as f64)
}

/// False drop probability for `T ⊆ Q` — Eq. (6):
/// `F_d = (1 − e^{−m·D_q/F})^{m·D_t}` (roles of `D_t` and `D_q` swapped).
pub fn fd_subset(f: u32, m: u32, d_t: u32, d_q: u32) -> f64 {
    if d_t == 0 {
        return 1.0;
    }
    let f = f as f64;
    let m = m as f64;
    let ones_fraction = 1.0 - (-m * d_q as f64 / f).exp();
    ones_fraction.powf(m * d_t as f64)
}

/// The weight minimizing [`fd_superset`] — Eq. (3): `m_opt = F·ln2/D_t`.
/// Returned unrounded; callers round and clamp to ≥ 1.
pub fn m_opt(f: u32, d_t: u32) -> f64 {
    f as f64 * std::f64::consts::LN_2 / d_t as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_grow_with_cardinality_and_saturate() {
        let w1 = expected_target_weight(500, 5, 1);
        let w10 = expected_target_weight(500, 5, 10);
        let w1000 = expected_target_weight(500, 5, 1000);
        assert!((w1 - 5.0).abs() < 1e-9, "single element sets m bits");
        assert!(w1 < w10 && w10 < w1000);
        assert!(w1000 < 500.0);
        assert!(w1000 > 499.0, "large sets saturate the signature");
    }

    #[test]
    fn fd_superset_decreases_with_d_q() {
        let f1 = fd_superset(500, 2, 10, 1);
        let f3 = fd_superset(500, 2, 10, 3);
        let f10 = fd_superset(500, 2, 10, 10);
        assert!(f1 > f3 && f3 > f10);
        assert!(f1 > 0.0 && f1 < 1.0);
    }

    #[test]
    fn fd_superset_at_m_opt_is_two_to_minus_exponent() {
        // Eq. (4): at m = m_opt, Fd ≈ (1/2)^{m_opt·D_q}.
        let f = 500u32;
        let d_t = 10u32;
        let m = m_opt(f, d_t).round() as u32;
        // Figure 4's weights: 500·0.693/10 ≈ 34.7 → 35, 250·0.693/10 → 17.
        assert_eq!((m, m_opt(250, d_t).round()), (35, 17.0));
        let d_q = 2u32;
        let fd = fd_superset(f, m, d_t, d_q);
        let expected = 0.5f64.powf((m * d_q) as f64);
        // m_opt makes the ones-fraction ≈ 1/2, so the two agree closely.
        assert!(
            (fd.ln() - expected.ln()).abs() / expected.ln().abs() < 0.05,
            "fd = {fd:e}, expected ≈ {expected:e}"
        );
        assert!(fd < 1e-20, "negligible, as §5.1.1 observes");
    }

    #[test]
    fn m_opt_is_the_minimizer() {
        // Scan m around m_opt: Fd(m_opt) must be the (near-)minimum.
        let f = 500;
        let d_t = 10;
        let d_q = 2;
        let opt = m_opt(f, d_t).round() as u32;
        let fd_at = |m: u32| fd_superset(f, m, d_t, d_q);
        let best = fd_at(opt);
        for m in 1..=100 {
            assert!(fd_at(m) >= best * 0.999, "m = {m} beats m_opt = {opt}");
        }
    }

    #[test]
    fn fd_subset_mirrors_superset() {
        // Swapping (D_t, D_q) maps one formula onto the other.
        let a = fd_subset(500, 2, 10, 300);
        let b = fd_superset(500, 2, 300, 10);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn fd_subset_approaches_one_for_large_queries() {
        // §5.2.1: for large D_q the false drop probability is almost 1 and
        // retrieval degenerates to accessing most objects.
        let fd = fd_subset(500, 2, 10, 5000);
        assert!(fd > 0.99, "fd = {fd}");
        let fd_small = fd_subset(500, 2, 10, 50);
        assert!(fd_small < 0.01, "fd = {fd_small}");
    }

    #[test]
    fn small_m_raises_fd_but_not_catastrophically_for_superset() {
        // §5.1.2's trade-off: m = 2 instead of m_opt = 35 raises Fd by many
        // orders of magnitude yet it stays small enough that drops are few.
        let fd = fd_superset(500, 2, 10, 2);
        assert!(fd > 1e-8 && fd < 1e-2, "fd = {fd}");
    }

    #[test]
    fn degenerate_cardinalities() {
        assert_eq!(fd_superset(500, 2, 10, 0), 1.0);
        assert_eq!(fd_subset(500, 2, 0, 10), 1.0);
    }
}

/// False drop probability for `T ⊇ Q` when target cardinality **varies**
/// (the §6 extension): the mixture `Σ w_d · F_d(d)` over a cardinality
/// distribution given as `(cardinality, weight)` pairs (weights need not be
/// normalized).
///
/// Because Eq. (2) is convex in `D_t`, the mixture exceeds the fixed-mean
/// prediction (Jensen): long sets dominate false drops. The `varcard`
/// exhibit shows the measured effect matching this correction.
pub fn fd_superset_mixture(f: u32, m: u32, cardinalities: &[(u32, f64)], d_q: u32) -> f64 {
    let total: f64 = cardinalities.iter().map(|&(_, w)| w).sum();
    assert!(total > 0.0, "mixture weights must be positive");
    cardinalities
        .iter()
        .map(|&(d_t, w)| w / total * fd_superset(f, m, d_t, d_q))
        .sum()
}

/// The uniform-range mixture `D_t ~ U{lo..=hi}` for
/// [`fd_superset_mixture`].
pub fn fd_superset_uniform_range(f: u32, m: u32, lo: u32, hi: u32, d_q: u32) -> f64 {
    assert!(lo <= hi && lo >= 1);
    let cards: Vec<(u32, f64)> = (lo..=hi).map(|d| (d, 1.0)).collect();
    fd_superset_mixture(f, m, &cards, d_q)
}

#[cfg(test)]
mod mixture_tests {
    use super::*;

    #[test]
    fn mixture_of_one_is_the_plain_formula() {
        let a = fd_superset_mixture(250, 2, &[(10, 1.0)], 2);
        let b = fd_superset(250, 2, 10, 2);
        assert!((a - b).abs() < 1e-15);
    }

    #[test]
    fn jensen_inequality_spread_raises_fd() {
        let fixed = fd_superset(250, 2, 10, 1);
        let narrow = fd_superset_uniform_range(250, 2, 5, 15, 1);
        let wide = fd_superset_uniform_range(250, 2, 1, 19, 1);
        assert!(narrow > fixed, "{narrow} vs {fixed}");
        assert!(wide > narrow, "{wide} vs {narrow}");
    }

    #[test]
    fn weights_are_normalized_internally() {
        let a = fd_superset_mixture(250, 2, &[(5, 1.0), (15, 1.0)], 2);
        let b = fd_superset_mixture(250, 2, &[(5, 10.0), (15, 10.0)], 2);
        assert!((a - b).abs() < 1e-15);
    }

    #[test]
    #[should_panic]
    fn zero_weights_rejected() {
        let _ = fd_superset_mixture(250, 2, &[(5, 0.0)], 2);
    }
}
