//! Figures 4–7: retrieval cost for `T ⊇ Q`.

use setsig_core::{SetAccessFacility, SetQuery};
use setsig_costmodel::{BssfModel, NixModel, SsfModel};

use super::Options;
use crate::report::Exhibit;

/// Figure 4: overall `T ⊇ Q` retrieval cost with the text-retrieval weight
/// `m = m_opt`; SSF and BSSF at `F ∈ {250, 500}` against NIX, `D_t = 10`,
/// `D_q = 1…10`.
pub fn fig4(opts: &Options) -> Exhibit {
    let p = opts.params();
    let d_t = 10;
    let configs = [(250u32, 17u32), (500, 35)]; // (F, m_opt)
    let mut headers = vec!["D_q".to_owned()];
    for (f, m) in configs {
        headers.push(format!("SSF F={f} m={m}"));
        headers.push(format!("BSSF F={f} m={m}"));
    }
    headers.push("NIX".into());

    let sim = opts.simulate.then(|| opts.sim(d_t));
    let mut measured_cols: Vec<String> = Vec::new();
    if opts.simulate {
        measured_cols.push("meas BSSF F=500".into());
        measured_cols.push("meas NIX".into());
        headers.extend(measured_cols.iter().cloned());
    }

    let mut ex = Exhibit::new(
        "fig4",
        "Retrieval cost RC, T ⊇ Q, D_t = 10, m = m_opt (paper Figure 4)",
        headers.iter().map(String::as_str).collect(),
    );

    let nix = NixModel::new(p, d_t);
    let meas = sim.as_ref().map(|s| (s.build_bssf(500, 35), s.build_nix()));
    for d_q in 1..=10u32 {
        let mut row = vec![d_q.to_string()];
        for (f, m) in configs {
            row.push(Exhibit::fmt(SsfModel::new(p, f, m, d_t).rc_superset(d_q)));
            row.push(Exhibit::fmt(BssfModel::new(p, f, m, d_t).rc_superset(d_q)));
        }
        row.push(Exhibit::fmt(nix.rc_superset(d_q)));
        if let (Some(sim), Some((bssf, nixi))) = (&sim, &meas) {
            let queries = sim.draw(d_q as u64, d_q, opts.trials, SetQuery::has_subset);
            for facility in [bssf as &dyn SetAccessFacility, nixi] {
                row.push(Exhibit::fmt(sim.average_accesses(facility, &queries)));
            }
        }
        ex.push_row(row);
    }
    ex.note("paper finding: at m = m_opt both signature files lose to NIX — SSF pays its full scan, BSSF pays m_s ≈ m·D_q slice reads");
    if opts.simulate {
        ex.note("measured BSSF undercuts Eq. (8): the implementation stops ANDing slices once the accumulator empties, which at m_opt happens after a few dozen of the m_s slices — an optimization the paper's model does not include (the loss to NIX still reproduces)");
    }
    opts.annotate_scale(&mut ex);
    super::attach_observability(&mut ex, &sim);
    ex
}

/// Figure 5: `T ⊇ Q` cost of BSSF with a *small* `m ∈ 1…4` (`F = 500`,
/// `D_t = 10`) against NIX — the paper's case for small weights.
pub fn fig5(opts: &Options) -> Exhibit {
    let p = opts.params();
    let d_t = 10;
    let f = 500;
    let mut headers: Vec<String> = vec!["D_q".into()];
    for m in 1..=4u32 {
        headers.push(format!("BSSF m={m}"));
    }
    headers.push("NIX".into());

    let sim = opts.simulate.then(|| opts.sim(d_t));
    let meas = sim.as_ref().map(|s| (s.build_bssf(f, 2), s.build_nix()));
    if opts.simulate {
        headers.push("meas BSSF m=2".into());
        headers.push("meas NIX".into());
    }

    let mut ex = Exhibit::new(
        "fig5",
        "Retrieval cost RC, T ⊇ Q, D_t = 10, F = 500, small m (paper Figure 5)",
        headers.iter().map(String::as_str).collect(),
    );
    let nix = NixModel::new(p, d_t);
    for d_q in 1..=10u32 {
        let mut row = vec![d_q.to_string()];
        for m in 1..=4u32 {
            row.push(Exhibit::fmt(BssfModel::new(p, f, m, d_t).rc_superset(d_q)));
        }
        row.push(Exhibit::fmt(nix.rc_superset(d_q)));
        if let (Some(sim), Some((bssf, nixi))) = (&sim, &meas) {
            let queries = sim.draw(100 + d_q as u64, d_q, opts.trials, SetQuery::has_subset);
            for facility in [bssf as &dyn SetAccessFacility, nixi] {
                row.push(Exhibit::fmt(sim.average_accesses(facility, &queries)));
            }
        }
        ex.push_row(row);
    }
    ex.note(
        "paper finding: except at D_q = 1, BSSF with m = 2 is comparable to or cheaper than NIX",
    );
    opts.annotate_scale(&mut ex);
    super::attach_observability(&mut ex, &sim);
    ex
}

fn smart_superset_exhibit(
    id: &str,
    title: &str,
    d_t: u32,
    m: u32,
    f_values: [u32; 2],
    d_q_points: &[u32],
    opts: &Options,
) -> Exhibit {
    let p = opts.params();
    let mut headers: Vec<String> = vec!["D_q".into()];
    for f in f_values {
        headers.push(format!("BSSF smart F={f}"));
    }
    headers.push("NIX smart".into());

    let sim = opts.simulate.then(|| opts.sim(d_t));
    let meas = sim
        .as_ref()
        .map(|s| (s.build_bssf(f_values[1], m), s.build_nix()));
    if opts.simulate {
        headers.push(format!("meas BSSF F={}", f_values[1]));
        headers.push("meas NIX".into());
    }

    let mut ex = Exhibit::new(id, title, headers.iter().map(String::as_str).collect());

    // The smart caps: the j minimizing the model cost (the paper fixes
    // j = 2, which best_superset_cap reproduces for BSSF at m = 2 and for
    // NIX).
    let bssf_models: Vec<BssfModel> = f_values
        .iter()
        .map(|&f| BssfModel::new(p, f, m, d_t))
        .collect();
    let caps: Vec<u32> = bssf_models
        .iter()
        .map(|b| b.best_superset_cap(10))
        .collect();
    let nix = NixModel::new(p, d_t);
    let nix_cap = nix.best_superset_cap(d_q_points.iter().copied().max().unwrap_or(1));

    for &d_q in d_q_points {
        let mut row = vec![d_q.to_string()];
        for (b, &cap) in bssf_models.iter().zip(&caps) {
            row.push(Exhibit::fmt(b.rc_superset_smart(d_q, cap)));
        }
        row.push(Exhibit::fmt(nix.rc_superset_smart(d_q, nix_cap)));
        if let (Some(sim), Some((bssf, nixi))) = (&sim, &meas) {
            for (facility, cap) in [(bssf as &dyn SetAccessFacility, caps[1]), (nixi, nix_cap)] {
                let queries = sim.draw(d_q as u64 * 7 + 1, d_q, opts.trials, |keys| {
                    (SetQuery::has_subset(keys).with_cap(cap as usize)).expect("cap ≥ 1")
                });
                row.push(Exhibit::fmt(sim.average_accesses(facility, &queries)));
            }
        }
        ex.push_row(row);
    }
    ex.note(format!(
        "smart caps: BSSF j* = {:?} (model-minimizing; the paper fixes 2), NIX j = {nix_cap}",
        caps
    ));
    ex.note("paper finding: NIX wins only at D_q = 1; from D_q ≥ 2–3 smart BSSF is equal or cheaper, and both flatten to a constant");
    opts.annotate_scale(&mut ex);
    super::attach_observability(&mut ex, &sim);
    ex
}

/// Figure 6: smart `T ⊇ Q` retrieval, `D_t = 10` (BSSF `m = 2`,
/// `F ∈ {250, 500}` vs NIX).
pub fn fig6(opts: &Options) -> Exhibit {
    smart_superset_exhibit(
        "fig6",
        "Smart retrieval cost, T ⊇ Q, D_t = 10, BSSF m = 2 (paper Figure 6)",
        10,
        2,
        [250, 500],
        &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        opts,
    )
}

/// Figure 7: smart `T ⊇ Q` retrieval, `D_t = 100` (BSSF `m = 3`,
/// `F ∈ {1000, 2500}` vs NIX).
pub fn fig7(opts: &Options) -> Exhibit {
    smart_superset_exhibit(
        "fig7",
        "Smart retrieval cost, T ⊇ Q, D_t = 100, BSSF m = 3 (paper Figure 7)",
        100,
        3,
        [1000, 2500],
        &[1, 2, 3, 4, 5, 7, 10, 20, 50, 100],
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> Options {
        Options {
            simulate: false,
            scale: 1,
            trials: 1,
        }
    }

    #[test]
    fn fig4_shape_matches_paper() {
        let ex = fig4(&fast());
        assert_eq!(ex.rows.len(), 10);
        // At m_opt, NIX (last analytic column) beats both signature files
        // for every D_q ≥ 2 — the paper's §5.1.1 conclusion.
        for row in &ex.rows[1..] {
            let nix: f64 = row[5].parse().unwrap();
            for col in 1..5 {
                let sig: f64 = row[col].parse().unwrap();
                assert!(nix < sig, "D_q = {}: NIX {nix} vs col{col} {sig}", row[0]);
            }
        }
    }

    #[test]
    fn fig5_small_m_competitive() {
        let ex = fig5(&fast());
        // m = 2 column vs NIX: comparable or better for D_q ≥ 2.
        for row in &ex.rows[1..] {
            let m2: f64 = row[2].parse().unwrap();
            let nix: f64 = row[5].parse().unwrap();
            assert!(m2 <= nix * 1.6, "D_q = {}: m2 {m2} vs nix {nix}", row[0]);
        }
        // And at D_q = 1 NIX wins.
        let m2: f64 = ex.rows[0][2].parse().unwrap();
        let nix: f64 = ex.rows[0][5].parse().unwrap();
        assert!(nix < m2);
    }

    #[test]
    fn fig6_flattens_to_constant() {
        let ex = fig6(&fast());
        // Smart BSSF F=500 constant from the cap onward.
        let at3: f64 = ex.rows[2][2].parse().unwrap();
        let at10: f64 = ex.rows[9][2].parse().unwrap();
        assert_eq!(at3, at10);
    }

    #[test]
    fn fig7_has_expected_rows() {
        let ex = fig7(&fast());
        assert_eq!(ex.rows.len(), 10);
        assert_eq!(ex.rows[0][0], "1");
        assert_eq!(ex.rows[9][0], "100");
    }

    #[test]
    fn simulated_fig5_runs_at_small_scale() {
        let opts = Options {
            simulate: true,
            scale: 64,
            trials: 1,
        };
        let ex = fig5(&opts);
        assert_eq!(ex.headers.len(), 8);
        // The measured BSSF m=2 and NIX pages, D_q = 1…10, pinned.
        let measured: Vec<[&str; 2]> = ex.rows.iter().map(|r| [&*r[6], &*r[7]]).collect();
        assert_eq!(
            measured,
            [
                ["23", "22"],
                ["8", "6"],
                ["5", "4"],
                ["3", "4"],
                ["3", "4"],
                ["3", "4"],
                ["3", "4"],
                ["4", "4"],
                ["3", "3"],
                ["3", "2"],
            ]
        );
    }
}
