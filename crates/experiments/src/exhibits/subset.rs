//! Figures 8–10: retrieval cost for `T ⊆ Q`.

use setsig_core::{SetAccessFacility, SetQuery};
use setsig_costmodel::{BssfModel, NixModel, SsfModel};

use super::Options;
use crate::report::Exhibit;

/// What the `NIX counting` column is, beside the paper's `NIX`.
const NIX_COUNTING: &str = "NIX = the paper's §4.3 union, which fetches every object sharing an element with Q; NIX counting = rc_lookup_many(D_q) + P_s·A, the engine's retrieval (each posting carries |T|, so an object is a candidate only when the union meets it |T| times; and the D_q look-ups share one sorted descent that reads each B-tree page once, b·(1 − (1 − 1/b)^D_q) of each level's b pages by Cardenas's estimate, where the paper prices rc·D_q) — the measured NIX column is the counting one";

/// The ascending `D_q` points clamped to the instance's `V` domain
/// elements, one row per distinct value: at reduced scale several points
/// clamp to `V`, and a row for each would repeat the same draw.
fn d_q_rows(points: &[u32], v: u64) -> Vec<u32> {
    let mut rows: Vec<u32> = points.iter().map(|&d_q| d_q.min(v as u32)).collect();
    rows.dedup();
    rows
}

/// Figure 8: overall `T ⊆ Q` retrieval cost, `D_t = 10`, `F = 500`,
/// `m = 2`, `D_q = 10…1000`: SSF vs BSSF vs NIX.
pub fn fig8(opts: &Options) -> Exhibit {
    let p = opts.params();
    let d_t = 10;
    let f = 500;
    let m = 2;
    let d_q_points = [10u32, 20, 30, 50, 70, 100, 150, 200, 300, 500, 700, 1000];

    let mut headers: Vec<String> = vec![
        "D_q".into(),
        "SSF".into(),
        "BSSF".into(),
        "NIX".into(),
        "NIX counting".into(),
    ];
    let sim = opts.simulate.then(|| opts.sim(d_t));
    let meas = sim
        .as_ref()
        .map(|s| (s.build_ssf(f, m), s.build_bssf(f, m), s.build_nix()));
    if opts.simulate {
        headers.push("meas SSF".into());
        headers.push("meas BSSF".into());
        headers.push("meas NIX counting".into());
    }

    let mut ex = Exhibit::new(
        "fig8",
        "Retrieval cost RC, T ⊆ Q, D_t = 10, F = 500, m = 2 (paper Figure 8)",
        headers.iter().map(String::as_str).collect(),
    );
    let ssf = SsfModel::new(p, f, m, d_t);
    let bssf = BssfModel::new(p, f, m, d_t);
    let nix = NixModel::new(p, d_t);
    for d_q in d_q_rows(&d_q_points, p.v) {
        let mut row = vec![d_q.to_string()];
        row.push(Exhibit::fmt(ssf.rc_subset(d_q)));
        row.push(Exhibit::fmt(bssf.rc_subset(d_q)));
        row.push(Exhibit::fmt(nix.rc_subset(d_q)));
        row.push(Exhibit::fmt(nix.rc_subset_counting(d_q)));
        if let (Some(sim), Some((ssf_i, bssf_i, nix_i))) = (&sim, &meas) {
            let queries = sim.draw(d_q as u64 * 31 + 5, d_q, opts.trials, SetQuery::in_subset);
            for facility in [ssf_i as &dyn SetAccessFacility, bssf_i, nix_i] {
                row.push(Exhibit::fmt(sim.average_accesses(facility, &queries)));
            }
        }
        ex.push_row(row);
    }
    ex.note("paper finding: BSSF beats SSF at every D_q; both saturate near P_p·N as F_d → 1; NIX grows with the posting-list union and is worst in the mid range");
    ex.note(NIX_COUNTING);
    opts.annotate_scale(&mut ex);
    super::attach_observability(&mut ex, &sim);
    ex
}

fn smart_subset_exhibit(
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
    headers.push("NIX".into());
    headers.push("NIX counting".into());

    let sim = opts.simulate.then(|| opts.sim(d_t));
    let meas = sim
        .as_ref()
        .map(|s| (s.build_bssf(f_values[1], m), s.build_nix()));
    if opts.simulate {
        headers.push(format!("meas BSSF F={}", f_values[1]));
        headers.push("meas NIX counting".into());
    }

    let mut ex = Exhibit::new(id, title, headers.iter().map(String::as_str).collect());
    let bssf_models: Vec<BssfModel> = f_values
        .iter()
        .map(|&f| BssfModel::new(p, f, m, d_t))
        .collect();
    let nix = NixModel::new(p, d_t);

    // The measured smart strategy reads only the slice budget implied by
    // D_q^opt: F − m_s(D_q^opt) zero-slices.
    let (_, slice_cap) = bssf_models[1]
        .subset_budget()
        .expect("the paper's instances have a D_q^opt");
    let slice_cap = slice_cap as usize;

    let d_q_points = d_q_rows(d_q_points, p.v);
    for &d_q in &d_q_points {
        let mut row = vec![d_q.to_string()];
        for b in &bssf_models {
            row.push(Exhibit::fmt(b.rc_subset_smart(d_q)));
        }
        row.push(Exhibit::fmt(nix.rc_subset(d_q)));
        row.push(Exhibit::fmt(nix.rc_subset_counting(d_q)));
        if let (Some(sim), Some((bssf, nixi))) = (&sim, &meas) {
            let seed = d_q as u64 * 13 + 3;
            let smart = sim.draw(seed, d_q, opts.trials, |keys| {
                (SetQuery::in_subset(keys).with_cap(slice_cap)).expect("cap ≥ 1")
            });
            row.push(Exhibit::fmt(sim.average_accesses(bssf, &smart)));
            let plain = sim.draw(seed, d_q, opts.trials, SetQuery::in_subset);
            row.push(Exhibit::fmt(sim.average_accesses(nixi, &plain)));
        }
        ex.push_row(row);
    }
    let opt = bssf_models[1]
        .d_q_opt()
        .expect("the paper's instances have a D_q^opt");
    ex.note(format!(
        "Appendix C: D_q^opt ≈ {:.0} for F = {}, m = {m} — below it the smart strategy reads only {} zero-slices, making the cost constant",
        opt, f_values[1], slice_cap
    ));
    ex.note("paper finding: smart BSSF answers T ⊆ Q in a small constant number of pages for probable D_q and overwhelms NIX");
    ex.note(NIX_COUNTING);
    let cheaper: Vec<String> = (d_q_points.into_iter())
        .filter(|&d_q| bssf_models[1].rc_subset_smart(d_q) < nix.rc_subset_counting(d_q))
        .map(|d_q| d_q.to_string())
        .collect();
    ex.note(format!(
        "against NIX counting, smart BSSF F = {} is the cheaper model at D_q ∈ {{{}}} of the rows above",
        f_values[1],
        cheaper.join(", ")
    ));
    opts.annotate_scale(&mut ex);
    super::attach_observability(&mut ex, &sim);
    ex
}

/// Figure 9: smart `T ⊆ Q` retrieval, `D_t = 10` (BSSF `m = 2`,
/// `F ∈ {250, 500}` vs NIX).
pub fn fig9(opts: &Options) -> Exhibit {
    smart_subset_exhibit(
        "fig9",
        "Smart retrieval cost, T ⊆ Q, D_t = 10, BSSF m = 2 (paper Figure 9)",
        10,
        2,
        [250, 500],
        &[10, 20, 30, 50, 70, 100, 150, 200, 300, 500, 700, 1000],
        opts,
    )
}

/// Figure 10: smart `T ⊆ Q` retrieval, `D_t = 100` (BSSF `m = 3`,
/// `F ∈ {1000, 2500}` vs NIX).
pub fn fig10(opts: &Options) -> Exhibit {
    smart_subset_exhibit(
        "fig10",
        "Smart retrieval cost, T ⊆ Q, D_t = 100, BSSF m = 3 (paper Figure 10)",
        100,
        3,
        [1000, 2500],
        &[100, 150, 200, 300, 500, 700, 1000, 1500, 2000],
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
    fn fig8_bssf_beats_ssf_everywhere() {
        let ex = fig8(&fast());
        for row in &ex.rows {
            let ssf: f64 = row[1].parse().unwrap();
            let bssf: f64 = row[2].parse().unwrap();
            assert!(bssf < ssf, "D_q = {}", row[0]);
        }
    }

    #[test]
    fn fig8_nix_worst_in_mid_range() {
        let ex = fig8(&fast());
        // At D_q = 100 the paper has NIX far above both signature files.
        let row = ex.rows.iter().find(|r| r[0] == "100").unwrap();
        let bssf: f64 = row[2].parse().unwrap();
        let nix: f64 = row[3].parse().unwrap();
        assert!(nix > 5.0 * bssf, "bssf {bssf} nix {nix}");
    }

    #[test]
    fn fig9_smart_cost_constant_below_opt() {
        let ex = fig9(&fast());
        let first: f64 = ex.rows[0][2].parse().unwrap();
        let at100: f64 = ex.rows.iter().find(|r| r[0] == "100").unwrap()[2]
            .parse()
            .unwrap();
        assert_eq!(first, at100, "flat below D_q^opt");
        // And far below NIX at the same D_q.
        let nix: f64 = ex.rows.iter().find(|r| r[0] == "100").unwrap()[3]
            .parse()
            .unwrap();
        assert!(at100 * 5.0 < nix);
    }

    #[test]
    fn fig10_rows_cover_dt_100_range() {
        let ex = fig10(&fast());
        assert_eq!(ex.rows[0][0], "100");
        assert!(ex.rows.len() >= 8);
    }

    #[test]
    fn reduced_scale_keeps_one_row_per_clamped_d_q() {
        // `V` = 203 at scale 64: fig8's 300…1000, fig9's 300…1000 and
        // fig10's 300…2000 all clamp to one 203 row.
        let opts = Options {
            simulate: false,
            scale: 64,
            trials: 1,
        };
        for (ex, rows) in [(fig8(&opts), 9), (fig9(&opts), 9), (fig10(&opts), 4)] {
            let d_q: Vec<&str> = ex.rows.iter().map(|r| &*r[0]).collect();
            assert_eq!(d_q.len(), rows, "{}: {d_q:?}", ex.id);
            assert_eq!(d_q.last(), Some(&"203"), "{}", ex.id);
            let cheaper = (ex.notes.iter()).find(|n| n.starts_with("against NIX counting"));
            if let Some(note) = cheaper {
                assert!(note.matches("203").count() <= 1, "{}: {note}", ex.id);
            }
        }
    }

    #[test]
    fn simulated_fig8_runs_at_small_scale() {
        let opts = Options {
            simulate: true,
            scale: 64,
            trials: 1,
        };
        let ex = fig8(&opts);
        assert_eq!(ex.headers.len(), 8);
        // The measured SSF, BSSF and NIX counting pages per D_q, pinned.
        let measured: Vec<[&str; 4]> = (ex.rows.iter())
            .map(|r| [&*r[0], &*r[5], &*r[6], &*r[7]])
            .collect();
        assert_eq!(
            measured,
            [
                ["10", "8", "257", "8"],
                ["20", "8", "239", "14"],
                ["30", "8", "221", "14"],
                ["50", "8", "189", "17"],
                ["70", "8", "157", "17"],
                ["100", "8", "117", "17"],
                ["150", "63", "105", "43"],
                ["200", "465", "460", "451"],
                ["203", "509", "501", "517"],
            ]
        );
    }
}
