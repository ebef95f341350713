//! Extension exhibit: the "other set operations" of §6 — equality,
//! overlap, and membership — measured across all four facilities.
//!
//! The paper analyzes only ⊇ and ⊆; these three operators are listed as
//! further work. The signature match rules (`setsig_core::query`) and the
//! index schemes (`setsig_nix`) implement them; this exhibit measures what
//! they cost.

use setsig_core::{ElementKey, SetAccessFacility, SetQuery};

use super::Options;
use crate::report::Exhibit;

/// `extops`: measured retrieval cost (page accesses) per predicate per
/// facility. Always simulated; honors `--scale`.
pub fn extops(opts: &Options) -> Exhibit {
    let scale = if opts.scale > 1 { opts.scale } else { 8 };
    let run = Options {
        simulate: true,
        scale,
        trials: opts.trials.max(3),
    };
    let d_t = 10;
    let sim = run.sim(d_t);
    let ssf = sim.build_ssf(500, 2);
    let bssf = sim.build_bssf(500, 2);
    let fssf = sim.build_fssf(500, 50, 3);
    let nix = sim.build_nix();

    let mut ex = Exhibit::new(
        "extops",
        "Extension (§6): other set operations, measured page accesses",
        vec!["predicate", "D_q", "SSF", "BSSF", "FSSF", "NIX", "answers"],
    );

    // Query generators per predicate. Equality gets a real target so the
    // answer set is nonempty; overlap and membership use random sets.
    let make = |pred: u8, trial: u64| -> SetQuery {
        let mut qg = sim.query_gen(1000 + pred as u64 * 31 + trial);
        match pred {
            0 => {
                // equality on an existing target
                let t = &sim.sets[(trial as usize * 131) % sim.sets.len()];
                SetQuery::equals(t.iter().map(|&e| ElementKey::from(e)).collect())
            }
            1 => SetQuery::overlaps(qg.random(3).into_iter().map(ElementKey::from).collect()),
            _ => SetQuery::contains(ElementKey::from(qg.random(1)[0])),
        }
    };

    for (pred, label) in [(0u8, "T = Q"), (1, "T ∩ Q ≠ ∅"), (2, "e ∈ T")] {
        let mut totals = [0u64; 4];
        let mut answers = 0u64;
        let mut d_q = 0usize;
        for t in 0..run.trials as u64 {
            let q = make(pred, t);
            d_q = q.d_q();
            let facilities: [&dyn SetAccessFacility; 4] = [&ssf, &bssf, &fssf, &nix];
            for (i, fac) in facilities.iter().enumerate() {
                let m = sim.measure_facility(*fac, &q);
                totals[i] += m.total_pages();
                if i == 0 {
                    answers += m.report.actual.len() as u64;
                }
            }
        }
        let trials = run.trials as f64;
        ex.push_row(vec![
            label.into(),
            d_q.to_string(),
            Exhibit::fmt(totals[0] as f64 / trials),
            Exhibit::fmt(totals[1] as f64 / trials),
            Exhibit::fmt(totals[2] as f64 / trials),
            Exhibit::fmt(totals[3] as f64 / trials),
            Exhibit::fmt(answers as f64 / trials),
        ]);
    }
    ex.note("equality reads all F slices on BSSF (both bit polarities) — SSF's single scan is competitive there");
    ex.note("overlap and membership behave like small-⊇ queries: BSSF reads m_q slices, NIX unions/looks up posting lists exactly");
    let p = run.params();
    ex.note(format!(
        "measured on N = {}, V = {}, {} trials per point",
        p.n, p.v, run.trials
    ));
    super::attach_observability(&mut ex, [&sim]);
    ex
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extops_runs_and_reports_all_predicates() {
        let opts = Options {
            simulate: true,
            scale: 32,
            trials: 2,
        };
        let ex = extops(&opts);
        assert_eq!(ex.rows.len(), 3);
        for row in &ex.rows {
            for col in 2..6 {
                let v: f64 = row[col].parse().unwrap();
                assert!(v > 0.0, "{row:?}");
            }
        }
        // Membership answers ≈ d = D_t·N/V objects on average.
        let member_row = &ex.rows[2];
        let answers: f64 = member_row[6].parse().unwrap();
        assert!(answers >= 0.0);
    }
}
