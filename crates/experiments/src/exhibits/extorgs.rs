//! Extension exhibit: the four organizations side by side — SSF, BSSF,
//! FSSF (frame-sliced) and NIX — on the axes the paper compares (storage,
//! both query types, insert, delete). The frame-sliced column answers §6's
//! closing concern, BSSF's `F + 1` insertion cost; so does the BSSF engine
//! itself, which writes only the slices whose bit is 1 (`m_t + 1`).

use setsig_core::{ElementKey, Oid, SetAccessFacility, SetQuery};
use setsig_costmodel::{BssfModel, FssfModel, NixModel, SsfModel};

use super::Options;
use crate::report::Exhibit;
use crate::sim::SimDb;

/// `extorgs`: one row per cost axis, one column per organization
/// (analytic; measured columns with `--simulate`).
pub fn extorgs(opts: &Options) -> Exhibit {
    let p = opts.params();
    let d_t = 10;
    let (f, m) = (500u32, 2u32);
    let k = 50u32;
    let (d_q_sup, d_q_sub) = (3u32, 100u32);

    let ssf = SsfModel::new(p, f, m, d_t);
    let bssf = BssfModel::new(p, f, m, d_t);
    let fssf = FssfModel::new(p, f, k, 3, d_t);
    let nix = NixModel::new(p, d_t);

    let mut headers = vec!["axis", "SSF", "BSSF", "FSSF", "NIX", "NIX counting"];
    if opts.simulate {
        headers.extend(["meas SSF", "meas BSSF", "meas FSSF", "meas NIX counting"]);
    }
    let mut ex = Exhibit::new(
        "extorgs",
        &format!("Extension: four organizations at F = {f}, D_t = {d_t} (FSSF: k = {k}, m = 3)"),
        headers,
    );

    // NIX counting differs from the paper's NIX on T ⊆ Q only: |T| rides
    // in the posting word, so it costs no page and no write.
    let analytic: Vec<(&str, [f64; 5])> = vec![
        (
            "storage SC (pages)",
            [
                ssf.sc() as f64,
                bssf.sc() as f64,
                fssf.sc() as f64,
                nix.sc() as f64,
                nix.sc() as f64,
            ],
        ),
        (
            &format!("RC ⊇ (D_q = {d_q_sup})"),
            [
                ssf.rc_superset(d_q_sup),
                bssf.rc_superset(d_q_sup),
                fssf.rc_superset(d_q_sup),
                nix.rc_superset(d_q_sup),
                nix.rc_superset(d_q_sup),
            ],
        ),
        (
            &format!("RC ⊆ (D_q = {d_q_sub})"),
            [
                ssf.rc_subset(d_q_sub),
                bssf.rc_subset(d_q_sub),
                fssf.rc_subset(d_q_sub),
                nix.rc_subset(d_q_sub),
                nix.rc_subset_counting(d_q_sub),
            ],
        ),
        (
            "UC insert",
            [
                ssf.uc_insert(),
                bssf.uc_insert(),
                fssf.uc_insert(),
                nix.uc_insert(),
                nix.uc_insert(),
            ],
        ),
        (
            "UC insert (1-bits only)",
            [
                ssf.uc_insert(),
                bssf.uc_insert_sparse(),
                fssf.uc_insert(),
                nix.uc_insert(),
                nix.uc_insert(),
            ],
        ),
        (
            "UC delete",
            [
                ssf.uc_delete(),
                bssf.uc_delete(),
                fssf.uc_delete(),
                nix.uc_delete(),
                nix.uc_delete(),
            ],
        ),
    ]
    .into_iter()
    .map(|(label, vals)| (Box::leak(label.to_owned().into_boxed_str()) as &str, vals))
    .collect();

    let measured: Option<(Vec<[f64; 4]>, SimDb)> = opts.simulate.then(|| {
        let sim = opts.sim(d_t);
        let mut ssf_i = sim.build_ssf(f, m);
        let mut bssf_i = sim.build_bssf(f, m);
        let mut fssf_i = sim.build_fssf(f, k, 3);
        let mut nix_i = sim.build_nix();
        let disk = sim.db.disk();

        let storage = [
            ssf_i.storage_pages().unwrap() as f64,
            bssf_i.storage_pages().unwrap() as f64,
            fssf_i.storage_pages().unwrap() as f64,
            nix_i.storage_pages().unwrap() as f64,
        ];
        let mut rc_sup = [0.0f64; 4];
        let mut rc_sub = [0.0f64; 4];
        {
            let facilities: [&dyn SetAccessFacility; 4] = [&ssf_i, &bssf_i, &fssf_i, &nix_i];
            for (i, fac) in facilities.iter().enumerate() {
                let mut qg = sim.query_gen(31);
                rc_sup[i] = sim.measure_avg(*fac, opts.trials, |_| {
                    SetQuery::has_subset(
                        qg.random(d_q_sup)
                            .into_iter()
                            .map(ElementKey::from)
                            .collect(),
                    )
                });
                let mut qg = sim.query_gen(37);
                rc_sub[i] = sim.measure_avg(*fac, opts.trials, |_| {
                    SetQuery::in_subset(
                        qg.random(d_q_sub)
                            .into_iter()
                            .map(ElementKey::from)
                            .collect(),
                    )
                });
            }
        }
        let probe: Vec<ElementKey> = sim.sets[0].iter().map(|&e| ElementKey::from(e)).collect();
        let mut insert = [0.0f64; 4];
        let mut delete = [0.0f64; 4];
        let mut probe_oid = sim.sets.len() as u64 + 100;
        {
            let mut run = |idx: usize, fac: &mut dyn SetAccessFacility| {
                probe_oid += 1;
                let s0 = disk.snapshot();
                fac.insert(Oid::new(probe_oid), &probe).unwrap();
                let s1 = disk.snapshot();
                fac.delete(Oid::new(probe_oid), &probe).unwrap();
                let s2 = disk.snapshot();
                insert[idx] = s1.since(s0).accesses() as f64;
                delete[idx] = s2.since(s1).accesses() as f64;
            };
            run(0, &mut ssf_i);
            run(1, &mut bssf_i);
            run(2, &mut fssf_i);
            run(3, &mut nix_i);
        }
        (vec![storage, rc_sup, rc_sub, insert, insert, delete], sim)
    });

    for (i, (label, vals)) in analytic.iter().enumerate() {
        let mut row = vec![label.to_string()];
        row.extend(vals.iter().map(|&v| Exhibit::fmt(v)));
        if let Some((meas, _)) = &measured {
            row.extend(meas[i].iter().map(|&v| Exhibit::fmt(v)));
        }
        ex.push_row(row);
    }
    ex.note("FSSF trades ⊇ retrieval (reads whole frames, not single slices) for insertion ≈ D_t+1 writes instead of F+1 — the fix §6 anticipates");
    ex.note("UC insert = F + 1 is the paper's worst case for BSSF; the engine writes only the slices whose bit is 1, so the measured insert is weight(probe signature) + 1 ≈ m_t + 1 (row `UC insert (1-bits only)`)");
    ex.note("FSSF ⊆ degenerates to a striped full scan: BSSF keeps the decisive win on the paper's second query type");
    ex.note("NIX counting is the engine's nested index: its postings carry |T|, so T ⊆ Q costs rc·D_q + P_s·A instead of the paper's union fetch; every other axis is the paper's NIX (the count takes no page and no write); the measured NIX column is the counting one");
    opts.annotate_scale(&mut ex);
    if let Some((_, sim)) = &measured {
        super::attach_observability(&mut ex, [sim]);
    }
    ex
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_orderings_hold() {
        let ex = extorgs(&Options::default());
        let get = |row: usize, col: usize| -> f64 { ex.rows[row][col].parse().unwrap() };
        // Insert: FSSF ≪ BSSF.
        assert!(get(3, 3) < get(3, 2) / 20.0);
        // ⊇ retrieval: BSSF < FSSF < SSF.
        assert!(get(1, 2) < get(1, 3));
        assert!(get(1, 3) < get(1, 1));
        // ⊆ retrieval: BSSF < FSSF (striped scan ≈ SSF), and counting NIX
        // below both and below the paper's NIX.
        assert!(get(2, 2) < get(2, 3));
        assert!(get(2, 5) < get(2, 2) && get(2, 5) < get(2, 4));
        // The count costs nothing on any other axis.
        for row in [0, 1, 3, 4, 5] {
            assert_eq!(ex.rows[row][4], ex.rows[row][5]);
        }
    }

    #[test]
    fn simulated_extorgs_runs_at_small_scale() {
        let opts = Options {
            simulate: true,
            scale: 32,
            trials: 1,
        };
        let ex = extorgs(&opts);
        assert_eq!(ex.headers.len(), 10);
        // Measured insert costs: FSSF ≤ D_t + 2, BSSF = weight(probe) + 1.
        let fssf_ins: f64 = ex.rows[3][8].parse().unwrap();
        assert!(fssf_ins <= 12.0, "fssf insert {fssf_ins}");
        let sim = opts.sim(10);
        let probe: Vec<ElementKey> = sim.sets[0].iter().map(|&e| ElementKey::from(e)).collect();
        let cfg = setsig_core::SignatureConfig::new(500, 2).unwrap();
        let weight = setsig_core::Signature::for_set(&cfg, &probe).weight();
        for row in [3, 4] {
            assert_eq!(ex.rows[row][7], (weight + 1).to_string());
        }
        // The paper's column stays; the engine's sits under it.
        assert_eq!(ex.rows[3][2], "501");
        let sparse: f64 = ex.rows[4][2].parse().unwrap();
        assert!(
            (sparse - f64::from(weight + 1)).abs() < 3.0,
            "m_t + 1 = {sparse}"
        );
    }
}

/// `advisor`: the cost-model design advisor's verdicts under several
/// workload profiles — §6's conclusion, mechanized.
pub fn advisor_exhibit(opts: &Options) -> Exhibit {
    use setsig_costmodel::{advise, WorkloadProfile};
    let p = opts.params();
    let mut ex = Exhibit::new(
        "advisor",
        "Design advisor: best organization per workload profile (page accesses/op)",
        vec![
            "profile",
            "recommended",
            "cost/op",
            "storage",
            "runner-up",
            "runner-up cost",
        ],
    );
    let profiles: Vec<(&str, WorkloadProfile)> = vec![
        (
            "paper mix (45% ⊇, 45% ⊆, 10% ins)",
            WorkloadProfile::paper_default(),
        ),
        (
            "superset-only",
            WorkloadProfile {
                superset_fraction: 1.0,
                subset_fraction: 0.0,
                insert_fraction: 0.0,
                ..WorkloadProfile::paper_default()
            },
        ),
        (
            "subset-only",
            WorkloadProfile {
                superset_fraction: 0.0,
                subset_fraction: 1.0,
                insert_fraction: 0.0,
                ..WorkloadProfile::paper_default()
            },
        ),
        (
            "insert-heavy (90% ins)",
            WorkloadProfile {
                superset_fraction: 0.05,
                subset_fraction: 0.05,
                insert_fraction: 0.90,
                ..WorkloadProfile::paper_default()
            },
        ),
        (
            "tight storage (≤ 200 pages)",
            WorkloadProfile {
                storage_budget_pages: Some(200),
                ..WorkloadProfile::paper_default()
            },
        ),
        (
            "D_t = 100 mix",
            WorkloadProfile {
                d_t: 100,
                d_q_subset: 500,
                ..WorkloadProfile::paper_default()
            },
        ),
    ];
    for (label, profile) in profiles {
        let rec = advise(p, &profile);
        let runner = rec.candidates.get(1);
        ex.push_row(vec![
            label.into(),
            format!("{:?}", rec.organization),
            Exhibit::fmt(rec.expected_cost),
            rec.storage_pages.to_string(),
            runner.map(|(o, _, _)| format!("{o:?}")).unwrap_or_default(),
            runner.map(|(_, c, _)| Exhibit::fmt(*c)).unwrap_or_default(),
        ]);
    }
    ex.note("§6's conclusion mechanized: query-mixed profiles choose BSSF with a small m; insert-heavy traffic flips to FSSF/SSF; NIX never wins a mixed profile");
    opts.annotate_scale(&mut ex);
    ex
}

#[cfg(test)]
mod advisor_tests {
    use super::*;

    #[test]
    fn advisor_exhibit_covers_profiles() {
        let ex = advisor_exhibit(&Options::default());
        assert_eq!(ex.rows.len(), 6);
        // The paper-mix row recommends BSSF.
        assert!(ex.rows[0][1].starts_with("Bssf"), "{:?}", ex.rows[0]);
        // The insert-heavy row does not.
        assert!(!ex.rows[3][1].starts_with("Bssf"), "{:?}", ex.rows[3]);
    }
}
