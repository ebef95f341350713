//! Runtime verification of the static `// COST:` page contracts.
//!
//! `cargo xtask cost` proves statically that no scan entry point's I/O
//! loop nest exceeds its declared polynomial degree, and commits every
//! contract to `crates/xtask/cost.baseline.json`. This module closes the
//! loop dynamically: it replays the drift-gate exhibit families on the
//! accounting disk and asserts that the **measured filter-stage pages**
//! of every query stay at or below the committed contract evaluated with
//! worst-case bindings from the paper's [`Params`] and the exhibit's
//! geometry.
//!
//! The two halves catch different regressions. The static lint catches a
//! loop accidentally nested around a slice read before anything runs;
//! this evaluator catches a contract that *parses* fine but lies — e.g.
//! a symbol bound to the wrong quantity, which no static check can
//! prove; here the claim meets the disk counters.
//!
//! Bindings are worst-case, not expected-case: `slices` binds to
//! `min(F, m·D_q)` for a superset scan (every query bit set distinct)
//! and to `F` for a subset scan (every zero-slice read); `oid_pages`
//! binds to `SC_OID` (a full OID-file sweep, which `LC_OID` saturates
//! at); `chain` binds to the whole leaf level. A measured query has no
//! business exceeding those even on an adversarial seed.

use setsig_core::{ElementKey, SetQuery};
use setsig_costmodel::{BoundExpr, BssfModel, Env, FssfModel, NixModel, Params, SsfModel};

use crate::exhibits::{obs_sim, Options};
use crate::sim::SimDb;

/// The committed static baseline, compiled in so the runtime check can
/// never drift from the lint's view of the contracts.
const BASELINE: &str = include_str!("../../xtask/cost.baseline.json");

/// One contract evaluated against a measured exhibit family.
#[derive(Debug, Clone)]
pub struct ContractCheck {
    /// Baseline key (`crates/core/src/bssf.rs::Bssf::candidates_with_stats`).
    pub fn_key: &'static str,
    /// Exhibit family and predicate the measurement came from.
    pub series: String,
    /// The contract expression, as committed.
    pub expr: String,
    /// The bound: the expression under the worst-case bindings.
    pub bound: f64,
    /// Worst single-query filter-stage pages over the trials.
    pub measured: u64,
}

impl ContractCheck {
    /// True when the measurement respects the contract.
    pub fn ok(&self) -> bool {
        (self.measured as f64) <= self.bound + 1e-9
    }
}

/// Looks up `fn_key` in the committed baseline and parses its expression.
///
/// The baseline is the version-1 one-contract-per-line format the
/// `cost --update` writer emits; a missing key or an unparsable
/// expression is a panic, not a skip — a renamed entry point must fail
/// the gate, not silently stop being checked.
pub fn committed_contract(fn_key: &str) -> BoundExpr {
    let needle = format!("\"{fn_key}\": {{\"expr\": \"");
    let line = BASELINE
        .lines()
        .find(|l| l.contains(&needle))
        .unwrap_or_else(|| panic!("contract `{fn_key}` missing from cost.baseline.json"));
    let start = line.find(&needle).unwrap() + needle.len();
    let rest = &line[start..];
    let end = rest
        .find('"')
        .unwrap_or_else(|| panic!("unterminated expr for `{fn_key}`"));
    BoundExpr::parse(&rest[..end])
        .unwrap_or_else(|e| panic!("contract `{fn_key}` does not parse: {e}"))
}

fn eval(expr: &BoundExpr, env: &Env) -> f64 {
    expr.eval(env)
        .unwrap_or_else(|e| panic!("contract `{expr}`: {e}"))
}

/// Worst filter-stage pages for `trials` queries drawn by `make`.
fn worst_filter_pages(
    sim: &SimDb,
    facility: &dyn setsig_core::SetAccessFacility,
    trials: u32,
    mut make: impl FnMut(u32) -> SetQuery,
) -> u64 {
    (0..trials)
        .map(|t| sim.measure_facility(facility, &make(t)).filter_pages)
        .max()
        .unwrap_or(0)
}

/// Runs every contract checkpoint at the given scale and trial count.
///
/// Families mirror the drift gate: BSSF superset and subset, SSF subset,
/// NIX superset and subset, FSSF superset, and the sharded service's
/// serial dispatch over BSSF.
pub fn check(scale: u64, trials: u32) -> Vec<ContractCheck> {
    let opts = Options {
        simulate: true,
        scale: scale.max(1),
        trials: trials.max(1),
    };
    let d_t = 10;
    let p: Params = opts.params();
    let sim = obs_sim(&opts, d_t);
    let (f, m) = (500u32, 2u32);
    let mut out = Vec::new();

    // BSSF: the slice scans and their composition into the facility
    // entry point. Superset reads the m_s ≤ min(F, m·D_q) one-slices;
    // subset reads the F − m_s ≤ F zero-slices.
    {
        let bssf = sim.build_bssf(f, m);
        let model = BssfModel::new(p, f, m, d_t);
        let key = "crates/core/src/bssf.rs::Bssf::candidates_with_stats";
        let expr = committed_contract(key);
        for (pred, d_q, slices) in [
            ("⊇", 3u32, f.min(m * 3) as f64),
            ("⊆", 50u32, f as f64),
            ("≬", 3u32, f.min(m * 3) as f64),
        ] {
            let env = Env::new()
                .bind("slices", slices)
                .bind("pages_per_slice", model.slice_pages() as f64)
                .bind("oid_pages", p.sc_oid() as f64);
            let mut qg = sim.query_gen(9000 + d_q as u64);
            let measured = worst_filter_pages(&sim, &bssf, opts.trials, |_| {
                let elems: Vec<ElementKey> =
                    qg.random(d_q).into_iter().map(ElementKey::from).collect();
                match pred {
                    "⊇" => SetQuery::has_subset(elems),
                    "⊆" => SetQuery::in_subset(elems),
                    _ => SetQuery::overlaps(elems),
                }
            });
            out.push(ContractCheck {
                fn_key: key,
                series: format!("bssf {pred} d_q={d_q}"),
                expr: expr.to_string(),
                bound: eval(&expr, &env),
                measured,
            });
        }
    }

    // SSF: a sequential scan is SC_SIG pages whatever the predicate.
    {
        let ssf = sim.build_ssf(f, m);
        let model = SsfModel::new(p, f, m, d_t);
        let key = "crates/core/src/ssf.rs::Ssf::candidates_with_stats";
        let expr = committed_contract(key);
        let env = Env::new()
            .bind("sig_pages", model.sc_sig() as f64)
            .bind("oid_pages", p.sc_oid() as f64);
        let d_q = 50u32;
        let mut qg = sim.query_gen(9100);
        let measured = worst_filter_pages(&sim, &ssf, opts.trials, |_| {
            SetQuery::in_subset(qg.random(d_q).into_iter().map(ElementKey::from).collect())
        });
        out.push(ContractCheck {
            fn_key: key,
            series: format!("ssf ⊆ d_q={d_q}"),
            expr: expr.to_string(),
            bound: eval(&expr, &env),
            measured,
        });
    }

    // NIX: D_q probes, each a root-to-leaf descent plus the duplicate
    // chain. `chain` binds to the whole leaf level — loose, but the
    // point is the probe count: a regression that scans the tree per
    // candidate (probes × N) sails past even this slack.
    {
        let nix = sim.build_nix();
        let model = NixModel::new(p, d_t);
        let key = "crates/nix/src/index.rs::Nix::candidates_with_stats";
        let expr = committed_contract(key);
        for (pred, d_q) in [("⊇", 3u32), ("⊆", 20u32)] {
            let env = Env::new()
                .bind("probes", d_q as f64)
                .bind("height", (model.height() + 1) as f64)
                .bind("chain", model.lp() as f64);
            let mut qg = sim.query_gen(9200 + d_q as u64);
            let measured = worst_filter_pages(&sim, &nix, opts.trials, |_| {
                let elems: Vec<ElementKey> =
                    qg.random(d_q).into_iter().map(ElementKey::from).collect();
                if pred == "⊇" {
                    SetQuery::has_subset(elems)
                } else {
                    SetQuery::in_subset(elems)
                }
            });
            out.push(ContractCheck {
                fn_key: key,
                series: format!("nix {pred} d_q={d_q}"),
                expr: expr.to_string(),
                bound: eval(&expr, &env),
                measured,
            });
        }
    }

    // FSSF: at most every frame, each frame_pages long.
    {
        let (k, fm) = (50u32, 3u32);
        let fssf = sim.build_fssf(f, k, fm);
        let model = FssfModel::new(p, f, k, fm, d_t);
        let key = "crates/core/src/fssf.rs::Fssf::candidates_with_stats";
        let expr = committed_contract(key);
        let env = Env::new()
            .bind("frames", model.k as f64)
            .bind("frame_pages", model.frame_pages() as f64)
            .bind("oid_pages", p.sc_oid() as f64);
        let d_q = 3u32;
        let mut qg = sim.query_gen(9300);
        let measured = worst_filter_pages(&sim, &fssf, opts.trials, |_| {
            SetQuery::has_subset(qg.random(d_q).into_iter().map(ElementKey::from).collect())
        });
        out.push(ContractCheck {
            fn_key: key,
            series: format!("fssf ⊇ d_q={d_q}"),
            expr: expr.to_string(),
            bound: eval(&expr, &env),
            measured,
        });
    }

    // Service: the serial dispatch over a sharded BSSF. Each shard holds
    // a partition of N but the full slice geometry, so the flat per-shard
    // bound times the shard count covers it.
    {
        let service = sim.build_bssf_service(f, m);
        let model = BssfModel::new(p, f, m, d_t);
        let shards = crate::sim::EngineConfig::from_env().shards.max(1);
        let key = "crates/service/src/router.rs::ShardRouter::query_serial";
        let expr = committed_contract(key);
        let d_q = 3u32;
        let env = Env::new()
            .bind("shards", shards as f64)
            .bind("slices", f.min(m * d_q) as f64)
            .bind("pages_per_slice", model.slice_pages() as f64)
            .bind("oid_pages", p.sc_oid() as f64);
        let mut qg = sim.query_gen(9400);
        let measured = worst_filter_pages(&sim, &service, opts.trials, |_| {
            SetQuery::has_subset(qg.random(d_q).into_iter().map(ElementKey::from).collect())
        });
        out.push(ContractCheck {
            fn_key: key,
            series: format!("service ⊇ d_q={d_q} shards={shards}"),
            expr: expr.to_string(),
            bound: eval(&expr, &env),
            measured,
        });
    }

    out
}

/// Renders the checks as an aligned text table (a drift-gate artifact).
pub fn render(checks: &[ContractCheck]) -> String {
    let mut out = String::from("series                        measured  bound      contract\n");
    for c in checks {
        out.push_str(&format!(
            "{:28}  {:>8}  {:>9.1}  {}  [{}]\n",
            c.series,
            c.measured,
            c.bound,
            c.expr,
            if c.ok() { "ok" } else { "OVER" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_contracts_parse_and_have_expected_shape() {
        let e = committed_contract("crates/core/src/bssf.rs::Bssf::candidates_with_stats");
        assert_eq!(e.degree(), 2);
        assert_eq!(e.symbols(), ["slices", "pages_per_slice", "oid_pages"]);
        let e = committed_contract("crates/service/src/router.rs::ShardRouter::query_serial");
        assert_eq!(e.degree(), 3);
    }

    #[test]
    fn measured_filter_pages_respect_every_contract() {
        let checks = check(40, 3);
        assert!(!checks.is_empty());
        let over: Vec<_> = checks.iter().filter(|c| !c.ok()).collect();
        assert!(
            over.is_empty(),
            "measured pages exceed static contracts:\n{}",
            render(&checks)
        );
    }

    #[test]
    fn bounds_are_not_vacuous() {
        // The worst-case bindings must still be in the realm of the
        // exhibit: a bound looser than reading the whole database would
        // make the assertion meaningless.
        let opts = Options {
            simulate: false,
            scale: 40,
            trials: 1,
        };
        let p = opts.params();
        let db_pages = (p.n * p.o_p()).max(1) as f64;
        for c in check(40, 1) {
            assert!(
                c.bound < db_pages,
                "{}: bound {} exceeds whole-database {}",
                c.series,
                c.bound,
                db_pages
            );
        }
    }
}
