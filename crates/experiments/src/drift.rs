//! The page-cost conformance gate: measured page accesses against the
//! paper's `RC = filter + LC_OID + P_s·A + P_p·F_d·(N − A)` (Eqs. 7–8),
//! term by term. This module is the one place that decides conformance; CI
//! runs it through the `report-metrics` binary. DESIGN.md §7 has the long
//! form.
//!
//! **Equal, on every trial.** Every facility is built on the bare disk — no
//! pool, one shard — so a page the protocol charges is a page the disk
//! reads, and three numbers are one: the `ScanStats.pages` the call
//! reported, the `Disk` read delta over the call, and the pages predicted
//! from the query's own facts, the facility's public geometry and the
//! instance's ground-truth sets (never from the engines' counters, which
//! would be circular):
//! [`Ssf::signature_pages`](setsig_core::Ssf::signature_pages); BSSF slices
//! by `and_scan_pages` / the first `min(cap, F − weight)` zero-slices,
//! each as long as its last `1` makes it (`slice_pages`); FSSF
//! frames consumed × pages per frame; per NIX descent the distinct pages on
//! its keys' paths ([`BTree::path`], read off the tree outside the measured
//! call) + each key's [`BTree::chain_links`] — one descent per query, over
//! every key for the `⊆` / `≬` union, up to the list that empties the
//! intersection for `⊇`; each plus
//! [`OidFile::pages_touched`] over the drops (`LC_OID`). Object pages must
//! equal `P_s·actual + P_p·false` drops, and the facility's pages per filter
//! unit the closed form's.
//!
//! **Storage is held the same way.** Once per run, before the updates, each
//! signature file's `storage_pages()` (Table 6's `SC`) must equal the files
//! the instance predicts plus `SC_OID`: SSF its signature pages, BSSF every
//! slice as long as its last `1` makes it, FSSF `k` frames of pages per
//! frame.
//!
//! **Updates are held the same way.** After the queries, every facility
//! takes one insert and one delete of a probe object per trial (Table 7's
//! `UC_I`, `UC_D`): the `Disk` reads + writes of each call must equal what
//! the probe's own facts predict — SSF 1 signature page + 1 OID page; BSSF
//! `weight(signature) + 1` (only the 1-slices are written); FSSF distinct
//! frames + 1; NIX `rc + 1` per distinct element, plus `3` per page a split
//! added (`− 4` when the root grew), printed as its own term; a delete the
//! OID pages up to the entry's + 1 write. The closed forms beside them are
//! the paper's, with `m_t + 1` for BSSF.
//!
//! **Banded, where the closed form is an expectation.** The filter units
//! (query weight vs `m_s`, distinct query frames, the slices the instance's
//! distinct elements set) with their exact occupancy variance
//! (`occupancy`), and the drops vs `F_d·(N − A) + A` with the
//! variance of the model's own Bernoulli reading, false drops grouped by
//! posting list for the signature files (`drops`). The average over `T`
//! trials must lie within [`Banded::half_width`] of the expectation; a
//! variance of zero means equality.

use std::collections::BTreeMap;

use setsig_core::{
    Bitmap, Bssf, ElementKey, Fssf, FssfConfig, Oid, OidFile, SetAccessFacility, SetPredicate,
    SetQuery, SignatureConfig, Ssf, OIDS_PER_PAGE,
};
use setsig_costmodel::{
    actual_drops_subset, actual_drops_superset, fd_subset, fd_superset, lc_oid, ln_binomial,
    object_access_cost, objects_sharing_all_of, BssfModel, FssfModel, NixModel, Params, SsfModel,
};
use setsig_nix::{BTree, Nix};
use setsig_oodb::QueryExecution;
use setsig_service::{QueryService, ServiceConfig};

use crate::exhibits::Options;
use crate::report::Exhibit;
use crate::sim::SimDb;

/// The `z` of every banded comparison: how many standard deviations the
/// average of a checkpoint's trials may sit from the closed form. By
/// Bernstein's inequality a sum of independent 0/1 events leaves
/// [`Banded::half_width`] with probability at most `2·e^{−z²/2}` ≈ 7·10⁻⁴
/// at `z = 4`, whatever the trial count — while a model or engine that is
/// off by a constant factor fails as soon as the counts resolve it.
pub const Z: f64 = 4.0;

/// A stochastic term of the closed forms: its expectation and the variance
/// of one query's value around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Banded {
    /// The closed form's value.
    pub mean: f64,
    /// Per-query variance `σ²`; zero for a term that is not random at all.
    pub var: f64,
}

impl Banded {
    /// A term with no randomness: measured must equal `mean`.
    pub fn exact(mean: f64) -> Self {
        Banded { mean, var: 0.0 }
    }

    /// Half-width of the band for an average over `trials` independent
    /// queries: `Z·√(σ²/T) + Z²/(3T)`. The second term is Bernstein's
    /// correction for counts — without it one qualifying object against an
    /// expectation of 0.01 would read as a 9σ event, which it is not.
    pub fn half_width(&self, trials: usize) -> f64 {
        if self.var == 0.0 {
            return 0.0;
        }
        let t = trials as f64;
        Z * (self.var / t).sqrt() + Z * Z / (3.0 * t)
    }

    /// Whether the measured average over `trials` queries is inside the
    /// band (up to float rounding of the closed form).
    pub fn admits(&self, avg: f64, trials: usize) -> bool {
        (avg - self.mean).abs() <= self.half_width(trials) + 1e-9
    }
}

/// Distinct positions set when `items` elements each set `per_item`
/// distinct, uniformly placed positions out of `bins` — the query
/// signature weight (`bins = F`, `per_item = m`, mean `m_s`), the
/// distinct query frames of FSSF (`bins = k`, `per_item = 1`) and the BSSF
/// slices the instance materializes (`items` = its distinct elements).
///
/// With `q₁ = (1 − m/F)^n` the probability one position stays clear and
/// `q₂ = ((F−m)(F−m−1) / (F(F−1)))^n` that two do, the clear count `U` has
/// `E[U] = F·q₁` and `E[U(U−1)] = F(F−1)·q₂`, so
/// `σ² = F(F−1)·q₂ + F·q₁ − (F·q₁)²`.
fn occupancy(bins: u32, per_item: u32, items: u32) -> Banded {
    let (b, k, n) = (f64::from(bins), f64::from(per_item), items as i32);
    let q1 = (1.0 - k / b).powi(n);
    let q2 = ((b - k) * (b - k - 1.0) / (b * (b - 1.0))).powi(n);
    Banded {
        mean: b * (1.0 - q1),
        var: (b * (b - 1.0) * q2 + b * q1 - (b * q1).powi(2)).max(0.0),
    }
}

/// Drops of one query under the paper's model: each of the `N − A`
/// non-qualifying objects is a false drop with probability `F_d`, each of
/// the `N` objects qualifies with probability `A/N` — mean
/// `F_d·(N − A) + A`. Qualification is independent across objects; false
/// drops arrive `group` objects at a time (see the module docs), which
/// multiplies their variance: `σ² = group·F_d(1 − F_d)(N − A) + A(1 − A/N)`.
fn drops(n: u64, fd: f64, actual: f64, group: f64) -> Banded {
    let n = n as f64;
    let false_drops = fd * (n - actual);
    Banded {
        mean: false_drops + actual,
        var: group * false_drops * (1.0 - fd) + actual * (1.0 - actual / n),
    }
}

/// Objects a signature file's false drops arrive together in: the
/// `d = D_t·N/V` objects holding one element (the paper's posting-list
/// length, §4.3).
fn group_size(p: &Params, d_t: u32) -> f64 {
    f64::from(d_t) * p.n as f64 / p.v as f64
}

/// The closed form of one checkpoint, split into the terms of
/// `RC = filter + LC_OID + P·drops`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelTerms {
    /// Pages per filter unit: `⌈N/(P·b)⌉` per slice, `SC_SIG` per scan,
    /// pages per frame, `rc` per probe.
    pub unit_pages: u64,
    /// Filter units: `m_s`, `F − m_s`, distinct frames, probes.
    pub units: Banded,
    /// Drops `F_d·(N − A) + A`.
    pub drops: Banded,
    /// `LC_OID` (zero for the nested index, which has no OID file).
    pub lc_oid: f64,
    /// `P_s·A + P_p·F_d·(N − A)`.
    pub object: f64,
}

impl ModelTerms {
    /// The filter term: units × pages per unit.
    pub fn filter(&self) -> f64 {
        self.unit_pages as f64 * self.units.mean
    }

    /// The whole `RC`.
    pub fn rc(&self) -> f64 {
        self.filter() + self.lc_oid + self.object
    }
}

/// The page facts of one measured query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// `ScanStats.pages` of the call; `None` for an update or a storage
    /// count, which report none.
    pub reported: Option<u64>,
    /// `Disk` pages over the call: reads of a query, reads + writes of an
    /// update; for storage, the pages the facility's files hold.
    pub disk_pages: u64,
    /// Predicted slice / signature / frame / probe pages.
    pub filter: u64,
    /// Predicted `LC_OID`: OID-file pages holding a drop.
    pub lc_oid: u64,
    /// The filter units this query asks for (weight, frames, probes).
    pub units: u64,
    /// Object pages the resolve stage read.
    pub object_pages: u64,
    /// Drops that satisfied the predicate.
    pub actual: u64,
    /// Drops that did not.
    pub false_drops: u64,
    /// Of `filter`, the pages B-tree splits cost a NIX insert.
    pub split_pages: u64,
}

impl Trial {
    /// Every identity this trial breaks, as `check: what differed`.
    pub fn violations(&self, p: &Params) -> Vec<String> {
        let mut out = Vec::new();
        let predicted = self.filter + self.lc_oid;
        let shape = format!("filter {} + LC_OID {}", self.filter, self.lc_oid);
        match self.reported {
            Some(reported) => {
                if reported != self.disk_pages {
                    out.push(format!(
                        "pages≠disk: reported {reported}, disk read {}",
                        self.disk_pages
                    ));
                }
                if reported != predicted {
                    out.push(format!(
                        "pages≠predicted: reported {reported}, predicted {predicted} ({shape})"
                    ));
                }
            }
            None if self.disk_pages != predicted => out.push(format!(
                "disk≠predicted: disk moved {} pages, predicted {predicted} ({shape})",
                self.disk_pages
            )),
            None => {}
        }
        let charge = p.p_s * self.actual as f64 + p.p_p * self.false_drops as f64;
        if self.object_pages as f64 != charge {
            out.push(format!(
                "fetch≠drops: resolve read {} object pages, {} actual + {} false drops charge {charge}",
                self.object_pages, self.actual, self.false_drops
            ));
        }
        out
    }
}

/// One checkpoint: its closed form and every trial measured against it.
#[derive(Debug, Clone)]
pub struct DriftPoint {
    /// Exhibit family the checkpoint represents (`fig5`, `fig8`, …).
    pub exhibit: &'static str,
    /// Facility, predicate and path, e.g. `"bssf ⊇ smart"`.
    pub series: &'static str,
    /// Query cardinality `D_q`.
    pub d_q: u32,
    /// Table 2 constants at the run's scale (`P_s`, `P_p`).
    pub params: Params,
    /// The closed form.
    pub model: ModelTerms,
    /// The facility's own pages per filter unit.
    pub unit_pages: u64,
    /// One entry per measured query.
    pub trials: Vec<Trial>,
}

impl DriftPoint {
    fn avg(&self, f: impl Fn(&Trial) -> u64) -> f64 {
        self.trials.iter().map(f).sum::<u64>() as f64 / self.trials.len() as f64
    }

    /// Trials on which reported = disk = predicted and fetches = drops.
    pub fn exact_trials(&self) -> usize {
        self.trials
            .iter()
            .filter(|t| t.violations(&self.params).is_empty())
            .count()
    }

    /// Everything that makes this checkpoint DRIFT; empty when it conforms.
    pub fn violations(&self) -> Vec<String> {
        let t = self.trials.len();
        let mut out = Vec::new();
        for (i, trial) in self.trials.iter().enumerate() {
            for v in trial.violations(&self.params) {
                out.push(format!("trial {i}: {v}"));
            }
        }
        if self.unit_pages != self.model.unit_pages {
            out.push(format!(
                "unit≠model: the facility has {} pages per filter unit, the closed form {}",
                self.unit_pages, self.model.unit_pages
            ));
        }
        for (name, band, avg) in [
            ("units", self.model.units, self.avg(|t| t.units)),
            (
                "drops",
                self.model.drops,
                self.avg(|t| t.actual + t.false_drops),
            ),
        ] {
            if !band.admits(avg, t) {
                out.push(format!("{name}∉band: {}", describe_band(band, avg, t)));
            }
        }
        out
    }

    /// True when the checkpoint conforms.
    pub fn ok(&self) -> bool {
        self.violations().is_empty()
    }
}

fn describe_band(band: Banded, avg: f64, trials: usize) -> String {
    if band.var == 0.0 {
        return format!("measured {avg:.3} vs model {:.3}, exact", band.mean);
    }
    format!(
        "measured {avg:.3} vs model {:.3} ± {:.3} (σ² = {:.4} per query, z = {Z}, T = {trials})",
        band.mean,
        band.half_width(trials),
        band.var
    )
}

/// The full report.
#[derive(Debug)]
pub struct DriftReport {
    /// All checkpoints, in exhibit order.
    pub points: Vec<DriftPoint>,
    /// Observability artifacts of the run itself: the JSONL query trace and
    /// its metrics fold, as `(file name, content)`.
    pub artifacts: Vec<(String, String)>,
}

impl DriftReport {
    /// Checkpoints that do not conform.
    pub fn drifted(&self) -> Vec<&DriftPoint> {
        self.points.iter().filter(|p| !p.ok()).collect()
    }

    /// Trials measured over all checkpoints.
    pub fn trial_count(&self) -> usize {
        self.points.iter().map(|p| p.trials.len()).sum()
    }

    /// Renders the report as an [`Exhibit`] table (id `drift`): the three
    /// terms of `RC`, closed form next to measured average, and one note per
    /// checkpoint naming the variance and `z` of its banded comparisons.
    pub fn exhibit(&self) -> Exhibit {
        let mut ex = Exhibit::new(
            "drift",
            "RC = filter + LC_OID + P·drops, closed form vs measured, per checkpoint",
            "exhibit,series,D_q,filter model,filter,LC_OID model,LC_OID,P·drops model,P·drops,\
             RC model,RC,exact,status"
                .split(',')
                .collect(),
        );
        for p in &self.points {
            let (filter, oid) = (p.avg(|t| t.filter), p.avg(|t| t.lc_oid));
            let object = p.avg(|t| t.object_pages);
            let m = &p.model;
            let mut row = vec![p.exhibit.to_owned(), p.series.to_owned(), p.d_q.to_string()];
            let (rc, measured_rc) = (m.rc(), filter + oid + object);
            row.extend(
                [
                    m.filter(),
                    filter,
                    m.lc_oid,
                    oid,
                    m.object,
                    object,
                    rc,
                    measured_rc,
                ]
                .map(Exhibit::fmt),
            );
            row.push(format!("{}/{}", p.exact_trials(), p.trials.len()));
            row.push(if p.ok() { "ok" } else { "DRIFT" }.to_owned());
            ex.push_row(row);
            let t = p.trials.len();
            let splits = match p.avg(|t| t.split_pages) {
                0.0 => String::new(),
                pages => format!("; of the filter pages, splits {pages:.1}"),
            };
            ex.note(format!(
                "{} {} D_q={}: units {}; drops {}{splits}",
                p.exhibit,
                p.series,
                p.d_q,
                describe_band(p.model.units, p.avg(|t| t.units), t),
                describe_band(p.model.drops, p.avg(|t| t.actual + t.false_drops), t),
            ));
        }
        ex.note(
            "exact = trials with reported pages = disk read delta = predicted pages and object \
             pages = P_s·actual + P_p·false drops; filter / LC_OID columns average the predicted \
             split of those pages",
        );
        ex.note(
            "table6 rows: each signature file's storage pages, once per run, before the updates; \
             exact = the pages its files hold = predicted (filter = signature / slice / frame \
             pages, LC_OID = SC_OID); the closed form is the paper's SC, its BSSF slices those \
             the instance's distinct elements set",
        );
        ex.note(
            "table7 rows: one insert and one delete of a probe object of D_q = D_t elements per \
             trial; exact = disk reads + writes of the call = predicted (filter = the facility's \
             own files, LC_OID = the OID file); the closed forms are the paper's UC_I / UC_D, with \
             m_t + 1 for BSSF, whose writer touches only the 1-slices",
        );
        ex.note(
            "every facility is built on the bare disk (no pool, one shard): a page the protocol \
             charges is a page the disk reads",
        );
        ex.artifacts = self.artifacts.clone();
        ex
    }
}

/// Pages of slice `j` the writer materialized for the rows `sigs`: up to
/// the last row page holding a `1` — none for a slice no row set a bit on.
/// A scan reads only these; what lies past them is zeros, for free.
fn slice_pages(sigs: &[Bitmap], j: u32, rows_per_page: usize) -> u64 {
    let last = sigs.iter().rposition(|s| s.get(j));
    last.map_or(0, |row| (row / rows_per_page + 1) as u64)
}

/// Pages a page-major AND over the slices `ones` reads: per row page
/// (`rows_per_page` target signatures), one page per slice — if the slice
/// reaches that far ([`slice_pages`]) — until no signature of that row page
/// has every bit so far.
fn and_scan_pages(sigs: &[Bitmap], ones: &[u32], rows_per_page: usize) -> u64 {
    let lengths: Vec<u64> = (ones.iter())
        .map(|&j| slice_pages(sigs, j, rows_per_page))
        .collect();
    let mut pages = 0;
    for (p, rows) in sigs.chunks(rows_per_page).enumerate() {
        let mut alive: Vec<&Bitmap> = rows.iter().collect();
        for (&j, &length) in ones.iter().zip(&lengths) {
            pages += u64::from((p as u64) < length);
            alive.retain(|s| s.get(j));
            if alive.is_empty() {
                break;
            }
        }
    }
    pages
}

/// The first `min(D_q, cap)` query elements: what a smart `T ⊇ Q` filter
/// looks at.
fn capped_elements(q: &SetQuery) -> &[ElementKey] {
    &q.elements[..q.elements.len().min(q.cap().unwrap_or(usize::MAX))]
}

/// Predicted BSSF slice pages and filter units of `q` over the target
/// signatures `sigs`.
fn bssf_filter(
    sigs: &[Bitmap],
    cfg: &SignatureConfig,
    rows_per_page: usize,
    q: &SetQuery,
) -> (u64, u64) {
    let and_pages = |sig: &Bitmap| {
        let ones: Vec<u32> = sig.iter_ones().collect();
        and_scan_pages(sigs, &ones, rows_per_page)
    };
    // An OR or a count reads every selected slice to its end.
    let whole = |slices: &mut dyn Iterator<Item = u32>| -> (u64, u64) {
        slices.fold((0, 0), |(pages, n), j| {
            (pages + slice_pages(sigs, j, rows_per_page), n + 1)
        })
    };
    let sig = cfg.signature(&q.elements);
    match q.predicate {
        SetPredicate::HasSubset | SetPredicate::Contains => {
            let reduced = cfg.signature(capped_elements(q));
            (and_pages(&reduced), u64::from(reduced.count_ones()))
        }
        // The first `cap` zero-slices, in slice order.
        SetPredicate::InSubset => whole(&mut sig.iter_zeros().take(q.cap().unwrap_or(usize::MAX))),
        SetPredicate::Equals => (
            and_pages(&sig) + whole(&mut sig.iter_zeros()).0,
            u64::from(cfg.f_bits()),
        ),
        SetPredicate::Overlaps => whole(&mut sig.iter_ones()),
    }
}

/// The frames a frame-sliced signature has a 1-bit in, ascending.
fn frames_of(sig: &Bitmap, cfg: &FssfConfig) -> Vec<u32> {
    let mut frames: Vec<u32> = sig.iter_ones().map(|b| b / cfg.frame_bits()).collect();
    frames.dedup();
    frames
}

/// Predicted FSSF frame pages and filter units of `q` over the stored
/// signatures `sigs` ([`FssfConfig::signature`]): frames are read in
/// ascending order until no row survives.
fn fssf_filter(sigs: &[Bitmap], cfg: &FssfConfig, frame_pages: u64, q: &SetQuery) -> (u64, u64) {
    let want = cfg.signature(&q.elements);
    // `T ⊇ Q` reads the query's frames, `T ⊆ Q` every frame.
    let (superset, frames): (bool, Vec<u32>) = match q.predicate {
        SetPredicate::HasSubset | SetPredicate::Contains => (true, frames_of(&want, cfg)),
        SetPredicate::InSubset => (false, (0..cfg.frames()).collect()),
        other => panic!("no FSSF checkpoint for {other}"),
    };
    let s = cfg.frame_bits();
    let mut alive: Vec<&Bitmap> = sigs.iter().collect();
    let mut consumed = 0;
    for &j in &frames {
        consumed += 1;
        // In frame `j`, a row keeps every query bit (`T ⊇ Q`), or the query
        // every row bit (`T ⊆ Q`).
        alive.retain(|&have| {
            let (a, b) = if superset {
                (have, &want)
            } else {
                (&want, have)
            };
            (j * s..(j + 1) * s).all(|i| !b.get(i) || a.get(i))
        });
        if alive.is_empty() {
            break;
        }
    }
    (consumed * frame_pages, frames.len() as u64)
}

/// `elements` in the order a B-tree descent reads them: by key digest, one
/// element per digest.
fn by_digest<'a>(elements: impl IntoIterator<Item = &'a ElementKey>) -> Vec<&'a ElementKey> {
    let mut keys: Vec<&ElementKey> = elements.into_iter().collect();
    keys.sort_by_key(|e| e.digest8());
    keys.dedup_by_key(|e| e.digest8());
    keys
}

/// Predicted NIX filter pages and filter units (probes) of `q`, from the
/// tree's shape and the ground-truth posting lists (ascending OIDs per
/// element). A query is one descent over its keys in digest order, which
/// reads the distinct pages on their paths and each one's chain links: `⊆`
/// and `≬` over all their keys, `⊇` (and `=`) over its probed ones up to
/// the first list that empties the intersection.
fn nix_filter(postings: &BTreeMap<ElementKey, Vec<u64>>, tree: &BTree, q: &SetQuery) -> (u64, u64) {
    let none = Vec::new();
    let list = |e: &ElementKey| postings.get(e).unwrap_or(&none);
    let descent = |keys: &[&ElementKey]| {
        let mut pages: Vec<u32> = (keys.iter())
            .flat_map(|e| tree.path(e.digest8()).expect("B-tree path"))
            .collect();
        pages.sort_unstable();
        pages.dedup();
        let links: u64 = (keys.iter())
            .map(|e| BTree::chain_links(list(e).len() as u64))
            .sum();
        pages.len() as u64 + links
    };
    match q.predicate {
        SetPredicate::HasSubset | SetPredicate::Contains | SetPredicate::Equals => {
            let probed = capped_elements(q);
            let keys = by_digest(probed);
            let mut alive: Option<Vec<u64>> = None;
            let read = keys
                .iter()
                .position(|e| {
                    let objects = alive.get_or_insert_with(|| list(e).clone());
                    objects.retain(|o| list(e).binary_search(o).is_ok());
                    objects.is_empty()
                })
                .map_or(keys.len(), |i| i + 1);
            (descent(&keys[..read]), probed.len() as u64)
        }
        SetPredicate::InSubset | SetPredicate::Overlaps => {
            (descent(&by_digest(&q.elements)), q.elements.len() as u64)
        }
    }
}

/// A facility entry point under test: how to run its filter stage, what
/// that should cost, and the geometry the closed form must share with it.
struct Subject<'a> {
    /// Drives a query through this entry point and the resolve stage.
    run: &'a dyn Fn(&SetQuery) -> QueryExecution,
    /// Predicted `(filter pages, filter units)` of a query.
    predict: &'a dyn Fn(&SetQuery) -> (u64, u64),
    /// Whether drops are looked up in an OID file (position = OID here:
    /// every facility indexes the instance in OID order, nothing deleted) —
    /// i.e. whether this is a signature file.
    oid_file: bool,
    /// Pages per filter unit, as the facility and as the closed form have it.
    unit_pages: u64,
    model_unit_pages: u64,
}

/// One row of the checkpoint table: exhibit, series, `D_q`, the seed of its
/// query generator, how to phrase the query, whom to ask, and the closed
/// form's filter units, false-drop probability and actual drops.
type Checkpoint<'a> = (
    &'static str,
    &'static str,
    u32,
    u64,
    &'a dyn Fn(Vec<ElementKey>) -> SetQuery,
    &'a Subject<'a>,
    Banded,
    f64,
    f64,
);

/// One storage checkpoint: series, the facility, the query subject whose
/// pages per filter unit it shares, its predicted `(filter pages, filter
/// units)` and the closed form's filter units.
type StorageRow<'a> = (
    &'static str,
    &'a dyn SetAccessFacility,
    &'a Subject<'a>,
    (u64, u64),
    Banded,
);

fn measure(checkpoint: Checkpoint, sim: &SimDb, p: Params, trials: u32) -> DriftPoint {
    let (exhibit, series, d_q, seed, query, subject, units, fd, actual) = checkpoint;
    let mut qg = sim.query_gen(seed);
    let trials = (0..trials)
        .map(|_| {
            let q = query(qg.random(d_q).into_iter().map(ElementKey::from).collect());
            let run = (subject.run)(&q);
            let (filter, units) = (subject.predict)(&q);
            let positions: Vec<u64> = run.drops.oids.iter().map(|o| o.raw()).collect();
            Trial {
                reported: run.stats.map(|s| s.pages),
                disk_pages: run.filter_io.reads,
                filter,
                lc_oid: if subject.oid_file {
                    OidFile::pages_touched(&positions)
                } else {
                    0
                },
                units,
                object_pages: run.resolve_io.accesses(),
                actual: run.actual.len() as u64,
                false_drops: run.report.false_drops,
                split_pages: 0,
            }
        })
        .collect();
    // Signature collisions are between elements, so a signature file's false
    // drops come a posting list at a time; the index has none to collide.
    let (group, lc_oid) = if subject.oid_file {
        (group_size(&p, D_T), lc_oid(&p, fd, actual))
    } else {
        (1.0, 0.0)
    };
    DriftPoint {
        exhibit,
        series,
        d_q,
        params: p,
        model: ModelTerms {
            unit_pages: subject.model_unit_pages,
            units,
            drops: drops(p.n, fd, actual, group),
            lc_oid,
            object: object_access_cost(&p, fd, actual),
        },
        unit_pages: subject.unit_pages,
        trials,
    }
}

/// The update checkpoints (Table 7): per trial, one probe object of `D_t`
/// random elements is inserted into and deleted from each facility, and the
/// `Disk` reads + writes of each call are held to what the probe's own
/// facts predict. Run after the queries: a deleted probe leaves a tombstone
/// (and, in the signature files, its bits) behind.
fn measure_updates(
    sim: &SimDb,
    p: Params,
    trials: u32,
    (ssf, bssf, fssf, nix): (&mut Ssf, &mut Bssf, &mut Fssf, &mut Nix),
) -> Vec<DriftPoint> {
    let disk = sim.db.disk();
    let (cfg, fcfg) = (*bssf.config(), *fssf.config());
    let n = sim.sets.len() as u64;
    let rc = u64::from(nix.tree().rc_lookup());
    let mut qg = sim.query_gen(701);
    // Per facility, its insert and its delete trials.
    let mut measured: [[Vec<Trial>; 2]; 4] = Default::default();
    for t in 0..u64::from(trials) {
        let set: Vec<ElementKey> = qg.random(D_T).into_iter().map(ElementKey::from).collect();
        let oid = Oid::new(n + 1000 + t);
        // Every OID file holds the instance and the earlier probes'
        // tombstones: a delete scans up to the new entry's page and flags it.
        let pos = n + t;
        let oid_scan = pos / OIDS_PER_PAGE + 1 + 1;
        let weight = u64::from(cfg.signature(&set).count_ones());
        let frames = frames_of(&fcfg.signature(&set), &fcfg).len() as u64;
        // A row that starts a frame page extends every frame first.
        let extension = if pos.is_multiple_of(fcfg.rows_per_page()) {
            u64::from(fcfg.frames())
        } else {
            0
        };
        let elements = set.len() as u64;
        let descents = elements * (u64::from(nix.tree().rc_lookup()) + 1);
        let tree_pages = nix.tree().storage_pages().expect("tree pages");
        let height = nix.tree().height();

        let facilities: [&mut dyn SetAccessFacility; 4] = [ssf, bssf, fssf, nix];
        let moved = facilities.map(|facility| {
            let before = disk.snapshot();
            facility.insert(oid, &set).expect("probe insert");
            let between = disk.snapshot();
            facility.delete(oid, &set).expect("probe delete");
            let after = disk.snapshot();
            [
                between.since(before).accesses(),
                after.since(between).accesses(),
            ]
        });

        // Deletes never shrink the tree.
        let grown = nix.tree().storage_pages().expect("tree pages") - tree_pages;
        let splits = split_pages(grown, nix.tree().height() > height);
        let redescents = elements * (u64::from(nix.tree().rc_lookup()) + 1);
        // (filter, LC_OID, units, split pages) of the insert and the delete.
        let predicted = [
            [(1, 1, 1, 0), (0, oid_scan, 0, 0)],
            [(weight, 1, weight, 0), (0, oid_scan, 0, 0)],
            [(frames + extension, 1, frames, 0), (0, oid_scan, 0, 0)],
            [
                (descents + splits, 0, elements, splits),
                (redescents, 0, elements, 0),
            ],
        ];
        for (facility, ops) in predicted.into_iter().enumerate() {
            for (op, (filter, lc_oid, units, split_pages)) in ops.into_iter().enumerate() {
                measured[facility][op].push(Trial {
                    reported: None,
                    disk_pages: moved[facility][op],
                    filter,
                    lc_oid,
                    units,
                    object_pages: 0,
                    actual: 0,
                    false_drops: 0,
                    split_pages,
                });
            }
        }
    }

    // The paper's closed forms (Table 7), `m_t + 1` for the BSSF insert.
    let terms = |unit_pages, units, lc_oid| ModelTerms {
        unit_pages,
        units,
        drops: Banded::exact(0.0),
        lc_oid,
        object: 0.0,
    };
    let none = Banded::exact(0.0);
    let scan = p.sc_oid() as f64 / 2.0;
    let probes = Banded::exact(f64::from(D_T));
    let model_rc = NixModel::new(p, D_T).rc_lookup() as u64;
    let weight = occupancy(cfg.f_bits(), cfg.m_weight(), D_T);
    let frames = occupancy(fcfg.frames(), 1, D_T);
    let rows = [
        ("ssf insert", 1, terms(1, Banded::exact(1.0), 1.0)),
        ("ssf delete", 1, terms(1, none, scan)),
        ("bssf insert", 1, terms(1, weight, 1.0)),
        ("bssf delete", 1, terms(1, none, scan)),
        ("fssf insert", 1, terms(1, frames, 1.0)),
        ("fssf delete", 1, terms(1, none, scan)),
        ("nix insert", rc, terms(model_rc, probes, 0.0)),
        ("nix delete", rc, terms(model_rc, probes, 0.0)),
    ];
    let trials = measured.into_iter().flatten();
    (rows.into_iter().zip(trials))
        .map(|((series, unit_pages, model), trials)| DriftPoint {
            exhibit: "table7",
            series,
            d_q: D_T,
            params: p,
            model,
            unit_pages,
            trials,
        })
        .collect()
}

/// Page accesses B-tree splits add to an insert that grew the tree by
/// `grown` pages: each split appends its new page, then reads and rewrites
/// the parent — except that a new root (`grew`) is appended alone, with no
/// parent to read, rewrite or split.
fn split_pages(grown: u64, grew: bool) -> u64 {
    3 * grown - if grew { 4 } else { 0 }
}

/// Target set cardinality of every checkpoint: the paper's `D_t = 10`.
const D_T: u32 = 10;

/// Runs every checkpoint at the given scale and trial count, all on the
/// paper's `D_t = 10` workload: SSF and BSSF at `F = 500, m = 2` (BSSF flat
/// and behind a 1-shard `QueryService`),
/// FSSF at `F = 500, k = 50, m = 3`, and NIX — every predicate and smart
/// strategy each of them has a scan for, then each signature file's
/// storage, then one insert and one delete of a probe object per facility
/// and trial.
pub fn run(scale: u64, trials: u32) -> DriftReport {
    let opts = Options {
        simulate: true,
        scale: scale.max(1),
        trials: trials.max(1),
    };
    let d_t = D_T;
    let p = opts.params();
    let sim = opts.sim(d_t);

    let (f, m) = (500u32, 2u32);
    let mut ssf = sim.build_ssf(f, m);
    let mut bssf = sim.build_bssf(f, m);
    let service = QueryService::new(vec![sim.build_bssf(f, m)], ServiceConfig::new(1))
        .expect("valid service config");
    let (ff, fk, fm) = (500u32, 50u32, 3u32);
    let mut fssf = sim.build_fssf(ff, fk, fm);
    let mut nix = sim.build_nix();

    // Ground truth the predictions are made from.
    let targets: Vec<Vec<ElementKey>> = (0..sim.sets.len() as u64)
        .map(|oid| sim.target_keys(oid))
        .collect();
    let cfg = *bssf.config();
    let sigs: Vec<Bitmap> = targets.iter().map(|t| cfg.signature(t)).collect();
    let fcfg = *fssf.config();
    let frame_sigs: Vec<Bitmap> = targets.iter().map(|t| fcfg.signature(t)).collect();
    let mut postings: BTreeMap<ElementKey, Vec<u64>> = BTreeMap::new();
    for (oid, target) in targets.iter().enumerate() {
        for e in target {
            postings.entry(e.clone()).or_default().push(oid as u64);
        }
    }

    // Facility geometry, the predictions made through it, and the closed
    // forms' own geometry.
    let sig_pages = ssf.signature_pages().expect("signature file length");
    let pages_per_slice = bssf.pages_per_slice();
    let rows_per_page = p.rows_per_slice_page() as usize;
    let frame_pages = fssf.oid_file().len().div_ceil(fcfg.rows_per_page());
    let rc = u64::from(nix.tree().rc_lookup());
    let bssf_model = BssfModel::new(p, f, m, d_t);
    let ssf_predict = |_: &SetQuery| (sig_pages, 1);
    let bssf_predict = |q: &SetQuery| bssf_filter(&sigs, &cfg, rows_per_page, q);
    let fssf_predict = |q: &SetQuery| fssf_filter(&frame_sigs, &fcfg, frame_pages, q);
    let nix_predict = |q: &SetQuery| nix_filter(&postings, nix.tree(), q);

    let via_ssf = |q: &SetQuery| sim.measure_facility(&ssf, q);
    let via_bssf = |q: &SetQuery| sim.measure_facility(&bssf, q);
    let via_service = |q: &SetQuery| sim.measure_facility(&service, q);
    let via_fssf = |q: &SetQuery| sim.measure_facility(&fssf, q);
    let via_nix = |q: &SetQuery| sim.measure_facility(&nix, q);
    let ssf_subject = Subject {
        run: &via_ssf,
        predict: &ssf_predict,
        oid_file: true,
        unit_pages: sig_pages,
        model_unit_pages: SsfModel::new(p, f, m, d_t).sc_sig(),
    };
    let bssf_subject = |run| Subject {
        run,
        predict: &bssf_predict,
        oid_file: true,
        unit_pages: pages_per_slice,
        model_unit_pages: bssf_model.slice_pages(),
    };
    let (flat, sharded) = (bssf_subject(&via_bssf), bssf_subject(&via_service));
    let fssf_subject = Subject {
        run: &via_fssf,
        predict: &fssf_predict,
        oid_file: true,
        unit_pages: frame_pages,
        model_unit_pages: FssfModel::new(p, ff, fk, fm, d_t).frame_pages(),
    };
    let index = Subject {
        run: &via_nix,
        predict: &nix_predict,
        oid_file: false,
        unit_pages: rc,
        model_unit_pages: NixModel::new(p, d_t).rc_lookup() as u64,
    };

    // §5.1.3: two query elements; §5.2.2 / Appendix C: the zero-slice
    // budget of `D_q^opt`, as the fig9 exhibit sets it.
    let sup_cap = 2u32;
    let (d_q_opt, sub_cap) = bssf_model
        .subset_budget()
        .expect("the drift instance has a D_q^opt");
    let sub_cap = sub_cap as usize;
    let d_sub = 50u32.min(p.v as u32);

    let superset = SetQuery::has_subset;
    let subset = SetQuery::in_subset;
    let smart_superset = |e| superset(e).with_cap(sup_cap as usize).expect("cap ≥ 1");
    let smart_subset = |e| subset(e).with_cap(sub_cap).expect("cap ≥ 1");
    let member = |e: Vec<ElementKey>| SetQuery::contains(e[0].clone());

    // Closed-form ingredients.
    let one = Banded::exact(1.0);
    let probes = |n: u32| Banded::exact(f64::from(n));
    let m_s = |d_q| occupancy(f, m, d_q);
    let zero_slices = Banded {
        mean: f64::from(f) - m_s(d_sub).mean,
        ..m_s(d_sub)
    };
    let a_sup = |d_q| actual_drops_superset(&p, d_t, d_q);
    let a_sub = |d_q| actual_drops_subset(&p, d_t, d_q);
    let fd_sup = |d_q| fd_superset(f, m, d_t, d_q);
    let fd_sub = |d_q| fd_subset(f, m, d_t, d_q);
    // NIX has no false-drop probability: `fails` objects are fetched and
    // rejected on top of the `a` answers.
    let nix_fd = |fails: f64, a: f64| fails / (p.n as f64 - a);
    let smart_nix_fails = objects_sharing_all_of(&p, d_t, sup_cap) - a_sup(3);
    let a_equal = p.n as f64 * (-ln_binomial(p.v, u64::from(d_t))).exp();

    #[rustfmt::skip]
    let table: [Checkpoint; 20] = [
        ("fig5", "ssf ⊇", 1, 101, &superset, &ssf_subject, one, fd_sup(1), a_sup(1)),
        ("fig8", "ssf ⊆", d_sub, 850, &subset, &ssf_subject, one, fd_sub(d_sub), a_sub(d_sub)),
        ("fig5", "bssf ⊇", 1, 101, &superset, &flat, m_s(1), fd_sup(1), a_sup(1)),
        ("fig5", "bssf ⊇", 3, 103, &superset, &flat, m_s(3), fd_sup(3), a_sup(3)),
        ("fig6", "bssf ⊇ smart", 3, 103, &smart_superset, &flat, m_s(sup_cap), fd_sup(sup_cap), a_sup(sup_cap)),
        ("fig8", "bssf ⊆", d_sub, 850, &subset, &flat, zero_slices, fd_sub(d_sub), a_sub(d_sub)),
        // Below D_q^opt the cap binds on every query: the filter term is the
        // constant `cap` slices, the drops those of a query at D_q^opt.
        ("fig9", "bssf ⊆ smart", 10, 133, &smart_subset, &flat, Banded::exact(sub_cap as f64), fd_sub(d_q_opt), a_sub(10)),
        ("extops", "bssf =", 10, 210, &SetQuery::equals, &flat, Banded::exact(f64::from(f)), fd_sup(10).min(fd_sub(10)), a_equal),
        ("extops", "bssf ≬", 3, 203, &SetQuery::overlaps, &flat, m_s(3), bssf_model.fd_overlap(3), bssf_model.actual_overlaps(3)),
        ("fig5", "bssf ⊇ (service)", 1, 101, &superset, &sharded, m_s(1), fd_sup(1), a_sup(1)),
        ("fig5", "bssf ⊇ (service)", 3, 103, &superset, &sharded, m_s(3), fd_sup(3), a_sup(3)),
        ("fig8", "bssf ⊆ (service)", d_sub, 850, &subset, &sharded, zero_slices, fd_sub(d_sub), a_sub(d_sub)),
        ("extorgs", "fssf ⊇", 3, 31, &superset, &fssf_subject, occupancy(fk, 1, 3), fd_superset(ff, fm, d_t, 3), a_sup(3)),
        ("extorgs", "fssf ⊆", d_sub, 850, &subset, &fssf_subject, probes(fk), fd_subset(ff, fm, d_t, d_sub), a_sub(d_sub)),
        ("fig5", "nix ⊇", 1, 101, &superset, &index, probes(1), 0.0, a_sup(1)),
        ("fig5", "nix ⊇", 3, 103, &superset, &index, probes(3), 0.0, a_sup(3)),
        ("fig5", "nix ⊇", 5, 105, &superset, &index, probes(5), 0.0, a_sup(5)),
        ("fig6", "nix ⊇ smart", 3, 103, &smart_superset, &index, probes(sup_cap), nix_fd(smart_nix_fails, a_sup(3)), a_sup(3)),
        // Counting: the union fetches only the objects it meets |T| times,
        // its look-ups one descent.
        ("fig8", "nix ⊆", d_sub, 850, &subset, &index, probes(d_sub), 0.0, a_sub(d_sub)),
        ("extops", "nix ∋", 1, 201, &member, &index, probes(1), 0.0, a_sup(1)),
    ];
    let mut points: Vec<DriftPoint> = table
        .into_iter()
        .map(|checkpoint| measure(checkpoint, &sim, p, opts.trials))
        .collect();

    // Table 6, before the updates add their probes: the files each signature
    // file holds, with the query subjects' pages per filter unit.
    let slices: Vec<u64> = (0..f)
        .map(|j| slice_pages(&sigs, j, rows_per_page))
        .collect();
    let materialized = slices.iter().filter(|&&pages| pages > 0).count() as u64;
    let frames = u64::from(fk);
    #[rustfmt::skip]
    let storage: [StorageRow; 3] = [
        ("ssf sc", &ssf, &ssf_subject, (sig_pages, 1), one),
        ("bssf sc", &bssf, &flat, (slices.iter().sum(), materialized), occupancy(f, m, postings.len() as u32)),
        ("fssf sc", &fssf, &fssf_subject, (frames * frame_pages, frames), probes(fk)),
    ];
    let sc_oid = (sim.sets.len() as u64).div_ceil(OIDS_PER_PAGE);
    points.extend(storage.into_iter().map(
        |(series, facility, subject, (filter, units), model_units)| DriftPoint {
            exhibit: "table6",
            series,
            d_q: d_t,
            params: p,
            model: ModelTerms {
                unit_pages: subject.model_unit_pages,
                units: model_units,
                drops: Banded::exact(0.0),
                lc_oid: p.sc_oid() as f64,
                object: 0.0,
            },
            unit_pages: subject.unit_pages,
            trials: vec![Trial {
                reported: None,
                disk_pages: facility.storage_pages().expect("storage pages"),
                filter,
                lc_oid: sc_oid,
                units,
                object_pages: 0,
                actual: 0,
                false_drops: 0,
                split_pages: 0,
            }],
        },
    ));

    let updated = (&mut ssf, &mut bssf, &mut fssf, &mut nix);
    points.extend(measure_updates(&sim, p, opts.trials, updated));

    // The run's own query trace and its metrics fold, as `drift.*` files.
    let mut carrier = Exhibit::new("drift", "", Vec::new());
    crate::exhibits::attach_observability(&mut carrier, [&sim]);
    DriftReport {
        points,
        artifacts: carrier.artifacts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setsig_costmodel::expected_query_weight;
    use std::sync::OnceLock;

    /// One CI-sized run shared by the tests that only read it.
    fn report() -> &'static DriftReport {
        static REPORT: OnceLock<DriftReport> = OnceLock::new();
        REPORT.get_or_init(|| run(64, 2))
    }

    fn point(series: &str, d_q: u32) -> &'static DriftPoint {
        report()
            .points
            .iter()
            .find(|p| p.series == series && p.d_q == d_q)
            .unwrap_or_else(|| panic!("no checkpoint {series} D_q={d_q}"))
    }

    #[test]
    fn every_checkpoint_conforms_on_every_trial_at_ci_scale() {
        let report = report();
        assert_eq!(report.points.len(), 31);
        for p in &report.points {
            assert!(
                p.ok(),
                "{} {} D_q={}: {:?}",
                p.exhibit,
                p.series,
                p.d_q,
                p.violations()
            );
            assert_eq!(p.exact_trials(), p.trials.len());
        }
        // Two per query and update checkpoint, one per storage checkpoint.
        assert_eq!(report.trial_count(), 59);
    }

    /// The gate has no page of tolerance: one page more or less on any
    /// deterministic term — filter, `LC_OID`, NIX probe, object fetch, on
    /// the reported, the disk or the predicted side — is DRIFT.
    #[test]
    fn one_page_off_on_any_deterministic_term_is_drift() {
        type Term = fn(&mut Trial) -> &mut u64;
        let terms: [(&str, Term); 5] = [
            ("filter / probe", |t| &mut t.filter),
            ("LC_OID", |t| &mut t.lc_oid),
            ("object fetch", |t| &mut t.object_pages),
            ("disk reads", |t| &mut t.disk_pages),
            ("reported pages", |t| t.reported.as_mut().expect("reports")),
        ];
        for base in [point("bssf ⊇", 1), point("nix ⊇", 1)] {
            assert!(base.ok());
            assert!(base.trials[0].filter > 0 && base.trials[0].object_pages > 0);
            for (name, term) in terms {
                for up in [true, false] {
                    let mut off = base.clone();
                    let v = term(&mut off.trials[0]);
                    // LC_OID is 0 on the index: only `+1` exists there.
                    if !up && *v == 0 {
                        continue;
                    }
                    *v = if up { *v + 1 } else { *v - 1 };
                    assert!(
                        !off.ok(),
                        "{}: {name} {} went unnoticed",
                        base.series,
                        if up { "+1" } else { "−1" }
                    );
                }
            }
            let mut off = base.clone();
            off.unit_pages += 1;
            assert!(!off.ok(), "{}: unit geometry +1", base.series);
        }
        // Updates and storage report nothing and still answer to the disk.
        for (series, d_q) in [
            ("bssf sc", 10),
            ("bssf insert", 10),
            ("fssf insert", 10),
            ("ssf delete", 10),
            ("nix delete", 10),
        ] {
            let probe = point(series, d_q);
            assert!(probe.ok() && probe.trials[0].reported.is_none());
            // Predicted filter, predicted LC_OID, and what the disk moved.
            for term in [terms[0].1, terms[1].1, terms[3].1] {
                let mut off = probe.clone();
                *term(&mut off.trials[0]) += 1;
                assert!(!off.ok(), "{series}: one page more went unnoticed");
            }
        }
    }

    /// A BSSF insert is held to the weight of the probe's own signature, not
    /// to `F`; the model beside it is `m_t + 1`.
    #[test]
    fn bssf_insert_costs_the_probe_signatures_weight_plus_one() {
        let insert = point("bssf insert", 10);
        for t in &insert.trials {
            assert_eq!(t.disk_pages, t.units + 1);
            assert!((10..=20).contains(&t.units), "weight {}", t.units);
        }
        let model = BssfModel::new(insert.params, 500, 2, 10).uc_insert_sparse();
        assert!((insert.model.rc() - model).abs() < 1e-9);
    }

    /// The split term on real splits: one key per insert, so that `rc` is
    /// the same from descent to split, through leaf splits and a new root.
    #[test]
    fn split_pages_account_for_every_page_a_split_touches() {
        use setsig_core::{Oid, SetAccessFacility};
        let disk = std::sync::Arc::new(setsig_pagestore::Disk::new());
        let mut nix = setsig_nix::Nix::on_io(std::sync::Arc::clone(&disk) as _, "t");
        let (mut leaf_splits, mut new_roots) = (0, 0);
        for i in 0..3_000u64 {
            let tree = nix.tree();
            let (pages, height) = (tree.storage_pages().unwrap(), tree.height());
            let rc = u64::from(tree.rc_lookup());
            let before = disk.snapshot();
            let key = ElementKey::from(i * 7_919 % 100_003);
            nix.insert(Oid::new(i), &[key]).unwrap();
            let moved = disk.snapshot().since(before).accesses();
            let grown = nix.tree().storage_pages().unwrap() - pages;
            let grew = nix.tree().height() > height;
            assert_eq!(moved, rc + 1 + split_pages(grown, grew), "insert {i}");
            leaf_splits += u64::from(grown > 0 && !grew);
            new_roots += u64::from(grew);
        }
        assert!(leaf_splits > 5 && new_roots == 1);
    }

    #[test]
    fn term_split_adds_up_to_the_cost_models_rc() {
        let p = report().points[0].params;
        let (bssf, nix) = (BssfModel::new(p, 500, 2, 10), NixModel::new(p, 10));
        let d_sub = 50u32.min(p.v as u32);
        for (series, d_q, rc) in [
            (
                "ssf ⊆",
                d_sub,
                SsfModel::new(p, 500, 2, 10).rc_subset(d_sub),
            ),
            ("bssf ⊇", 3, bssf.rc_superset(3)),
            ("bssf ⊇ smart", 3, bssf.rc_superset_smart(3, 2)),
            ("bssf ⊆", d_sub, bssf.rc_subset(d_sub)),
            ("bssf =", 10, bssf.rc_equality(10)),
            ("bssf ≬", 3, bssf.rc_overlap(3)),
            (
                "fssf ⊇",
                3,
                FssfModel::new(p, 500, 50, 3, 10).rc_superset(3),
            ),
            ("nix ⊇", 3, nix.rc_superset(3)),
            ("nix ⊇ smart", 3, nix.rc_superset_smart(3, 2)),
            // Drift prices every NIX probe at `rc`, as §4.3 does: the
            // counting cost with its shared descent priced per look-up.
            (
                "nix ⊆",
                d_sub,
                nix.rc_subset_counting(d_sub) - nix.rc_lookup_many(d_sub)
                    + nix.rc_lookup() * f64::from(d_sub),
            ),
            // Table 6. BSSF's slice units are those the instance's distinct
            // elements set, `F` only once they set every slice.
            ("ssf sc", 10, SsfModel::new(p, 500, 2, 10).sc() as f64),
            ("fssf sc", 10, FssfModel::new(p, 500, 50, 3, 10).sc() as f64),
            // Table 7, with the writer's m_t + 1 for the BSSF insert.
            ("ssf insert", 10, SsfModel::new(p, 500, 2, 10).uc_insert()),
            ("ssf delete", 10, SsfModel::new(p, 500, 2, 10).uc_delete()),
            ("bssf insert", 10, bssf.uc_insert_sparse()),
            ("bssf delete", 10, bssf.uc_delete()),
            (
                "fssf insert",
                10,
                FssfModel::new(p, 500, 50, 3, 10).uc_insert(),
            ),
            ("nix insert", 10, nix.uc_insert()),
            ("nix delete", 10, nix.uc_delete()),
        ] {
            let terms = point(series, d_q).model;
            assert!(
                (terms.rc() - rc).abs() < 1e-6 * rc.max(1.0),
                "{series}: terms sum to {}, the model says {rc}",
                terms.rc()
            );
        }
    }

    #[test]
    fn bands_come_from_the_stated_variance() {
        // One element sets exactly m bits: no variance, no band.
        let one = occupancy(500, 2, 1);
        assert!((one.mean - 2.0).abs() < 1e-9 && one.var < 1e-9);
        assert_eq!(Banded::exact(2.0).half_width(3), 0.0);
        assert!(Banded::exact(2.0).admits(2.0, 3) && !Banded::exact(2.0).admits(2.5, 3));
        // The mean is the paper's m_s; collisions make the weight vary.
        let w = occupancy(500, 2, 50);
        assert!((w.mean - expected_query_weight(500, 2, 50)).abs() < 1e-9);
        assert!(w.var > 1.0 && w.var < w.mean);
        // Two-sided, shrinking with the trial count.
        let d = drops(4000, 0.001, 25.0, 1.0);
        assert!((d.mean - (0.001 * 3975.0 + 25.0)).abs() < 1e-9);
        assert!((d.var - (3.975 * 0.999 + 25.0 * (1.0 - 25.0 / 4000.0))).abs() < 1e-9);
        assert!(d.half_width(10) < d.half_width(2));
        let h = d.half_width(10);
        assert!(d.admits(d.mean + 0.99 * h, 10) && d.admits(d.mean - 0.99 * h, 10));
        assert!(!d.admits(d.mean + 1.01 * h, 10) && !d.admits(d.mean - 1.01 * h, 10));
        // Grouped false drops widen the band; answers are never grouped.
        assert!(drops(4000, 0.001, 25.0, 24.6).var > 4.0 * d.var);
        assert_eq!(
            drops(4000, 0.0, 25.0, 24.6).var,
            drops(4000, 0.0, 25.0, 1.0).var
        );
    }

    #[test]
    fn and_scan_stops_each_row_page_when_its_rows_are_gone() {
        let sig = |bits: &[u32]| Bitmap::from_positions(64, bits);
        // Row page 0 holds a row with bits 1 and 2; row page 1 only bit 1.
        let sigs = [sig(&[1, 2, 9]), sig(&[1]), sig(&[1, 3]), sig(&[4])];
        // Page 0 survives all three slices; page 1 dies at the second, which
        // ends on page 0 (its last 1 is row 0) and so costs nothing there.
        assert_eq!(and_scan_pages(&sigs, &[1, 2, 9], 2), 3 + 1);
        // Slice 3 does reach page 1: the same scan over it pays for both.
        assert_eq!(and_scan_pages(&sigs, &[1, 3], 2), 2 + 2);
        // Nobody has bit 5: the slice was never written, each row page dies
        // on it for free.
        assert_eq!(and_scan_pages(&sigs, &[5, 1], 2), 0);
        assert_eq!(and_scan_pages(&sigs, &[], 2), 0);
        assert_eq!([1, 2, 4, 5].map(|j| slice_pages(&sigs, j, 2)), [2, 1, 2, 0]);
    }
}
