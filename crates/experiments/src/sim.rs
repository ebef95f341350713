//! Simulated database instances: the measured half of every exhibit.
//!
//! A [`SimDb`] is a full paper-style database — object store with `N`
//! synthetic objects on the accounting disk — from which SSF, BSSF and NIX
//! facilities can be built (sharing the same disk) and queries measured in
//! actual page accesses.

use setsig_core::{
    resolve_drops, Bssf, CandidateSet, DropReport, ElementKey, Fssf, FssfConfig, Oid, ScanStats,
    SetAccessFacility, SetQuery, SignatureConfig, Ssf,
};
use setsig_nix::Nix;
use setsig_oodb::{AttrType, ClassDef, ClassId, Database, Value};
use setsig_pagestore::{BufferPool, PageIo};
use setsig_workload::{QueryGen, SetGenerator, WorkloadConfig};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use crate::trace::QueryTrace;

/// Everything one measured query did, stage by stage: what
/// [`SimDb::measure_facility`] returns and builds the query's
/// [`QueryTrace`] from.
#[derive(Debug, Clone)]
pub struct MeasuredQuery {
    /// The filter stage's drops.
    pub drops: CandidateSet,
    /// The filter call's own accounting; `None` for an entry point that
    /// reports none.
    pub stats: Option<ScanStats>,
    /// `Disk` reads over the filter call.
    pub filter_reads: u64,
    /// The resolve stage's verdict on the drops.
    pub report: DropReport,
    /// Pages touched fetching candidate objects during drop resolution.
    pub object_pages: u64,
}

impl MeasuredQuery {
    /// Total measured retrieval cost — the counterpart of the paper's `RC`:
    /// the pages the filter call charged (the protocol's count, exact
    /// whether or not a pool served the reads) plus the object pages.
    pub fn total_pages(&self) -> u64 {
        let stats = self.stats.expect("the facility reports its filter pages");
        stats.pages + self.object_pages
    }
}

/// The knob of the measured facilities: whether reads are routed through a
/// buffer pool.
///
/// The default — no pool — is the paper's protocol, and every published
/// number is measured that way. The knob exists so each exhibit can be
/// re-run with a hot cache (the candidate sets and page charges are
/// identical by construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineConfig {
    /// Buffer-pool capacity in frames; `None` leaves reads uncached.
    pub pool_pages: Option<usize>,
}

impl EngineConfig {
    /// The paper's uncached protocol.
    pub fn serial() -> Self {
        Self::default()
    }

    /// Reads `SETSIG_POOL_PAGES` (buffer-pool frames, default none) so any
    /// exhibit binary can flip engines without a rebuild.
    ///
    /// Panics on an invalid value. A knob that silently fell back to the
    /// default would let a typo masquerade as a pooled measurement, which
    /// is exactly the kind of quiet corruption the harness must fail loudly
    /// on instead.
    pub fn from_env() -> Self {
        match Self::from_lookup(|k| std::env::var(k).ok()) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// The parsing core behind [`from_env`](Self::from_env), taking the
    /// environment as a lookup function so tests can exercise every
    /// malformed input without mutating process-global state.
    ///
    /// Rules: an unset or empty/whitespace variable means "default";
    /// anything else must parse as an integer ≥ 1 (a zero-frame pool is
    /// spelled by unsetting the variable). Surrounding whitespace is
    /// tolerated.
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let Some(v) = get("SETSIG_POOL_PAGES").filter(|v| !v.trim().is_empty()) else {
            return Ok(Self::serial());
        };
        match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(EngineConfig {
                pool_pages: Some(n),
            }),
            _ => Err(format!(
                "SETSIG_POOL_PAGES must be an integer >= 1, got {v:?} \
                 (unset it for the default)"
            )),
        }
    }
}

/// A synthetic database instance: `N` objects, each with one indexed set
/// attribute drawn per the workload config.
pub struct SimDb {
    /// The database (object store + accounting disk).
    pub db: Database,
    /// The synthetic class.
    pub class: ClassId,
    /// Ground-truth target sets, indexed by OID.
    pub sets: Vec<Vec<u64>>,
    /// The workload that generated the instance.
    pub cfg: WorkloadConfig,
    /// The trace event of every measured query, oldest first, until an
    /// exhibit takes them.
    pub trace: RefCell<Vec<QueryTrace>>,
}

impl SimDb {
    /// Builds the instance: generates all target sets and stores them as
    /// objects (OID `i` holds `sets[i]`).
    pub fn build(cfg: WorkloadConfig) -> Self {
        let sets = SetGenerator::new(cfg).generate_all();
        let mut db = Database::in_memory();
        let class = db
            .define_class(ClassDef::new(
                "Synthetic",
                vec![("elems", AttrType::set_of(AttrType::Int))],
            ))
            .expect("fresh database");
        for set in &sets {
            let value = Value::Set(set.iter().map(|&e| Value::Int(e as i64)).collect());
            db.insert_object(class, vec![value])
                .expect("schema-valid insert");
        }
        db.disk().reset_stats();
        SimDb {
            db,
            class,
            sets,
            cfg,
            trace: RefCell::default(),
        }
    }

    /// Elements of target `oid` as query keys.
    pub fn target_keys(&self, oid: u64) -> Vec<ElementKey> {
        self.sets[oid as usize]
            .iter()
            .map(|&e| ElementKey::from(e))
            .collect()
    }

    /// A deterministic query generator over this instance's domain.
    pub fn query_gen(&self, seed: u64) -> QueryGen {
        QueryGen::new(self.cfg.domain, seed)
    }

    fn io(&self) -> Arc<dyn PageIo> {
        Arc::clone(self.db.disk()) as Arc<dyn PageIo>
    }

    /// The I/O handle one facility is built on under `engine`: the bare
    /// accounting disk, or a fresh [`BufferPool`] over it.
    fn engine_io(&self, engine: EngineConfig) -> Arc<dyn PageIo> {
        match engine.pool_pages {
            Some(pages) => Arc::new(BufferPool::new(Arc::clone(self.db.disk()), pages)),
            None => self.io(),
        }
    }

    /// Builds an SSF over the instance (inserting every target signature),
    /// with engine knobs from the environment (see [`EngineConfig::from_env`]).
    pub fn build_ssf(&self, f: u32, m: u32) -> Ssf {
        self.build_ssf_with(f, m, EngineConfig::from_env())
    }

    /// Builds an SSF with explicit engine knobs.
    pub fn build_ssf_with(&self, f: u32, m: u32, engine: EngineConfig) -> Ssf {
        let cfg = SignatureConfig::new(f, m).expect("valid signature config");
        let name = format!("ssf-f{f}-m{m}");
        let mut ssf = Ssf::create(self.engine_io(engine), &name, cfg).expect("fits page");
        for (i, set) in self.sets.iter().enumerate() {
            let keys: Vec<ElementKey> = set.iter().map(|&e| ElementKey::from(e)).collect();
            ssf.insert(Oid::new(i as u64), &keys).expect("insert");
        }
        self.db.disk().reset_stats();
        ssf
    }

    /// Builds a BSSF over the instance via the bulk loader, with engine
    /// knobs from the environment (see [`EngineConfig::from_env`]).
    pub fn build_bssf(&self, f: u32, m: u32) -> Bssf {
        self.build_bssf_with(f, m, EngineConfig::from_env())
    }

    /// Builds a BSSF with explicit engine knobs.
    pub fn build_bssf_with(&self, f: u32, m: u32, engine: EngineConfig) -> Bssf {
        let cfg = SignatureConfig::new(f, m).expect("valid signature config");
        let name = format!("bssf-f{f}-m{m}");
        let mut bssf = Bssf::create(self.engine_io(engine), &name, cfg).expect("create");
        let items: Vec<(Oid, Vec<ElementKey>)> = self
            .sets
            .iter()
            .enumerate()
            .map(|(i, set)| {
                (
                    Oid::new(i as u64),
                    set.iter().map(|&e| ElementKey::from(e)).collect(),
                )
            })
            .collect();
        bssf.bulk_load(&items).expect("bulk load");
        self.db.disk().reset_stats();
        bssf
    }

    /// Builds a frame-sliced signature file over the instance.
    pub fn build_fssf(&self, f: u32, k: u32, m: u32) -> Fssf {
        let cfg = FssfConfig::new(f, k, m).expect("valid FSSF config");
        let mut fssf =
            Fssf::create(self.io(), &format!("fssf-f{f}-k{k}-m{m}"), cfg).expect("create");
        for (i, set) in self.sets.iter().enumerate() {
            let keys: Vec<ElementKey> = set.iter().map(|&e| ElementKey::from(e)).collect();
            fssf.insert(Oid::new(i as u64), &keys).expect("insert");
        }
        self.db.disk().reset_stats();
        fssf
    }

    /// Builds a NIX over the instance.
    pub fn build_nix(&self) -> Nix {
        let mut nix = Nix::on_io(self.io(), "nix");
        for (i, set) in self.sets.iter().enumerate() {
            let keys: Vec<ElementKey> = set.iter().map(|&e| ElementKey::from(e)).collect();
            nix.insert(Oid::new(i as u64), &keys).expect("insert");
        }
        self.db.disk().reset_stats();
        nix
    }

    /// Measures one query — plain, or smart when it carries a cap
    /// ([`SetQuery::with_cap`]) — through both phases (§3.2): `facility`'s
    /// filter stage, then a fetch and verification of each drop against the
    /// object store. This is the one place the harness composes the two, so
    /// it is also where the query's [`QueryTrace`] is built and kept, with
    /// nothing left unknown.
    pub fn measure_facility(
        &self,
        facility: &dyn SetAccessFacility,
        query: &SetQuery,
    ) -> MeasuredQuery {
        self.measure_via(facility, query, |q| {
            facility.candidates_with_stats(q).expect("filter stage")
        })
    }

    /// [`SimDb::measure_facility`] with `filter` standing in for
    /// `facility`'s `candidates_with_stats`. A filter that reports no stats
    /// leaves no trace event.
    pub(crate) fn measure_via(
        &self,
        facility: &dyn SetAccessFacility,
        query: &SetQuery,
        filter: impl FnOnce(&SetQuery) -> (CandidateSet, Option<ScanStats>),
    ) -> MeasuredQuery {
        let disk = self.db.disk();
        let source = self
            .db
            .target_source(self.class, "elems")
            .expect("class has elems");
        let cache_before = facility.cache_stats();
        let (start, before) = (Instant::now(), disk.snapshot());
        let (drops, stats) = filter(query);
        let (latency_ns, filtered) = (start.elapsed().as_nanos() as u64, disk.snapshot());
        let report = resolve_drops(query, &drops, &source).expect("resolution");
        let object_pages = disk.snapshot().since(filtered).accesses();
        if let Some(stats) = stats {
            let cache = cache_before.zip(facility.cache_stats());
            let name = facility.name().to_lowercase();
            let (f_bits, m_weight) = facility.signature_geometry().unzip();
            let smart = query.cap().map_or("", |_| ":smart");
            let ev = QueryTrace {
                predicate: format!("{:?}{smart}", query.predicate),
                d_q: query.elements.len() as u64,
                f_bits,
                m_weight,
                // BSSF slices, FSSF frames; row scans and B-tree probes
                // touch none.
                slices_touched: matches!(&*name, "bssf" | "fssf").then_some(stats.slices),
                early_exit: stats.early_exit,
                pages: stats.pages,
                candidates: report.candidates,
                exact: drops.exact,
                false_drops: report.false_drops,
                cache_hits: cache.map(|(before, after)| after.hits - before.hits),
                cache_misses: cache.map(|(before, after)| after.misses - before.misses),
                latency_ns,
                facility: name,
            };
            self.trace.borrow_mut().push(ev);
        }
        MeasuredQuery {
            drops,
            stats,
            filter_reads: filtered.since(before).reads,
            report,
            object_pages,
        }
    }

    /// Averages `trials` measured queries produced by `make_query`.
    pub fn measure_avg(
        &self,
        facility: &dyn SetAccessFacility,
        trials: u32,
        mut make_query: impl FnMut(u32) -> SetQuery,
    ) -> f64 {
        let mut total = 0u64;
        for t in 0..trials {
            let q = make_query(t);
            total += self.measure_facility(facility, &q).total_pages();
        }
        total as f64 / trials as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setsig_workload::{Cardinality, Distribution};

    fn lookup<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |k| {
            pairs
                .iter()
                .find(|(name, _)| *name == k)
                .map(|(_, v)| (*v).to_string())
        }
    }

    #[test]
    fn engine_env_defaults_when_unset_or_blank() {
        assert_eq!(
            EngineConfig::from_lookup(lookup(&[])).unwrap(),
            EngineConfig::serial()
        );
        assert_eq!(
            EngineConfig::from_lookup(lookup(&[("SETSIG_POOL_PAGES", "   ")])).unwrap(),
            EngineConfig::serial()
        );
    }

    #[test]
    fn engine_env_parses_valid_values_with_whitespace() {
        let cfg = EngineConfig::from_lookup(lookup(&[("SETSIG_POOL_PAGES", " 256 ")])).unwrap();
        assert_eq!(cfg.pool_pages, Some(256));
    }

    #[test]
    fn engine_env_rejects_zero_negative_and_garbage() {
        for bad in ["0", "-3", "eight", "2.5", "1e3"] {
            let err = EngineConfig::from_lookup(lookup(&[("SETSIG_POOL_PAGES", bad)])).unwrap_err();
            assert!(
                err.contains("SETSIG_POOL_PAGES") && err.contains(bad),
                "error must name the variable and value: {err}"
            );
        }
    }

    fn small_cfg() -> WorkloadConfig {
        WorkloadConfig {
            n_objects: 500,
            domain: 200,
            cardinality: Cardinality::Fixed(10),
            distribution: Distribution::Uniform,
            seed: 17,
        }
    }

    #[test]
    fn build_creates_consistent_instance() {
        let sim = SimDb::build(small_cfg());
        assert_eq!(sim.sets.len(), 500);
        // Object i's stored set matches the ground truth.
        let obj = sim.db.get_object(Oid::new(42)).unwrap();
        let stored = obj.values[0].as_element_set().unwrap();
        let expected: Vec<ElementKey> = sim.sets[42].iter().map(|&e| ElementKey::from(e)).collect();
        let mut sorted = expected.clone();
        sorted.sort_unstable();
        let mut stored_sorted = stored.clone();
        stored_sorted.sort_unstable();
        assert_eq!(stored_sorted, sorted);
    }

    #[test]
    fn all_three_facilities_agree_on_actual_answers() {
        let sim = SimDb::build(small_cfg());
        let ssf = sim.build_ssf(128, 2);
        let bssf = sim.build_bssf(128, 2);
        let nix = sim.build_nix();

        let mut qg = sim.query_gen(3);
        for trial in 0..5u64 {
            // Force hits by querying subsets of real targets.
            let target = &sim.sets[(trial * 97 % 500) as usize];
            let q = SetQuery::has_subset(
                qg.subset_of_target(target, 3)
                    .into_iter()
                    .map(ElementKey::from)
                    .collect(),
            );
            let a = sim.measure_facility(&ssf, &q);
            let b = sim.measure_facility(&bssf, &q);
            let c = sim.measure_facility(&nix, &q);
            assert_eq!(a.report.actual, b.report.actual, "trial {trial}");
            assert_eq!(b.report.actual, c.report.actual, "trial {trial}");
            assert!(!a.report.actual.is_empty(), "forced hit must match");
            assert_eq!(c.report.false_drops, 0, "NIX ⊇ is exact");
        }
    }

    #[test]
    fn measured_costs_are_positive_and_split() {
        let sim = SimDb::build(small_cfg());
        let bssf = sim.build_bssf(128, 2);
        let q = SetQuery::has_subset(vec![ElementKey::from(7u64)]);
        let m = sim.measure_facility(&bssf, &q);
        assert!(m.stats.unwrap().pages > 0);
        let report = &m.report;
        assert!(report.actual.len() as u64 + report.false_drops == report.candidates);
        assert_eq!(m.total_pages(), m.stats.unwrap().pages + m.object_pages);
    }

    /// The trace line is built where the drops are resolved, so it agrees
    /// with the filter call's own `ScanStats` and with the `DropReport`, and
    /// leaves nothing unknown — for every facility, ⊇ and ⊆, plain and smart.
    #[test]
    fn every_trace_line_agrees_with_its_querys_stats_and_drop_report() {
        let sim = SimDb::build(small_cfg());
        let serial = EngineConfig::serial();
        let ssf = sim.build_ssf_with(128, 2, serial);
        let bssf = sim.build_bssf_with(128, 2, serial);
        let (fssf, nix) = (sim.build_fssf(128, 8, 2), sim.build_nix());
        let target = sim.target_keys(42);
        let wider: Vec<ElementKey> = target.iter().cloned().chain(sim.target_keys(43)).collect();
        let queries = [
            SetQuery::has_subset(target[..3].to_vec()),
            SetQuery::in_subset(wider.clone()),
            SetQuery::has_subset(target[..3].to_vec())
                .with_cap(1)
                .unwrap(),
            SetQuery::in_subset(wider).with_cap(40).unwrap(),
        ];
        let sliced = |name: &str| matches!(name, "bssf" | "fssf");
        let check = |facility: &dyn SetAccessFacility, q: &SetQuery| {
            let run = sim.measure_facility(facility, q);
            let stats = run.stats.expect("every facility reports stats");
            let mut lines = sim.trace.take();
            let ev = lines.pop().expect("the query left its line");
            assert!(lines.is_empty(), "one line per query");
            assert_eq!(ev.facility, facility.name().to_lowercase());
            assert_eq!(ev.predicate.ends_with(":smart"), q.cap().is_some());
            assert_eq!(ev.pages, stats.pages);
            match ev.cache_hits.zip(ev.cache_misses) {
                None => assert_eq!(ev.pages, run.filter_reads, "no pool"),
                Some((hits, misses)) => {
                    assert_eq!(ev.pages, hits + misses, "all through the pool");
                    assert_eq!(misses, run.filter_reads);
                }
            }
            assert_eq!(ev.early_exit, stats.early_exit);
            assert_eq!(
                ev.slices_touched,
                sliced(&ev.facility).then_some(stats.slices)
            );
            assert_eq!(ev.f_bits.zip(ev.m_weight), facility.signature_geometry());
            assert_eq!(ev.false_drops, run.report.false_drops);
            assert_eq!(
                ev.candidates,
                run.report.actual.len() as u64 + ev.false_drops
            );
            assert!(
                !ev.exact || ev.false_drops == 0,
                "exact drops are never false"
            );
            (stats, ev)
        };
        let facilities: [&dyn SetAccessFacility; 4] = [&ssf, &bssf, &fssf, &nix];
        let (mut events, mut false_drops) = (Vec::new(), [0; 4]);
        for (facility, total) in facilities.into_iter().zip(&mut false_drops) {
            for q in &queries {
                let ev = check(facility, q).1;
                *total += ev.false_drops;
                events.push(ev);
            }
        }
        // NIX counts ⊆ exactly; the capped ⊇, intersecting one list, is
        // where its false drops come from.
        assert!(
            false_drops[3] > 0,
            "the capped NIX ⊇ fetches objects it must reject"
        );
        let metrics = crate::metrics_text(&events);
        for (facility, total) in ["ssf", "bssf", "fssf", "nix"].into_iter().zip(false_drops) {
            for line in [
                format!("{facility}.queries 4"),
                format!("{facility}.false_drops {total}"),
            ] {
                assert!(metrics.lines().any(|l| l == line), "{line} in\n{metrics}");
            }
        }

        let pooled = EngineConfig {
            pool_pages: Some(64),
        };
        let (_, ev) = check(&sim.build_bssf_with(128, 2, pooled), &queries[0]);
        assert!(ev.cache_hits.is_some(), "a pooled facility's line says so");

        // Two shards: the merged stats the line is built from are the
        // shards' pages and slices summed and their early exits ORed.
        let cfg = SignatureConfig::new(128, 2).unwrap();
        let shards = (0..2).map(|i| Bssf::create(sim.io(), &format!("shard{i}"), cfg).unwrap());
        let config = setsig_service::ServiceConfig::new(2);
        let service = setsig_service::QueryService::new(shards.collect(), config).unwrap();
        for oid in 0..sim.sets.len() as u64 {
            service
                .insert(Oid::new(oid), &sim.target_keys(oid))
                .unwrap();
        }
        for q in &queries {
            let (merged, ev) = check(&service, q);
            let parts = [0, 1].map(|shard| service.query_shard(shard, q).unwrap().1.unwrap());
            assert!(parts.iter().all(|part| part.slices > 0));
            assert_eq!(merged.pages, parts[0].pages + parts[1].pages);
            assert_eq!(merged.slices, parts[0].slices + parts[1].slices);
            assert_eq!(
                merged.early_exit,
                parts[0].early_exit || parts[1].early_exit
            );
            assert_eq!(ev.f_bits, Some(128), "geometry survives the service");
        }
    }

    #[test]
    fn pooled_engine_answers_and_measures_identically() {
        let sim = SimDb::build(small_cfg());
        let cached = sim.build_ssf_with(
            128,
            2,
            EngineConfig {
                pool_pages: Some(64),
            },
        );
        let plain = sim.build_ssf_with(128, 2, EngineConfig::serial());
        let q = SetQuery::has_subset(vec![ElementKey::from(7u64)]);
        assert_eq!(
            plain.candidates(&q).unwrap(),
            cached.candidates(&q).unwrap()
        );
        // The exhibits' measured RC must not depend on the pool:
        // measure_facility charges the scan's own page count, not the
        // (cache-dependent) disk delta.
        let mp = sim.measure_facility(&plain, &q);
        let mc = sim.measure_facility(&cached, &q);
        assert_eq!(mp.stats, mc.stats);
        assert!(cached.cache_stats().is_some());
        assert!(plain.cache_stats().is_none());
    }

    #[test]
    fn measure_avg_averages() {
        let sim = SimDb::build(small_cfg());
        let nix = sim.build_nix();
        let avg = sim.measure_avg(&nix, 4, |t| {
            SetQuery::has_subset(vec![ElementKey::from(t as u64)])
        });
        assert!(avg > 0.0);
    }
}
