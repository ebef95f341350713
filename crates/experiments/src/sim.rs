//! Simulated database instances: the measured half of every exhibit.
//!
//! A [`SimDb`] is a full paper-style database — object store with `N`
//! synthetic objects on the accounting disk — from which SSF, BSSF and NIX
//! facilities can be built (sharing the same disk) and queries measured in
//! actual page accesses.

use setsig_core::{
    resolve_drops, Bssf, CandidateSet, DropReport, ElementKey, Fssf, FssfConfig, Oid,
    SetAccessFacility, SetQuery, SignatureConfig, Ssf,
};
use setsig_nix::Nix;
use setsig_obs::{Recorder, RingSink, TraceSink};
use setsig_oodb::{AttrType, ClassDef, ClassId, Database, Value};
use setsig_pagestore::{BufferPool, PageIo};
use setsig_workload::{QueryGen, SetGenerator, WorkloadConfig};
use std::sync::Arc;

/// Measured cost breakdown of one query through one facility.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeasuredQuery {
    /// Pages touched by the filtering stage (signature scan / slice reads /
    /// index look-ups, including the OID file).
    pub filter_pages: u64,
    /// Pages touched fetching candidate objects during drop resolution.
    pub object_pages: u64,
    /// Candidates produced by the filter (drops).
    pub candidates: u64,
    /// Candidates that failed verification (false drops).
    pub false_drops: u64,
    /// Qualifying objects.
    pub actual: u64,
}

impl MeasuredQuery {
    /// Total measured retrieval cost — the counterpart of the paper's `RC`.
    pub fn total_pages(&self) -> u64 {
        self.filter_pages + self.object_pages
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
    /// Recorder attached to facilities built after
    /// [`SimDb::enable_observability`]; `None` (the default) builds
    /// facilities with observability off.
    recorder: Option<Arc<Recorder>>,
    /// The ring sink behind `recorder`, for draining trace events.
    ring: Option<Arc<RingSink>>,
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
            recorder: None,
            ring: None,
        }
    }

    /// Turns observability on: facilities built *after* this call share one
    /// fresh [`Recorder`] (metrics registry + a ring sink holding the last
    /// `ring_cap` trace events). Returns the recorder for snapshots.
    pub fn enable_observability(&mut self, ring_cap: usize) -> Arc<Recorder> {
        let ring = Arc::new(RingSink::new(ring_cap));
        let rec = Arc::new(Recorder::new().with_sink(Arc::clone(&ring) as Arc<dyn TraceSink>));
        self.ring = Some(ring);
        self.recorder = Some(Arc::clone(&rec));
        rec
    }

    /// The recorder facilities are built with, when observability is on.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.recorder.as_ref()
    }

    /// The trace ring behind the recorder, when observability is on.
    pub fn trace_ring(&self) -> Option<&Arc<RingSink>> {
        self.ring.as_ref()
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
        ssf.set_recorder(self.recorder.clone());
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
        bssf.set_recorder(self.recorder.clone());
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
        fssf.set_recorder(self.recorder.clone());
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
        nix.set_recorder(self.recorder.clone());
        for (i, set) in self.sets.iter().enumerate() {
            let keys: Vec<ElementKey> = set.iter().map(|&e| ElementKey::from(e)).collect();
            nix.insert(Oid::new(i as u64), &keys).expect("insert");
        }
        self.db.disk().reset_stats();
        nix
    }

    /// Measures one query — plain, or smart when it carries a cap
    /// ([`SetQuery::with_cap`]) — through `facility`, then fetches and
    /// verifies each candidate against the object store. The filter stage is
    /// charged the `ScanStats` returned by *this very call*: the protocol's
    /// page count, exact whether or not a pool served the reads and even
    /// when other queries run concurrently on the same facility.
    pub fn measure_facility(
        &self,
        facility: &dyn SetAccessFacility,
        query: &SetQuery,
    ) -> MeasuredQuery {
        let (candidates, stats) = facility.candidates_with_stats(query).expect("filter stage");
        let filter_pages = stats.expect("the facility reports its filter pages").pages;
        let (report, object_pages) = self.resolve(query, &candidates);
        MeasuredQuery {
            filter_pages,
            object_pages,
            candidates: report.candidates,
            false_drops: report.false_drops,
            actual: report.actual.len() as u64,
        }
    }

    /// The resolve stage: fetches and verifies every candidate against the
    /// object store, returning the report and the object pages it read.
    pub fn resolve(&self, query: &SetQuery, candidates: &CandidateSet) -> (DropReport, u64) {
        let source = self
            .db
            .target_source(self.class, "elems")
            .expect("class has elems");
        let disk = self.db.disk();
        let before = disk.snapshot();
        let report = resolve_drops(query, candidates, &source).expect("resolution");
        (report, disk.snapshot().since(before).accesses())
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
            assert_eq!(a.actual, b.actual, "trial {trial}");
            assert_eq!(b.actual, c.actual, "trial {trial}");
            assert!(a.actual >= 1, "forced hit must match");
            assert_eq!(c.false_drops, 0, "NIX ⊇ is exact");
        }
    }

    #[test]
    fn measured_costs_are_positive_and_split() {
        let sim = SimDb::build(small_cfg());
        let bssf = sim.build_bssf(128, 2);
        let q = SetQuery::has_subset(vec![ElementKey::from(7u64)]);
        let m = sim.measure_facility(&bssf, &q);
        assert!(m.filter_pages > 0);
        assert!(m.actual + m.false_drops == m.candidates);
        assert_eq!(m.total_pages(), m.filter_pages + m.object_pages);
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
        assert_eq!(mp.filter_pages, mc.filter_pages);
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
