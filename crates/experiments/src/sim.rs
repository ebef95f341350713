//! Simulated database instances: the measured half of every exhibit.
//!
//! A [`SimDb`] is a full paper-style database — object store with `N`
//! synthetic objects on the accounting disk — from which SSF, BSSF, FSSF and
//! NIX facilities can be built (sharing the same disk). Every measured number
//! of the harness goes through its three steps: [`SimDb::draw`] the query
//! elements, [`SimDb::measure_facility`] the query, [`SimDb::probe_update`]
//! an insert and a delete.

use setsig_core::{
    Bssf, ElementKey, Fssf, FssfConfig, IndexLayout, Oid, SetAccessFacility, SetQuery,
    SignatureConfig, Ssf,
};
use setsig_nix::Nix;
use setsig_oodb::{AttrType, ClassDef, ClassId, Database, QueryExecution, Value};
use setsig_pagestore::PageIo;
use setsig_workload::{QueryGen, SetGenerator, WorkloadConfig};
use std::cell::RefCell;
use std::sync::Arc;

use crate::trace::QueryTrace;

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

    /// The `count` element sets `QueryGen::new(domain, seed)` draws, `d_q`
    /// elements each, as query keys, each handed to `build` — the elements
    /// of every measured query, whatever its predicate, cap or probe.
    pub(crate) fn draw<Q>(
        &self,
        seed: u64,
        d_q: u32,
        count: u32,
        build: impl Fn(Vec<ElementKey>) -> Q,
    ) -> Vec<Q> {
        let mut qg = QueryGen::new(self.cfg.domain, seed);
        (0..count)
            .map(|_| build(qg.random(d_q).into_iter().map(ElementKey::from).collect()))
            .collect()
    }

    fn io(&self) -> Arc<dyn PageIo> {
        Arc::clone(self.db.disk()) as Arc<dyn PageIo>
    }

    /// Inserts every target into `facility`, OID order, then clears the
    /// disk's counters.
    fn fill<T: SetAccessFacility>(&self, mut facility: T) -> T {
        for oid in 0..self.sets.len() as u64 {
            facility
                .insert(Oid::new(oid), &self.target_keys(oid))
                .expect("insert");
        }
        self.db.disk().reset_stats();
        facility
    }

    /// Builds an SSF over the instance (inserting every target signature).
    pub fn build_ssf(&self, f: u32, m: u32) -> Ssf {
        let cfg = SignatureConfig::new(f, m).expect("valid signature config");
        self.fill(Ssf::create(self.io(), &format!("ssf-f{f}-m{m}"), cfg).expect("fits page"))
    }

    /// Builds a BSSF over the instance via the bulk loader.
    pub fn build_bssf(&self, f: u32, m: u32) -> Bssf {
        let cfg = SignatureConfig::new(f, m).expect("valid signature config");
        let mut bssf = Bssf::create(self.io(), &format!("bssf-f{f}-m{m}"), cfg).expect("create");
        let items: Vec<(Oid, Vec<ElementKey>)> = (0..self.sets.len() as u64)
            .map(|oid| (Oid::new(oid), self.target_keys(oid)))
            .collect();
        bssf.bulk_load(&items).expect("bulk load");
        self.db.disk().reset_stats();
        bssf
    }

    /// Builds a frame-sliced signature file over the instance.
    pub fn build_fssf(&self, f: u32, k: u32, m: u32) -> Fssf {
        let cfg = FssfConfig::new(f, k, m).expect("valid FSSF config");
        self.fill(Fssf::create(self.io(), &format!("fssf-f{f}-k{k}-m{m}"), cfg).expect("create"))
    }

    /// Builds a NIX over the instance.
    pub fn build_nix(&self) -> Nix {
        self.fill(Nix::on_io(self.io(), "nix"))
    }

    /// Measures one query — plain, or smart when it carries a cap
    /// ([`SetQuery::with_cap`]) — through [`Database::execute`]: `facility`'s
    /// filter stage, then a fetch and verification of each drop against the
    /// object store (§3.2). The query's [`QueryTrace`] is built and kept
    /// here, from the filter's own [`ScanStats`](setsig_core::ScanStats) and
    /// the resolution's verdict, with nothing left unknown; a facility that
    /// reports no stats leaves no trace line.
    pub fn measure_facility(
        &self,
        facility: &dyn SetAccessFacility,
        query: &SetQuery,
    ) -> QueryExecution {
        let source = self
            .db
            .target_source(self.class, "elems")
            .expect("class has elems");
        let cache_before = facility.cache_stats();
        let exec = self
            .db
            .execute(facility, &source, query)
            .expect("filter, then resolve");
        if let Some(stats) = exec.stats {
            let cache = cache_before.zip(facility.cache_stats());
            let name = facility.name().to_lowercase();
            let (f_bits, m_weight) = geometry(facility).unzip();
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
                candidates: exec.drops.len() as u64,
                exact: exec.drops.exact,
                false_drops: exec.false_drops,
                cache_hits: cache.map(|(before, after)| after.hits - before.hits),
                cache_misses: cache.map(|(before, after)| after.misses - before.misses),
                facility: name,
            };
            self.trace.borrow_mut().push(ev);
        }
        exec
    }

    /// The measured `RC`: the page accesses of `queries`, each run through
    /// [`SimDb::measure_facility`] in order, averaged.
    pub(crate) fn average_accesses(
        &self,
        facility: &dyn SetAccessFacility,
        queries: &[SetQuery],
    ) -> f64 {
        let total: u64 = (queries.iter())
            .map(|q| self.measure_facility(facility, q).io.accesses())
            .sum();
        total as f64 / queries.len() as f64
    }

    /// The `Disk` reads + writes of inserting `set` as `oid` into
    /// `facility`, and of deleting it again — Table 7's `UC_I` and `UC_D`,
    /// measured. The delete leaves its tombstone behind.
    pub(crate) fn probe_update(
        &self,
        facility: &mut dyn SetAccessFacility,
        oid: Oid,
        set: &[ElementKey],
    ) -> [u64; 2] {
        let disk = self.db.disk();
        let before = disk.snapshot();
        facility.insert(oid, set).expect("probe insert");
        let between = disk.snapshot();
        facility.delete(oid, set).expect("probe delete");
        let moved = [between.since(before), disk.snapshot().since(between)];
        moved.map(|io| io.accesses())
    }
}

/// `(F, m)` of a signature file, as a trace line reports it; `None` for any
/// other facility.
fn geometry(facility: &dyn SetAccessFacility) -> Option<(u32, u32)> {
    match facility.profile()?.layout {
        IndexLayout::Signature { f, m } => Some((f, m)),
        IndexLayout::Nested { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setsig_pagestore::BufferPool;
    use setsig_workload::{subset_of, Cardinality, SplitMix64};

    fn small_cfg() -> WorkloadConfig {
        WorkloadConfig {
            n_objects: 500,
            domain: 200,
            cardinality: Cardinality::Fixed(10),
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

        let mut rng = SplitMix64::new(3);
        for trial in 0..5u64 {
            // Force hits by querying subsets of real targets.
            let target = &sim.sets[(trial * 97 % 500) as usize];
            let q = SetQuery::has_subset(
                subset_of(&mut rng, target, 3)
                    .into_iter()
                    .map(ElementKey::from)
                    .collect(),
            );
            let a = sim.measure_facility(&ssf, &q);
            let b = sim.measure_facility(&bssf, &q);
            let c = sim.measure_facility(&nix, &q);
            assert_eq!(a.actual, b.actual, "trial {trial}");
            assert_eq!(b.actual, c.actual, "trial {trial}");
            assert!(!a.actual.is_empty(), "forced hit must match");
            assert_eq!(c.false_drops, 0, "NIX ⊇ is exact");
        }
    }

    #[test]
    fn measured_costs_are_positive_and_split() {
        let sim = SimDb::build(small_cfg());
        let bssf = sim.build_bssf(128, 2);
        let q = SetQuery::has_subset(vec![ElementKey::from(7u64)]);
        let m = sim.measure_facility(&bssf, &q);
        assert!(m.stats.unwrap().pages > 0);
        assert_eq!(m.actual.len() as u64 + m.false_drops, m.drops.len() as u64);
        // On the bare disk the whole query's accesses — what
        // `average_accesses` averages — are the filter's charged pages plus the object pages.
        assert_eq!(
            m.io.accesses(),
            m.stats.unwrap().pages + m.resolve_io.accesses()
        );
    }

    /// The trace line is built where the drops are resolved, so it agrees
    /// with the filter call's own `ScanStats` and with its false drops, and
    /// leaves nothing unknown — for every facility, ⊇ and ⊆, plain and smart.
    #[test]
    fn every_trace_line_agrees_with_its_querys_stats_and_drop_report() {
        let sim = SimDb::build(small_cfg());
        let (ssf, bssf) = (sim.build_ssf(128, 2), sim.build_bssf(128, 2));
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
                None => assert_eq!(ev.pages, run.filter_io.reads, "no pool"),
                Some((hits, misses)) => {
                    assert_eq!(ev.pages, hits + misses, "all through the pool");
                    assert_eq!(misses, run.filter_io.reads);
                }
            }
            assert_eq!(ev.early_exit, stats.early_exit);
            assert_eq!(
                ev.slices_touched,
                sliced(&ev.facility).then_some(stats.slices)
            );
            assert_eq!(ev.f_bits.zip(ev.m_weight), geometry(facility));
            assert_eq!(ev.false_drops, run.false_drops);
            assert_eq!(ev.candidates, run.actual.len() as u64 + ev.false_drops);
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

        let cfg = SignatureConfig::new(128, 2).unwrap();
        let pooled = pooled(&sim, |io| Bssf::create(io, "pooled", cfg).unwrap());
        let (_, ev) = check(&pooled, &queries[0]);
        assert!(ev.cache_hits.is_some(), "a pooled facility's line says so");

        // Two shards: the merged stats the line is built from are the
        // shards' pages and slices summed and their early exits ORed.
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

    /// A facility over a 64-frame pool on `sim`'s disk, fed every target.
    fn pooled<T: SetAccessFacility>(sim: &SimDb, create: impl FnOnce(Arc<dyn PageIo>) -> T) -> T {
        sim.fill(create(Arc::new(BufferPool::new(
            Arc::clone(sim.db.disk()),
            64,
        ))))
    }

    #[test]
    fn pooled_facility_answers_and_charges_identically() {
        let sim = SimDb::build(small_cfg());
        let cfg = SignatureConfig::new(128, 2).unwrap();
        let cached = pooled(&sim, |io| Ssf::create(io, "cached", cfg).unwrap());
        let plain = sim.build_ssf(128, 2);
        let q = SetQuery::has_subset(vec![ElementKey::from(7u64)]);
        // The pool changes what the disk reads, never the drops or the
        // pages the scan charges.
        let mp = sim.measure_facility(&plain, &q);
        let mc = sim.measure_facility(&cached, &q);
        assert_eq!((&mp.drops, mp.stats), (&mc.drops, mc.stats));
        assert!(cached.cache_stats().is_some());
        assert!(plain.cache_stats().is_none());
    }

    /// The draw is `QueryGen`'s, seed for seed; the average is over what
    /// each query's own run read.
    #[test]
    fn average_accesses_averages_the_drawn_queries() {
        let sim = SimDb::build(small_cfg());
        let nix = sim.build_nix();
        let mut qg = QueryGen::new(sim.cfg.domain, 9);
        for keys in sim.draw(9, 3, 4, |keys| keys) {
            let expected: Vec<ElementKey> =
                (qg.random(3).into_iter().map(ElementKey::from)).collect();
            assert_eq!(keys, expected);
        }
        let queries = sim.draw(9, 3, 4, SetQuery::has_subset);
        let runs: Vec<u64> = (queries.iter())
            .map(|q| sim.measure_facility(&nix, q).io.accesses())
            .collect();
        let avg = sim.average_accesses(&nix, &queries);
        assert!(avg > 0.0);
        assert_eq!(avg, runs.iter().sum::<u64>() as f64 / 4.0);
    }
}
