//! The database: catalog + object store + set access facilities + the
//! two-phase query executor.

use setsig_core::{
    resolve_drops, CandidateSet, ElementKey, ElementSet, IndexLayout, Oid, OidAllocator, ScanStats,
    SetAccessFacility, SetPredicate, SetQuery, TargetSetSource,
};
use setsig_costmodel::{BssfModel, NixModel, Params};
use setsig_pagestore::{Disk, IoDelta, PageIo};
use std::cell::RefCell;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::object::Object;
use crate::path::PathSpec;
use crate::schema::{ClassDef, ClassId};
use crate::store::ObjectStore;
use crate::value::{AttrShape, Prim, Value};

/// What a facility indexes: a set attribute directly, or a set derived by
/// following references (§1's `Student.courses.category` path).
#[derive(Debug, Clone, PartialEq, Eq)]
enum IndexedSource {
    /// The set attribute at this index on the host class.
    Direct(usize),
    /// The path-derived set (see [`Database::register_path_facility`]).
    Path(PathSpec),
}

/// A registered set access facility: which class/source it indexes plus
/// the facility itself (SSF, BSSF, FSSF, or — via `setsig-nix` — NIX).
struct RegisteredFacility {
    class: ClassId,
    source: IndexedSource,
    facility: Box<dyn SetAccessFacility>,
}

/// The result of executing one set query: through a facility (filter,
/// then resolve) or as a full scan.
#[derive(Debug, Clone)]
pub struct QueryExecution {
    /// Qualifying objects after false-drop resolution.
    pub actual: Vec<Oid>,
    /// The drops resolution rejected (*false drops*): `drops` less
    /// `actual`.
    pub false_drops: u64,
    /// This database's `Disk` accesses over the whole query (filter + OID
    /// look-up + object fetches), a delta of two `Disk` snapshots. On the
    /// bare disk that is every page access, the paper's `RC`; under a
    /// `BufferPool` it leaves out every pool hit and counts only the
    /// misses. The charge that does not depend on the cache is the
    /// filter stage's page tally, `stats.pages` ([`ScanStats::pages`]: its
    /// signature or slice pages and OID pages, pool hits counted), which
    /// leaves out the object fetches.
    pub io: IoDelta,
    /// The drops the filter stage handed to resolution; for a full scan,
    /// every object of the class it examined.
    pub drops: CandidateSet,
    /// The filter call's own accounting; `None` for a full scan, or for a
    /// facility that reports none.
    pub stats: Option<ScanStats>,
    /// `Disk` accesses over the filter call (zero for a full scan).
    pub filter_io: IoDelta,
    /// `Disk` accesses over false-drop resolution: `io` is `filter_io`
    /// plus this.
    pub resolve_io: IoDelta,
}

/// A minimal OODB: classes, one object store, and any number of set access
/// facilities over indexed set attributes.
pub struct Database {
    disk: Arc<Disk>,
    store: ObjectStore,
    classes: Vec<ClassDef>,
    facilities: Vec<RegisteredFacility>,
    allocator: OidAllocator,
}

impl Database {
    /// Creates a database on a fresh in-memory accounting disk.
    pub fn in_memory() -> Self {
        Database::on_disk(Arc::new(Disk::new()))
    }

    /// Creates a database on an existing disk (so experiments can inspect
    /// per-file counters).
    pub fn on_disk(disk: Arc<Disk>) -> Self {
        let io: Arc<dyn PageIo> = Arc::clone(&disk) as Arc<dyn PageIo>;
        Database {
            disk,
            store: ObjectStore::create(io, "objects"),
            classes: Vec::new(),
            facilities: Vec::new(),
            allocator: OidAllocator::new(),
        }
    }

    /// The underlying accounting disk.
    pub fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    /// The object store.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Defines a class; names must be unique.
    pub fn define_class(&mut self, def: ClassDef) -> Result<ClassId> {
        if self.classes.iter().any(|c| c.name == def.name) {
            return Err(Error::DuplicateClass(def.name));
        }
        let id = ClassId(self.classes.len() as u32);
        self.classes.push(def);
        Ok(id)
    }

    /// The definition of `class`.
    pub fn class(&self, class: ClassId) -> Result<&ClassDef> {
        self.classes
            .get(class.0 as usize)
            .ok_or(Error::NoSuchClass(class))
    }

    /// Looks a class up by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.classes
            .iter()
            .position(|c| c.name == name)
            .map(|i| ClassId(i as u32))
    }

    /// Creates an object of `class` with the given attribute values,
    /// validating them against the schema, storing the object, and feeding
    /// every registered facility on the class.
    pub fn insert_object(&mut self, class: ClassId, values: Vec<Value>) -> Result<Oid> {
        self.class(class)?.check_values(&values)?;
        // The OID is taken only once the object is stored, so a rejected
        // insert leaves no gap for the next one.
        let oid = Oid::new(self.allocator.peek());
        let object = Object { oid, class, values };
        // Derive before storing so a dangling path reference fails the
        // whole insert instead of leaving a half-indexed object.
        let mut derived: Vec<(usize, Vec<ElementKey>)> = Vec::new();
        for (i, reg) in self.facilities.iter().enumerate() {
            if reg.class == class {
                derived.push((i, source_set(&self.store, &object, &reg.source)?));
            }
        }
        self.store.put(&object)?;
        self.allocator.allocate();
        for (i, set) in derived {
            self.facilities[i].facility.insert(oid, &set)?;
        }
        Ok(oid)
    }

    /// Fetches an object by OID (one or more object-file page reads).
    pub fn get_object(&self, oid: Oid) -> Result<Object> {
        self.store.get(oid)
    }

    /// Deletes an object, removing it from every facility on its class.
    pub fn delete_object(&mut self, oid: Oid) -> Result<()> {
        let object = self.store.get(oid)?;
        let mut derived: Vec<(usize, Vec<ElementKey>)> = Vec::new();
        for (i, reg) in self.facilities.iter().enumerate() {
            if reg.class == object.class {
                derived.push((i, source_set(&self.store, &object, &reg.source)?));
            }
        }
        for (i, set) in derived {
            self.facilities[i].facility.delete(oid, &set)?;
        }
        self.store.delete(oid)
    }

    /// Registers a set access facility over `class.attr`. The attribute
    /// must be a set of primitives. Existing objects of the class are
    /// back-filled into the facility.
    pub fn register_facility(
        &mut self,
        class: ClassId,
        attr_name: &str,
        facility: Box<dyn SetAccessFacility>,
    ) -> Result<usize> {
        let def = self.class(class)?;
        let attr = def.attr_index(attr_name)?;
        if !def.attrs[attr].ty.is_indexable_set() {
            return Err(Error::NotASetAttribute(attr_name.to_owned()));
        }
        self.register_with_source(class, IndexedSource::Direct(attr), facility)
    }

    /// Shared registration: back-fills existing objects of `class` through
    /// `source`, then records the facility.
    fn register_with_source(
        &mut self,
        class: ClassId,
        source: IndexedSource,
        mut facility: Box<dyn SetAccessFacility>,
    ) -> Result<usize> {
        let mut oids: Vec<Oid> = self.store.oids().collect();
        oids.sort_unstable();
        for oid in oids {
            let object = self.store.get(oid)?;
            if object.class == class {
                let set = source_set(&self.store, &object, &source)?;
                facility.insert(oid, &set)?;
            }
        }
        self.facilities.push(RegisteredFacility {
            class,
            source,
            facility,
        });
        Ok(self.facilities.len() - 1)
    }

    /// Registration entry point used by the path module.
    pub(crate) fn register_derived(
        &mut self,
        class: ClassId,
        spec: PathSpec,
        facility: Box<dyn SetAccessFacility>,
    ) -> Result<usize> {
        self.register_with_source(class, IndexedSource::Path(spec), facility)
    }

    /// Index of a registered facility covering `(class, attr)` directly.
    pub(crate) fn facility_index_for(&self, class: ClassId, attr: usize) -> Option<usize> {
        self.facilities
            .iter()
            .position(|r| r.class == class && r.source == IndexedSource::Direct(attr))
    }

    /// The registered facility at `index` (for stats inspection).
    pub fn facility(&self, index: usize) -> Option<&dyn SetAccessFacility> {
        self.facilities.get(index).map(|r| r.facility.as_ref())
    }

    /// Executes `query` through `facility`, running the paper's two-phase
    /// scheme (§3.2): the facility's filter, then false-drop resolution of
    /// every drop against `source`. A query carrying a smart cap
    /// ([`SetQuery::with_cap`]) runs the facility's smart strategy;
    /// resolution verifies the full predicate either way. The query runs as
    /// given: only [`run_query`](Database::run_query) plans
    /// ([`Database::plan`]).
    ///
    /// `facility` need not be registered here; the page split is taken on
    /// this database's disk, so it counts what `facility` and `source` read
    /// there.
    pub fn execute(
        &self,
        facility: &dyn SetAccessFacility,
        source: &dyn TargetSetSource,
        query: &SetQuery,
    ) -> Result<QueryExecution> {
        let before = self.disk.snapshot();
        let (drops, stats) = facility.candidates_with_stats(query)?;
        let filtered = self.disk.snapshot();
        let report = resolve_drops(query, &drops, source)?;
        let after = self.disk.snapshot();
        Ok(QueryExecution {
            actual: report.actual,
            false_drops: report.false_drops,
            io: after.since(before),
            drops,
            stats,
            filter_io: filtered.since(before),
            resolve_io: after.since(filtered),
        })
    }

    /// [`Database::execute`] through the registered facility
    /// `facility_index`, resolving against the attribute or path it indexes.
    pub fn execute_set_query(
        &self,
        facility_index: usize,
        query: &SetQuery,
    ) -> Result<QueryExecution> {
        let reg = self
            .facilities
            .get(facility_index)
            .ok_or_else(|| Error::NoSuchAttribute(format!("facility #{facility_index}")))?;
        let source = StoreSource::new(&self.store, reg.source.clone());
        self.execute(reg.facility.as_ref(), &source, query)
    }

    /// Plans `query` for the registered facility `facility_index`, as
    /// [`run_query`](Database::run_query) does before it executes. The plan
    /// is priced on the facility's own instance, read off its
    /// [`profile`](SetAccessFacility::profile): `N` its indexed count, `D_t`
    /// its mean set size `Σ|T|/N`, for a signature file its `F` and `m`,
    /// and for a nested index its key count as the domain `V`.
    ///
    /// - `T ⊆ Q` on a signature file, below `D_q^opt`: Appendix C's slice
    ///   cap `F − m_s(D_q^opt)` (§5.2.2, [`BssfModel::subset_cap`]). BSSF
    ///   then reads that many zero-slices instead of `F − m_q`; SSF and
    ///   FSSF, which have no smart strategy, run their plain filter under
    ///   it.
    /// - `T ⊇ Q` on a nested index: §5.1.3's element cap `j`
    ///   ([`NixModel::best_superset_cap`]) when it is below `D_q`. NIX then
    ///   intersects `j` posting lists, which leave few false candidates, and
    ///   drop resolution verifies the rest of `Q` instead of a B-tree
    ///   look-up per element.
    ///
    /// Every other query is kept as it is: another predicate, a query that
    /// already carries a cap, a facility with no profile or no objects, an
    /// instance with no `D_q^opt`, `D_q ≤ j`, and `T ⊇ ∅`. So is a signature
    /// file's `T ⊇ Q`: capped at [`BssfModel::best_superset_cap`] on the
    /// repository benchmark's `superset_dt10` (seed 1993, 3 alternating
    /// pairs of 10 s), BSSF read 20.25 pages per query instead of 21.83 but
    /// its median query took 4.10 µs instead of 3.71 and its throughput fell
    /// 4 %: each false drop the cap admits costs an OID-file look-up and an
    /// object fetch and check, each slice it skips one page read and an AND.
    /// Pricing that trade needs a time model, not a page count.
    #[expect(
        clippy::expect_used,
        reason = "T ⊆ Q and T ⊇ Q take any cap ≥ 1; subset_cap and best_superset_cap are ≥ 1"
    )]
    pub fn plan(&self, facility_index: usize, query: SetQuery) -> SetQuery {
        if query.cap().is_some() {
            return query;
        }
        let Some(facility) = self.facility(facility_index) else {
            return query;
        };
        let Some(profile) = facility.profile() else {
            return query;
        };
        let n = facility.indexed_count();
        // The float casts saturate: an empty facility has `D_t = 0`.
        let d_t = (profile.elements as f64 / n as f64).round() as u32;
        let params = Params {
            n,
            ..Params::paper()
        };
        let d_q = u32::try_from(query.d_q()).unwrap_or(u32::MAX);
        let cap = match (query.predicate, profile.layout) {
            (SetPredicate::InSubset, IndexLayout::Signature { f, m }) => {
                BssfModel::new(params, f, m, d_t).subset_cap(d_q)
            }
            (SetPredicate::HasSubset, IndexLayout::Nested { keys }) if n > 0 && keys > 0 => {
                let model = NixModel::new(Params { v: keys, ..params }, d_t);
                Some(model.best_superset_cap(d_q)).filter(|&j| j < d_q)
            }
            _ => None,
        };
        match cap {
            Some(cap) => query
                .with_cap(cap as usize)
                .expect("a capped predicate, cap ≥ 1"),
            None => query,
        }
    }

    /// A [`TargetSetSource`] over `class.attr` backed by the object store —
    /// fetching through it charges the paper's per-object page accesses.
    /// It is what [`Database::execute`] resolves against for a facility
    /// kept outside the database, and what a caller timing the two phases
    /// apart hands to `resolve_drops` itself (the repository's benchmark
    /// does).
    pub fn target_source(
        &self,
        class: ClassId,
        attr_name: &str,
    ) -> Result<impl TargetSetSource + '_> {
        let attr = self.class(class)?.attr_index(attr_name)?;
        Ok(StoreSource::new(&self.store, IndexedSource::Direct(attr)))
    }

    /// Full-scan baseline: evaluates the predicate against **every** object
    /// of the class, with no facility. Used to verify facility answers and
    /// to show what the paper's access facilities are buying.
    pub fn scan_set_query(
        &self,
        class: ClassId,
        attr_name: &str,
        query: &SetQuery,
    ) -> Result<QueryExecution> {
        let attr = self.class(class)?.attr_index(attr_name)?;
        self.full_scan(class, Some((attr, query)))
    }

    /// Fetches every object of `class` in OID order, keeping those whose
    /// attribute `attr` satisfies `query` — all of them when there is no
    /// predicate (`select Class`).
    pub(crate) fn full_scan(
        &self,
        class: ClassId,
        predicate: Option<(usize, &SetQuery)>,
    ) -> Result<QueryExecution> {
        let before = self.disk.snapshot();
        let mut oids: Vec<Oid> = self.store.oids().collect();
        oids.sort_unstable();
        let (mut examined, mut actual) = (Vec::new(), Vec::new());
        for oid in oids {
            let object = self.store.get(oid)?;
            if object.class != class {
                continue;
            }
            examined.push(oid);
            let hit = match predicate {
                None => true,
                Some((attr, query)) => {
                    let set = source_set(&self.store, &object, &IndexedSource::Direct(attr))?;
                    let elem_set: ElementSet = set.into_iter().collect();
                    setsig_core::verify_predicate(query.predicate, &elem_set, &query.elements)
                }
            };
            if hit {
                actual.push(oid);
            }
        }
        let io = self.disk.snapshot().since(before);
        Ok(QueryExecution {
            false_drops: (examined.len() - actual.len()) as u64,
            actual,
            io,
            drops: CandidateSet::new(examined, predicate.is_none()),
            stats: None,
            filter_io: IoDelta::default(),
            resolve_io: io,
        })
    }
}

/// Extracts the indexed set of an object under a source: the attribute's
/// own elements, or the path-derived elements (fetching referenced objects
/// from `store`, charging their page reads).
fn source_set(
    store: &ObjectStore,
    object: &Object,
    source: &IndexedSource,
) -> Result<Vec<ElementKey>> {
    match source {
        IndexedSource::Direct(attr) => object
            .value(*attr)
            .and_then(Value::as_element_set)
            .ok_or_else(|| Error::NotASetAttribute(format!("attribute #{attr}"))),
        IndexedSource::Path(spec) => {
            let Some(Value::Set(refs)) = object.value(spec.ref_attr) else {
                return Err(Error::NotASetAttribute(format!(
                    "attribute #{}",
                    spec.ref_attr
                )));
            };
            let mut out = Vec::with_capacity(refs.len());
            for r in refs {
                let Value::Ref(oid) = r else {
                    return Err(Error::NotASetAttribute(format!(
                        "attribute #{} holds non-reference elements",
                        spec.ref_attr
                    )));
                };
                visit_path_target(store, *oid, spec.target_attr, &mut |p| {
                    out.push(p.to_element_key());
                })?;
            }
            setsig_core::sorted::sort_dedup(&mut out);
            Ok(out)
        }
    }
}

/// Reads the attribute a path index derives its elements from off one
/// referenced object, in place (the object's page reads, no [`Object`]).
fn visit_path_target(
    store: &ObjectStore,
    target: Oid,
    target_attr: usize,
    visit: &mut dyn FnMut(Prim<'_>),
) -> Result<()> {
    match store.walk_attr(target, target_attr, visit)? {
        AttrShape::Prim => Ok(()),
        _ => Err(Error::NoSuchAttribute(format!(
            "target attribute #{target_attr} of {target} is not a primitive"
        ))),
    }
}

/// Adapter: the object store as a [`TargetSetSource`] for drop resolution.
/// Reads every set where it lies in the page snapshot; owns its (two-word)
/// source so `target_source` can hand one out.
struct StoreSource<'a> {
    store: &'a ObjectStore,
    source: IndexedSource,
    /// Where a string element's key bytes are put together; its capacity
    /// outlives the candidate.
    key_buf: RefCell<Vec<u8>>,
}

impl<'a> StoreSource<'a> {
    fn new(store: &'a ObjectStore, source: IndexedSource) -> Self {
        StoreSource {
            store,
            source,
            key_buf: RefCell::new(Vec::new()),
        }
    }

    /// Hands every element of `oid`'s indexed set to `visit`, in stored
    /// order, repeats included: the attribute's own elements, or for a
    /// path the indexed attribute of each referenced object (one more
    /// record read per reference).
    fn visit_elements(&self, oid: Oid, visit: &mut dyn FnMut(Prim<'_>)) -> Result<()> {
        let (attr, shape, targets) = match &self.source {
            IndexedSource::Direct(attr) => {
                (*attr, self.store.walk_attr(oid, *attr, visit)?, Ok(()))
            }
            IndexedSource::Path(spec) => {
                // The walk cannot stop at a failed reference: the first
                // failure is kept and later references are left unread.
                let mut targets = Ok(());
                let shape = self.store.walk_attr(oid, spec.ref_attr, &mut |elem| {
                    if targets.is_ok() {
                        targets = match elem {
                            Prim::Ref(target) => {
                                visit_path_target(self.store, target, spec.target_attr, visit)
                            }
                            _ => Err(Error::NotASetAttribute(format!(
                                "attribute #{} holds non-reference elements",
                                spec.ref_attr
                            ))),
                        };
                    }
                })?;
                (spec.ref_attr, shape, targets)
            }
        };
        if shape != AttrShape::PrimSet {
            return Err(Error::NotASetAttribute(format!("attribute #{attr}")));
        }
        targets
    }
}

impl TargetSetSource for StoreSource<'_> {
    fn fetch_set(&self, oid: Oid) -> setsig_core::Result<ElementSet> {
        let mut keys = Vec::new();
        self.visit_elements(oid, &mut |elem| keys.push(elem.to_element_key()))
            .map_err(|e| fetch_error(oid, e))?;
        Ok(keys.into_iter().collect())
    }

    fn visit_set(&self, oid: Oid, visit: &mut dyn FnMut(&[u8])) -> setsig_core::Result<()> {
        let mut buf = self.key_buf.borrow_mut();
        self.visit_elements(oid, &mut |elem| elem.with_key_bytes(&mut buf, visit))
            .map_err(|e| fetch_error(oid, e))
    }
}

/// A drop resolution could not read: a page-store fault stays a storage
/// error; a missing, undecodable or mistyped object means the store no
/// longer holds what the facility indexed.
fn fetch_error(oid: Oid, e: Error) -> setsig_core::Error {
    match e {
        Error::Storage(e) => setsig_core::Error::Storage(e),
        e => setsig_core::Error::Corrupted(format!("fetch {oid}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrType;
    use crate::sql::parse_query;
    use setsig_core::{Bssf, SetPredicate, SignatureConfig, Ssf};
    use setsig_pagestore::BufferPool;

    fn hobbies_db() -> (Database, ClassId) {
        let mut db = Database::in_memory();
        let student = db
            .define_class(ClassDef::new(
                "Student",
                vec![
                    ("name", AttrType::Str),
                    ("hobbies", AttrType::set_of(AttrType::Str)),
                ],
            ))
            .unwrap();
        (db, student)
    }

    fn add_student(db: &mut Database, class: ClassId, name: &str, hobbies: &[&str]) -> Oid {
        db.insert_object(
            class,
            vec![
                Value::str(name),
                Value::set(hobbies.iter().map(|h| Value::str(h)).collect()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn schema_is_enforced_on_insert() {
        let (mut db, student) = hobbies_db();
        let err = db.insert_object(student, vec![Value::Int(3), Value::set(vec![])]);
        assert!(matches!(err, Err(Error::TypeMismatch { .. })));
        assert!(matches!(
            db.insert_object(ClassId(9), vec![]),
            Err(Error::NoSuchClass(_))
        ));
    }

    #[test]
    fn duplicate_class_rejected() {
        let (mut db, _student) = hobbies_db();
        assert!(matches!(
            db.define_class(ClassDef::new("Student", vec![])),
            Err(Error::DuplicateClass(_))
        ));
        assert!(db.class_by_name("Student").is_some());
        assert!(db.class_by_name("Course").is_none());
    }

    #[test]
    fn scan_query_answers_exactly() {
        let (mut db, student) = hobbies_db();
        let jeff = add_student(&mut db, student, "Jeff", &["Baseball", "Fishing"]);
        let _ann = add_student(&mut db, student, "Ann", &["Chess"]);
        let bob = add_student(&mut db, student, "Bob", &["Baseball", "Fishing", "Golf"]);

        let q = SetQuery::has_subset(vec![
            ElementKey::from("Baseball"),
            ElementKey::from("Fishing"),
        ]);
        let r = db.scan_set_query(student, "hobbies", &q).unwrap();
        assert_eq!(r.actual, vec![jeff, bob]);
        // Scan fetched every object.
        assert_eq!(r.drops.len(), 3);
    }

    #[test]
    fn capped_query_runs_the_smart_strategy_and_agrees_with_scan() {
        let (mut db, student) = hobbies_db();
        for i in 0..300u32 {
            let (a, b) = (format!("h{}", i % 40), format!("h{}", i % 7));
            add_student(&mut db, student, &format!("s{i}"), &[&a, &b, "Common"]);
        }
        let io: Arc<dyn PageIo> = Arc::clone(db.disk()) as Arc<dyn PageIo>;
        let cfg = SignatureConfig::new(128, 2).unwrap();
        let bssf = setsig_core::Bssf::create(io, "hobbies", cfg).unwrap();
        let fidx = db
            .register_facility(student, "hobbies", Box::new(bssf))
            .unwrap();
        let elems = |names: &[&str]| names.iter().map(ElementKey::from).collect::<Vec<_>>();
        for (plain, cap) in [
            (SetQuery::has_subset(elems(&["Common", "h3", "h33"])), 1),
            (
                SetQuery::in_subset(elems(&["Common", "h3", "h5", "h33"])),
                20,
            ),
        ] {
            let capped = plain.clone().with_cap(cap).unwrap();
            let smart = db.execute_set_query(fidx, &capped).unwrap();
            let scan = db.scan_set_query(student, "hobbies", &plain).unwrap();
            assert_eq!(smart.actual, scan.actual, "{}", plain.predicate);
            assert!(!smart.actual.is_empty());
            // The cap only ever admits more drops for resolution to reject.
            let full = db.execute_set_query(fidx, &plain).unwrap();
            assert!(smart.drops.len() >= full.drops.len());
        }
    }

    /// 300 students, each with `hobby{i % 50}` and `Common`.
    fn hobby_club() -> (Database, ClassId) {
        let (mut db, student) = hobbies_db();
        for i in 0..300u32 {
            let hobby = format!("hobby{}", i % 50);
            add_student(&mut db, student, &format!("s{i}"), &[&hobby, "Common"]);
        }
        (db, student)
    }

    /// On the bare disk the filter reads exactly the pages its `ScanStats`
    /// charge, resolution one page per inline drop, and the two make up
    /// the whole query — which the text surface plans, then runs through
    /// the same executor.
    #[test]
    fn execution_splits_filter_and_resolve_pages() {
        type Make = fn(Arc<dyn PageIo>, SignatureConfig) -> Box<dyn SetAccessFacility>;
        let cfg = SignatureConfig::new(256, 2).unwrap();
        let facilities: [(&str, Make); 3] = [
            ("ssf", |io, cfg| {
                Box::new(Ssf::create(io, "h", cfg).unwrap())
            }),
            ("bssf", |io, cfg| {
                Box::new(Bssf::create(io, "h", cfg).unwrap())
            }),
            ("nix", |io, _| Box::new(setsig_nix::Nix::on_io(io, "h"))),
        ];
        let texts = [
            r#"select Student where hobbies has-subset ("hobby7", "Common")"#,
            r#"select Student where hobbies in-subset ("hobby7", "hobby9", "Common")"#,
        ];
        for (name, make) in facilities {
            let (mut db, student) = hobby_club();
            let io = Arc::clone(db.disk()) as Arc<dyn PageIo>;
            let fidx = db
                .register_facility(student, "hobbies", make(io, cfg))
                .unwrap();
            for text in texts {
                let query = parse_query(text).unwrap().condition.unwrap().1;
                let exec = db.execute_set_query(fidx, &db.plan(fidx, query)).unwrap();
                let stats = exec.stats.expect("every facility reports its pages");
                let what = format!("{name}: {text}");
                assert!(!exec.actual.is_empty(), "{what}");
                assert_eq!(exec.filter_io.reads, stats.pages, "{what}");
                assert_eq!(exec.filter_io.writes, 0, "{what}");
                assert_eq!(
                    exec.resolve_io.accesses(),
                    exec.drops.len() as u64,
                    "{what}"
                );
                let (filter, resolve) = (exec.filter_io, exec.resolve_io);
                let sum = (filter.reads + resolve.reads, filter.writes + resolve.writes);
                assert_eq!(sum, (exec.io.reads, exec.io.writes), "{what}");
                let via_text = db.run_query(text).unwrap();
                assert_eq!(
                    (via_text.actual, via_text.io, via_text.stats),
                    (exec.actual, exec.io, exec.stats),
                    "{what}"
                );
            }
        }

        // Behind a warm pool the same filter finds the same drops and
        // charges the same pages, reading fewer of them from disk.
        let (mut db, student) = hobby_club();
        let disk: Arc<dyn PageIo> = Arc::clone(db.disk()) as Arc<dyn PageIo>;
        let pool: Arc<dyn PageIo> = Arc::new(BufferPool::new(Arc::clone(db.disk()), 512));
        let [plain, pooled] = [(disk, "plain"), (pool, "pooled")].map(|(io, name)| {
            let bssf = Bssf::create(io, name, cfg).unwrap();
            db.register_facility(student, "hobbies", Box::new(bssf))
                .unwrap()
        });
        let query = SetQuery::has_subset(vec![ElementKey::from("hobby7")]);
        let run = |fidx| db.execute_set_query(fidx, &query).unwrap();
        let plain = run(plain);
        run(pooled);
        let pooled = run(pooled);
        assert_eq!((&pooled.drops, pooled.stats), (&plain.drops, plain.stats));
        assert!(
            pooled.filter_io.reads < plain.filter_io.reads,
            "pooled {:?} vs plain {:?}",
            pooled.filter_io,
            plain.filter_io
        );
    }

    #[test]
    fn facility_query_agrees_with_scan_and_costs_less() {
        let (mut db, student) = hobby_club();
        let cfg = SignatureConfig::new(256, 3).unwrap();
        let io: Arc<dyn PageIo> = Arc::clone(db.disk()) as Arc<dyn PageIo>;
        let ssf = Ssf::create(io, "hobbies", cfg).unwrap();
        let fidx = db
            .register_facility(student, "hobbies", Box::new(ssf))
            .unwrap();

        let q = SetQuery::has_subset(vec![ElementKey::from("hobby7")]);
        let via_facility = db.execute_set_query(fidx, &q).unwrap();
        let via_scan = db.scan_set_query(student, "hobbies", &q).unwrap();
        assert_eq!(via_facility.actual, via_scan.actual);
        assert_eq!(via_facility.actual.len(), 6);
        // On every path a drop is an answer or a false drop.
        let whole_class = db.run_query("select Student").unwrap();
        assert_eq!(whole_class.actual.len(), 300);
        for exec in [&via_facility, &via_scan, &whole_class] {
            let split = exec.actual.len() as u64 + exec.false_drops;
            assert_eq!(split, exec.drops.len() as u64, "{exec:?}");
        }
        assert!(
            via_facility.io.accesses() < via_scan.io.accesses(),
            "facility {:?} vs scan {:?}",
            via_facility.io,
            via_scan.io
        );
    }

    #[test]
    fn register_facility_backfills_existing_objects() {
        let (mut db, student) = hobbies_db();
        let jeff = add_student(&mut db, student, "Jeff", &["Baseball"]);
        let cfg = SignatureConfig::new(128, 2).unwrap();
        let io: Arc<dyn PageIo> = Arc::clone(db.disk()) as Arc<dyn PageIo>;
        let ssf = Ssf::create(io, "hobbies", cfg).unwrap();
        let fidx = db
            .register_facility(student, "hobbies", Box::new(ssf))
            .unwrap();
        let q = SetQuery::has_subset(vec![ElementKey::from("Baseball")]);
        assert_eq!(db.execute_set_query(fidx, &q).unwrap().actual, vec![jeff]);
    }

    #[test]
    fn register_facility_rejects_non_set_attr() {
        let (mut db, student) = hobbies_db();
        let cfg = SignatureConfig::new(128, 2).unwrap();
        let io: Arc<dyn PageIo> = Arc::clone(db.disk()) as Arc<dyn PageIo>;
        let ssf = Ssf::create(io, "bad", cfg).unwrap();
        assert!(matches!(
            db.register_facility(student, "name", Box::new(ssf)),
            Err(Error::NotASetAttribute(_))
        ));
    }

    #[test]
    fn delete_removes_from_store_and_facility() {
        let (mut db, student) = hobbies_db();
        let cfg = SignatureConfig::new(128, 2).unwrap();
        let io: Arc<dyn PageIo> = Arc::clone(db.disk()) as Arc<dyn PageIo>;
        let ssf = Ssf::create(io, "hobbies", cfg).unwrap();
        let fidx = db
            .register_facility(student, "hobbies", Box::new(ssf))
            .unwrap();

        let jeff = add_student(&mut db, student, "Jeff", &["Baseball"]);
        let bob = add_student(&mut db, student, "Bob", &["Baseball"]);
        db.delete_object(jeff).unwrap();

        assert!(db.get_object(jeff).is_err());
        let q = SetQuery::has_subset(vec![ElementKey::from("Baseball")]);
        assert_eq!(db.execute_set_query(fidx, &q).unwrap().actual, vec![bob]);
    }

    /// What `visit_set` hands over for `oid`, as owned keys, and the object
    /// pages it read doing so.
    fn visited(db: &Database, source: &StoreSource<'_>, oid: Oid) -> (Vec<Vec<u8>>, u64) {
        let before = db.disk().snapshot();
        let mut keys = Vec::new();
        source
            .visit_set(oid, &mut |k| keys.push(k.to_vec()))
            .unwrap();
        (keys, db.disk().snapshot().since(before).reads)
    }

    #[test]
    fn store_source_visits_the_stored_elements_and_fetches_their_set() {
        let (mut db, student) = hobbies_db();
        // Stored as given: repeats, and "c" before "bb".
        let raw = vec![Value::str("c"), Value::str("bb"), Value::str("c")];
        let oid = db
            .insert_object(student, vec![Value::str("Jeff"), Value::Set(raw)])
            .unwrap();
        let source = StoreSource::new(&db.store, IndexedSource::Direct(1));
        let key = |s: &str| ElementKey::from(s);
        let (keys, reads) = visited(&db, &source, oid);
        let stored: Vec<_> = ["c", "bb", "c"].iter().map(|&s| key(s)).collect();
        assert_eq!(
            keys,
            stored.iter().map(ElementKey::as_bytes).collect::<Vec<_>>()
        );
        assert_eq!(reads, 1);
        assert_eq!(&*source.fetch_set(oid).unwrap(), [key("bb"), key("c")]);
        // `name` is not a set; attribute 2 does not exist; OID 99 neither.
        for (attr, oid) in [(0, oid), (2, oid), (1, Oid::new(99))] {
            let source = StoreSource::new(&db.store, IndexedSource::Direct(attr));
            assert!(source.fetch_set(oid).is_err());
            assert!(source.visit_set(oid, &mut |_| {}).is_err());
        }
    }

    #[test]
    fn path_source_reads_each_referenced_object_once_per_reference() {
        let mut db = Database::in_memory();
        let course = db
            .define_class(ClassDef::new(
                "Course",
                vec![("name", AttrType::Str), ("category", AttrType::Str)],
            ))
            .unwrap();
        let student = db
            .define_class(ClassDef::new(
                "Student",
                vec![
                    ("name", AttrType::Str),
                    ("courses", AttrType::set_of(AttrType::Ref)),
                ],
            ))
            .unwrap();
        let c: Vec<Oid> = [("Theory", "DB"), ("Systems", "DB"), ("Algorithms", "CS")]
            .iter()
            .map(|(n, cat)| {
                db.insert_object(course, vec![Value::str(n), Value::str(cat)])
                    .unwrap()
            })
            .collect();
        let refs = |oids: &[Oid]| Value::Set(oids.iter().map(|&o| Value::Ref(o)).collect());
        // Two references share a category, and one is listed twice.
        let jeff = db
            .insert_object(
                student,
                vec![Value::str("Jeff"), refs(&[c[2], c[0], c[1], c[0]])],
            )
            .unwrap();
        let spec = PathSpec {
            ref_attr: 1,
            target_attr: 1,
        };
        let source = StoreSource::new(&db.store, IndexedSource::Path(spec.clone()));
        let key = |s: &str| ElementKey::from(s);
        let (keys, reads) = visited(&db, &source, jeff);
        let derived: Vec<_> = ["CS", "DB", "DB", "DB"].iter().map(|&s| key(s)).collect();
        assert_eq!(
            keys,
            derived.iter().map(ElementKey::as_bytes).collect::<Vec<_>>()
        );
        assert_eq!(reads, 1 + 4, "the host, then a page per reference");
        let before = db.disk().snapshot();
        assert_eq!(&*source.fetch_set(jeff).unwrap(), [key("CS"), key("DB")]);
        assert_eq!(db.disk().snapshot().since(before).reads, 1 + 4);
        // The same derivation the facility was fed at insert.
        let host = db.get_object(jeff).unwrap();
        assert_eq!(
            source_set(&db.store, &host, &IndexedSource::Path(spec.clone())).unwrap(),
            [key("CS"), key("DB")]
        );

        // A dangling reference, a non-primitive target attribute and a
        // non-reference host set are errors, not empty sets.
        let ann = db
            .insert_object(student, vec![Value::str("Ann"), refs(&[c[0]])])
            .unwrap();
        db.delete_object(c[1]).unwrap();
        for (ref_attr, target_attr, oid) in [(1, 1, jeff), (1, 5, ann), (0, 1, ann)] {
            let spec = PathSpec {
                ref_attr,
                target_attr,
            };
            let source = StoreSource::new(&db.store, IndexedSource::Path(spec));
            assert!(source.visit_set(oid, &mut |_| {}).is_err());
            assert!(source.fetch_set(oid).is_err());
        }
        let source = StoreSource::new(&db.store, IndexedSource::Path(spec));
        assert_eq!(&*source.fetch_set(ann).unwrap(), [key("DB")]);
    }

    /// A fetch that fails in resolution keeps its cause: a disk fault is a
    /// storage error, an object the store no longer holds a corrupted
    /// facility — neither is the caller's bad query.
    #[test]
    fn a_failed_fetch_reports_its_cause_not_a_bad_query() {
        let (mut db, student) = hobby_club();
        let io: Arc<dyn PageIo> = Arc::clone(db.disk()) as Arc<dyn PageIo>;
        let ssf = Ssf::create(io, "h", SignatureConfig::new(128, 2).unwrap()).unwrap();
        let fidx = db
            .register_facility(student, "hobbies", Box::new(ssf))
            .unwrap();
        let q = SetQuery::has_subset(vec![ElementKey::from("hobby7")]);
        let filter_pages = db.execute_set_query(fidx, &q).unwrap().filter_io.reads;

        db.disk().inject_fault_after(filter_pages);
        let err = db.execute_set_query(fidx, &q).unwrap_err();
        db.disk().clear_fault();
        assert!(
            matches!(err, Error::Facility(setsig_core::Error::Storage(_))),
            "{err:?}"
        );

        // Object 7 gone from the store, not from the facility.
        db.store.delete(Oid::new(7)).unwrap();
        let err = db.execute_set_query(fidx, &q).unwrap_err();
        assert!(
            matches!(&err, Error::Facility(setsig_core::Error::Corrupted(msg)) if msg.contains("fetch")),
            "{err:?}"
        );
    }

    /// One "bad query" at this API, whichever layer refuses the query: a
    /// cap on `T = Q`, and a `T ⊇ ∅` the nested index cannot enumerate.
    #[test]
    fn a_query_the_facility_layer_refuses_is_a_bad_query() {
        fn capped(query: SetQuery) -> Result<SetQuery> {
            Ok(query.with_cap(2)?)
        }
        let err = capped(SetQuery::equals(vec![ElementKey::from("a")])).unwrap_err();
        assert!(matches!(err, Error::BadQuery(_)), "{err:?}");
        assert!(
            err.to_string().starts_with("bad query: a smart cap"),
            "{err}"
        );

        let (mut db, student) = hobby_club();
        let io: Arc<dyn PageIo> = Arc::clone(db.disk()) as Arc<dyn PageIo>;
        db.register_facility(
            student,
            "hobbies",
            Box::new(setsig_nix::Nix::on_io(io, "h")),
        )
        .unwrap();
        let err = db
            .run_query("select Student where hobbies has-subset ()")
            .unwrap_err();
        assert!(matches!(err, Error::BadQuery(_)), "{err:?}");
    }

    #[test]
    fn in_subset_query_end_to_end() {
        let (mut db, student) = hobbies_db();
        let cfg = SignatureConfig::new(256, 2).unwrap();
        let io: Arc<dyn PageIo> = Arc::clone(db.disk()) as Arc<dyn PageIo>;
        let ssf = Ssf::create(io, "hobbies", cfg).unwrap();
        let fidx = db
            .register_facility(student, "hobbies", Box::new(ssf))
            .unwrap();

        let a = add_student(&mut db, student, "A", &["Baseball"]);
        let b = add_student(&mut db, student, "B", &["Baseball", "Fishing"]);
        let _c = add_student(&mut db, student, "C", &["Baseball", "Skiing"]);

        // Q2 of the paper: hobbies ⊆ {Baseball, Fishing, Tennis}.
        let q = SetQuery::in_subset(vec![
            ElementKey::from("Baseball"),
            ElementKey::from("Fishing"),
            ElementKey::from("Tennis"),
        ]);
        let r = db.execute_set_query(fidx, &q).unwrap();
        assert_eq!(r.actual, vec![a, b]);
    }

    #[test]
    fn resolution_charges_one_page_per_inline_candidate_and_the_span_of_a_spanning_one() {
        const PAGE: usize = 4096;
        let mut db = Database::in_memory();
        let class = db
            .define_class(ClassDef::new(
                "Synthetic",
                vec![("elems", AttrType::set_of(AttrType::Int))],
            ))
            .unwrap();
        let ints = |r: std::ops::Range<i64>| Value::set(r.map(Value::Int).collect());
        let k = 40u64;
        let mut oids: Vec<Oid> = (0..k as i64)
            .map(|i| db.insert_object(class, vec![ints(i..i + 10)]).unwrap())
            .collect();
        let big = db.insert_object(class, vec![ints(0..1000)]).unwrap();
        oids.push(big);
        let span = db.get_object(big).unwrap().encode().len().div_ceil(PAGE) as u64;
        assert_eq!(span, 3, "9 bytes an element");

        let source = db.target_source(class, "elems").unwrap();
        let candidates = CandidateSet::new(oids, false);
        let keys = |r: std::ops::Range<u64>| r.map(ElementKey::from).collect::<Vec<_>>();
        // Every stored set starts below 40 and ends at 9 or above. Against
        // {5000..5003} each verdict but ⊇'s is fixed by the first element read
        // (a miss, and no hit can follow); against {0..2000} ⊆ and = need the
        // last one. The charge is the same: the record is read to its end.
        for elements in [keys(5000..5003), keys(0..2000), keys(5..6), vec![]] {
            for predicate in [
                SetPredicate::HasSubset,
                SetPredicate::InSubset,
                SetPredicate::Equals,
                SetPredicate::Overlaps,
            ] {
                let query = SetQuery::new(predicate, elements.clone());
                let before = db.disk().snapshot();
                let report = resolve_drops(&query, &candidates, &source).unwrap();
                let io = db.disk().snapshot().since(before);
                assert_eq!(
                    (io.reads, io.writes),
                    (k + span, 0),
                    "{predicate} against {} elements",
                    elements.len()
                );
                assert_eq!(report.candidates, k + 1);
            }
        }
    }
}
