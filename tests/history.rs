//! The facility contract as one model-checked history: a filter never drops
//! a true answer, and §3.2's resolution step removes the false drops.
//!
//! Each case runs a seeded op sequence ([`op`]) against one [`Database`].
//! Class `A` indexes `xs` with SSF(64, 2), BSSF(64, 2), FSSF(64, 8, 2), NIX
//! and a `QueryService<Bssf>` of 1, 2 or 7 shards; class `B` has `xs` and no
//! facility. A set holds 0–6 of 7 elements, `Int`s or `Str`s (half of them
//! past `ElementKey`'s 22-byte inline limit); a query set holds 0–9 of 9,
//! so it may name elements no object holds and outnumber the values held,
//! and a `∋` element is one of the 9. An op inserts into `A` or `B`,
//! deletes a live or a deleted object, runs a query step, or runs a query
//! under a disk fault; after each, the database is held to a
//! `BTreeMap<Oid, set>` model of the live `A` objects. A query step runs the
//! five predicates on one query set, maybe empty, each as given, capped (`⊇`
//! cap 1–4, `⊆` cap 1–F) and as `Database::plan` plans it; NIX's `⊇` plan
//! is checked against the model's `j` priced on the values the live sets
//! hold.
//!
//! It replaces five serial suites. What their tests asserted, and where:
//!
//! - `consistency::facilities_always_agree_with_full_scan`,
//!   `end_to_end::all_predicates_agree_across_facilities_and_scan`: each
//!   facility's resolved answer equals `scan_set_query`'s and the model's on
//!   every predicate, empty `⊆` / `=` and `≬` / `∋` on strings included
//!   ([`History::query_step`], [`History::run`]).
//! - `end_to_end::deletes_propagate_everywhere`,
//!   `soak::facilities_survive_a_long_mixed_trace`: a deleted object is no
//!   candidate ([`History::run`]), `get_object` fails on it and a second
//!   delete is an error ([`History::delete`]); every `indexed_count` is the
//!   model's size and `Nix::verify` is clean ([`History::check_state`]).
//! - `end_to_end::mixed_classes_do_not_leak_between_facilities`: a `B`
//!   object is never a candidate, so never an answer ([`History::run`]).
//! - `end_to_end::empty_database_answers_empty`: each case starts with a
//!   query step on an empty database ([`History::run`]: no candidate).
//! - `differential::facilities_agree_on_random_workloads`: candidates are a
//!   superset of the truth; NIX's are `exact` and equal it on `⊇`, `⊆` and
//!   `=`, and NIX refuses `T ⊇ ∅` as a bad query ([`History::query_step`]).
//! - `differential::sharded_routing_and_merge_agree_with_the_flat_facility`:
//!   each shard holds exactly the live objects `shard_of` routes to it
//!   ([`History::check_state`]); the service's candidates are the flat
//!   BSSF's, sorted with no duplicate, and its `ScanStats` the sum of
//!   `query_shard` over the shards, and the flat BSSF's at one shard
//!   ([`History::service_is_the_flat_bssf`]).
//! - `differential::capped_queries_run_through_the_service`: a capped
//!   query's candidates are a superset of the plain query's and resolve to
//!   the truth, on every facility, the service included.
//! - `faults::queries_fail_cleanly_mid_read_and_recover`,
//!   `faults::database_layer_propagates_faults`: a fault at access `n` of a
//!   filter or of `Database::execute` gives an error or the right answer,
//!   never a panic, and once cleared the query answers the model
//!   ([`History::faulty_query`]).
//!
//! No op faults an update: `Database::{insert,delete}_object` are not atomic
//! across facilities yet (ROADMAP item 4(a)).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code

use proptest::prelude::*;
use setsig::core::{Profile, Result as FacilityResult};
use setsig::oodb::{ClassId, Error as DbError, QueryExecution};
use setsig::prelude::SetPredicate::{Contains, Equals, HasSubset, InSubset, Overlaps};
use setsig::prelude::*;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;

/// Elements are `0..DOMAIN`; a set holds at most `DOMAIN - 1` of them.
const DOMAIN: u8 = 7;
/// Queries draw from `0..QUERY_DOMAIN`, past what any set holds.
const QUERY_DOMAIN: u8 = DOMAIN + 2;
/// The signature width of every signature file, and the largest `⊆` cap.
const F: u32 = 64;
/// The registered facilities, in registration order: index = facility id.
const NAMES: [&str; 5] = ["SSF", "BSSF", "FSSF", "NIX", "service"];
const BSSF: usize = 1;
const NIX: usize = 3;
const SERVICE: usize = 4;

type Set = BTreeSet<u8>;
type Check = Result<(), TestCaseError>;
type Execution = Result<QueryExecution, TestCaseError>;

#[derive(Debug, Clone)]
enum Op {
    /// Inserts an object holding the set into class `A` (`true`) or `B`.
    Insert(bool, Set),
    /// Deletes the `n`-th OID handed out (modulo their number), live or not.
    Delete(usize),
    /// A query step: [`History::query_step`].
    Query(Set, u8, [usize; 2]),
    /// One query of a step under a fault: [`History::faulty_query`].
    Fault(Set, u8, usize, usize, u64),
}

fn set() -> impl Strategy<Value = Set> {
    proptest::collection::btree_set(0..DOMAIN, 0..usize::from(DOMAIN))
}

fn query_set() -> impl Strategy<Value = Set> {
    proptest::collection::btree_set(0..QUERY_DOMAIN, 0..=usize::from(QUERY_DOMAIN))
}

/// The one op strategy: mostly inserts, one in five of them into `B`.
fn op() -> impl Strategy<Value = Op> {
    let caps = (1usize..5, 1..=F as usize).prop_map(|(sup, sub)| [sup, sub]);
    let fault = (
        query_set(),
        0..QUERY_DOMAIN,
        0usize..5,
        0..NAMES.len(),
        0u64..12,
    );
    prop_oneof![
        8 => (0u8..5, set()).prop_map(|(class, set)| Op::Insert(class > 0, set)),
        2 => (0usize..1024).prop_map(Op::Delete),
        2 => (query_set(), 0..QUERY_DOMAIN, caps).prop_map(|(q, e, caps)| Op::Query(q, e, caps)),
        1 => fault.prop_map(|(q, e, pred, fac, n)| Op::Fault(q, e, pred, fac, n)),
    ]
}

/// A facility the database owns while the history keeps a handle on it,
/// for what only the concrete type offers (`Nix::verify`,
/// `QueryService::query_shard`).
struct Shared<T>(Rc<RefCell<T>>);

type Drops = (CandidateSet, Option<ScanStats>);

impl<T: SetAccessFacility> SetAccessFacility for Shared<T> {
    fn name(&self) -> &'static str {
        self.0.borrow().name()
    }

    fn insert(&mut self, oid: Oid, set: &[ElementKey]) -> FacilityResult<()> {
        self.0.borrow_mut().insert(oid, set)
    }

    fn delete(&mut self, oid: Oid, set: &[ElementKey]) -> FacilityResult<()> {
        self.0.borrow_mut().delete(oid, set)
    }

    fn candidates_with_stats(&self, query: &SetQuery) -> FacilityResult<Drops> {
        self.0.borrow().candidates_with_stats(query)
    }

    fn indexed_count(&self) -> u64 {
        self.0.borrow().indexed_count()
    }

    fn storage_pages(&self) -> FacilityResult<u64> {
        self.0.borrow().storage_pages()
    }

    fn profile(&self) -> Option<Profile> {
        self.0.borrow().profile()
    }
}

/// An engine call that must succeed, as a property failure otherwise.
fn ok<T, E: std::fmt::Debug>(result: Result<T, E>) -> Result<T, TestCaseError> {
    result.map_err(|e| TestCaseError::fail(format!("{e:?}")))
}

/// Whether every OID of the sorted `part` is in the sorted `whole`.
fn is_subset(part: &[Oid], whole: &[Oid]) -> bool {
    part.iter().all(|o| whole.binary_search(o).is_ok())
}

/// NIX cannot enumerate `T ⊇ ∅` from its posting lists, and refuses it.
fn refused(fac: usize, query: &SetQuery) -> bool {
    fac == NIX && query.predicate == HasSubset && query.elements.is_empty()
}

struct History {
    db: Database,
    /// Class `A`, with every facility, and class `B`, with none.
    classes: [ClassId; 2],
    strings: bool,
    nix: Rc<RefCell<Nix>>,
    service: Rc<RefCell<QueryService<Bssf>>>,
    shards: usize,
    /// The live objects of class `A` and their sets.
    model: BTreeMap<Oid, Set>,
    /// The live objects of class `B`.
    others: BTreeSet<Oid>,
    /// Every OID handed out, in order.
    oids: Vec<Oid>,
}

impl History {
    fn new(shards: usize, strings: bool) -> Self {
        let mut db = Database::in_memory();
        let ty = [AttrType::Int, AttrType::Str][usize::from(strings)].clone();
        let mut class = |name| {
            let attrs = vec![("xs", AttrType::set_of(ty.clone()))];
            db.define_class(ClassDef::new(name, attrs)).unwrap()
        };
        let classes = [class("A"), class("B")];
        let io = || Arc::clone(db.disk()) as Arc<dyn PageIo>;
        let sig = SignatureConfig::new(F, 2).unwrap();
        let nix = Rc::new(RefCell::new(Nix::on_io(io(), "x")));
        let shard_files = (0..shards)
            .map(|i| Bssf::create(io(), &format!("shard{i}"), sig).unwrap())
            .collect();
        let service = QueryService::new(shard_files, ServiceConfig::new(shards)).unwrap();
        let service = Rc::new(RefCell::new(service));
        let facilities: [Box<dyn SetAccessFacility>; 5] = [
            Box::new(Ssf::create(io(), "x", sig).unwrap()),
            Box::new(Bssf::create(io(), "x", sig).unwrap()),
            Box::new(Fssf::create(io(), "x", FssfConfig::new(F, 8, 2).unwrap()).unwrap()),
            Box::new(Shared(Rc::clone(&nix))),
            Box::new(Shared(Rc::clone(&service))),
        ];
        for facility in facilities {
            db.register_facility(classes[0], "xs", facility).unwrap();
        }
        let (model, others, oids) = Default::default();
        History {
            db,
            classes,
            strings,
            nix,
            service,
            shards,
            model,
            others,
            oids,
        }
    }

    /// Element `e` of the case's domain.
    fn value(&self, e: u8) -> Value {
        match (self.strings, e % 2) {
            (false, _) => Value::Int(i64::from(e)),
            (true, 0) => Value::Str(format!("s{e}")),
            (true, _) => Value::Str(format!("a string past the inline key limit, #{e}")),
        }
    }

    fn apply(&mut self, op: &Op) -> Check {
        match op {
            Op::Insert(in_a, set) => self.insert(*in_a, set),
            Op::Delete(pick) => self.delete(*pick),
            Op::Query(q, e, caps) => self.query_step(q, *e, *caps),
            Op::Fault(q, e, pred, fac, n) => self.faulty_query(q, *e, *pred, *fac, *n),
        }
    }

    fn insert(&mut self, in_a: bool, set: &Set) -> Check {
        let value = Value::set(set.iter().map(|&e| self.value(e)).collect());
        let class = self.classes[usize::from(!in_a)];
        let oid = ok(self.db.insert_object(class, vec![value]))?;
        if in_a {
            self.model.insert(oid, set.clone());
        } else {
            self.others.insert(oid);
        }
        self.oids.push(oid);
        Ok(())
    }

    fn delete(&mut self, pick: usize) -> Check {
        let Some(&oid) = self.oids.get(pick % self.oids.len().max(1)) else {
            return Ok(());
        };
        let live = self.model.remove(&oid).is_some() | self.others.remove(&oid);
        let deleted = self.db.delete_object(oid);
        prop_assert_eq!(deleted.is_ok(), live, "delete {} gave {:?}", oid, deleted);
        prop_assert!(self.db.get_object(oid).is_err(), "{oid} still stored");
        Ok(())
    }

    /// The five queries of a step on `q`: `⊇`, `⊆`, `=`, `≬` and `∋ e`.
    fn queries(&self, q: &Set, e: u8) -> [SetQuery; 5] {
        let key = |e: u8| self.value(e).to_element_key().unwrap();
        let keys: Vec<ElementKey> = q.iter().map(|&e| key(e)).collect();
        [
            SetQuery::has_subset(keys.clone()),
            SetQuery::in_subset(keys.clone()),
            SetQuery::equals(keys.clone()),
            SetQuery::overlaps(keys),
            SetQuery::contains(key(e)),
        ]
    }

    /// The model's answer to `query`, one of [`History::queries`]`(q, e)`.
    fn truth(&self, query: &SetQuery, q: &Set, e: u8) -> Vec<Oid> {
        let hit = |t: &Set| match query.predicate {
            HasSubset => q.is_subset(t),
            InSubset => t.is_subset(q),
            Equals => t == q,
            Overlaps => !t.is_disjoint(q),
            Contains => t.contains(&e),
        };
        (self.model.iter())
            .filter(|(_, t)| hit(t))
            .map(|(&oid, _)| oid)
            .collect()
    }

    /// Runs `query` through facility `fac`: its candidates hold every true
    /// answer and only live `A` objects, and resolve to exactly `truth`.
    fn run(&self, fac: usize, query: &SetQuery, truth: &[Oid]) -> Execution {
        let r = ok(self.db.execute_set_query(fac, query))?;
        let (what, drops) = (format!("{} {query:?}", NAMES[fac]), &r.drops.oids);
        prop_assert!(is_subset(truth, drops), "{what}: {drops:?} ⊉ {truth:?}");
        let live_a = drops.iter().all(|o| self.model.contains_key(o));
        prop_assert!(live_a, "{what}: {drops:?} holds a deleted or `B` object");
        prop_assert_eq!(&r.actual, truth, "{} resolved", what);
        Ok(r)
    }

    /// All five queries on `q` and `e`, each as given, capped at
    /// `[⊇ cap, ⊆ cap]` and as planned for each facility.
    fn query_step(&self, q: &Set, e: u8, [sup_cap, sub_cap]: [usize; 2]) -> Check {
        for query in self.queries(q, e) {
            let truth = self.truth(&query, q, e);
            let scan = ok(self.db.scan_set_query(self.classes[0], "xs", &query))?;
            prop_assert_eq!(&scan.actual, &truth, "full scan {:?}", query);
            let capped = match query.predicate {
                HasSubset => query.clone().with_cap(sup_cap).ok(),
                InSubset => query.clone().with_cap(sub_cap).ok(),
                _ => None,
            };
            let forms = |fac: usize| {
                let mut forms = vec![query.clone()];
                forms.extend(capped.clone());
                let planned = self.db.plan(fac, query.clone());
                if !forms.contains(&planned) {
                    forms.push(planned);
                }
                forms
            };
            prop_assert_eq!(forms(SERVICE), forms(BSSF), "planned unlike BSSF");
            let nix_plan = self.db.plan(NIX, query.clone()).cap();
            let nix_cap = match query.predicate {
                HasSubset => self.nix_superset_cap(query.d_q()),
                _ => None,
            };
            prop_assert_eq!(nix_plan, nix_cap, "NIX plan of {:?}", query);
            // NIX answers `⊇` by intersection, `⊆` and `=` by counting `|T|`.
            let exact = !matches!(query.predicate, Overlaps | Contains);
            let mut runs = Vec::new();
            for (fac, name) in NAMES.iter().enumerate() {
                if refused(fac, &query) {
                    let refusal = self.db.execute_set_query(fac, &query);
                    prop_assert!(matches!(refusal, Err(DbError::BadQuery(_))), "{refusal:?}");
                    runs.push(Vec::new());
                    continue;
                }
                let plain = self.run(fac, &query, &truth)?;
                if fac == NIX && exact {
                    prop_assert!(plain.drops.exact, "NIX inexact on {:?}", query);
                    prop_assert_eq!(&plain.drops.oids, &truth, "NIX on {:?}", query);
                }
                let mut executions = vec![plain];
                for form in &forms(fac)[1..] {
                    let r = self.run(fac, form, &truth)?;
                    let kept = is_subset(&executions[0].drops.oids, &r.drops.oids);
                    prop_assert!(kept, "{name} {form:?} lost a plain candidate");
                    executions.push(r);
                }
                runs.push(executions);
            }
            self.service_is_the_flat_bssf(&forms(BSSF), &runs)?;
        }
        Ok(())
    }

    /// NIX's `⊇` cap for `d_q` query elements: the model's `j` priced on
    /// the live sets' count, mean size and distinct values, when below
    /// `d_q`.
    fn nix_superset_cap(&self, d_q: usize) -> Option<usize> {
        let n = self.model.len() as u64;
        let held: Set = self.model.values().flatten().copied().collect();
        let sizes: usize = self.model.values().map(Set::len).sum();
        if n == 0 || held.is_empty() {
            return None;
        }
        let d_t = (sizes as f64 / n as f64).round() as u32;
        let params = Params::scaled(n, held.len() as u64);
        let j = NixModel::new(params, d_t).best_superset_cap(d_q as u32) as usize;
        Some(j).filter(|&j| j < d_q)
    }

    /// The service's runs of `forms` against the flat BSSF's: the same
    /// candidates, sorted with no duplicate, at the summed per-shard charge,
    /// which at one shard is the flat file's.
    fn service_is_the_flat_bssf(&self, forms: &[SetQuery], runs: &[Vec<QueryExecution>]) -> Check {
        let service = self.service.borrow();
        for ((form, flat), merged) in forms.iter().zip(&runs[BSSF]).zip(&runs[SERVICE]) {
            prop_assert_eq!(&merged.drops, &flat.drops, "{:?}", form);
            prop_assert!(merged.drops.oids.windows(2).all(|w| w[0] < w[1]));
            let mut by_hand = ScanStats::default();
            for shard in 0..self.shards {
                by_hand = by_hand + ok(service.query_shard(shard, form))?.1.unwrap();
            }
            prop_assert_eq!(merged.stats, Some(by_hand), "{:?}", form);
            if self.shards == 1 {
                prop_assert_eq!(merged.stats, flat.stats, "{:?}", form);
            }
        }
        Ok(())
    }

    /// Query `pred` of a step on `q` and `e` through facility `fac`: its
    /// filter, then `Database::execute`, with a fault at page access `n`.
    fn faulty_query(&self, q: &Set, e: u8, pred: usize, fac: usize, n: u64) -> Check {
        let query = &self.queries(q, e)[pred];
        if refused(fac, query) {
            return Ok(());
        }
        let truth = self.truth(query, q, e);
        let disk = self.db.disk();
        disk.inject_fault_after(n);
        let filtered = self.db.facility(fac).unwrap().candidates(query);
        disk.inject_fault_after(n);
        let executed = self.db.execute_set_query(fac, query);
        disk.clear_fault();
        let what = format!("{} {query:?} at fault {n}", NAMES[fac]);
        if let Ok(drops) = filtered {
            prop_assert!(is_subset(&truth, &drops.oids), "{what}");
        }
        if let Ok(r) = executed {
            prop_assert_eq!(r.actual, truth.clone(), "{}", what);
        }
        self.run(fac, query, &truth).map(drop)
    }

    /// What holds between steps: every facility indexes the model's objects,
    /// the nested index is sound, and each shard holds exactly the objects
    /// routed to it.
    fn check_state(&self) -> Check {
        for (fac, name) in NAMES.iter().enumerate() {
            let count = self.db.facility(fac).unwrap().indexed_count();
            prop_assert_eq!(count, self.model.len() as u64, "{} indexed_count", name);
        }
        ok(self.nix.borrow().verify())?;
        let everything = SetQuery::has_subset(Vec::new());
        let service = self.service.borrow();
        for shard in 0..self.shards {
            let (held, _) = ok(service.query_shard(shard, &everything))?;
            let routed = (self.model.keys().copied())
                .filter(|&oid| shard_of(oid, self.shards) == shard)
                .collect::<Vec<_>>();
            prop_assert_eq!(held.oids, routed, "shard {}", shard);
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_step_agrees_with_the_model(
        shards in prop_oneof![Just(1usize), Just(2), Just(7)],
        strings in any::<bool>(),
        ops in proptest::collection::vec(op(), 0..48),
    ) {
        let mut history = History::new(shards, strings);
        history.query_step(&Set::from([0, 1]), 2, [1, 1])?;
        for op in &ops {
            history.apply(op)?;
            history.check_state()?;
        }
    }
}

/// A one-shard service is planned and charged like the BSSF it wraps: it
/// reports its shards' `Σ|T|`, so `Database::plan` caps its `T ⊆ Q` scan
/// as it caps the flat file's.
#[test]
fn a_one_shard_service_is_planned_and_charged_like_the_flat_bssf() {
    let mut history = History::new(1, false);
    for i in 0..40u8 {
        let set = (0..3).map(|j| (i + j) % DOMAIN).collect();
        history.insert(true, &set).unwrap();
    }
    let db = &history.db;
    let query = SetQuery::in_subset((0..4u64).map(ElementKey::from).collect());
    let planned = db.plan(BSSF, query.clone());
    assert!(planned.cap().is_some(), "{planned:?}");
    assert_eq!(db.plan(SERVICE, query.clone()), planned);
    let run = |fac| {
        let r = db
            .execute_set_query(fac, &db.plan(fac, query.clone()))
            .unwrap();
        (r.actual, r.stats)
    };
    assert_eq!(run(SERVICE), run(BSSF));
}
