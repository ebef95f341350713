//! The traced pass: replays a prefix of each op list layer by layer with the
//! wrappers installed, checks the composed answer against `run_query` on an
//! unwrapped twin, and turns the spans into the per-layer metrics.

use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use setsig_core::{resolve_drops, DropReport, Oid, SetAccessFacility, TargetSetSource};
use setsig_costmodel::{BssfModel, NixModel, Params, SsfModel};
use setsig_oodb::parse_query;
use setsig_pagestore::CacheStats;

use crate::e2e::{self, inputs_for};
use crate::gen::{self, Inputs, Op, Pred, SplitMix64};
use crate::instance::{keys, values, Instance, ATTR};
use crate::oracle::oid_sum;
use crate::probes;
use crate::report::{Metric, Report};
use crate::stats;
use crate::trace::{self, Name, Span};
use crate::workloads::{Fac, Scale, Spec};
use crate::wrappers::{file_class, query_key, TimedSource};

/// The traced pass replays this share of a round's ops …
const PREFIX_SHARE: usize = 10;
/// … but at least this many, so a p50 has samples behind it.
const PREFIX_MIN: usize = 100;
/// Inserts and deletes every facility's trace holds at least: what the op
/// list lacks is topped up after the replay.
const UPDATES_MIN: usize = 100;
/// Keeps the top-up sets' stream apart from the op list's.
const UPDATE_STREAM: u64 = 0x7570_6461_7465;
/// The 2-shard BSSF service probed on the workloads that have no service.
const PROBE_OBJECTS: usize = 2_000;
const PROBE_QUERIES: usize = 100;

/// What one facility's traced replay produced besides its spans.
#[derive(Default)]
struct Tally {
    queries: u64,
    /// Page accesses `Disk::snapshot` charged to queries (after the pool).
    query_pages: u64,
    updates: u64,
    update_pages: u64,
    candidates: u64,
    false_drops: u64,
    /// Reads of the object file during the replay.
    object_reads: u64,
    storage_pages: u64,
    /// Pool hits, misses and evictions while queries ran.
    pool: CacheStats,
    /// Latency of every query on the unwrapped twin.
    plain_query_ns: Vec<u64>,
    /// Wall time of the replay without and with the wrappers.
    plain_ns: u64,
    traced_ns: u64,
    /// The cost model's `RC` summed over the replayed queries.
    model_pages: f64,
    attempted: u64,
    failed: u64,
}

struct FacTrace {
    fac: Fac,
    spans: Vec<Span>,
    /// Raw file id → what the file holds.
    files: HashMap<u32, &'static str>,
    tally: Tally,
}

/// The paper's `RC` for one query shape, memoised per `(predicate, D_q)`.
struct Model<'a> {
    spec: &'a Spec,
    fac: Fac,
    params: Params,
    memo: HashMap<(Pred, usize), f64>,
}

impl<'a> Model<'a> {
    fn new(spec: &'a Spec, fac: Fac, objects: usize) -> Self {
        Model {
            spec,
            fac,
            params: Params::scaled(objects as u64, gen::V),
            memo: HashMap::new(),
        }
    }

    fn rc(&mut self, pred: Pred, d_q: usize) -> f64 {
        let (p, s, fac) = (self.params, self.spec, self.fac);
        *self.memo.entry((pred, d_q)).or_insert_with(|| {
            let (d_t, d_q) = (s.d_t as u32, d_q as u32);
            match (fac, pred) {
                (Fac::Ssf, Pred::HasSubset) => {
                    SsfModel::new(p, s.f_bits, s.m, d_t).rc_superset(d_q)
                }
                (Fac::Ssf, Pred::InSubset) => SsfModel::new(p, s.f_bits, s.m, d_t).rc_subset(d_q),
                (Fac::Bssf, Pred::HasSubset) => {
                    BssfModel::new(p, s.f_bits, s.m, d_t).rc_superset(d_q)
                }
                (Fac::Bssf, Pred::InSubset) => BssfModel::new(p, s.f_bits, s.m, d_t).rc_subset(d_q),
                (Fac::Nix, Pred::HasSubset) => NixModel::new(p, d_t).rc_superset(d_q),
                (Fac::Nix, Pred::InSubset) => NixModel::new(p, d_t).rc_subset(d_q),
            }
        })
    }
}

/// Reads of the object file so far.
fn object_reads(inst: &Instance) -> u64 {
    // `Database::on_disk` creates the object file before any other.
    let object = setsig_pagestore::FileId::from_raw(0);
    debug_assert_eq!(
        inst.disk.file_info(object).map(|f| file_class(&f.name)),
        Ok("object")
    );
    inst.disk.file_stats(object).map_or(0, |s| s.reads)
}

fn file_classes(inst: &Instance) -> HashMap<u32, &'static str> {
    inst.disk
        .list_files()
        .iter()
        .map(|f| (f.id.raw(), file_class(&f.name)))
        .collect()
}

fn pool_stats(inst: &Instance) -> CacheStats {
    inst.staged
        .as_ref()
        .map_or_else(CacheStats::default, |s| s.pool().stats())
}

fn pool_since(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        pinned_hits: after.pinned_hits - before.pinned_hits,
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
    }
}

/// One query through the layers one by one — what `run_query` does inside,
/// with a span around each call.
fn composed_query(inst: &Instance, text: &str) -> Option<DropReport> {
    let parsed = {
        let _span = trace::span(Name::Parse, 0);
        parse_query(text)
    };
    let (_, query) = parsed.ok()?.condition?;
    // The registered facility is the `TracedFacility`: it records the filter.
    let (candidates, _) = inst.db.facility(0)?.candidates_with_stats(&query).ok()?;
    let source = inst.db.target_source(inst.class, ATTR).ok()?;
    let _span = trace::span(Name::Resolve, 0);
    resolve_drops(&query, &candidates, &TimedSource { inner: &source }).ok()
}

/// Ops that bring a trace's inserts and deletes up to [`UPDATES_MIN`]:
/// fresh objects in, then the same objects out again.
fn update_top_up(seed: u64, d_t: usize, ops: &[Op], objects: usize) -> Vec<Op> {
    let inserts = ops
        .iter()
        .filter(|o| matches!(o, Op::Insert { .. }))
        .count();
    let deletes = ops
        .iter()
        .filter(|o| matches!(o, Op::Delete { .. }))
        .count();
    let need = UPDATES_MIN.saturating_sub(inserts.min(deletes));
    let mut rng = SplitMix64::new(seed ^ UPDATE_STREAM);
    let first = (objects + inserts) as u64;
    let mut extra: Vec<Op> = (0..need)
        .map(|_| Op::Insert {
            set: gen::random_set(&mut rng, d_t),
        })
        .collect();
    extra.extend((0..need as u64).map(|k| Op::Delete { obj: first + k }));
    extra
}

/// The traced replay of a `Database`-driven workload: one client, every op
/// on the unwrapped twin first (`run_query`), then layer by layer on the
/// traced instance.
fn replay_direct(
    spec: &Spec,
    fac: Fac,
    seed: u64,
    inputs: &Inputs,
    prefix: usize,
) -> Result<FacTrace, String> {
    let mut plain = Instance::build(spec, fac, &inputs.sets, false)?;
    let mut traced = Instance::build(spec, fac, &inputs.sets, true)?;
    let mut model = Model::new(spec, fac, inputs.sets.len());
    let mut t = Tally::default();
    let extra = update_top_up(seed, spec.d_t, &inputs.ops[..prefix], inputs.sets.len());
    // Let the pool fill first, as the end-to-end pass's warm-up round does:
    // the prefix's queries once on both twins, recording still off.
    for op in &inputs.ops[..prefix] {
        if let Op::Query { text, .. } = op {
            let warm = plain.db.run_query(text).and(traced.db.run_query(text));
            warm.map_err(|e| format!("warm-up query failed: {e}"))?;
        }
    }
    trace::enable(true);
    for (i, op) in inputs.ops[..prefix].iter().chain(&extra).enumerate() {
        t.attempted += 1;
        let before = traced.disk.snapshot();
        let reads_before = object_reads(&traced);
        let pool_before = pool_stats(&traced);
        let agree = match op {
            Op::Query { text, pred, elems } => {
                let clock = Instant::now();
                let want = plain.db.run_query(text);
                t.plain_query_ns.push(clock.elapsed().as_nanos() as u64);

                trace::set_query(i as u64 + 1);
                let clock = Instant::now();
                let got = {
                    let _span = trace::span(Name::Query, fac.index() as u32);
                    composed_query(&traced, text)
                };
                t.traced_ns += clock.elapsed().as_nanos() as u64;
                trace::set_query(0);

                t.queries += 1;
                t.query_pages += traced.disk.snapshot().since(before).accesses();
                t.object_reads += object_reads(&traced) - reads_before;
                t.pool += pool_since(pool_stats(&traced), pool_before);
                t.model_pages += model.rc(*pred, elems.len());
                match (want, got) {
                    (Ok(want), Some(got)) => {
                        t.candidates += got.candidates;
                        t.false_drops += got.false_drops;
                        oid_sum(&want.actual) == oid_sum(&got.actual)
                    }
                    _ => false,
                }
            }
            Op::Insert { set } => {
                let want = plain.db.insert_object(plain.class, values(set));
                let got = {
                    let _span = trace::span(Name::InsertObject, 0);
                    traced.db.insert_object(traced.class, values(set))
                };
                t.updates += 1;
                t.update_pages += traced.disk.snapshot().since(before).accesses();
                matches!((want, got), (Ok(a), Ok(b)) if a == b)
            }
            Op::Delete { obj } => {
                let want = plain.db.delete_object(Oid::new(*obj));
                let got = {
                    let _span = trace::span(Name::DeleteObject, 0);
                    traced.db.delete_object(Oid::new(*obj))
                };
                t.updates += 1;
                t.update_pages += traced.disk.snapshot().since(before).accesses();
                want.is_ok() && got.is_ok()
            }
        };
        if !agree {
            t.failed += 1;
        }
    }
    trace::enable(false);
    t.plain_ns = t.plain_query_ns.iter().sum();
    t.storage_pages = traced.storage_pages();
    let files = file_classes(&traced);
    drop(traced);
    Ok(FacTrace {
        fac,
        spans: trace::drain(),
        files,
        tally: t,
    })
}

/// The traced client of the service: as `e2e::service_round`, with a span
/// around each step and the query announced to the worker threads.
fn traced_service_client(inst: &Instance, ops: &[Op]) -> (u64, Vec<(usize, Option<DropReport>)>) {
    let service = inst.service.as_deref().expect("a service instance");
    let source = inst
        .db
        .target_source(inst.class, ATTR)
        .expect("the class has the attribute");
    let mut out = Vec::new();
    let clock = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let Op::Query { text, .. } = op else { continue };
        let id = i as u64 + 1;
        trace::set_query(id);
        let report = {
            let _span = trace::span(Name::Query, 0);
            traced_service_query(id, text, service, &source)
        };
        out.push((i, report));
    }
    trace::set_query(0);
    (clock.elapsed().as_nanos() as u64, out)
}

fn traced_service_query(
    id: u64,
    text: &str,
    service: &dyn SetAccessFacility,
    source: &dyn TargetSetSource,
) -> Option<DropReport> {
    let parsed = {
        let _span = trace::span(Name::Parse, 0);
        parse_query(text)
    };
    let (_, query) = parsed.ok()?.condition?;
    trace::announce(query_key(&query), id);
    let answer = {
        let _span = trace::span(Name::ServiceQuery, 0);
        service.candidates_with_stats(&query)
    };
    trace::retire(id);
    let (candidates, _) = answer.ok()?;
    let _span = trace::span(Name::Resolve, 0);
    resolve_drops(&query, &candidates, &TimedSource { inner: source }).ok()
}

/// The traced replay of the service workload: the client runs the prefix on
/// an unwrapped twin, then on the traced instance; updates are probed by one
/// thread afterwards (store insert, then the owning shard's).
fn replay_service(
    spec: &Spec,
    fac: Fac,
    seed: u64,
    inputs: &Inputs,
    prefix: usize,
) -> Result<FacTrace, String> {
    let plain = Instance::build(spec, fac, &inputs.sets, false)?;
    let mut traced = Instance::build(spec, fac, &inputs.sets, true)?;
    let mut model = Model::new(spec, fac, inputs.sets.len());
    let mut t = Tally::default();
    let ops = &inputs.ops[..prefix];

    // Both twins answer the prefix once before they are timed, so the pool
    // is as full as the end-to-end pass's warm-up round leaves it.
    e2e::service_round(&plain, ops, 0);
    e2e::service_round(&traced, ops, 0);
    let reference = e2e::service_round(&plain, ops, 0);
    t.plain_ns = reference.wall.as_nanos() as u64;
    t.plain_query_ns = reference.lat_ns;
    let want: HashMap<usize, Option<u64>> = reference.outcomes.into_iter().collect();
    drop(plain);

    let reads_before = object_reads(&traced);
    let pool_before = pool_stats(&traced);
    let before = traced.disk.snapshot();
    trace::enable(true);
    let (wall_ns, got) = traced_service_client(&traced, ops);
    t.traced_ns = wall_ns;
    t.query_pages = traced.disk.snapshot().since(before).accesses();
    for (i, report) in got {
        t.attempted += 1;
        t.queries += 1;
        if let Op::Query { pred, elems, .. } = &ops[i] {
            t.model_pages += model.rc(*pred, elems.len());
        }
        let sum = report.as_ref().map(|r| oid_sum(&r.actual));
        if sum.is_none() || want.get(&i) != Some(&sum) {
            t.failed += 1;
        }
        if let Some(r) = report {
            t.candidates += r.candidates;
            t.false_drops += r.false_drops;
        }
    }
    t.object_reads = object_reads(&traced) - reads_before;
    t.pool = pool_since(pool_stats(&traced), pool_before);

    // Update probe: no client is running, so one thread may use the
    // service's `&mut` insert and delete.
    let mut rng = SplitMix64::new(seed ^ UPDATE_STREAM);
    let probe: Vec<Vec<u64>> = (0..UPDATES_MIN)
        .map(|_| gen::random_set(&mut rng, spec.d_t))
        .collect();
    let mut inserted = Vec::with_capacity(probe.len());
    for set in &probe {
        t.attempted += 1;
        let before = traced.disk.snapshot();
        let oid = {
            let _span = trace::span(Name::InsertObject, 0);
            traced.db.insert_object(traced.class, values(set))
        };
        let indexed = oid.as_ref().ok().map(|&oid| {
            let service = traced.service.as_mut().expect("a service instance");
            service.insert(oid, &keys(set))
        });
        t.updates += 1;
        t.update_pages += traced.disk.snapshot().since(before).accesses();
        match (oid, indexed) {
            (Ok(oid), Some(Ok(()))) => inserted.push((oid, set)),
            _ => t.failed += 1,
        }
    }
    for (oid, set) in inserted {
        t.attempted += 1;
        let before = traced.disk.snapshot();
        let service = traced.service.as_mut().expect("a service instance");
        let unindexed = service.delete(oid, &keys(set));
        let removed = {
            let _span = trace::span(Name::DeleteObject, 0);
            traced.db.delete_object(oid)
        };
        t.updates += 1;
        t.update_pages += traced.disk.snapshot().since(before).accesses();
        if unindexed.is_err() || removed.is_err() {
            t.failed += 1;
        }
    }
    trace::enable(false);
    t.storage_pages = traced.storage_pages();
    let files = file_classes(&traced);
    // Dropping the service joins its workers, whose spans then reach the sink.
    drop(traced);
    Ok(FacTrace {
        fac,
        spans: trace::drain(),
        files,
        tally: t,
    })
}

/// Spans of a small 2-shard BSSF service answering the op list's first
/// queries: where the service metrics come from on a workload without one.
fn service_probe(spec: &Spec, inputs: &Inputs) -> Result<Vec<Span>, String> {
    let objects = inputs.sets.len().min(PROBE_OBJECTS);
    let mini = Spec {
        shards: Some(2),
        pool_frames: None,
        ..spec.clone()
    };
    let queries: Vec<Op> = inputs
        .ops
        .iter()
        .filter(|o| o.is_query())
        .take(PROBE_QUERIES)
        .cloned()
        .collect();
    let inst = Instance::build(&mini, Fac::Bssf, &inputs.sets[..objects], true)?;
    trace::enable(true);
    traced_service_client(&inst, &queries);
    trace::enable(false);
    drop(inst);
    Ok(trace::drain())
}

fn p50(ns: &mut [u64]) -> f64 {
    stats::percentile(ns, 50.0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What the service did for one query, from its client span and the
/// shard-task spans carrying the same query id.
#[derive(Debug, Default, PartialEq)]
pub struct ServiceTimes {
    /// Submit → first shard task starts.
    pub queue_wait_ns: Vec<u64>,
    /// Every shard task's duration.
    pub shard_busy_ns: Vec<u64>,
    /// Last shard task ends → `query` returns.
    pub merge_wake_ns: Vec<u64>,
    /// Per query, slowest shard ÷ mean shard.
    pub skew: Vec<f64>,
}

impl ServiceTimes {
    fn append(&mut self, mut other: ServiceTimes) {
        self.queue_wait_ns.append(&mut other.queue_wait_ns);
        self.shard_busy_ns.append(&mut other.shard_busy_ns);
        self.merge_wake_ns.append(&mut other.merge_wake_ns);
        self.skew.append(&mut other.skew);
    }
}

pub fn service_times(spans: &[Span]) -> ServiceTimes {
    let mut tasks: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans
        .iter()
        .filter(|s| s.name == Name::Filter && s.query_id != 0)
    {
        tasks.entry(s.query_id).or_default().push(s);
    }
    let mut out = ServiceTimes::default();
    for q in spans.iter().filter(|s| s.name == Name::ServiceQuery) {
        let Some(tasks) = tasks.get(&q.query_id) else {
            continue;
        };
        let first = tasks.iter().map(|t| t.start_ns).min().unwrap_or(q.start_ns);
        let last = tasks.iter().map(|t| t.end_ns).max().unwrap_or(q.end_ns);
        out.queue_wait_ns.push(first.saturating_sub(q.start_ns));
        out.merge_wake_ns.push(q.end_ns.saturating_sub(last));
        let busy: Vec<u64> = tasks.iter().map(|t| t.ns()).collect();
        let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
        let slowest = busy.iter().copied().max().unwrap_or(0) as f64;
        out.skew.push(ratio(slowest, mean));
        out.shard_busy_ns.extend(busy);
    }
    out
}

/// The twelve metrics of one facility.
fn facility_metrics(ft: &FacTrace, report: &mut Report) {
    let (t, spans) = (&ft.tally, &ft.spans);
    let own = trace::self_ns(spans);
    let of = |name: Name| trace::durations(spans, name);
    let filters: HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == Name::Filter)
        .map(|s| s.id)
        .collect();
    let filter_reads = spans
        .iter()
        .filter(|s| s.name == Name::Read && filters.contains(&s.parent));
    let (mut reads, mut oid_reads) = (0u64, 0u64);
    for s in filter_reads {
        reads += 1;
        if ft.files.get(&s.aux) == Some(&"oid") {
            oid_reads += 1;
        }
    }
    let mut filter_self: Vec<u64> = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == Name::Filter)
        .map(|(_, &ns)| ns)
        .collect();
    let queries = t.queries as f64;
    let pages_per_query = ratio(t.query_pages as f64, queries);
    let query_p50_us = p50(&mut of(Name::Query)) / 1e3;
    let p = ft.fac.layer();
    let mut put = |suffix: &str, value: f64, unit: &'static str| {
        report.push(Metric::new(&format!("{p}.{suffix}"), value, unit));
    };
    put("filter_p50_us", p50(&mut of(Name::Filter)) / 1e3, "us");
    put("filter_self_p50_us", p50(&mut filter_self) / 1e3, "us");
    put(
        "filter_pages_per_query",
        ratio(reads as f64, queries),
        "pages",
    );
    put(
        "oid_pages_per_query",
        ratio(oid_reads as f64, queries),
        "pages",
    );
    put("us_per_page", ratio(query_p50_us, pages_per_query), "us");
    put(
        "candidates_per_query",
        ratio(t.candidates as f64, queries),
        "count",
    );
    put(
        "false_drop_share",
        ratio(t.false_drops as f64, t.candidates as f64),
        "ratio",
    );
    put("insert_p50_us", p50(&mut of(Name::FacInsert)) / 1e3, "us");
    put("delete_p50_us", p50(&mut of(Name::FacDelete)) / 1e3, "us");
    put(
        "pages_per_update",
        ratio(t.update_pages as f64, t.updates as f64),
        "pages",
    );
    put("storage_pages", t.storage_pages as f64, "pages");
    // The tail as a user sees it: `run_query` (or the service client's
    // query) on the unwrapped twin. It held no bound the contract allows
    // from run to run, so it is reported here, unbounded, with its sample
    // count in the notes.
    put(
        "query_p99_us",
        stats::percentile(&mut t.plain_query_ns.clone(), 99.0) as f64 / 1e3,
        "us",
    );
}

/// The metrics of the layers all three facilities share, over their spans
/// taken together, then the probes.
fn shared_metrics(traces: &[FacTrace], service: &ServiceTimes, report: &mut Report) {
    let all = |name: Name| -> Vec<u64> {
        traces
            .iter()
            .flat_map(|ft| trace::durations(&ft.spans, name))
            .collect()
    };
    let mut resolve_self: Vec<u64> = traces
        .iter()
        .flat_map(|ft| {
            let own = trace::self_ns(&ft.spans);
            ft.spans
                .iter()
                .zip(own)
                .filter(|(s, _)| s.name == Name::Resolve)
                .map(|(_, ns)| ns)
                .collect::<Vec<u64>>()
        })
        .collect();
    let sum = |f: fn(&Tally) -> u64| traces.iter().map(|ft| f(&ft.tally)).sum::<u64>() as f64;
    let fetches = all(Name::Fetch).len() as f64;
    let pool_reads = sum(|t| t.pool.hits + t.pool.pinned_hits + t.pool.misses);

    let mut put = |name: &str, value: f64, unit: &'static str| {
        report.push(Metric::new(name, value, unit));
    };
    put(
        "core.kernel.and_ns_per_page",
        probes::kernel_and_ns_per_page(),
        "ns",
    );
    put(
        "core.kernel.or_ns_per_page",
        probes::kernel_or_ns_per_page(),
        "ns",
    );
    put(
        "core.drops.resolve_p50_us",
        p50(&mut all(Name::Resolve)) / 1e3,
        "us",
    );
    put(
        "core.drops.verify_self_p50_us",
        p50(&mut resolve_self) / 1e3,
        "us",
    );
    put(
        "oodb.store.fetch_p50_us",
        p50(&mut all(Name::Fetch)) / 1e3,
        "us",
    );
    put(
        "oodb.store.pages_per_fetch",
        ratio(sum(|t| t.object_reads), fetches),
        "pages",
    );
    put("oodb.sql.parse_p50_ns", p50(&mut all(Name::Parse)), "ns");
    put(
        "oodb.insert_object_p50_us",
        p50(&mut all(Name::InsertObject)) / 1e3,
        "us",
    );
    put("pagestore.disk.read_ns", p50(&mut all(Name::Read)), "ns");
    put("pagestore.disk.write_ns", p50(&mut all(Name::Write)), "ns");
    put(
        "pagestore.pool.read_hit_ns",
        probes::pool_read_hit_ns(),
        "ns",
    );
    put(
        "pagestore.pool.hit_rate",
        ratio(sum(|t| t.pool.hits + t.pool.pinned_hits), pool_reads),
        "ratio",
    );
    put(
        "pagestore.pool.evictions_per_query",
        ratio(sum(|t| t.pool.evictions), sum(|t| t.queries)),
        "count",
    );
    let mut wait = service.queue_wait_ns.clone();
    wait.sort_unstable();
    put(
        "service.queue_wait_p50_us",
        stats::percentile_sorted(&wait, 50.0) as f64 / 1e3,
        "us",
    );
    put(
        "service.queue_wait_p99_us",
        stats::percentile_sorted(&wait, 99.0) as f64 / 1e3,
        "us",
    );
    put(
        "service.shard_busy_p50_us",
        p50(&mut service.shard_busy_ns.clone()) / 1e3,
        "us",
    );
    put(
        "service.merge_wake_p50_us",
        p50(&mut service.merge_wake_ns.clone()) / 1e3,
        "us",
    );
    put(
        "service.shard_skew",
        ratio(service.skew.iter().sum::<f64>(), service.skew.len() as f64),
        "ratio",
    );
    for ft in traces {
        put(
            &format!("costmodel.{}.rc_ratio", ft.fac.e2e()),
            ratio(ft.tally.query_pages as f64, ft.tally.model_pages),
            "ratio",
        );
    }
    put("calib.copy_4k_ns", probes::copy_4k_ns(), "ns");
    let plain = sum(|t| t.plain_ns);
    put(
        "trace.overhead_share",
        ratio(sum(|t| t.traced_ns) - plain, plain),
        "ratio",
    );
}

/// Names and units of the per-layer metrics, in report order.
#[cfg(test)]
pub fn catalog() -> Vec<(String, &'static str)> {
    let mut report = Report::new(1, 0);
    let traces: Vec<FacTrace> = Fac::ALL
        .iter()
        .map(|&fac| FacTrace {
            fac,
            spans: Vec::new(),
            files: HashMap::new(),
            tally: Tally::default(),
        })
        .collect();
    for ft in &traces {
        facility_metrics(ft, &mut report);
    }
    shared_metrics(&traces, &ServiceTimes::default(), &mut report);
    report
        .metrics
        .into_iter()
        .map(|m| (m.name, m.unit))
        .collect()
}

fn write_trace(
    dir: &Path,
    workload: &str,
    traces: &[FacTrace],
    probe: &[Span],
) -> Result<(), String> {
    let path = dir.join(format!("trace-{workload}.jsonl"));
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::create_dir_all(dir).map_err(io)?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path).map_err(io)?);
    for ft in traces {
        let class = |id: u32| ft.files.get(&id).copied().unwrap_or("other");
        trace::write_jsonl(&mut out, &ft.spans, ft.fac.layer(), &class).map_err(io)?;
    }
    trace::write_jsonl(&mut out, probe, "probe.bssf", &|_| "other").map_err(io)?;
    out.flush().map_err(io)
}

/// The traced pass of one workload. Writes the spans to
/// `<out_dir>/trace-<workload>.jsonl` when `out_dir` is given.
pub fn run(spec: &Spec, seed: u64, scale: Scale, out_dir: Option<&Path>) -> Result<Report, String> {
    let inputs = inputs_for(spec, seed, scale);
    let mut traces = Vec::with_capacity(Fac::ALL.len());
    for fac in Fac::ALL {
        let per_round = scale.ops(spec.ops_per_round[fac.index()]);
        let prefix = (per_round / PREFIX_SHARE).max(PREFIX_MIN).min(per_round);
        traces.push(match spec.shards {
            Some(_) => replay_service(spec, fac, seed, &inputs, prefix)?,
            None => replay_direct(spec, fac, seed, &inputs, prefix)?,
        });
    }
    let (service, probe) = if spec.shards.is_some() {
        // Query ids repeat from one facility's replay to the next: match
        // spans within a replay, then pool the times.
        let mut pooled = ServiceTimes::default();
        for ft in &traces {
            pooled.append(service_times(&ft.spans));
        }
        (pooled, Vec::new())
    } else {
        let probe = service_probe(spec, &inputs)?;
        (service_times(&probe), probe)
    };

    let attempted = traces.iter().map(|ft| ft.tally.attempted).sum();
    let failed = traces.iter().map(|ft| ft.tally.failed).sum();
    let mut report = Report::new(attempted, failed);
    for ft in &traces {
        facility_metrics(ft, &mut report);
    }
    shared_metrics(&traces, &service, &mut report);
    let spans: usize = traces.iter().map(|ft| ft.spans.len()).sum::<usize>() + probe.len();
    for ft in &traces {
        report.note(format!(
            "{}: p50s over {} queries, query_p99_us over {} untraced ones",
            ft.fac.layer(),
            ft.tally.queries,
            ft.tally.plain_query_ns.len()
        ));
    }
    report.note(format!(
        "{spans} spans; {} queries and {} updates replayed; service numbers from {}",
        traces.iter().map(|ft| ft.tally.queries).sum::<u64>(),
        traces.iter().map(|ft| ft.tally.updates).sum::<u64>(),
        if spec.shards.is_some() {
            "the workload's own service"
        } else {
            "a 2-shard BSSF probe"
        }
    ));
    if let Some(dir) = out_dir {
        write_trace(dir, spec.name, &traces, &probe)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(name: Name, id: u64, query_id: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            aux: 0,
            id,
            parent: 0,
            query_id,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn service_times_come_from_spans_sharing_a_query_id() {
        let spans = [
            mk(Name::ServiceQuery, 1, 7, 100, 400),
            mk(Name::Filter, 2, 7, 130, 230),
            mk(Name::Filter, 3, 7, 150, 350),
            // A query whose shard tasks were not recognised is left out.
            mk(Name::ServiceQuery, 4, 8, 500, 600),
            mk(Name::Filter, 5, 0, 510, 590),
        ];
        let t = service_times(&spans);
        assert_eq!(t.queue_wait_ns, vec![30]);
        assert_eq!(t.merge_wake_ns, vec![50]);
        let mut busy = t.shard_busy_ns.clone();
        busy.sort_unstable();
        assert_eq!(busy, vec![100, 200]);
        // Slowest 200 over a mean of 150.
        assert!((t.skew[0] - 200.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn top_up_inserts_then_deletes_the_same_objects() {
        let ops = vec![
            Op::Insert { set: vec![1] },
            Op::Delete { obj: 3 },
            Op::Insert { set: vec![2] },
        ];
        let extra = update_top_up(9, 10, &ops, 50);
        // One delete in the trace: 99 more of each, the first new object
        // being the 53rd (50 stored + 2 inserted before it).
        assert_eq!(extra.len(), 2 * (UPDATES_MIN - 1));
        assert!(matches!(&extra[0], Op::Insert { set } if set.len() == 10));
        assert_eq!(extra[UPDATES_MIN - 1], Op::Delete { obj: 52 });
        assert_eq!(extra.last(), Some(&Op::Delete { obj: 52 + 98 }));
    }
}
