//! The worker pool behind [`QueryService`]: a bounded admission queue of
//! per-shard tasks, drained by a fixed set of worker threads.
//!
//! A query fans out into one task per shard, admitted as a single batch
//! (all-or-nothing under the queue lock, so two queries' tasks never
//! interleave partially when the queue is near capacity). Workers pop
//! tasks, run the shard's filtering stage under that shard's read guard,
//! and deposit the part; the last part to arrive wakes the waiter, which
//! merges candidates and sums [`ScanStats`].
//!
//! The vendored `parking_lot` stand-in has no `Condvar`, so the queue and
//! the per-query completion latch use `std::sync` primitives. Their `lock()/wait()` return
//! poisoning `Result`s; each `unwrap` carries an
//! `#[expect(clippy::unwrap_used)]` at its fn: a poisoned lock means
//! another worker panicked mid-update, and re-raising the panic at every
//! other participant beats serving answers assembled from torn queue or
//! latch state.
//!
//! Lock DAG (see DESIGN.md): `service.admission` (the queue) and
//! `service.pending` (a query's completion latch) are never held
//! together, and neither is ever held while a shard lock
//! (`service.shard`, in `router.rs`) is acquired — a worker finishes all
//! queue bookkeeping, *then* touches the shard, *then* takes the latch.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use setsig_core::{
    CandidateSet, ElementKey, Error, Oid, Result, ScanStats, SetAccessFacility, SetQuery,
};
use setsig_obs::{Counter, Gauge, Histogram, MetricsRegistry, Recorder};
use setsig_pagestore::CacheStats;

use crate::config::ServiceConfig;
use crate::router::{merge_parts, QueryAnswer, ShardRouter};

/// One unit of queued work: run the pending query against one shard.
struct Task {
    shard: usize,
    pending: Arc<Pending>,
}

/// A fanned-out query awaiting its per-shard parts.
struct Pending {
    query: SetQuery,
    /// Never held together with any other lock: workers deposit a part
    /// and release; waiters re-check under the condvar.
    // LOCK-ORDER: service.pending leaf
    state: Mutex<PendingState>,
    finished: Condvar,
    /// When the batch entered the queue — admission latency is measured
    /// from here to each task's dequeue.
    enqueued: Instant,
}

struct PendingState {
    /// Part `i` is shard `i`'s answer; deposited exactly once.
    parts: Vec<Option<QueryAnswer>>,
    completed: usize,
    failed: Option<Error>,
}

impl Pending {
    /// Deposits shard `shard`'s result and wakes the waiter when the
    /// query is fully answered (or has failed). A part already present
    /// is never overwritten — one answer per shard, exactly once.
    #[expect(
        clippy::unwrap_used,
        reason = "fails only on a poisoned lock (a worker panicked mid-update): re-raise, never serve torn state"
    )]
    fn complete(&self, shard: usize, result: Result<QueryAnswer>) {
        let mut st = self.state.lock().unwrap();
        match result {
            Ok(part) => {
                if st.parts[shard].is_none() {
                    st.parts[shard] = Some(part);
                }
            }
            Err(e) => {
                if st.failed.is_none() {
                    st.failed = Some(e);
                }
            }
        }
        st.completed += 1;
        let done = st.failed.is_some() || st.completed >= st.parts.len();
        drop(st);
        if done {
            self.finished.notify_all();
        }
    }
}

/// A handle to one submitted query; redeem with [`Ticket::wait`].
pub struct Ticket {
    pending: Arc<Pending>,
}

impl Ticket {
    /// Blocks until every shard has answered, then merges: candidate
    /// union plus summed scan stats (see
    /// [`merge_parts`](crate::merge_parts)). Returns the first shard
    /// error if any shard failed.
    #[expect(
        clippy::unwrap_used,
        reason = "fails only on a poisoned lock (a worker panicked mid-update): re-raise, never serve torn state"
    )]
    pub fn wait(self) -> Result<QueryAnswer> {
        let mut st = self.pending.state.lock().unwrap();
        while st.failed.is_none() && st.completed < st.parts.len() {
            st = self.pending.finished.wait(st).unwrap();
        }
        if let Some(e) = st.failed.take() {
            return Err(e);
        }
        let mut parts = Vec::with_capacity(st.parts.len());
        for slot in &mut st.parts {
            match slot.take() {
                Some(part) => parts.push(part),
                None => {
                    return Err(Error::Corrupted(
                        "query completed with a missing shard part".to_string(),
                    ))
                }
            }
        }
        drop(st);
        Ok(merge_parts(parts))
    }
}

/// The admission queue: FIFO of shard-tasks plus the open/closed flag.
struct Queue {
    tasks: VecDeque<Task>,
    open: bool,
}

/// Pre-resolved metric handles — name→metric lookup happens once at
/// construction, not on the query path.
struct Metrics {
    queue_depth: Arc<Gauge>,
    queue_peak: Arc<Gauge>,
    admission_ns: Arc<Histogram>,
    shards: Vec<ShardMetrics>,
}

struct ShardMetrics {
    queries: Arc<Counter>,
    scan_pages: Arc<Histogram>,
    inflight: Arc<Gauge>,
}

impl Metrics {
    fn resolve(registry: &MetricsRegistry, shards: usize) -> Metrics {
        Metrics {
            queue_depth: registry.gauge("service.queue_depth"),
            queue_peak: registry.gauge("service.queue_depth_peak"),
            admission_ns: registry.histogram("service.admission_ns"),
            shards: (0..shards)
                .map(|i| ShardMetrics {
                    queries: registry.counter(&format!("service.shard{i}.queries")),
                    scan_pages: registry.histogram(&format!("service.shard{i}.scan_pages")),
                    inflight: registry.gauge(&format!("service.shard{i}.inflight")),
                })
                .collect(),
        }
    }
}

/// Shared state between the service handle and its workers.
struct PoolInner<F> {
    router: ShardRouter<F>,
    /// Held only for queue bookkeeping (push/pop/depth gauges); never
    /// while touching a shard or a pending latch.
    // LOCK-ORDER: service.admission
    queue: Mutex<Queue>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    metrics: Option<Metrics>,
}

/// A sharded, concurrently-serving set access facility: OID-hash
/// partitions behind a [`ShardRouter`], queries fanned across a worker
/// pool with bounded, batched admission, live inserts/deletes
/// interleaving with readers per shard.
///
/// Dropping the service closes the queue, lets the workers drain every
/// admitted task, and joins them — no admitted query is lost.
pub struct QueryService<F: SetAccessFacility + Send + Sync + 'static> {
    inner: Arc<PoolInner<F>>,
    workers: Vec<JoinHandle<()>>,
    config: ServiceConfig,
}

impl<F: SetAccessFacility + Send + Sync + 'static> QueryService<F> {
    /// Builds a service over `facilities` (one per shard, in shard
    /// order) with no observability attached.
    pub fn new(facilities: Vec<F>, config: ServiceConfig) -> Result<Self> {
        Self::with_recorder(facilities, config, None)
    }

    /// Builds a service wired to `recorder`: queue-depth and peak
    /// gauges, an admission-latency histogram, and per-shard query
    /// counters / scan-page histograms / in-flight gauges, all under
    /// `service.*` names (schema in DESIGN.md).
    pub fn with_recorder(
        facilities: Vec<F>,
        config: ServiceConfig,
        recorder: Option<Arc<Recorder>>,
    ) -> Result<Self> {
        config.validate()?;
        if facilities.len() != config.shards {
            return Err(Error::BadConfig(format!(
                "service configured for {} shards but given {} facilities",
                config.shards,
                facilities.len()
            )));
        }
        let router = ShardRouter::new(facilities)?;
        let metrics = recorder
            .as_ref()
            .map(|r| Metrics::resolve(r.registry(), config.shards));
        let inner = Arc::new(PoolInner {
            router,
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                open: true,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: config.capacity(),
            metrics,
        });
        let workers = (0..config.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Ok(QueryService {
            inner,
            workers,
            config,
        })
    }

    /// The sizing this service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The router, for shard introspection and concrete-type access
    /// ([`ShardRouter::with_shard_mut`]).
    pub fn router(&self) -> &ShardRouter<F> {
        &self.inner.router
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.router.shard_count()
    }

    /// Admits `query` as one batch of per-shard tasks, blocking while
    /// the bounded queue lacks room for the whole batch. Returns a
    /// [`Ticket`] to redeem for the merged answer.
    #[expect(
        clippy::unwrap_used,
        reason = "fails only on a poisoned lock (a worker panicked mid-update): re-raise, never serve torn state"
    )]
    pub fn submit(&self, query: &SetQuery) -> Ticket {
        let shards = self.inner.router.shard_count();
        let pending = Arc::new(Pending {
            query: query.clone(),
            state: Mutex::new(PendingState {
                parts: vec![None; shards],
                completed: 0,
                failed: None,
            }),
            finished: Condvar::new(),
            enqueued: Instant::now(),
        });
        {
            let mut q = self.inner.queue.lock().unwrap();
            while q.tasks.len() + shards > self.inner.capacity {
                q = self.inner.not_full.wait(q).unwrap();
            }
            for shard in 0..shards {
                q.tasks.push_back(Task {
                    shard,
                    pending: Arc::clone(&pending),
                });
            }
            if let Some(m) = &self.inner.metrics {
                let depth = q.tasks.len() as i64;
                m.queue_depth.set(depth);
                m.queue_peak.set_max(depth);
            }
        }
        self.inner.not_empty.notify_all();
        Ticket { pending }
    }

    /// Submits and waits: the merged candidates plus summed scan stats.
    pub fn query(&self, query: &SetQuery) -> Result<QueryAnswer> {
        self.submit(query).wait()
    }

    /// Batched admission: submits every query before redeeming any
    /// ticket, so the whole burst is in flight across the pool at once.
    pub fn query_batch(&self, queries: &[SetQuery]) -> Result<Vec<QueryAnswer>> {
        let tickets: Vec<Ticket> = queries.iter().map(|q| self.submit(q)).collect();
        tickets.into_iter().map(Ticket::wait).collect()
    }

    /// Live update: indexes `(oid, set)` under the owning shard's write
    /// guard, interleaving with in-flight readers on other shards.
    pub fn insert(&self, oid: Oid, set: &[ElementKey]) -> Result<()> {
        self.inner.router.insert(oid, set)
    }

    /// Live update: removes `(oid, set)` from the owning shard.
    pub fn delete(&self, oid: Oid, set: &[ElementKey]) -> Result<()> {
        self.inner.router.delete(oid, set)
    }
}

/// Worker body: pop a task (blocking while the queue is open and
/// empty), run the shard query, deposit the part. Exits once the queue
/// is closed *and* drained, so shutdown never drops admitted work.
#[expect(
    clippy::unwrap_used,
    reason = "fails only on a poisoned lock (a worker panicked mid-update): re-raise, never serve torn state"
)]
fn worker_loop<F: SetAccessFacility + Send + Sync>(inner: &PoolInner<F>) {
    loop {
        let task = {
            let mut q = inner.queue.lock().unwrap();
            loop {
                if let Some(t) = q.tasks.pop_front() {
                    if let Some(m) = &inner.metrics {
                        m.queue_depth.set(q.tasks.len() as i64);
                    }
                    break Some(t);
                }
                if !q.open {
                    break None;
                }
                q = inner.not_empty.wait(q).unwrap();
            }
        };
        let Some(task) = task else { return };
        inner.not_full.notify_all();
        if let Some(m) = &inner.metrics {
            m.admission_ns.record(
                u64::try_from(task.pending.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
            m.shards[task.shard].inflight.add(1);
        }
        let result = inner.router.query_shard(task.shard, &task.pending.query);
        if let Some(m) = &inner.metrics {
            m.shards[task.shard].inflight.add(-1);
            m.shards[task.shard].queries.inc();
            if let Ok((_, Some(stats))) = &result {
                m.shards[task.shard].scan_pages.record(stats.pages);
            }
        }
        task.pending.complete(task.shard, result);
    }
}

impl<F: SetAccessFacility + Send + Sync + 'static> SetAccessFacility for QueryService<F> {
    fn name(&self) -> &'static str {
        self.inner.router.name()
    }

    fn insert(&mut self, oid: Oid, set: &[ElementKey]) -> Result<()> {
        QueryService::insert(self, oid, set)
    }

    fn delete(&mut self, oid: Oid, set: &[ElementKey]) -> Result<()> {
        QueryService::delete(self, oid, set)
    }

    fn candidates_with_stats(&self, query: &SetQuery) -> Result<(CandidateSet, Option<ScanStats>)> {
        self.query(query)
    }

    fn indexed_count(&self) -> u64 {
        self.inner.router.total_indexed()
    }

    fn storage_pages(&self) -> Result<u64> {
        self.inner.router.total_storage_pages()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.router.total_cache_stats()
    }

    fn signature_geometry(&self) -> Option<(u32, u32)> {
        self.inner.router.signature_geometry()
    }
}

impl<F: SetAccessFacility + Send + Sync + 'static> Drop for QueryService<F> {
    #[expect(
        clippy::unwrap_used,
        reason = "fails only on a poisoned lock (a worker panicked mid-update): re-raise, never serve torn state"
    )]
    fn drop(&mut self) {
        {
            let mut q = self.inner.queue.lock().unwrap();
            q.open = false;
        }
        self.inner.not_empty.notify_all();
        for w in self.workers.drain(..) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a panicked worker already surfaced its panic to the waiter holding its Pending; re-raising from Drop would double-panic"
            )]
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MockFacility;

    fn service(shards: usize) -> QueryService<MockFacility> {
        QueryService::new(
            (0..shards).map(|_| MockFacility::new()).collect(),
            ServiceConfig::new(shards),
        )
        .expect("valid config")
    }

    fn key(e: u64) -> ElementKey {
        ElementKey::from(e)
    }

    #[test]
    fn mismatched_shard_count_is_rejected() {
        let Err(err) = QueryService::new(vec![MockFacility::new()], ServiceConfig::new(2)) else {
            panic!("mismatched shard count accepted")
        };
        assert!(err.to_string().contains("2 shards"), "{err}");
    }

    #[test]
    fn pooled_answers_match_the_serial_router() {
        let svc = service(4);
        for raw in 0..200u64 {
            svc.insert(Oid::new(raw), &[key(raw % 7), key(raw % 3)])
                .unwrap();
        }
        for e in 0..7u64 {
            let q = SetQuery::has_subset(vec![key(e)]);
            let (pooled, pooled_stats) = svc.query(&q).unwrap();
            let (serial, serial_stats) = svc.router().query_serial(&q).unwrap();
            assert_eq!(pooled, serial, "element {e}");
            assert_eq!(pooled_stats, serial_stats, "element {e}");
        }
    }

    #[test]
    fn batch_of_queries_all_answered_exactly_once() {
        let svc = service(3);
        for raw in 0..60u64 {
            svc.insert(Oid::new(raw), &[key(raw % 6)]).unwrap();
        }
        let queries: Vec<SetQuery> = (0..6u64)
            .map(|e| SetQuery::has_subset(vec![key(e)]))
            .collect();
        let answers = svc.query_batch(&queries).unwrap();
        assert_eq!(answers.len(), queries.len());
        for (e, (set, _)) in answers.iter().enumerate() {
            let expected: Vec<Oid> = (0..60u64)
                .filter(|r| r % 6 == e as u64)
                .map(Oid::new)
                .collect();
            assert_eq!(set.oids, expected, "query {e}");
        }
    }

    #[test]
    fn tiny_queue_still_admits_whole_batches() {
        // queue_depth 1 < shards 4: capacity is raised to one batch, so
        // admission never deadlocks on its own fan-out.
        let svc = QueryService::new(
            (0..4).map(|_| MockFacility::new()).collect::<Vec<_>>(),
            ServiceConfig::new(4).with_queue_depth(1).with_workers(2),
        )
        .expect("valid config");
        for raw in 0..40u64 {
            svc.insert(Oid::new(raw), &[key(raw % 2)]).unwrap();
        }
        let queries: Vec<SetQuery> = (0..8u64)
            .map(|i| SetQuery::has_subset(vec![key(i % 2)]))
            .collect();
        let answers = svc.query_batch(&queries).unwrap();
        assert_eq!(answers.len(), 8);
    }

    #[test]
    fn shard_errors_propagate_to_the_waiter() {
        let svc = service(2);
        // MockFacility rejects empty query sets with BadQuery.
        let q = SetQuery::has_subset(vec![]);
        let err = svc.query(&q).unwrap_err();
        assert!(matches!(err, Error::BadQuery(_)), "{err}");
    }

    #[test]
    fn concurrent_callers_and_writers_never_lose_answers() {
        let svc = Arc::new(service(4));
        for raw in 0..100u64 {
            svc.insert(Oid::new(raw), &[key(raw % 5)]).unwrap();
        }
        let writer = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                for raw in 100..200u64 {
                    svc.insert(Oid::new(raw), &[key(raw % 5)]).unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..4u64)
            .map(|t| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    let q = SetQuery::has_subset(vec![key(t % 5)]);
                    for _ in 0..20 {
                        let (set, _) = svc.query(&q).unwrap();
                        // Every pre-existing answer must be present
                        // whatever the writer is doing (no false
                        // negatives on committed objects).
                        for raw in (0..100u64).filter(|r| r % 5 == t % 5) {
                            assert!(set.oids.contains(&Oid::new(raw)), "lost oid {raw}");
                        }
                    }
                })
            })
            .collect();
        writer.join().expect("writer");
        for r in readers {
            r.join().expect("reader");
        }
        assert_eq!(svc.router().total_indexed(), 200);
    }

    #[test]
    fn drop_drains_admitted_work() {
        let svc = service(2);
        for raw in 0..20u64 {
            svc.insert(Oid::new(raw), &[key(raw % 2)]).unwrap();
        }
        let tickets: Vec<Ticket> = (0..10)
            .map(|i| svc.submit(&SetQuery::has_subset(vec![key(i % 2)])))
            .collect();
        drop(svc);
        for t in tickets {
            t.wait().expect("admitted query answered across shutdown");
        }
    }

    #[test]
    fn recorder_sees_queue_and_shard_metrics() {
        let rec = Arc::new(Recorder::new());
        let svc = QueryService::with_recorder(
            (0..2).map(|_| MockFacility::new()).collect::<Vec<_>>(),
            ServiceConfig::new(2),
            Some(Arc::clone(&rec)),
        )
        .expect("valid config");
        for raw in 0..20u64 {
            svc.insert(Oid::new(raw), &[key(raw % 2)]).unwrap();
        }
        let queries: Vec<SetQuery> = (0..8u64)
            .map(|i| SetQuery::has_subset(vec![key(i % 2)]))
            .collect();
        svc.query_batch(&queries).unwrap();
        let snap = rec.registry().snapshot();
        let per_shard: u64 = (0..2)
            .map(|i| {
                snap.get_counter(&format!("service.shard{i}.queries"))
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(per_shard, 16, "8 queries × 2 shards");
        assert_eq!(
            snap.get_gauge("service.queue_depth"),
            Some(0),
            "drained queue reads zero"
        );
        assert!(snap.get_gauge("service.queue_depth_peak").unwrap_or(0) >= 1);
        let adm = snap
            .get_histogram("service.admission_ns")
            .expect("histogram");
        assert_eq!(adm.count, 16);
        for i in 0..2 {
            assert_eq!(
                snap.get_gauge(&format!("service.shard{i}.inflight")),
                Some(0),
                "shard {i} settled"
            );
        }
    }
}
