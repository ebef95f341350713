//! Spans recorded from the benchmark's own code around the calls into each
//! layer: `{name, start, end, parent, query id}` kept in per-thread buffers
//! and merged when the pass ends. Nothing here is compiled into the crates.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Name {
    /// One whole query as the client sees it: text in, verified OIDs out.
    Query,
    /// `parse_query`.
    Parse,
    /// `candidates_with_stats` of one facility (one shard task on the
    /// service workload; `aux` is the shard).
    Filter,
    /// `PageIo::read_page` (`aux` is the raw file id).
    Read,
    /// `PageIo::{write_page, update_page, append_page, extend_to}`.
    Write,
    /// `resolve_drops`.
    Resolve,
    /// `TargetSetSource::fetch_set`.
    Fetch,
    /// `QueryService::query`, submit to return.
    ServiceQuery,
    /// `Database::insert_object`.
    InsertObject,
    /// `Database::delete_object`.
    DeleteObject,
    /// `SetAccessFacility::insert`.
    FacInsert,
    /// `SetAccessFacility::delete`.
    FacDelete,
}

impl Name {
    /// The span's name in the trace file; `fac` is the facility's layer
    /// prefix (`core.ssf`, `core.bssf`, `nix`).
    pub fn label(self, fac: &str) -> String {
        match self {
            Name::Query => "bench.query".to_owned(),
            Name::Parse => "oodb.sql.parse".to_owned(),
            Name::Filter => format!("{fac}.filter"),
            Name::Read => "pagestore.read".to_owned(),
            Name::Write => "pagestore.write".to_owned(),
            Name::Resolve => "core.drops.resolve".to_owned(),
            Name::Fetch => "oodb.store.fetch".to_owned(),
            Name::ServiceQuery => "service.query".to_owned(),
            Name::InsertObject => "oodb.insert_object".to_owned(),
            Name::DeleteObject => "oodb.delete_object".to_owned(),
            Name::FacInsert => format!("{fac}.insert"),
            Name::FacDelete => format!("{fac}.delete"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    /// Shard index or raw file id, by `name`.
    pub aux: u32,
    /// Unique within a pass; never 0.
    pub id: u64,
    /// The enclosing span on the same thread, or 0.
    pub parent: u64,
    /// The query this span worked for, or 0.
    pub query_id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static THREADS: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());
/// Queries in flight through the service, `(query key, query id)`: the
/// worker threads learn from it which query a shard task belongs to.
static IN_FLIGHT: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());

/// Spans a thread's buffer is allocated for before its first span.
const LOCAL_CAPACITY: usize = 1 << 16;

struct Local {
    thread_no: u64,
    next: u64,
    spans: Vec<Span>,
    /// Ids of the open spans, innermost last.
    open: Vec<u64>,
    query_id: u64,
}

impl Local {
    fn flush(&mut self) {
        if !self.spans.is_empty() {
            // A poisoned sink only means another thread panicked mid-push;
            // the spans already in it are whole.
            let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
            sink.append(&mut self.spans);
        }
    }
}

impl Drop for Local {
    // Service worker threads are not ours to instrument: their spans reach
    // the sink when the thread ends, which `QueryService::drop` waits for.
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        // ATOMIC: Relaxed — a unique number, publishes nothing.
        thread_no: THREADS.fetch_add(1, Ordering::Relaxed) + 1,
        next: 0,
        spans: Vec::with_capacity(LOCAL_CAPACITY),
        open: Vec::new(),
        query_id: 0,
    });
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off. Off, [`span`] costs one relaxed load.
pub fn enable(on: bool) {
    EPOCH.get_or_init(Instant::now);
    // ATOMIC: SeqCst — flipped between phases, never on a hot path.
    ENABLED.store(on, Ordering::SeqCst);
}

/// Sets the query the calling thread works for (0 = none); returns the
/// previous one.
pub fn set_query(id: u64) -> u64 {
    LOCAL.with(|l| std::mem::replace(&mut l.borrow_mut().query_id, id))
}

pub fn current_query() -> u64 {
    LOCAL.with(|l| l.borrow().query_id)
}

/// Announces that query `id`, recognisable by `key`, is entering the service.
pub fn announce(key: u64, id: u64) {
    IN_FLIGHT
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push((key, id));
}

/// Withdraws an [`announce`]d query.
pub fn retire(id: u64) {
    let mut g = IN_FLIGHT.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(i) = g.iter().position(|&(_, q)| q == id) {
        g.swap_remove(i);
    }
}

/// The id of an in-flight query with this key, or 0.
pub fn lookup(key: u64) -> u64 {
    let g = IN_FLIGHT.lock().unwrap_or_else(|e| e.into_inner());
    g.iter().find(|&&(k, _)| k == key).map_or(0, |&(_, id)| id)
}

/// An open span; recorded when dropped.
pub struct SpanGuard {
    /// `None` while recording is off.
    open: Option<(Name, u32, u64, u64)>,
}

/// Opens a span that closes when the guard drops.
pub fn span(name: Name, aux: u32) -> SpanGuard {
    // ATOMIC: Relaxed — phases are separated by thread joins and `enable`'s
    // SeqCst store; a stale read only drops or adds a span at a phase edge.
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard { open: None };
    }
    let id = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.next += 1;
        let id = (l.thread_no << 40) | l.next;
        l.open.push(id);
        id
    });
    SpanGuard {
        open: Some((name, aux, id, now_ns())),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((name, aux, id, start_ns)) = self.open else {
            return;
        };
        let end_ns = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.open.pop();
            let span = Span {
                name,
                aux,
                id,
                parent: l.open.last().copied().unwrap_or(0),
                query_id: l.query_id,
                start_ns,
                end_ns,
            };
            l.spans.push(span);
        });
    }
}

/// Moves the calling thread's spans to the sink. Scoped client threads call
/// it before their closure returns (`thread::scope` does not wait for
/// thread-local destructors).
pub fn flush_thread() {
    LOCAL.with(|l| l.borrow_mut().flush());
}

/// Takes every span recorded so far, ordered by start time.
pub fn drain() -> Vec<Span> {
    flush_thread();
    let mut spans = std::mem::take(&mut *SINK.lock().unwrap_or_else(|e| e.into_inner()));
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Self time of every span, aligned with `spans`: its duration minus the
/// durations of its direct children.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *children.entry(s.parent).or_default() += s.ns();
    }
    spans
        .iter()
        .map(|s| {
            s.ns()
                .saturating_sub(children.get(&s.id).copied().unwrap_or(0))
        })
        .collect()
}

/// Durations of the spans called `name`.
pub fn durations(spans: &[Span], name: Name) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ns)
        .collect()
}

/// Appends `spans` to `out`, one JSON object per line; `fac` names the
/// facility whose replay recorded them.
pub fn write_jsonl(
    out: &mut impl std::io::Write,
    spans: &[Span],
    fac: &str,
    file_class: &dyn Fn(u32) -> &'static str,
) -> std::io::Result<()> {
    for s in spans {
        write!(
            out,
            "{{\"name\":\"{}\",\"replay\":\"{fac}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"query_id\":{}",
            s.name.label(fac),
            s.start_ns,
            s.end_ns,
            s.id,
            s.parent,
            s.query_id
        )?;
        match s.name {
            Name::Read | Name::Write => writeln!(out, ",\"file\":\"{}\"}}", file_class(s.aux))?,
            Name::Filter => writeln!(out, ",\"shard\":{}}}", s.aux)?,
            _ => writeln!(out, "}}")?,
        }
    }
    Ok(())
}

/// Tests that record spans share the process-wide tracer; they take this
/// lock so one test's `drain` cannot take another's spans.
#[cfg(test)]
pub static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(name: Name, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            aux: 0,
            id,
            parent,
            query_id: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = [
            mk(Name::Query, 1, 0, 0, 100),
            mk(Name::Filter, 2, 1, 10, 60),
            mk(Name::Read, 3, 2, 20, 30),
            mk(Name::Read, 4, 2, 35, 50),
            mk(Name::Resolve, 5, 1, 60, 90),
        ];
        // query: 100 − (50 + 30); filter: 50 − (10 + 15); leaves keep theirs.
        assert_eq!(self_ns(&spans), vec![20, 25, 10, 15, 30]);
        assert_eq!(durations(&spans, Name::Read), vec![10, 15]);
    }

    #[test]
    fn guards_nest_and_carry_the_query_id() {
        let _tracer = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable(true);
        let before = set_query(77_777);
        {
            let _outer = span(Name::Query, 0);
            let _inner = span(Name::Parse, 0);
        }
        set_query(before);
        enable(false);
        let mine: Vec<Span> = drain()
            .into_iter()
            .filter(|s| s.query_id == 77_777)
            .collect();
        assert_eq!(mine.len(), 2);
        let outer = mine.iter().find(|s| s.name == Name::Query).unwrap();
        let inner = mine.iter().find(|s| s.name == Name::Parse).unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn trace_lines_are_json() {
        let spans = [mk(Name::Filter, 2, 1, 10, 60), mk(Name::Read, 3, 2, 20, 30)];
        let mut out = Vec::new();
        write_jsonl(&mut out, &spans, "core.bssf", &|_| "slice").unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::parse(lines[0]).unwrap();
        assert_eq!(
            first.get("name").unwrap().as_str(),
            Some("core.bssf.filter")
        );
        assert_eq!(first.get("replay").unwrap().as_str(), Some("core.bssf"));
        assert_eq!(first.get("parent").unwrap().as_f64(), Some(1.0));
        let second = crate::json::parse(lines[1]).unwrap();
        assert_eq!(second.get("file").unwrap().as_str(), Some("slice"));
    }
}
