//! The end-to-end pass: no wrapper installed, query text in, verified OIDs
//! out, the three facilities taking turns round by round until the time is up.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use setsig_core::{resolve_drops, Oid, SetAccessFacility, TargetSetSource};
use setsig_oodb::parse_query;

use crate::gen::{self, Inputs, Op};
use crate::instance::{values, Instance, ATTR};
use crate::oracle::{self, oid_sum};
use crate::pace::{self, Pace, Walker};
use crate::report::{Metric, Report};
use crate::stats;
use crate::workloads::{Fac, Scale, Spec};

/// A run is this many epochs, each on freshly built instances that replay
/// the op list from its start; `setup_s` is the median of their set-ups.
const EPOCHS: usize = 3;
/// Measured rounds a facility gets in an epoch whatever the clock says …
pub const MIN_ROUNDS: usize = 3;
/// … and the most it gets (which also bounds the mixed trace's length and
/// keeps BSSF's live rows within one slice page).
pub const MAX_ROUNDS: usize = 24;
/// Pace samples taken at each of the four points around a set-up's builds.
const BURST: usize = 32;

/// What one round of one facility measured.
pub struct Round {
    /// Latency of every query, in execution order per client.
    pub lat_ns: Vec<u64>,
    /// Time the ops took, the pace samples between them left out.
    pub wall: Duration,
    /// The machine's pace while they ran.
    pub pace: Pace,
    pub query_pages: u64,
    /// `(op index, answer checksum)`; `None` for an op that failed.
    pub outcomes: Vec<(usize, Option<u64>)>,
}

/// One client replays `ops` through `Database`. `next_obj` is the OID the
/// next insert must be given.
pub fn direct_round(inst: &mut Instance, ops: &[Op], base: usize, next_obj: &mut u64) -> Round {
    let mut lat_ns = Vec::with_capacity(ops.len());
    let mut outcomes = Vec::with_capacity(ops.len());
    let mut query_pages = 0;
    let mut walker = Walker::new();
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        walker.tick(Instant::now());
        let sum = match op {
            Op::Query { text, .. } => {
                let t = Instant::now();
                let result = inst.db.run_query(text);
                lat_ns.push(t.elapsed().as_nanos() as u64);
                result.ok().map(|exec| {
                    query_pages += exec.io.accesses();
                    oid_sum(&exec.actual)
                })
            }
            Op::Insert { set } => {
                let expect = *next_obj;
                *next_obj += 1;
                inst.db
                    .insert_object(inst.class, values(set))
                    .ok()
                    .filter(|oid| oid.raw() == expect)
                    .map(|oid| oid.raw())
            }
            Op::Delete { obj } => inst.db.delete_object(Oid::new(*obj)).ok().map(|()| 0),
        };
        outcomes.push((base + i, sum));
    }
    Round {
        lat_ns,
        wall: start.elapsed() - walker.spent,
        pace: walker.pace(),
        query_pages,
        outcomes,
    }
}

/// What a client of the service does with one query: parse the text, filter
/// through the service, resolve the drops against the object store.
pub fn service_query(
    text: &str,
    service: &dyn SetAccessFacility,
    source: &dyn TargetSetSource,
) -> Option<u64> {
    let (_, query) = parse_query(text).ok()?.condition?;
    let (candidates, _) = service.candidates_with_stats(&query).ok()?;
    let report = resolve_drops(&query, &candidates, source).ok()?;
    Some(oid_sum(&report.actual))
}

/// One closed-loop client runs the queries of `ops` through the service.
/// One, not one per core: the service's two workers already occupy the
/// box's two cores while a query runs, and a second client makes four
/// threads share them, so that a run measures how the host's scheduler
/// happened to interleave them (README, "Steadiness").
pub fn service_round(inst: &Instance, ops: &[Op], base: usize) -> Round {
    let service = inst.service.as_deref().expect("a service workload");
    let source = inst
        .db
        .target_source(inst.class, ATTR)
        .expect("the class has the attribute");
    let mut lat_ns = Vec::with_capacity(ops.len());
    let mut outcomes = Vec::with_capacity(ops.len());
    let mut walker = Walker::new();
    let before = inst.disk.snapshot();
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let Op::Query { text, .. } = op else { continue };
        walker.tick(Instant::now());
        let t = Instant::now();
        let sum = service_query(text, service, &source);
        lat_ns.push(t.elapsed().as_nanos() as u64);
        outcomes.push((base + i, sum));
    }
    let wall = start.elapsed() - walker.spent;
    Round {
        lat_ns,
        wall,
        pace: walker.pace(),
        query_pages: inst.disk.snapshot().since(before).accesses(),
        outcomes,
    }
}

/// The answers one facility gave, by op index, and how many were wrong.
pub struct Answers {
    sums: Vec<Option<u64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Answers {
    pub fn new(n_ops: usize) -> Self {
        Answers {
            sums: vec![None; n_ops],
            attempted: 0,
            failed: 0,
        }
    }

    /// Books a round's outcomes: an op fails if it errored, if the oracle
    /// knows its answer and it differs, or if an earlier round answered the
    /// same op differently.
    pub fn settle(&mut self, outcomes: &[(usize, Option<u64>)], oracle: &HashMap<usize, u64>) {
        for &(idx, sum) in outcomes {
            self.attempted += 1;
            let ok = match sum {
                None => false,
                Some(sum) => {
                    oracle.get(&idx).is_none_or(|&want| want == sum)
                        && *self.sums[idx].get_or_insert(sum) == sum
                }
            };
            if !ok {
                self.failed += 1;
            }
        }
    }

    /// Ops both facilities ran and answered differently.
    pub fn disagreements(&self, other: &Answers) -> u64 {
        self.sums
            .iter()
            .zip(&other.sums)
            .filter(|(a, b)| matches!((a, b), (Some(a), Some(b)) if a != b))
            .count() as u64
    }
}

/// One facility's end-to-end numbers.
pub struct FacResult {
    /// Median query latency and operations per second at the reference pace.
    pub p50_us: f64,
    pub ops_per_s: f64,
    /// The machine's pace over the measured rounds (the median round's).
    pub pace: Pace,
    pub pages_per_query: f64,
    pub rounds: usize,
    /// Queries timed over the measured rounds.
    pub queries: u64,
}

/// The op range round `r` (0 = warm-up) runs on a facility doing `per_round`
/// ops a round.
pub fn round_range(spec: &Spec, per_round: usize, r: usize) -> std::ops::Range<usize> {
    if spec.advances() {
        r * per_round..(r + 1) * per_round
    } else {
        0..per_round
    }
}

/// What one facility's rounds measured, over all the epochs of a run.
struct Tally {
    per_round: usize,
    /// Each measured round's median latency in µs and its ops/s, both at
    /// the reference pace.
    rounds: Vec<stats::RoundStat>,
    /// The machine's pace in each of those rounds.
    paces: Vec<Pace>,
    /// Queries of all measured rounds.
    measured_queries: u64,
    /// Page accesses and queries of the first epoch's first MIN_ROUNDS
    /// measured rounds.
    pages: u64,
    queries: u64,
    answers: Answers,
}

impl Tally {
    fn new(per_round: usize, n_ops: usize) -> Self {
        Tally {
            per_round,
            rounds: Vec::new(),
            paces: Vec::new(),
            measured_queries: 0,
            pages: 0,
            queries: 0,
            answers: Answers::new(n_ops),
        }
    }

    /// p50 and ops/s come from the run's best rounds ([`stats::best_rounds`]).
    /// Pages per query come from the first epoch's first [`MIN_ROUNDS`]
    /// measured rounds only: every run executes those, so the count repeats
    /// exactly for a seed whatever the machine's speed.
    fn finish(self) -> (FacResult, Answers) {
        let best = stats::best_rounds(&self.rounds);
        let pace_of = |pick: fn(&Pace) -> f64| {
            stats::median(&self.paces.iter().map(pick).collect::<Vec<f64>>())
        };
        let result = FacResult {
            p50_us: best.p50_us,
            ops_per_s: best.ops_per_s,
            pace: Pace {
                copy_ns: pace_of(|p| p.copy_ns),
                pass_ns: pace_of(|p| p.pass_ns),
            },
            pages_per_query: self.pages as f64 / self.queries.max(1) as f64,
            rounds: self.rounds.len(),
            queries: self.measured_queries,
        };
        (result, self.answers)
    }
}

/// One facility's epoch in progress: a fresh instance and where it is in
/// the op list.
struct Phase<'a> {
    spec: &'a Spec,
    inst: &'a mut Instance,
    ops: &'a [Op],
    tally: &'a mut Tally,
    /// Whether this is the run's first epoch, whose pages are counted.
    first_epoch: bool,
    /// Rounds done this epoch, the warm-up included.
    rounds: usize,
    next_obj: u64,
}

impl<'a> Phase<'a> {
    fn new(spec: &'a Spec, inst: &'a mut Instance, ops: &'a [Op], tally: &'a mut Tally) -> Self {
        Phase {
            spec,
            next_obj: inst.db.store().len(),
            inst,
            ops,
            first_epoch: tally.rounds.is_empty(),
            tally,
            rounds: 0,
        }
    }

    /// Runs the next round; the first one is the warm-up and is not measured.
    fn step(&mut self, oracle: &HashMap<usize, u64>) {
        let range = round_range(self.spec, self.tally.per_round, self.rounds);
        let base = range.start;
        let mut round = if self.spec.shards.is_some() {
            service_round(self.inst, &self.ops[range], base)
        } else {
            direct_round(self.inst, &self.ops[range], base, &mut self.next_obj)
        };
        let tally = &mut *self.tally;
        tally.answers.settle(&round.outcomes, oracle);
        self.rounds += 1;
        if self.rounds == 1 {
            return;
        }
        if self.first_epoch && self.rounds - 1 <= MIN_ROUNDS {
            tally.pages += round.query_pages;
            tally.queries += round.lat_ns.len() as u64;
        }
        tally.measured_queries += round.lat_ns.len() as u64;
        // At the reference pace: a round run while the machine was half as
        // fast counts half its latency and twice its rate.
        let speed = round.pace.speed();
        let p50_us = stats::percentile(&mut round.lat_ns, 50.0) as f64 / 1e3;
        let ops_per_s = round.outcomes.len() as f64 / round.wall.as_secs_f64();
        tally.rounds.push(stats::RoundStat {
            p50_us: p50_us * speed,
            ops_per_s: ops_per_s / speed,
        });
        tally.paces.push(round.pace);
    }
}

/// One epoch on fresh instances: the facilities take turns, a short round
/// each, so that a slow stretch of the machine falls on all three and on few
/// of anyone's rounds. A warm-up round each, then measured rounds until the
/// epoch's time is up (at least MIN_ROUNDS, at most MAX_ROUNDS).
fn epoch(
    spec: &Spec,
    insts: &mut [Instance],
    ops: &[Op],
    tallies: &mut [Tally],
    oracle: &HashMap<usize, u64>,
    budget: Duration,
) {
    let mut phases: Vec<Phase> = insts
        .iter_mut()
        .zip(tallies)
        .map(|(inst, tally)| Phase::new(spec, inst, ops, tally))
        .collect();
    let started = Instant::now();
    for done in 1..=MAX_ROUNDS + 1 {
        for phase in &mut phases {
            phase.step(oracle);
        }
        // Start another turn only if it is likely to end within the budget.
        let spent = started.elapsed();
        if done > MIN_ROUNDS && spent + spent / done as u32 > budget {
            break;
        }
    }
}

/// Ops the list must hold for every facility to run all its rounds.
pub fn ops_needed(spec: &Spec, scale: Scale) -> usize {
    let longest = spec
        .ops_per_round
        .iter()
        .map(|&n| scale.ops(n))
        .max()
        .unwrap_or(0);
    if spec.advances() {
        longest * (MAX_ROUNDS + 1)
    } else {
        longest
    }
}

pub fn inputs_for(spec: &Spec, seed: u64, scale: Scale) -> Inputs {
    gen::generate(
        seed,
        spec.mix,
        scale.objects(spec.n),
        spec.d_t,
        ops_needed(spec, scale),
    )
}

/// `VmHWM` of this process in MiB, less the pace arena, which is this
/// package's and never the program's; 0 where `/proc` does not say.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0 - pace::ARENA_MIB as f64)
}

/// The end-to-end pass of one workload.
pub fn run(spec: &Spec, seed: u64, seconds: f64, scale: Scale) -> Result<Report, String> {
    pace::prepare();
    let budget = Duration::from_secs_f64(seconds / EPOCHS as f64);
    let mut setup_s = Vec::with_capacity(EPOCHS);
    let mut oracle = None;
    let mut tallies = None;
    let mut objects = 0;
    for _ in 0..EPOCHS {
        // Set-up: generate the inputs and build all three instances, with
        // the pace sampled before, between and after the builds.
        let mut walker = Walker::new();
        walker.burst(BURST);
        let sampled = walker.spent;
        let t = Instant::now();
        let inputs = inputs_for(spec, seed, scale);
        let mut insts = Vec::with_capacity(Fac::ALL.len());
        for fac in Fac::ALL {
            insts.push(Instance::build(spec, fac, &inputs.sets, false)?);
            walker.burst(BURST);
        }
        let took = t.elapsed() - (walker.spent - sampled);
        setup_s.push(took.as_secs_f64() * walker.pace().speed());

        // The same seed gives every epoch the same inputs.
        objects = inputs.sets.len();
        let oracle = oracle.get_or_insert_with(|| oracle::expected(&inputs.sets, &inputs.ops));
        let tallies = tallies.get_or_insert_with(|| {
            Fac::ALL
                .iter()
                .map(|fac| {
                    let per_round = scale.ops(spec.ops_per_round[fac.index()]);
                    Tally::new(per_round, inputs.ops.len())
                })
                .collect::<Vec<Tally>>()
        });
        epoch(spec, &mut insts, &inputs.ops, tallies, oracle, budget);
        // Dropping the instances joins the services' workers, which has to
        // happen before the RSS peak is read.
    }
    let (results, answers): (Vec<FacResult>, Vec<Answers>) = tallies
        .expect("EPOCHS is at least 1")
        .into_iter()
        .map(Tally::finish)
        .unzip();
    let oracle = oracle.expect("EPOCHS is at least 1");

    let mut failed: u64 = answers.iter().map(|a| a.failed).sum();
    let attempted: u64 = answers.iter().map(|a| a.attempted).sum();
    failed += answers[0].disagreements(&answers[1]);
    failed += answers[1].disagreements(&answers[2]);

    let mut report = Report::new(attempted, failed);
    report.push(Metric::new("setup_s", stats::median(&setup_s), "s"));
    type Pick = (&'static str, &'static str, fn(&FacResult) -> f64);
    let picks: [Pick; 3] = [
        ("query_p50_us", "us", |r| r.p50_us),
        ("ops_per_s", "1/s", |r| r.ops_per_s),
        ("pages_per_query", "pages", |r| r.pages_per_query),
    ];
    for (suffix, unit, pick) in picks {
        for fac in Fac::ALL {
            let name = format!("{}_{suffix}", fac.e2e());
            report.push(Metric::new(&name, pick(&results[fac.index()]), unit));
        }
    }
    report.push(Metric::new("peak_rss_mib", peak_rss_mib(), "MiB"));
    for fac in Fac::ALL {
        let r = &results[fac.index()];
        report.note(format!(
            "{}: {} measured rounds of {} ops, {} queries timed; pace {:.0} ns per page copied, {:.0} ns per pass (timings are stated at {:.0} and {:.0})",
            fac.e2e(),
            r.rounds,
            scale.ops(spec.ops_per_round[fac.index()]),
            r.queries,
            r.pace.copy_ns,
            r.pace.pass_ns,
            pace::REFERENCE.copy_ns,
            pace::REFERENCE.pass_ns
        ));
    }
    report.note(format!(
        "oracle: {} brute-force checks, 1 client, {} objects",
        oracle.len(),
        objects
    ));
    Ok(report)
}
