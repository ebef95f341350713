//! The four workloads: instance shape, how the system is driven, and how
//! many operations one round replays on each facility.

use crate::gen::Mix;

/// The three access facilities, in the order every report lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fac {
    Ssf,
    Bssf,
    Nix,
}

impl Fac {
    pub const ALL: [Fac; 3] = [Fac::Ssf, Fac::Bssf, Fac::Nix];

    pub fn index(self) -> usize {
        self as usize
    }

    /// Prefix of the facility's end-to-end metrics.
    pub fn e2e(self) -> &'static str {
        ["ssf", "bssf", "nix"][self.index()]
    }

    /// Prefix of the facility's per-layer metrics: the module that owns it.
    pub fn layer(self) -> &'static str {
        ["core.ssf", "core.bssf", "nix"][self.index()]
    }
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub mix: Mix,
    /// Objects in the initial population.
    pub n: usize,
    /// Target-set cardinality `D_t`.
    pub d_t: usize,
    /// Signature width `F` and element weight `m`.
    pub f_bits: u32,
    pub m: u32,
    /// Frames of the `BufferPool` the facility's pages go through, if any.
    pub pool_frames: Option<usize>,
    /// `Some(k)`: the facility is split by `shard_of` into `k` shards behind
    /// a `QueryService` with `k` workers, which one client queries.
    /// `None`: one client calls `Database::run_query`.
    pub shards: Option<usize>,
    /// Operations per round on SSF, BSSF and NIX: each facility replays that
    /// prefix of the one op list. Sized so a round takes 0.2–0.3 s on the
    /// 2-core box the benchmark was defined on.
    pub ops_per_round: [usize; 3],
}

impl Spec {
    /// Whether rounds move on through the op list instead of replaying it:
    /// a trace with updates cannot be replayed on the state it left behind.
    pub fn advances(&self) -> bool {
        self.mix == Mix::MixedRw
    }

    /// Whether `BENCHMARK.json` lists the workload, so that a later change
    /// is held to its bounds. One with a service is not: most of a query
    /// through it is a thread waking another, which on a 2-vCPU guest takes
    /// what the host makes it take, and whole runs of the same code come out
    /// 2× apart (README, "Steadiness"). It runs and is checked like the
    /// others.
    pub fn judged(&self) -> bool {
        self.shards.is_none()
    }
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "superset_dt10",
        why: "has-subset at D_t=10, a query touches 3-16 pages: per-query and per-page fixed cost (parse, Disk lock, Page clone, OID look-up, one object fetch) is all there is",
        mix: Mix::Superset,
        n: 32_000,
        d_t: 10,
        f_bits: 500,
        m: 2,
        pool_frames: None,
        shards: None,
        ops_per_round: [500, 8_000, 16_000],
    },
    Spec {
        name: "subset_dt10",
        why: "in-subset at D_t=10: BSSF reads most of its 500 slices, SSF scans every signature page, NIX unions D_q posting lists and resolves hundreds of false drops; scan, kernel, union and fetch do the work",
        mix: Mix::Subset,
        n: 32_000,
        d_t: 10,
        f_bits: 500,
        m: 2,
        pool_frames: None,
        shards: None,
        ops_per_round: [700, 1_000, 100],
    },
    Spec {
        name: "service_superset_dt100",
        why: "has-subset at D_t=100 via a 2-shard QueryService and a shared BufferPool that fits, 1 client: the only one crossing the queue, worker hand-off, shard lock, merge and pool mutex; fetch+verify lead",
        mix: Mix::ServiceSuperset,
        n: 4_000,
        d_t: 100,
        f_bits: 2_500,
        m: 3,
        pool_frames: Some(16_384),
        shards: Some(2),
        ops_per_round: [1_000, 2_500, 3_000],
    },
    Spec {
        name: "mixed_rw_pool",
        why: "60% has-subset, 10% in-subset, 15% inserts, 15% deletes through a 256-frame BufferPool smaller than the working set: a read gain bought with slower writes or a hot-cache-only trick shows here",
        mix: Mix::MixedRw,
        n: 20_000,
        d_t: 10,
        f_bits: 500,
        m: 2,
        pool_frames: Some(256),
        shards: None,
        ops_per_round: [700, 1_700, 1_400],
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// `--smoke` shrinks every size to about 1 %.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    pub fn objects(self, n: usize) -> usize {
        if self.smoke {
            (n / 100).max(200)
        } else {
            n
        }
    }

    pub fn ops(self, n: usize) -> usize {
        if self.smoke {
            (n / 100).max(40)
        } else {
            n
        }
    }
}
