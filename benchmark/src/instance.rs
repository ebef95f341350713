//! Set-up: one `Database` on its own `Disk` per facility, the facility (or
//! its shards behind a `QueryService`) over the disk or a `BufferPool`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use setsig_core::{Bssf, ElementKey, Oid, SetAccessFacility, SignatureConfig, Ssf};
use setsig_nix::Nix;
use setsig_oodb::{AttrType, ClassDef, ClassId, Database, Value};
use setsig_pagestore::{BufferPool, Disk, FileId, IoSnapshot, Page, PageIo};
use setsig_service::{shard_of, QueryService, ServiceConfig};

use crate::workloads::{Fac, Spec};
use crate::wrappers::{TracedFacility, TracedIo};

pub const CLASS: &str = "Synthetic";
pub const ATTR: &str = "elems";

/// Page I/O that goes to the raw disk while the initial population is
/// loaded and through the `BufferPool` from [`go_live`](Self::go_live) on.
///
/// A BSSF insert touches all `F` slice pages, and through the pool each of
/// them is a miss, three page copies and an eviction: loading 20,000 objects
/// that way takes 10 s against 0.6 s on the disk. The pool is write-through
/// and starts empty, so switching over is coherent. Once live, a call costs
/// one relaxed load and one more dynamic dispatch than the pool alone.
pub struct StagedIo {
    disk: Arc<Disk>,
    pool: BufferPool,
    live: AtomicBool,
}

impl StagedIo {
    pub fn new(disk: Arc<Disk>, frames: usize) -> Self {
        StagedIo {
            pool: BufferPool::new(Arc::clone(&disk), frames),
            disk,
            live: AtomicBool::new(false),
        }
    }

    pub fn go_live(&self) {
        // ATOMIC: SeqCst — set once, single-threaded, before any reader
        // thread is started.
        self.live.store(true, Ordering::SeqCst);
    }

    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    fn io(&self) -> &dyn PageIo {
        // ATOMIC: Relaxed — see `go_live`: thread start orders the store
        // before every load that matters.
        if self.live.load(Ordering::Relaxed) {
            &self.pool
        } else {
            &*self.disk
        }
    }
}

impl PageIo for StagedIo {
    fn read_page(&self, id: FileId, n: u32) -> setsig_pagestore::Result<Page> {
        self.io().read_page(id, n)
    }
    fn write_page(&self, id: FileId, n: u32, page: &Page) -> setsig_pagestore::Result<()> {
        self.io().write_page(id, n, page)
    }
    fn update_page(
        &self,
        id: FileId,
        n: u32,
        f: &mut dyn FnMut(&mut Page),
    ) -> setsig_pagestore::Result<()> {
        self.io().update_page(id, n, f)
    }
    fn append_page(&self, id: FileId, page: &Page) -> setsig_pagestore::Result<u32> {
        self.io().append_page(id, page)
    }
    fn page_count(&self, id: FileId) -> setsig_pagestore::Result<u32> {
        self.io().page_count(id)
    }
    fn create_file(&self, name: &str) -> FileId {
        self.io().create_file(name)
    }
    fn extend_to(&self, id: FileId, pages: u32) -> setsig_pagestore::Result<()> {
        self.io().extend_to(id, pages)
    }
    fn snapshot(&self) -> IoSnapshot {
        self.io().snapshot()
    }
}

/// The one constructor each facility keeps: over any `Arc<dyn PageIo>`.
trait Make: SetAccessFacility + Send + Sync + Sized + 'static {
    fn make(io: Arc<dyn PageIo>, name: &str, cfg: SignatureConfig) -> Result<Self, String>;
}

impl Make for Ssf {
    fn make(io: Arc<dyn PageIo>, name: &str, cfg: SignatureConfig) -> Result<Self, String> {
        Ssf::create(io, name, cfg).map_err(|e| e.to_string())
    }
}

impl Make for Bssf {
    fn make(io: Arc<dyn PageIo>, name: &str, cfg: SignatureConfig) -> Result<Self, String> {
        Bssf::create(io, name, cfg).map_err(|e| e.to_string())
    }
}

impl Make for Nix {
    fn make(io: Arc<dyn PageIo>, name: &str, _cfg: SignatureConfig) -> Result<Self, String> {
        Ok(Nix::on_io(io, name))
    }
}

/// The sharded facility of the service workload. `QueryService` implements
/// `SetAccessFacility` (`candidates_with_stats` is `query`), which is how
/// the benchmark holds one whatever its shard type.
pub type Service = Box<dyn SetAccessFacility + Send + Sync>;

pub struct Instance {
    pub disk: Arc<Disk>,
    pub db: Database,
    pub class: ClassId,
    pub staged: Option<Arc<StagedIo>>,
    /// On the service workload the facility lives here, outside `db`, which
    /// then only holds the object store false drops are resolved against.
    pub service: Option<Service>,
}

pub fn keys(set: &[u64]) -> Vec<ElementKey> {
    set.iter().map(|&e| ElementKey::from(e)).collect()
}

pub fn values(set: &[u64]) -> Vec<Value> {
    vec![Value::set(
        set.iter().map(|&e| Value::Int(e as i64)).collect(),
    )]
}

fn shards_of<F: Make>(
    io: &Arc<dyn PageIo>,
    cfg: SignatureConfig,
    count: usize,
    sets: &[Vec<u64>],
) -> Result<Vec<F>, String> {
    let mut shards = (0..count)
        .map(|i| F::make(Arc::clone(io), &format!("shard{i}"), cfg))
        .collect::<Result<Vec<F>, String>>()?;
    for (i, set) in sets.iter().enumerate() {
        let oid = Oid::new(i as u64);
        shards[shard_of(oid, count)]
            .insert(oid, &keys(set))
            .map_err(|e| e.to_string())?;
    }
    Ok(shards)
}

fn service_of<F: Make>(
    io: &Arc<dyn PageIo>,
    cfg: SignatureConfig,
    count: usize,
    sets: &[Vec<u64>],
    traced: bool,
) -> Result<Service, String> {
    let shards = shards_of::<F>(io, cfg, count, sets)?;
    let config = ServiceConfig::new(count).with_workers(count);
    let service: Service = if traced {
        let shards = shards
            .into_iter()
            .enumerate()
            .map(|(i, f)| TracedFacility::new(f, i as u32))
            .collect();
        Box::new(QueryService::new(shards, config).map_err(|e| e.to_string())?)
    } else {
        Box::new(QueryService::new(shards, config).map_err(|e| e.to_string())?)
    };
    Ok(service)
}

fn registered<F: Make>(
    io: Arc<dyn PageIo>,
    cfg: SignatureConfig,
    traced: bool,
) -> Result<Box<dyn SetAccessFacility>, String> {
    let facility = F::make(io, "fac", cfg)?;
    Ok(if traced {
        Box::new(TracedFacility::new(facility, 0))
    } else {
        Box::new(facility)
    })
}

macro_rules! for_fac {
    ($fac:expr, $f:ident :: <F> ( $($arg:expr),* )) => {
        match $fac {
            Fac::Ssf => $f::<Ssf>($($arg),*),
            Fac::Bssf => $f::<Bssf>($($arg),*),
            Fac::Nix => $f::<Nix>($($arg),*),
        }
    };
}

impl Instance {
    /// Builds `fac` over `sets` the way `spec` says. With `traced`, the
    /// facility's page I/O and the facility itself go through the tracing
    /// wrappers (recording stays off until `trace::enable(true)`).
    pub fn build(spec: &Spec, fac: Fac, sets: &[Vec<u64>], traced: bool) -> Result<Self, String> {
        let disk = Arc::new(Disk::new());
        let mut db = Database::on_disk(Arc::clone(&disk));
        let class = db
            .define_class(ClassDef::new(
                CLASS,
                vec![(ATTR, AttrType::set_of(AttrType::Int))],
            ))
            .map_err(|e| e.to_string())?;
        let staged = spec
            .pool_frames
            .map(|frames| Arc::new(StagedIo::new(Arc::clone(&disk), frames)));
        let mut io: Arc<dyn PageIo> = match &staged {
            Some(staged) => Arc::clone(staged) as Arc<dyn PageIo>,
            None => Arc::clone(&disk) as Arc<dyn PageIo>,
        };
        if traced {
            io = Arc::new(TracedIo::new(io));
        }
        let cfg = SignatureConfig::new(spec.f_bits, spec.m).map_err(|e| e.to_string())?;
        if spec.shards.is_none() {
            let facility = for_fac!(fac, registered::<F>(io.clone(), cfg, traced))?;
            db.register_facility(class, ATTR, facility)
                .map_err(|e| e.to_string())?;
        }
        for (i, set) in sets.iter().enumerate() {
            let oid = db
                .insert_object(class, values(set))
                .map_err(|e| e.to_string())?;
            if oid.raw() != i as u64 {
                return Err(format!("object {i} was given OID {oid}"));
            }
        }
        let service = match spec.shards {
            Some(count) => Some(for_fac!(
                fac,
                service_of::<F>(&io, cfg, count, sets, traced)
            )?),
            None => None,
        };
        if let Some(staged) = &staged {
            staged.go_live();
        }
        Ok(Instance {
            disk,
            db,
            class,
            staged,
            service,
        })
    }

    /// Pages the facility occupies (`SC`).
    pub fn storage_pages(&self) -> u64 {
        let facility: &dyn SetAccessFacility = match &self.service {
            Some(service) => service.as_ref(),
            None => self.db.facility(0).expect("a facility is registered"),
        };
        facility.storage_pages().unwrap_or(0)
    }
}
