//! # setsig — signature files as set access facilities in OODBs
//!
//! A full reproduction of **Ishikawa, Kitagawa & Ohbo, "Evaluation of
//! Signature Files as Set Access Facilities in OODBs" (SIGMOD 1993)** as a
//! working Rust system: the two signature file organizations (sequential
//! and bit-sliced), the nested index baseline, the object database
//! substrate they serve, the paper's complete analytical cost model, and a
//! harness that regenerates every table and figure.
//!
//! This crate is the facade: it re-exports the workspace crates under one
//! roof.
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`pagestore`] | `setsig-pagestore` | paged disk simulator with page-access accounting, buffer pool, fault injection, disk images |
//! | [`core`] | `setsig-core` | signatures, SSF, BSSF, FSSF, smart strategies (`SetQuery::with_cap`), catalog checkpoints, drop resolution |
//! | [`oodb`] | `setsig-oodb` | values, schema, slotted-page object store, path indexes, the §2 query language, query executor |
//! | [`nix`] | `setsig-nix` | B-tree nested index baseline |
//! | [`costmodel`] | `setsig-costmodel` | every equation of the paper, plus the design advisor |
//! | [`workload`] | `setsig-workload` | synthetic data, query generators, mixed-operation traces |
//! | [`service`] | `setsig-service` | sharded query service: OID-hash partitioning, per-shard reader/writer locks, a query's shards run on the caller's thread, live updates |
//!
//! ## Quickstart
//!
//! ```
//! use setsig::prelude::*;
//! use std::sync::Arc;
//!
//! // A database of students with a set-valued `hobbies` attribute …
//! let mut db = Database::in_memory();
//! let student = db.define_class(ClassDef::new(
//!     "Student",
//!     vec![("name", AttrType::Str), ("hobbies", AttrType::set_of(AttrType::Str))],
//! )).unwrap();
//!
//! // … indexed by a bit-sliced signature file with a small m, the paper's
//! // recommended configuration.
//! let cfg = SignatureConfig::new(256, 2).unwrap();
//! let io = Arc::clone(db.disk()) as Arc<dyn PageIo>;
//! let bssf = Bssf::create(io, "hobbies", cfg).unwrap();
//! let idx = db.register_facility(student, "hobbies", Box::new(bssf)).unwrap();
//!
//! let jeff = db.insert_object(student, vec![
//!     Value::str("Jeff"),
//!     Value::set(vec![Value::str("Baseball"), Value::str("Fishing")]),
//! ]).unwrap();
//!
//! // Q1 of the paper: hobbies has-subset ("Baseball", "Fishing").
//! let q = SetQuery::has_subset(vec![
//!     ElementKey::from("Baseball"),
//!     ElementKey::from("Fishing"),
//! ]);
//! let result = db.execute_set_query(idx, &q).unwrap();
//! assert_eq!(result.actual, vec![jeff]);
//!
//! // The §5.1.3 smart strategy is the same query carrying a cap: the filter
//! // uses at most one query element, drop resolution verifies the rest.
//! let smart = db.execute_set_query(idx, &q.with_cap(1).unwrap()).unwrap();
//! assert_eq!(smart.actual, vec![jeff]);
//! ```

pub use setsig_core as core;
pub use setsig_costmodel as costmodel;
pub use setsig_nix as nix;
pub use setsig_oodb as oodb;
pub use setsig_pagestore as pagestore;
pub use setsig_service as service;
pub use setsig_workload as workload;

/// The names most programs need, in one import.
pub mod prelude {
    pub use setsig_core::{
        resolve_drops, Bitmap, Bssf, CandidateSet, DropReport, ElementKey, Fssf, FssfConfig, Oid,
        ScanStats, SetAccessFacility, SetPredicate, SetQuery, SignatureConfig, Ssf,
    };
    pub use setsig_costmodel::{BssfModel, FssfModel, NixModel, Params, SsfModel};
    pub use setsig_nix::Nix;
    pub use setsig_oodb::{AttrType, ClassDef, Database, Value};
    pub use setsig_pagestore::{BufferPool, CacheStats, Disk, PageIo};
    pub use setsig_service::{shard_of, QueryService, ServiceConfig};
    pub use setsig_workload::{QueryGen, SetGenerator, WorkloadConfig};
}
