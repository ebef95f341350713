//! # setsig-core — signature files as set access facilities
//!
//! This crate implements the primary contribution of Ishikawa, Kitagawa &
//! Ohbo, *"Evaluation of Signature Files as Set Access Facilities in OODBs"*
//! (SIGMOD 1993): superimposed-coding signature files adapted from text
//! retrieval to accelerate **set predicates** over set-valued attributes of
//! complex objects.
//!
//! ## The idea
//!
//! Every element of a set attribute value is hashed to an **element
//! signature**: an `F`-bit pattern with exactly `m` bits set. OR-ing the
//! element signatures of a set yields its **set signature**. A query set is
//! encoded the same way, and a cheap bitwise test on signatures filters the
//! database down to *drops* — candidates that may satisfy the predicate:
//!
//! * `T ⊇ Q` (`has-subset`): every query-signature bit must be set in the
//!   target signature,
//! * `T ⊆ Q` (`in-subset`): every target-signature bit must be set in the
//!   query signature.
//!
//! Hash collisions make the filter one-sided: it never misses a qualifying
//! object, but it admits **false drops** that must be resolved by fetching
//! the object and re-checking the predicate exactly.
//!
//! ## What is here
//!
//! * [`Bitmap`], [`SignatureConfig`] — the coding layer: a signature is an
//!   `F`-bit [`Bitmap`], encoded by [`SignatureConfig::signature`] (SSF,
//!   BSSF) or [`FssfConfig::signature`] (FSSF),
//! * [`SetQuery`] / [`SetPredicate`] — the five set operators (⊇, ⊆, =,
//!   overlap, ∈) with their signature match rules,
//! * [`SignatureFile`] — one signature file over one of three physical
//!   layouts ([`Layout`], sealed): it owns the [`OidFile`], the commit
//!   point, the tombstone delete, the filter's page charge and the catalog
//!   checkpoint, and is the one [`SetAccessFacility`] impl of all three,
//! * [`Ssf`] — the *sequential signature file*, rows ([`Rows`]),
//! * [`Bssf`] — the *bit-sliced signature file*, slices ([`Slices`]),
//!   including the paper's "smart object retrieval" strategies (§5.1.3,
//!   §5.2.2), which a query asks for by carrying a cap
//!   ([`SetQuery::with_cap`]),
//! * [`Fssf`] — the *frame-sliced signature file* extension, frames
//!   ([`Frames`]),
//! * [`OidFile`] — the positional OID file every layout shares,
//! * [`SetAccessFacility`] — the common interface also implemented by the
//!   nested index in `setsig-nix`; a filter call returns its drops with
//!   the [`ScanStats`] of that call, and a facility's [`Profile`] is what
//!   a planner prices a query with,
//! * [`resolve_drops`] — false-drop resolution against any
//!   [`TargetSetSource`] (e.g. the object store in `setsig-oodb`),
//! * [`meta`] — the catalog checkpoint blobs every facility (the nested
//!   index included) writes with `sync_meta` and reads back with `open`.
//!
//! Everything runs on the accounting disk of `setsig-pagestore`, so each
//! query's cost in *page accesses* — the paper's metric — is measurable.
//!
//! ```
//! use setsig_core::{Bssf, SignatureConfig, SetAccessFacility, SetQuery, ElementKey, Oid};
//! use setsig_pagestore::Disk;
//! use std::sync::Arc;
//!
//! let disk = Arc::new(Disk::new());
//! let cfg = SignatureConfig::new(64, 2).unwrap();
//! let mut bssf = Bssf::create(disk, "hobbies", cfg).unwrap();
//!
//! let set = |elems: &[&str]| elems.iter().map(ElementKey::from).collect::<Vec<_>>();
//! bssf.insert(Oid::new(1), &set(&["Baseball", "Fishing"])).unwrap();
//! bssf.insert(Oid::new(2), &set(&["Tennis"])).unwrap();
//!
//! let q = SetQuery::has_subset(set(&["Baseball"]));
//! let drops = bssf.candidates(&q).unwrap();
//! assert!(drops.oids.contains(&Oid::new(1)));
//! ```

#![warn(missing_docs)]

mod bitmap;
mod bssf;
mod config;
mod drops;
mod element;
mod error;
mod facility;
mod fssf;
mod hash;
pub mod kernel;
pub mod meta;
mod oid;
mod oidfile;
mod query;
mod rowfile;
mod sigfile;
mod signature;
pub mod sorted;
mod ssf;

pub use bitmap::Bitmap;
pub use bssf::{Bssf, Slices};
pub use config::SignatureConfig;
pub use drops::{resolve_drops, verify_predicate, DropReport, ElementSet, TargetSetSource};
pub use element::ElementKey;
pub use error::{Error, Result};
pub use facility::{CandidateSet, IndexLayout, Profile, ScanStats, SetAccessFacility};
pub use fssf::{Frames, Fssf, FssfConfig};
pub use hash::{element_hash, ElementHasher};
pub use oid::{Oid, OidAllocator};
pub use oidfile::{OidFile, OIDS_PER_PAGE, OID_ENTRY_BYTES};
pub use query::{SetPredicate, SetQuery};
pub use sigfile::{Layout, SignatureFile};
pub use ssf::{Rows, Ssf};
