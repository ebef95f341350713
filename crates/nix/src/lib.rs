//! # setsig-nix — the nested index baseline
//!
//! The paper's comparison point: **NIX**, the nested index of Bertino & Kim
//! (1989), "an index mechanism based on the B-tree" whose leaf entries pair
//! a key value with *the list of OIDs of all objects holding that key in the
//! indexed set attribute* (§4.3). For the sample queries it is built on the
//! path `Student.hobbies.hobby`: leaf entries look like
//! `["Baseball", {s1, s2}]`.
//!
//! This crate implements NIX for real on the accounting page store:
//!
//! * [`BTree`] — a page-oriented B-tree with 8-byte keys, variable-length
//!   posting lists in slotted leaf pages, page splits, and overflow chains
//!   for postings too large to share a leaf. Every read goes through
//!   [`BTree::lookup_many`]: one descent over sorted keys that reads each
//!   node, leaf and chain on their paths once, where the paper prices each
//!   look-up as a descent of its own (`rc·D_q`),
//! * [`Nix`] — the [`SetAccessFacility`](setsig_core::SetAccessFacility)
//!   wrapper implementing the paper's retrieval schemes: OID-list
//!   **intersection** for `T ⊇ Q` (exact, no false drops) and **union** for
//!   `T ⊆ Q`, plus the §5.1.3 smart strategy for a `T ⊇ Q` query carrying a
//!   cap `j` ([`SetQuery::with_cap`](setsig_core::SetQuery::with_cap)):
//!   intersect only the first `j` elements, verify the rest at
//!   drop-resolution time. Each posting word is `oid << 16 | |T|`, so the
//!   union answers `T ⊆ Q` exactly by counting (an object met `|T|` times
//!   qualifies), and `T = Q` keeps the intersection's `|T| = |Q|` — where
//!   the paper's union fetched and rejected every object sharing an element.
//!   A query reads its keys in one descent: the union all of them, the
//!   intersection up to the first list that empties it.
//!
//! Keys are the [`ElementKey::digest8`](setsig_core::ElementKey::digest8)
//! of set elements — 8 bytes, the paper's `kl` — so integer/OID domains
//! index exactly and string domains index via a 64-bit hash.
//!
//! ```
//! use setsig_nix::Nix;
//! use setsig_core::{ElementKey, Oid, SetAccessFacility, SetQuery};
//! use setsig_pagestore::Disk;
//! use std::sync::Arc;
//!
//! let disk = Arc::new(Disk::new());
//! let mut nix = Nix::on_io(disk, "hobbies");
//! nix.insert(Oid::new(1), &[ElementKey::from("Baseball"), ElementKey::from("Fishing")]).unwrap();
//! nix.insert(Oid::new(2), &[ElementKey::from("Tennis")]).unwrap();
//!
//! let q = SetQuery::has_subset(vec![ElementKey::from("Baseball")]);
//! let c = nix.candidates(&q).unwrap();
//! assert_eq!(c.oids, vec![Oid::new(1)]);
//! assert!(c.exact, "intersection proves T ⊇ Q — no false drops");
//!
//! // Each object shares an element with Q, but object 1 also holds "Fishing".
//! let q = SetQuery::in_subset(vec![ElementKey::from("Baseball"), ElementKey::from("Tennis")]);
//! let c = nix.candidates(&q).unwrap();
//! assert_eq!(c.oids, vec![Oid::new(2)]);
//! assert!(c.exact, "counting proves T ⊆ Q too");
//! ```

#![warn(missing_docs)]

mod btree;
mod index;
mod node;

pub use btree::BTree;
pub use index::Nix;
