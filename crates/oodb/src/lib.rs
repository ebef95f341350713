//! # setsig-oodb — a minimal object-oriented database substrate
//!
//! The paper evaluates signature files *inside an OODB*: objects built with
//! tuple and set constructors, identified by OIDs, stored "straightforwardly
//! in the object file" with direct access by OID costing one page (`P_p =
//! P_s = 1`, Table 2). This crate is that substrate:
//!
//! * [`Value`] — the complex-object value model (integers, strings, object
//!   references, sets, tuples) with a compact binary encoding,
//! * [`ClassDef`] / [`AttrType`] — schema definitions like the paper's
//!   `Student`, `Course`, `Teacher` classes,
//! * [`ObjectStore`] — a slotted-page object file on `setsig-pagestore`
//!   with overflow chaining for oversized objects,
//! * [`Database`] — classes + object store + registered set access
//!   facilities, with a query executor that runs the paper's two-phase
//!   scheme (facility filter → false-drop resolution) and reports measured
//!   page accesses and drop counts,
//! * a full-scan baseline ([`Database::scan_set_query`]) for verifying
//!   every facility's answers.
//!
//! ```
//! use setsig_oodb::{AttrType, ClassDef, Database, Value};
//! use setsig_core::{SetQuery, ElementKey};
//!
//! let mut db = Database::in_memory();
//! let student = db.define_class(ClassDef::new(
//!     "Student",
//!     vec![
//!         ("name", AttrType::Str),
//!         ("hobbies", AttrType::set_of(AttrType::Str)),
//!     ],
//! )).unwrap();
//!
//! let jeff = db.insert_object(student, vec![
//!     Value::str("Jeff"),
//!     Value::set(vec![Value::str("Baseball"), Value::str("Fishing")]),
//! ]).unwrap();
//!
//! let q = SetQuery::has_subset(vec![ElementKey::from("Baseball")]);
//! let hits = db.scan_set_query(student, "hobbies", &q).unwrap();
//! assert_eq!(hits.actual, vec![jeff]);
//! ```

#![warn(missing_docs)]

mod database;
mod error;
mod object;
mod path;
mod schema;
mod sql;
mod store;
mod value;

pub use database::{Database, QueryExecution};
pub use error::{Error, Result};
pub use object::Object;
pub use path::PathSpec;
pub use schema::{AttrDef, AttrType, ClassDef, ClassId};
pub use sql::{parse_query, ParsedQuery};
pub use store::ObjectStore;
pub use value::{AttrShape, Prim, Value};
