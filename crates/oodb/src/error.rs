//! Error type of the OODB substrate.

use crate::schema::ClassId;
use setsig_core::Oid;

/// Errors raised by the object store and database layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The class id does not exist.
    NoSuchClass(ClassId),
    /// No class with this name is defined.
    NoSuchClassName(String),
    /// A class with this name already exists.
    DuplicateClass(String),
    /// The named attribute does not exist on the class.
    NoSuchAttribute(String),
    /// A value did not conform to the attribute's declared type.
    TypeMismatch {
        /// Attribute being assigned.
        attribute: String,
        /// What the schema expects.
        expected: String,
        /// What was supplied.
        got: String,
    },
    /// The attribute exists but is not a set of indexable elements.
    NotASetAttribute(String),
    /// The object was not found (never stored, or deleted).
    NoSuchObject(Oid),
    /// A stored record could not be decoded.
    CorruptObject(String),
    /// A query text could not be lexed or parsed, or a facility refused the
    /// query (the facility layer's [`BadQuery`](setsig_core::Error::BadQuery)
    /// arrives here, not as [`Facility`](Error::Facility)).
    BadQuery(String),
    /// Any other error from the signature/facility layer.
    Facility(setsig_core::Error),
    /// An error from the page store.
    Storage(setsig_pagestore::Error),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::NoSuchClass(id) => write!(f, "no such class: {id:?}"),
            Error::NoSuchClassName(name) => write!(f, "no such class: {name:?}"),
            Error::DuplicateClass(name) => write!(f, "class {name:?} already defined"),
            Error::NoSuchAttribute(name) => write!(f, "no such attribute: {name:?}"),
            Error::TypeMismatch {
                attribute,
                expected,
                got,
            } => {
                write!(f, "attribute {attribute:?}: expected {expected}, got {got}")
            }
            Error::NotASetAttribute(name) => {
                write!(f, "attribute {name:?} is not an indexable set")
            }
            Error::NoSuchObject(oid) => write!(f, "no such object: {oid}"),
            Error::CorruptObject(msg) => write!(f, "corrupt object record: {msg}"),
            Error::BadQuery(msg) => write!(f, "bad query: {msg}"),
            Error::Facility(e) => write!(f, "facility error: {e}"),
            Error::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for Error {}

/// One "bad query" at this API: the facility layer's is mapped to ours.
impl From<setsig_core::Error> for Error {
    fn from(e: setsig_core::Error) -> Self {
        match e {
            setsig_core::Error::BadQuery(msg) => Error::BadQuery(msg),
            e => Error::Facility(e),
        }
    }
}

impl From<setsig_pagestore::Error> for Error {
    fn from(e: setsig_pagestore::Error) -> Self {
        Error::Storage(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, Error>;
