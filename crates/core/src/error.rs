//! Error type for the signature-file layer.

/// Errors raised by signature files and their supporting structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A [`SignatureConfig`](crate::SignatureConfig) was invalid (e.g.
    /// `m = 0` or `m > F`).
    BadConfig(String),
    /// A query was malformed for the operation (e.g. an empty query set for
    /// a predicate that requires elements).
    BadQuery(String),
    /// The referenced entry position does not exist.
    NoSuchEntry(u64),
    /// The OID was not found (e.g. deleting a value that was never inserted).
    OidNotFound(crate::Oid),
    /// The OID is wider than the structure storing it can hold (the nested
    /// index packs an OID into 47 bits of its posting word).
    OidOutOfRange(crate::Oid),
    /// An on-disk structure is inconsistent with the catalog state (e.g. a
    /// frame file shorter than the indexed row count requires). Scans must
    /// refuse to run rather than silently return a partial answer.
    Corrupted(String),
    /// An error from the underlying page store.
    Storage(setsig_pagestore::Error),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::BadConfig(msg) => write!(f, "bad signature configuration: {msg}"),
            Error::BadQuery(msg) => write!(f, "bad query: {msg}"),
            Error::NoSuchEntry(pos) => write!(f, "no entry at position {pos}"),
            Error::OidNotFound(oid) => write!(f, "oid {oid:?} not found"),
            Error::OidOutOfRange(oid) => write!(f, "oid {oid:?} is out of the structure's range"),
            Error::Corrupted(msg) => write!(f, "corrupted structure: {msg}"),
            Error::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Storage(e) => Some(e),
            _ => None,
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
