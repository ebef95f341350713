//! Error type shared by the storage substrate.

use crate::disk::FileId;

/// Errors raised by the paged storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The file handle names no file of this disk.
    FileNotFound(FileId),
    /// A page index was at or beyond the end of the file.
    PageOutOfBounds {
        /// File being accessed.
        file: FileId,
        /// Requested page number.
        page: u32,
        /// Current length of the file in pages.
        len: u32,
    },
    /// A persisted disk image could not be decoded.
    CorruptImage(String),
    /// An underlying I/O error while saving or loading a disk image.
    Io(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::FileNotFound(id) => write!(f, "file {id:?} not found"),
            Error::PageOutOfBounds { file, page, len } => {
                write!(
                    f,
                    "page {page} out of bounds for file {file:?} of {len} pages"
                )
            }
            Error::CorruptImage(msg) => write!(f, "corrupt disk image: {msg}"),
            Error::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

/// Convenience alias used throughout the storage crates.
pub type Result<T> = std::result::Result<T, Error>;
