//! The `LTSX` magic and the error type of the storage layer.

use std::fmt;

pub(crate) const MAGIC: &[u8; 4] = b"LTSX";

/// Errors when reading or writing the binary format.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input does not start with the `LTSX` magic.
    BadMagic,
    /// The file's format version is not the one this build reads.
    UnsupportedVersion(u8),
    /// The payload checksum does not match the header.
    ChecksumMismatch,
    /// The snapshot contains a section id this build does not know.
    UnknownSection(u64),
    /// Structurally invalid payload.
    Corrupt(&'static str),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::BadMagic => write!(f, "not a LotusX storage file (bad magic)"),
            StorageError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported storage version {v} (this build reads only version {})",
                    crate::snapshot::SNAPSHOT_VERSION
                )
            }
            StorageError::ChecksumMismatch => write!(f, "payload checksum mismatch (corrupt file)"),
            StorageError::UnknownSection(id) => write!(f, "unknown snapshot section id {id}"),
            StorageError::Corrupt(what) => write!(f, "corrupt payload: {what}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}
