//! Shared primitives for the snapshot section codecs.
//!
//! Every decoder here works on an untrusted byte slice: lengths are
//! bounds-checked against the remaining input *before* any allocation
//! (so a corrupt length can never demand terabytes), and every failure
//! is a typed [`StorageError::Corrupt`] — never a panic. The section
//! checksums in `lotusx-storage` catch accidental corruption first;
//! these checks are the second line against crafted files.

pub(crate) use lotusx_storage::codec::{get_str, get_varint, put_string, put_varint};
pub(crate) use lotusx_storage::StorageError;

/// Shorthand for a structural-corruption error.
pub(crate) fn corrupt(what: &'static str) -> StorageError {
    StorageError::Corrupt(what)
}

/// Reads a varint or fails with a `Corrupt` naming the field.
pub(crate) fn rd_varint(
    data: &[u8],
    pos: &mut usize,
    what: &'static str,
) -> Result<u64, StorageError> {
    get_varint(data, pos).ok_or(StorageError::Corrupt(what))
}

/// Reads a varint that must fit `usize`.
pub(crate) fn rd_len(
    data: &[u8],
    pos: &mut usize,
    what: &'static str,
) -> Result<usize, StorageError> {
    usize::try_from(rd_varint(data, pos, what)?).map_err(|_| corrupt(what))
}
