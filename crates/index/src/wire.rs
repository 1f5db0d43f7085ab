//! Shared primitives for the snapshot section codecs.
//!
//! Every decoder here works on an untrusted byte slice: lengths are
//! bounds-checked against the remaining input *before* any allocation
//! (so a corrupt length can never demand terabytes), and every failure
//! is a typed [`StorageError::Corrupt`] — never a panic. The section
//! checksums in `lotusx-storage` catch accidental corruption first;
//! these checks are the second line against crafted files.

pub(crate) use lotusx_storage::codec::{get_str, get_string, get_varint, put_string, put_varint};
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

/// Reads one raw byte.
pub(crate) fn rd_u8(data: &[u8], pos: &mut usize, what: &'static str) -> Result<u8, StorageError> {
    let b = *data.get(*pos).ok_or(StorageError::Corrupt(what))?;
    *pos += 1;
    Ok(b)
}

/// Reads a raw little-endian `f64` (bit-exact, including NaN payloads).
pub(crate) fn rd_f64(
    data: &[u8],
    pos: &mut usize,
    what: &'static str,
) -> Result<f64, StorageError> {
    let end = pos
        .checked_add(8)
        .filter(|&e| e <= data.len())
        .ok_or(corrupt(what))?;
    let bits = u64::from_le_bytes(data[*pos..end].try_into().expect("8 bytes"));
    *pos = end;
    Ok(f64::from_bits(bits))
}

/// Appends a `u32` slice as raw little-endian words (the bulk-load path:
/// arena columns deserialize with one pass, no per-element varints).
pub(crate) fn put_u32_slice(out: &mut Vec<u8>, values: &[u32]) {
    out.reserve(values.len() * 4);
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Reads `len` raw little-endian `u32`s, bounds-checked before allocating.
pub(crate) fn get_u32_slice(
    data: &[u8],
    pos: &mut usize,
    len: usize,
    what: &'static str,
) -> Result<Vec<u32>, StorageError> {
    let bytes = len.checked_mul(4).ok_or(corrupt(what))?;
    let end = pos
        .checked_add(bytes)
        .filter(|&e| e <= data.len())
        .ok_or(corrupt(what))?;
    let out = data[*pos..end]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    *pos = end;
    Ok(out)
}

/// Appends a `u16` slice as raw little-endian words.
pub(crate) fn put_u16_slice(out: &mut Vec<u8>, values: &[u16]) {
    out.reserve(values.len() * 2);
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Reads `len` raw little-endian `u16`s, bounds-checked before allocating.
pub(crate) fn get_u16_slice(
    data: &[u8],
    pos: &mut usize,
    len: usize,
    what: &'static str,
) -> Result<Vec<u16>, StorageError> {
    let bytes = len.checked_mul(2).ok_or(corrupt(what))?;
    let end = pos
        .checked_add(bytes)
        .filter(|&e| e <= data.len())
        .ok_or(corrupt(what))?;
    let out = data[*pos..end]
        .chunks_exact(2)
        .map(|c| u16::from_le_bytes(c.try_into().expect("2 bytes")))
        .collect();
    *pos = end;
    Ok(out)
}
