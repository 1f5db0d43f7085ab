//! Low-level encoding primitives: LEB128 varints, length-prefixed strings
//! and the FNV-1a-64 checksum.

/// Appends a LEB128-encoded unsigned integer.
pub fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint, advancing `pos`. Returns `None` on truncation
/// or an over-long encoding (> 10 bytes).
pub fn get_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string.
pub fn get_string(data: &[u8], pos: &mut usize) -> Option<String> {
    get_str(data, pos).map(str::to_string)
}

/// Reads a length-prefixed UTF-8 string, borrowed from `data`.
pub fn get_str<'a>(data: &'a [u8], pos: &mut usize) -> Option<&'a str> {
    let len = get_varint(data, pos)? as usize;
    let end = pos.checked_add(len)?;
    if end > data.len() {
        return None;
    }
    let s = std::str::from_utf8(&data[*pos..end]).ok()?;
    *pos = end;
    Some(s)
}

/// FNV-1a 64-bit hash of a byte slice, one byte at a time. No snapshot
/// is checksummed with it any more; it stays because the golden
/// wire-response table (`tests/golden_responses.rs`) is recorded in it.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// FNV-1a folded over little-endian 8-byte words, with the tail hashed
/// byte-wise. One multiply per word instead of per byte makes this ~8x
/// faster on megabyte payloads — it is the checksum of snapshot
/// sections, where verification sits on the cold-boot critical path.
pub fn fnv1a_words(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        hash ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    for &b in chunks.remainder() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1_000_000);
        buf.pop();
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), None);
    }

    #[test]
    fn varint_rejects_overlong() {
        let buf = [0x80u8; 11];
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), None);
    }

    #[test]
    fn string_roundtrip_including_unicode() {
        for s in ["", "hello", "日本語 & <tags>"] {
            let mut buf = Vec::new();
            put_string(&mut buf, s);
            let mut pos = 0;
            assert_eq!(get_string(&buf, &mut pos).as_deref(), Some(s));
        }
    }

    #[test]
    fn string_rejects_bad_utf8_and_truncation() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 2);
        buf.push(0xff);
        buf.push(0xfe);
        let mut pos = 0;
        assert_eq!(get_string(&buf, &mut pos), None);

        let mut buf = Vec::new();
        put_varint(&mut buf, 10);
        buf.push(b'x');
        let mut pos = 0;
        assert_eq!(get_string(&buf, &mut pos), None);
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"lotusx"), fnv1a(b"lotusx"));
    }

    #[test]
    fn word_fnv_detects_flips_in_words_and_tail() {
        assert_eq!(fnv1a_words(b""), 0xcbf2_9ce4_8422_2325);
        let base: Vec<u8> = (0u16..1003).map(|b| (b % 251) as u8).collect();
        let hash = fnv1a_words(&base);
        assert_eq!(fnv1a_words(&base), hash);
        // Flip one bit inside full words, at word boundaries, and in the
        // 3-byte tail — every flip must change the hash.
        for i in [0usize, 7, 8, 500, 999, 1000, 1002] {
            let mut copy = base.clone();
            copy[i] ^= 0x10;
            assert_ne!(fnv1a_words(&copy), hash, "flip at {i} undetected");
        }
        assert_ne!(fnv1a_words(&base[..1002]), hash);
    }
}
