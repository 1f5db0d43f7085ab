//! The sectioned `LTSX` snapshot container, version 4.
//!
//! Layout:
//!
//! ```text
//! magic "LTSX" | version (1 byte, = 4) | varint section count
//! then per section:
//!   varint section id | varint payload length | u64 LE checksum | payload
//! ```
//!
//! The section checksum is [`fnv1a_words`] (FNV-1a folded over 8-byte
//! words — one multiply per word keeps verification off the cold-boot
//! critical path). Each section payload carries its own checksum, so
//! corruption is pinned to a section and detected before any payload
//! decoding starts. Section *contents* are opaque at this layer —
//! `lotusx-index` owns the codecs for every index structure; this module
//! owns framing, checksums and atomic file replacement.
//!
//! There is one version and no negotiation: a file whose version byte is
//! not [`SNAPSHOT_VERSION`] is [`StorageError::UnsupportedVersion`]
//! before any section is parsed (a snapshot is rebuilt from the source
//! XML in seconds; a second reader for an old layout is code nothing
//! exercises). Section ids this build does not know are rejected with
//! [`StorageError::UnknownSection`] rather than skipped — a snapshot is a
//! coherent unit, and silently dropping a section would desynchronize
//! the index set.

use crate::codec::{fnv1a_words, put_varint};
use crate::format::{StorageError, MAGIC};
use std::io::{Read, Write};
use std::path::Path;

/// The one snapshot container version this build writes and reads.
/// (1 was a document-only file; 2 also stored path-style labels and the
/// columns' end trees, and did not validate the latter; 3 also stored
/// the join-cost statistics of a retired algorithm chooser in `STATS`.)
pub const SNAPSHOT_VERSION: u8 = 4;

/// Section ids of the full-index snapshot.
pub mod section {
    /// The document tree: symbol table, then kind, parent and payload
    /// columns in preorder.
    pub const DOCUMENT: u64 = 1;
    /// The region label of every node, as three columns.
    pub const LABELS: u64 = 2;
    /// Struct-of-arrays region columns: the per-tag arenas and stream
    /// lengths.
    pub const COLUMNS: u64 = 3;
    /// The value index: term postings, exact strings, numeric values.
    pub const VALUES: u64 = 4;
    /// Completion tries (tag + term) and the term table.
    pub const TRIES: u64 = 5;
    /// The DataGuide and the node → guide-node map.
    pub const GUIDE: u64 = 6;
    /// Document statistics.
    pub const STATS: u64 = 7;
    /// Precomputed per-tag value-completion tries (the hot-tag cache).
    /// Optional: a file without it recomputes the hot set on load.
    pub const VALUE_TRIES: u64 = 8;

    /// Every id this build understands.
    pub const KNOWN: &[u64] = &[
        DOCUMENT,
        LABELS,
        COLUMNS,
        VALUES,
        TRIES,
        GUIDE,
        STATS,
        VALUE_TRIES,
    ];
}

/// One framed snapshot section: an id plus its raw payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Section {
    /// Section id (one of [`section::KNOWN`]).
    pub id: u64,
    /// Opaque payload bytes, checksummed by the container framing.
    pub bytes: Vec<u8>,
}

/// Writes a snapshot container to `writer`.
pub fn write_snapshot(mut writer: impl Write, sections: &[Section]) -> Result<(), StorageError> {
    writer.write_all(MAGIC)?;
    writer.write_all(&[SNAPSHOT_VERSION])?;
    let mut head = Vec::new();
    put_varint(&mut head, sections.len() as u64);
    writer.write_all(&head)?;
    for s in sections {
        head.clear();
        put_varint(&mut head, s.id);
        put_varint(&mut head, s.bytes.len() as u64);
        writer.write_all(&head)?;
        writer.write_all(&fnv1a_words(&s.bytes).to_le_bytes())?;
        writer.write_all(&s.bytes)?;
    }
    Ok(())
}

/// Reads a snapshot container from `reader`, verifying every section
/// checksum, and returns its sections in file order.
pub fn read_snapshot(reader: impl Read) -> Result<Vec<Section>, StorageError> {
    read_sections(reader, PREALLOC_CAP)
}

/// Reads a snapshot container from a file through a buffered reader:
/// each payload is read straight into its own exact-size buffer, so the
/// file is never held a second time beside its sections. Every checksum
/// is verified before this returns.
pub fn read_snapshot_file(path: impl AsRef<Path>) -> Result<Vec<Section>, StorageError> {
    let file = std::fs::File::open(path)?;
    // No valid payload is longer than the file: a header claiming more
    // is truncation, and allocates no more than the file holds.
    let len = file.metadata()?.len();
    read_sections(std::io::BufReader::new(file), len)
}

/// An untrusted payload length pre-allocates at most this much from a
/// stream of unknown length (a corrupt header could demand terabytes).
const PREALLOC_CAP: u64 = 1 << 26; // 64 MiB

/// [`read_snapshot`], pre-allocating no payload beyond `prealloc_cap`.
fn read_sections(mut reader: impl Read, prealloc_cap: u64) -> Result<Vec<Section>, StorageError> {
    let mut head = [0u8; 5];
    reader.read_exact(&mut head)?;
    if &head[..4] != MAGIC {
        return Err(StorageError::BadMagic);
    }
    if head[4] != SNAPSHOT_VERSION {
        return Err(StorageError::UnsupportedVersion(head[4]));
    }
    let count = read_varint(&mut reader)?;
    // A snapshot holds a handful of sections; an absurd count is header
    // corruption, not a big file.
    if count > 1024 {
        return Err(StorageError::Corrupt("implausible section count"));
    }
    let mut sections = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let id = read_varint(&mut reader)?;
        if !section::KNOWN.contains(&id) {
            return Err(StorageError::UnknownSection(id));
        }
        let len = read_varint(&mut reader)?;
        let mut sum = [0u8; 8];
        reader.read_exact(&mut sum)?;
        let bytes = read_payload(&mut reader, len, prealloc_cap)?;
        if fnv1a_words(&bytes) != u64::from_le_bytes(sum) {
            return Err(StorageError::ChecksumMismatch);
        }
        sections.push(Section { id, bytes });
    }
    reject_trailing(&mut reader)?;
    Ok(sections)
}

/// Atomically writes a snapshot to `path`: the container is written
/// to a temporary file in the same directory, fsynced, then renamed over
/// the target. A crash mid-save can never leave a truncated snapshot at
/// `path` — readers see either the old file or the complete new one.
pub fn write_snapshot_file(
    path: impl AsRef<Path>,
    sections: &[Section],
) -> Result<(), StorageError> {
    let path = path.as_ref();
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "snapshot.ltsx".to_string());
    let tmp = dir.join(format!(".{name}.tmp.{}", std::process::id()));
    let result = (|| {
        let file = std::fs::File::create(&tmp)?;
        let mut writer = std::io::BufWriter::new(file);
        write_snapshot(&mut writer, sections)?;
        writer.flush()?;
        writer.get_ref().sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Reads exactly `len` payload bytes. `len` is untrusted, so the
/// pre-allocation is capped — sections below the cap still get one
/// exact-size buffer.
fn read_payload(reader: &mut impl Read, len: u64, cap: u64) -> Result<Vec<u8>, StorageError> {
    let mut bytes = Vec::with_capacity(len.min(cap) as usize);
    reader.take(len).read_to_end(&mut bytes)?;
    if bytes.len() as u64 != len {
        return Err(StorageError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "section shorter than its header claims",
        )));
    }
    Ok(bytes)
}

/// Reads one varint byte-by-byte from a stream (the framing layer reads
/// incrementally; payload decoding uses the slice-based codec).
fn read_varint(reader: &mut impl Read) -> Result<u64, StorageError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        reader.read_exact(&mut byte)?;
        if shift >= 64 {
            return Err(StorageError::Corrupt("over-long varint"));
        }
        value |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

fn reject_trailing(reader: &mut impl Read) -> Result<(), StorageError> {
    let mut probe = [0u8; 1];
    match reader.read(&mut probe)? {
        0 => Ok(()),
        _ => Err(StorageError::Corrupt("trailing bytes after snapshot")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sections() -> Vec<Section> {
        vec![
            Section {
                id: section::DOCUMENT,
                bytes: vec![1, 2, 3, 4, 5],
            },
            Section {
                id: section::STATS,
                bytes: vec![],
            },
            Section {
                id: section::COLUMNS,
                bytes: (0..=255).collect(),
            },
        ]
    }

    fn encode(sections: &[Section]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot(&mut buf, sections).unwrap();
        buf
    }

    #[test]
    fn roundtrips_sections_in_order() {
        let sections = sample_sections();
        assert_eq!(read_snapshot(&encode(&sections)[..]).unwrap(), sections);
    }

    /// Table-driven corruption sweep: every tampering mode must produce
    /// the right *typed* error, never a panic or a silent success.
    #[test]
    fn corruption_table() {
        let good = encode(&sample_sections());
        // Offsets: magic 0..4, version 4, count 5, then section 1:
        // id 6, len 7, checksum 8..16, payload 16..21.
        type Tamper = fn(&mut Vec<u8>);
        type Expect = fn(&StorageError) -> bool;
        let cases: &[(&str, Tamper, Expect)] = &[
            (
                "bad magic",
                |b| b[0] = b'X',
                |e| matches!(e, StorageError::BadMagic),
            ),
            (
                "future version",
                |b| b[4] = 9,
                |e| matches!(e, StorageError::UnsupportedVersion(9)),
            ),
            // The retired layouts are refused at the version byte: the
            // rest of this file would parse as any of them.
            (
                "version 1",
                |b| b[4] = 1,
                |e| matches!(e, StorageError::UnsupportedVersion(1)),
            ),
            (
                "version 2",
                |b| b[4] = 2,
                |e| matches!(e, StorageError::UnsupportedVersion(2)),
            ),
            (
                "version 3",
                |b| b[4] = 3,
                |e| matches!(e, StorageError::UnsupportedVersion(3)),
            ),
            (
                "unknown section id",
                |b| b[6] = 42,
                |e| matches!(e, StorageError::UnknownSection(42)),
            ),
            (
                "bit-flipped checksum",
                |b| b[8] ^= 0x01,
                |e| matches!(e, StorageError::ChecksumMismatch),
            ),
            (
                "bit-flipped payload",
                |b| b[17] ^= 0x80,
                |e| matches!(e, StorageError::ChecksumMismatch),
            ),
            (
                "truncated mid-section",
                |b| b.truncate(b.len() - 7),
                |e| matches!(e, StorageError::Io(_)),
            ),
            (
                "truncated mid-header",
                |b| b.truncate(10),
                |e| matches!(e, StorageError::Io(_)),
            ),
            (
                "empty file",
                |b| b.clear(),
                |e| matches!(e, StorageError::Io(_)),
            ),
            (
                "trailing garbage",
                |b| b.push(0xaa),
                |e| matches!(e, StorageError::Corrupt(_)),
            ),
        ];
        for (name, tamper, check) in cases {
            let mut bytes = good.clone();
            tamper(&mut bytes);
            match read_snapshot(&bytes[..]) {
                Ok(_) => panic!("{name}: corrupt snapshot read back successfully"),
                Err(e) => assert!(check(&e), "{name}: wrong error kind: {e:?}"),
            }
        }
    }

    #[test]
    fn implausible_section_count_is_corrupt() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"LTSX");
        buf.push(SNAPSHOT_VERSION);
        put_varint(&mut buf, 1_000_000);
        assert!(matches!(
            read_snapshot(&buf[..]),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn atomic_file_write_roundtrips_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join("lotusx-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("full.ltsx");
        let sections = sample_sections();
        write_snapshot_file(&path, &sections).unwrap();
        // Overwrite in place: the rename must replace the old file whole.
        write_snapshot_file(&path, &sections).unwrap();
        assert_eq!(read_snapshot_file(&path).unwrap(), sections);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
