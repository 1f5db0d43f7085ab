//! # lotusx-storage
//!
//! Compact binary persistence for LotusX documents, so a corpus parsed and
//! cleaned once can be reopened without re-tokenizing XML.
//!
//! One container, [`snapshot`]: a sectioned file where each section
//! (document, values, tag terms) carries its own FNV-1a checksum. It
//! stores only what the document tree cannot give back: the loader
//! rebuilds the tag streams, DataGuide and statistics from the decoded
//! tree, never re-parsing XML. Section payload codecs live in
//! `lotusx-index`; this crate owns framing, the version check, and
//! atomic file writes.
//!
//! ```
//! use lotusx_storage::{read_snapshot, write_snapshot, Section};
//!
//! let sections = vec![Section { id: 1, bytes: b"payload".to_vec() }];
//! let mut buffer = Vec::new();
//! write_snapshot(&mut buffer, &sections).unwrap();
//! assert_eq!(read_snapshot(&buffer[..]).unwrap(), sections);
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod format;
pub mod snapshot;

pub use format::StorageError;
pub use snapshot::{
    read_snapshot, read_snapshot_file, write_snapshot, write_snapshot_file, Section,
    SNAPSHOT_VERSION,
};
