//! # lotusx-labeling
//!
//! Region labels for XML trees: [`region::RegionLabel`] is the containment
//! `(start, end, level)` label of the structural-join literature, which
//! answers ancestor/descendant, parent/child and document-order tests
//! between two nodes without touching the tree. It is the only positional
//! label LotusX computes or stores. (Which tags can occur *at* a position
//! — the "position-aware" half of completion — is answered by the
//! DataGuide in `lotusx-index`, not by a label.)
//!
//! [`assign::DocumentLabels`] labels a whole document in one traversal.

#![warn(missing_docs)]

pub mod assign;
pub mod region;

pub use assign::DocumentLabels;
pub use region::RegionLabel;
