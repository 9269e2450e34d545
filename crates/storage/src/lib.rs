//! # staircase-storage
//!
//! A miniature Monet-style main-memory column engine — the storage substrate
//! the staircase-join paper (Grust, van Keulen, Teubner, VLDB 2003, §4)
//! assumes. It provides:
//!
//! * [`VoidColumn`] — Monet's `void` (*virtual oid*) column type: a
//!   contiguous integer sequence `o, o+1, o+2, …` of which only the offset
//!   is stored. The preorder ranks of the `doc` table are stored this way,
//!   so "only the postorder ranks of 4 byte each" are scanned (§4.2).
//! * [`Bat`] — a binary association table with a void head and a dense,
//!   typed tail; positional lookups are array indexing.
//! * [`BPlusTree`] — a bulk-loaded B+-tree with range scans, used by the
//!   tree-unaware baseline to emulate the concatenated-key
//!   `(pre, post, tag)` index of the paper's Figure 3 plan.
//! * [`scan`] — the plain and the unrolled (Duff's-device-inspired) copy
//!   loops of §4.3's bandwidth experiment.

#![warn(missing_docs)]

mod bat;
mod btree;
mod column;
pub mod scan;

pub use bat::Bat;
pub use btree::BPlusTree;
pub use column::VoidColumn;
