//! # staircase-accel
//!
//! The **XPath accelerator** document encoding (Grust, SIGMOD 2002) that the
//! staircase join operates on: every document node `v` is mapped to its
//! preorder and postorder traversal ranks,
//!
//! ```text
//! v  ↦  ⟨pre(v), post(v)⟩,
//! ```
//!
//! placing the document on a two-dimensional *pre/post plane* in which the
//! four partitioning XPath axes (`preceding`, `descendant`, `ancestor`,
//! `following`) of any node are rectangular regions (paper Figure 2).
//!
//! The crate provides:
//!
//! * [`Doc`] — the encoded document ("the `doc` table"): dense columns for
//!   `post`, `level`, `kind`, `tag`, `parent`, with `pre` as a virtual
//!   (void) column, stored via [`staircase_storage::Bat`].
//! * [`EncodingBuilder`] — a streaming loader; [`Doc::from_xml`] /
//!   [`Doc::from_document`] wire it to the XML substrate.
//! * [`Axis`] / [`Region`] — axis semantics as plane predicates and
//!   rectangles; the *reference* implementation baselines and property
//!   tests are checked against.
//! * [`Context`] — a duplicate-free, document-ordered context sequence.
//! * Equation (1) machinery: [`Doc::subtree_size`] (exact, since `level`
//!   is stored) and the height-bounded descendant window of the
//!   tree-aware SQL baseline's predicate (paper line 7), which reads no
//!   `level`.

#![warn(missing_docs)]

mod context;
mod doc;
mod persist;
mod region;
mod tags;

pub use context::Context;
pub use doc::{Doc, EncodingBuilder, NodeKind, MAX_DEPTH, NO_PARENT};
pub use persist::DecodeError;
pub use region::{Axis, Region};
pub use tags::{TagId, TagInterner, NO_TAG};

/// A preorder rank — the primary node identifier throughout the system.
pub type Pre = u32;
/// A postorder rank.
pub type Post = u32;
/// A node's depth below the root (root has level 0).
pub type Level = u16;
