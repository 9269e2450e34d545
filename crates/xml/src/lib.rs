//! # staircase-xml
//!
//! A from-scratch XML 1.0 subset parser, document tree, and serializer.
//!
//! This crate is the XML substrate of the staircase-join reproduction
//! (Grust, van Keulen, Teubner: *Staircase Join*, VLDB 2003). The paper
//! stores XML documents inside a relational engine using the XPath
//! accelerator encoding; this crate supplies the document side of that
//! pipeline:
//!
//! * [`tokenize`] — the one scanner of XML text: a push tokenizer that
//!   hands each construct to a [`Sink`] as it completes, names as borrowed
//!   slices, a start tag's attributes through one reused buffer
//!   ([`Attributes`]), character data expanded only where it held a
//!   reference ([`Chars`]). It allocates nothing per construct. The
//!   accelerator's loader is a `Sink`, so multi-million-node documents go
//!   from text to columns without an event or a DOM in between.
//! * [`PullParser`] — the same core one construct at a time: its one-event
//!   sink turns each into an owned [`Event`].
//! * [`Document`] / [`NodeId`] — an arena-backed DOM-lite tree for tests,
//!   examples, and small-document round-trips.
//! * [`write_document`] — a serializer with correct escaping.
//!
//! ## Supported XML subset
//!
//! Elements, attributes, text, CDATA sections, comments, processing
//! instructions, the XML declaration, numeric and the five predefined
//! entity references. `DOCTYPE` declarations are recognised and skipped
//! (including bracketed internal subsets); custom entities are not
//! expanded. Namespaces are treated lexically (prefixes are part of the
//! name), matching the paper's treatment of tag names as opaque strings.
//!
//! ## Example
//!
//! ```
//! use staircase_xml::Document;
//!
//! let doc = Document::parse("<a><b>hi</b><c x='1'/></a>").unwrap();
//! let root = doc.root_element().unwrap();
//! assert_eq!(doc.name(root), Some("a"));
//! assert_eq!(doc.children(root).count(), 2);
//! ```

#![warn(missing_docs)]

mod error;
mod escape;
mod push;
mod reader;
mod stream;
mod tree;
mod writer;

pub use error::{Error, Result, TextPos};
pub use escape::{escape_attribute, escape_text, unescape};
pub use push::{tokenize, Attributes, Chars, Sink};
pub use reader::{Attribute, Event, PullParser};
pub use stream::{canonicalize, EventWriter, WriteError};
pub use tree::{Document, NodeId, NodeKind};
pub use writer::{write_document, write_node, WriteOptions};
