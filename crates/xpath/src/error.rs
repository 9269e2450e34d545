//! The query-path error type.
//!
//! Everything that can go wrong between "here is some XML / an encoded
//! plane / an XPath string" and "here is a result sequence" is reported
//! through [`Error`]; no public API on the [`crate::Session`] query path
//! panics.

use staircase_accel::{Axis, DecodeError};

use crate::parser::ParseError;

/// Any failure on the query path: loading a document, parsing an
/// expression, configuring an engine, or evaluating a step.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// The XPath expression did not parse.
    Parse(ParseError),
    /// The XML text did not parse.
    Xml(staircase_xml::Error),
    /// A persisted (`.scj`) document did not decode.
    Decode(DecodeError),
    /// An axis outside the staircase join's partitioning set was handed
    /// to a partitioning-only entry point.
    UnsupportedAxis(Axis),
    /// An [`crate::Engine`] builder was given an inconsistent
    /// configuration.
    InvalidEngine(String),
    /// A caller-supplied evaluation context names a node outside the
    /// session's document (e.g. a pre rank taken from a different or
    /// stale document).
    ContextOutOfRange {
        /// The offending preorder rank.
        pre: staircase_accel::Pre,
        /// The document's node count.
        len: usize,
    },
    /// Reading a document from disk failed.
    Io(std::io::Error),
    /// A governed query ran past its wall-clock deadline
    /// ([`staircase_core::governor::Budget::with_deadline`]) and was
    /// stopped cooperatively.
    DeadlineExceeded,
    /// A governed query touched more nodes than its cost ceiling
    /// ([`staircase_core::governor::Budget::with_max_touched`]) allows.
    BudgetExhausted,
    /// The query's [`staircase_core::governor::Budget`] was cancelled
    /// (client CANCEL, disconnect, or programmatic
    /// [`staircase_core::governor::Budget::cancel`]).
    Cancelled,
    /// A lane panicked during execution. The panic was isolated to this
    /// query; the session and any sibling queries of the same batch
    /// pass unaffected by it remain fully usable.
    Internal(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "{e}"),
            Error::Xml(e) => write!(f, "XML parse error: {e}"),
            Error::Decode(e) => write!(f, "encoded document error: {e}"),
            Error::UnsupportedAxis(axis) => {
                write!(f, "axis {axis} is not a partitioning axis")
            }
            Error::InvalidEngine(reason) => write!(f, "invalid engine configuration: {reason}"),
            Error::ContextOutOfRange { pre, len } => {
                write!(
                    f,
                    "context node {pre} is outside the document ({len} nodes)"
                )
            }
            Error::Io(e) => write!(f, "I/O error: {e}"),
            Error::DeadlineExceeded => write!(f, "query deadline exceeded"),
            Error::BudgetExhausted => write!(f, "query cost budget exhausted"),
            Error::Cancelled => write!(f, "query cancelled"),
            Error::Internal(detail) => write!(f, "internal execution failure: {detail}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Parse(e) => Some(e),
            Error::Xml(e) => Some(e),
            Error::Decode(e) => Some(e),
            Error::Io(e) => Some(e),
            Error::UnsupportedAxis(_)
            | Error::InvalidEngine(_)
            | Error::ContextOutOfRange { .. }
            | Error::DeadlineExceeded
            | Error::BudgetExhausted
            | Error::Cancelled
            | Error::Internal(_) => None,
        }
    }
}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Error {
        Error::Parse(e)
    }
}

impl From<staircase_xml::Error> for Error {
    fn from(e: staircase_xml::Error) -> Error {
        Error::Xml(e)
    }
}

impl From<DecodeError> for Error {
    fn from(e: DecodeError) -> Error {
        Error::Decode(e)
    }
}

impl From<staircase_core::UnsupportedAxis> for Error {
    fn from(e: staircase_core::UnsupportedAxis) -> Error {
        Error::UnsupportedAxis(e.0)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error::Io(e)
    }
}
