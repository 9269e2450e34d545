//! Parse errors with positional information.

use std::fmt;

/// A line/column position inside the input text (1-based, columns in bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TextPos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based byte column within the line.
    pub col: u32,
}

impl TextPos {
    /// Computes the position of byte `offset` inside `input`.
    pub fn from_offset(input: &str, offset: usize) -> TextPos {
        let offset = offset.min(input.len());
        let mut line = 1u32;
        let mut line_start = 0usize;
        for (i, b) in input.as_bytes()[..offset].iter().enumerate() {
            if *b == b'\n' {
                line += 1;
                line_start = i + 1;
            }
        }
        TextPos {
            line,
            col: (offset - line_start) as u32 + 1,
        }
    }
}

impl fmt::Display for TextPos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Errors produced while parsing XML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The input ended in the middle of a construct.
    UnexpectedEof(TextPos),
    /// A byte that cannot start or continue the current construct.
    UnexpectedToken {
        /// What the parser was trying to read.
        expected: &'static str,
        /// Where it failed.
        pos: TextPos,
    },
    /// An element name, attribute name, or PI target is not a valid XML name.
    InvalidName(TextPos),
    /// A closing tag does not match the innermost open tag.
    MismatchedTag {
        /// The name of the currently open element.
        expected: String,
        /// The name found in the closing tag.
        found: String,
        /// Where the closing tag starts.
        pos: TextPos,
    },
    /// A closing tag with no corresponding open tag.
    UnexpectedClosingTag(TextPos),
    /// The document ended with unclosed elements.
    UnclosedElements(TextPos),
    /// More than one top-level element, or content outside the root.
    ExtraRootContent(TextPos),
    /// The document contains no root element.
    NoRootElement,
    /// An attribute appears twice on the same element.
    DuplicateAttribute {
        /// The attribute name.
        name: String,
        /// Where the duplicate occurrence starts.
        pos: TextPos,
    },
    /// An unknown or malformed entity/character reference.
    InvalidReference(TextPos),
    /// `--` inside a comment, or other malformed comment.
    MalformedComment(TextPos),
    /// `]]>` appearing literally in character data.
    CdataCloseInText(TextPos),
    /// Elements nest deeper than the consumer can represent (the pre/post
    /// encoding counts levels in 16 bits). Raised by the encoder, not the
    /// parser, which has no limit of its own.
    TooDeep {
        /// The deepest element nesting the consumer accepts.
        limit: usize,
        /// Where the offending start tag begins; `None` when the input
        /// was an in-memory tree.
        pos: Option<TextPos>,
    },
    /// The document holds more than the consumer can count: the pre/post
    /// encoding numbers nodes and content bytes in 32 bits. Raised by the
    /// encoder, like [`Error::TooDeep`].
    TooLarge {
        /// What ran out: `"nodes"` or `"content bytes"`.
        what: &'static str,
        /// The most the consumer accepts.
        limit: u64,
        /// Where the construct that went past the limit begins; `None`
        /// when the input was an in-memory tree.
        pos: Option<TextPos>,
    },
}

impl Error {
    /// `self` placed at `pos` when it is an encoder's refusal raised
    /// without a position (a sink cannot see where in the text it is).
    pub(crate) fn at(self, pos: TextPos) -> Error {
        match self {
            Error::TooDeep { limit, pos: None } => Error::TooDeep {
                limit,
                pos: Some(pos),
            },
            Error::TooLarge {
                what,
                limit,
                pos: None,
            } => Error::TooLarge {
                what,
                limit,
                pos: Some(pos),
            },
            e => e,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnexpectedEof(p) => write!(f, "unexpected end of input at {p}"),
            Error::UnexpectedToken { expected, pos } => {
                write!(f, "expected {expected} at {pos}")
            }
            Error::InvalidName(p) => write!(f, "invalid XML name at {p}"),
            Error::MismatchedTag {
                expected,
                found,
                pos,
            } => write!(
                f,
                "closing tag </{found}> at {pos} does not match open element <{expected}>"
            ),
            Error::UnexpectedClosingTag(p) => write!(f, "closing tag without open element at {p}"),
            Error::UnclosedElements(p) => write!(f, "input ended with unclosed elements at {p}"),
            Error::ExtraRootContent(p) => write!(f, "content after document root at {p}"),
            Error::NoRootElement => write!(f, "document has no root element"),
            Error::DuplicateAttribute { name, pos } => {
                write!(f, "duplicate attribute '{name}' at {pos}")
            }
            Error::InvalidReference(p) => write!(f, "invalid entity or character reference at {p}"),
            Error::MalformedComment(p) => write!(f, "malformed comment at {p}"),
            Error::CdataCloseInText(p) => write!(f, "']]>' not allowed in character data at {p}"),
            Error::TooDeep { limit, pos } => {
                write!(f, "elements nested deeper than {limit} levels")?;
                write_pos(f, pos)
            }
            Error::TooLarge { what, limit, pos } => {
                write!(f, "document has more than {limit} {what}")?;
                write_pos(f, pos)
            }
        }
    }
}

fn write_pos(f: &mut fmt::Formatter<'_>, pos: &Option<TextPos>) -> fmt::Result {
    match pos {
        Some(p) => write!(f, " at {p}"),
        None => Ok(()),
    }
}

impl std::error::Error for Error {}

/// Convenience alias used throughout this crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pos_first_line() {
        assert_eq!(TextPos::from_offset("abc", 0), TextPos { line: 1, col: 1 });
        assert_eq!(TextPos::from_offset("abc", 2), TextPos { line: 1, col: 3 });
    }

    #[test]
    fn pos_after_newlines() {
        let s = "ab\ncd\nef";
        assert_eq!(TextPos::from_offset(s, 3), TextPos { line: 2, col: 1 });
        assert_eq!(TextPos::from_offset(s, 7), TextPos { line: 3, col: 2 });
    }

    #[test]
    fn pos_clamps_to_len() {
        assert_eq!(TextPos::from_offset("a", 99), TextPos { line: 1, col: 2 });
    }

    #[test]
    fn display_formats() {
        let e = Error::MismatchedTag {
            expected: "a".into(),
            found: "b".into(),
            pos: TextPos { line: 2, col: 5 },
        };
        assert!(e.to_string().contains("</b>"));
        assert!(e.to_string().contains("2:5"));
    }
}
