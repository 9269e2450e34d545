//! Binary persistence for encoded documents.
//!
//! The paper assumes documents are encoded once ("at document loading
//! time") and queried many times; this module makes the encoded form a
//! first-class storable artifact so loading a multi-million-node plane is
//! a bulk column read instead of an XML re-parse.
//!
//! Format, version 2 (little-endian; every column and the content arena
//! is one contiguous block, so decoding is bounds checks and bulk copies):
//!
//! ```text
//! magic "SCJ1" | u32 version = 2 | u32 n | u32 height
//! post[n]  : u32        level[n] : u16
//! kind[n]  : u8         tag[n]   : u32
//! parent[n]: u32
//! tags     : u32 count, then (u32 len, bytes)*
//! arena    : u32 count | ends[count] : u32 | u32 bytes | blob[bytes]
//! content  : u32 flag (0 = no content column), then content[n] : u32
//! ```
//!
//! `ends[i]` is the byte offset in `blob` where content string `i` stops
//! (string `i` starts at `ends[i − 1]`, string 0 at 0); `content[v]` is the
//! string index of node `v` or `u32::MAX`. The reader accepts exactly this
//! version. It rejects every input it could not index safely — short
//! blocks, string ends that run backwards, past the blob or into the
//! middle of a character, content and tag ids past their tables — but not
//! columns that are merely inconsistent with each other: that is
//! [`Doc::validate`], which callers loading bytes they do not own run next.

use bytes::Bytes;

use crate::doc::Doc;
use crate::tags::{TagInterner, NO_TAG};
use crate::Level;

const MAGIC: &[u8; 4] = b"SCJ1";
const VERSION: u32 = 2;

/// Errors produced when decoding a persisted document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input does not start with the `SCJ1` magic.
    BadMagic,
    /// Format version not understood by this build.
    UnsupportedVersion(u32),
    /// Input ended prematurely or a length field is inconsistent.
    Truncated,
    /// A string section is not valid UTF-8.
    BadString,
    /// The blocks are all there but do not describe a document: an index
    /// points outside its table, or the encoding invariants do not hold.
    Corrupt(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a staircase document (bad magic)"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::BadString => write!(f, "invalid UTF-8 in string section"),
            DecodeError::Corrupt(why) => write!(f, "corrupt document: {why}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn corrupt(why: &str) -> DecodeError {
    DecodeError::Corrupt(why.to_string())
}

impl Doc {
    /// Serializes the encoding into a byte buffer.
    pub fn to_bytes(&self) -> Bytes {
        let n = self.len();
        let (arena, ends, content) = self.content_columns();
        let tag_bytes: usize = self.tags().iter().map(|(_, s)| 4 + s.len()).sum();
        let mut buf =
            Vec::with_capacity(16 + n * 19 + 4 + tag_bytes + 8 + ends.len() * 4 + arena.len() + 4);
        buf.extend_from_slice(MAGIC);
        put_u32s(&mut buf, &[VERSION, n as u32, self.height() as u32]);
        put_u32s(&mut buf, self.post_column());
        buf.extend(self.level_column().iter().flat_map(|l| l.to_le_bytes()));
        buf.extend_from_slice(self.kind_column());
        put_u32s(&mut buf, self.tag_column());
        put_u32s(&mut buf, self.parent_column());
        put_u32s(&mut buf, &[self.tags().len() as u32]);
        for (_, name) in self.tags().iter() {
            put_u32s(&mut buf, &[name.len() as u32]);
            buf.extend_from_slice(name.as_bytes());
        }
        put_u32s(&mut buf, &[ends.len() as u32]);
        put_u32s(&mut buf, ends);
        put_u32s(&mut buf, &[arena.len() as u32]);
        buf.extend_from_slice(arena.as_bytes());
        if ends.is_empty() {
            // No retained content: the column is all-sentinel, skip it.
            put_u32s(&mut buf, &[0]);
        } else {
            put_u32s(&mut buf, &[1]);
            put_u32s(&mut buf, content);
        }
        Bytes::from(buf)
    }

    /// Decodes a document previously written by [`Doc::to_bytes`].
    ///
    /// This is the raw decode: the result can be indexed without panicking
    /// (see the module docs for what is checked), but whether its columns
    /// form a pre/post encoding is [`Doc::validate`]'s question.
    pub fn from_bytes(mut input: &[u8]) -> Result<Doc, DecodeError> {
        let input = &mut input;
        if input.len() < 16 {
            return Err(DecodeError::Truncated);
        }
        if take(input, 4)? != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = read_u32(input)?;
        if version != VERSION {
            return Err(DecodeError::UnsupportedVersion(version));
        }
        let n = read_u32(input)? as usize;
        let height =
            Level::try_from(read_u32(input)?).map_err(|_| corrupt("height exceeds u16"))?;

        let post = read_u32s(input, n)?;
        let level = take(input, n.checked_mul(2).ok_or(DecodeError::Truncated)?)?
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect();
        let kind = take(input, n)?.to_vec();
        let tag = read_u32s(input, n)?;
        let parent = read_u32s(input, n)?;

        let tag_count = read_u32(input)?;
        let mut tags = TagInterner::new();
        for _ in 0..tag_count {
            let len = read_u32(input)? as usize;
            let name =
                std::str::from_utf8(take(input, len)?).map_err(|_| DecodeError::BadString)?;
            tags.intern(name);
        }
        if tags.len() != tag_count as usize {
            return Err(corrupt("duplicate tag name"));
        }
        if tag.iter().any(|&t| t != NO_TAG && t >= tag_count) {
            return Err(corrupt("tag id past the tag table"));
        }

        let count = read_u32(input)? as usize;
        let ends = read_u32s(input, count)?;
        let bytes = read_u32(input)? as usize;
        let arena = std::str::from_utf8(take(input, bytes)?).map_err(|_| DecodeError::BadString)?;
        let mut start = 0;
        for &end in &ends {
            if end < start || !arena.is_char_boundary(end as usize) {
                return Err(corrupt(
                    "content string end out of order or inside a character",
                ));
            }
            start = end;
        }
        let content = match read_u32(input)? {
            0 => vec![u32::MAX; n],
            1 => read_u32s(input, n)?,
            _ => return Err(corrupt("content flag is neither 0 nor 1")),
        };
        if content
            .iter()
            .any(|&c| c != u32::MAX && c as usize >= count)
        {
            return Err(corrupt("content index past the arena"));
        }

        Ok(Doc::from_raw_parts(
            post,
            level,
            kind,
            tag,
            parent,
            content,
            arena.to_string(),
            ends,
            tags,
            height,
        ))
    }
}

/// Appends `values` little-endian (a plain copy on little-endian hosts).
fn put_u32s(buf: &mut Vec<u8>, values: &[u32]) {
    buf.extend(values.iter().flat_map(|v| v.to_le_bytes()));
}

/// Splits `len` bytes off the front of `input`.
fn take<'a>(input: &mut &'a [u8], len: usize) -> Result<&'a [u8], DecodeError> {
    if input.len() < len {
        return Err(DecodeError::Truncated);
    }
    let (head, rest) = input.split_at(len);
    *input = rest;
    Ok(head)
}

fn read_u32(input: &mut &[u8]) -> Result<u32, DecodeError> {
    let b = take(input, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// Reads a block of `n` values; the reservation is bounded by the input
/// because the bytes are split off before anything is allocated.
fn read_u32s(input: &mut &[u8], n: usize) -> Result<Vec<u32>, DecodeError> {
    let block = take(input, n.checked_mul(4).ok_or(DecodeError::Truncated)?)?;
    Ok(block
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Doc {
        Doc::from_xml(r#"<site><person id="p0"><name>Jo &amp; Co</name></person><x/></site>"#)
            .unwrap()
    }

    #[test]
    fn roundtrip_identity() {
        let doc = sample();
        let bytes = doc.to_bytes();
        let back = Doc::from_bytes(&bytes).unwrap();
        assert_eq!(doc.len(), back.len());
        assert_eq!(doc.post_column(), back.post_column());
        assert_eq!(doc.kind_column(), back.kind_column());
        assert_eq!(doc.tag_column(), back.tag_column());
        assert_eq!(doc.height(), back.height());
        for v in doc.pres() {
            assert_eq!(doc.level(v), back.level(v));
            assert_eq!(doc.parent(v), back.parent(v));
            assert_eq!(doc.tag_name(v), back.tag_name(v));
            assert_eq!(doc.content(v), back.content(v));
        }
    }

    #[test]
    fn roundtrip_preserves_documents() {
        let doc = sample();
        let back = Doc::from_bytes(&doc.to_bytes()).unwrap();
        assert_eq!(doc.to_document().to_xml(), back.to_document().to_xml());
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(
            Doc::from_bytes(b"NOPE").unwrap_err(),
            DecodeError::Truncated
        );
        assert_eq!(
            Doc::from_bytes(b"NOPE0000000000000000").unwrap_err(),
            DecodeError::BadMagic
        );
    }

    #[test]
    fn unsupported_version_rejected() {
        let doc = sample();
        let mut bytes = doc.to_bytes().to_vec();
        // Version 1 (a length before every string) is not read any more.
        for version in [1, 99] {
            bytes[4] = version;
            assert_eq!(
                Doc::from_bytes(&bytes).unwrap_err(),
                DecodeError::UnsupportedVersion(version as u32)
            );
        }
    }

    #[test]
    fn arena_roundtrips_every_kind_of_content() {
        let xml = "<a x=\"\" y=\"caf&#233;\">h\u{e9}llo &amp; w\u{f6}rld<![CDATA[<raw>]]> tail\
                   <!--c\u{f6}mment--><?pi d\u{e4}t\u{e4}?><b/>\u{65e5}\u{672c}</a>";
        let doc = Doc::from_xml(xml).unwrap();
        // a, @x, @y, one merged text node, comment, pi, b, text.
        assert_eq!(doc.len(), 8);
        assert_eq!(doc.content(0), None, "an element has no content");
        assert_eq!(doc.content(1), Some(""), "an empty value is still a value");
        assert_eq!(doc.content(2), Some("caf\u{e9}"));
        assert_eq!(doc.content(3), Some("h\u{e9}llo & w\u{f6}rld<raw> tail"));
        assert_eq!(doc.content(4), Some("c\u{f6}mment"));
        assert_eq!(doc.content(5), Some("d\u{e4}t\u{e4}"));
        assert_eq!(doc.content(6), None);
        assert_eq!(doc.content(7), Some("\u{65e5}\u{672c}"));
        let back = Doc::from_bytes(&doc.to_bytes()).unwrap();
        assert_eq!(back.validate(), Ok(()));
        for v in doc.pres() {
            assert_eq!(doc.content(v), back.content(v), "node {v}");
        }
        let dom = staircase_xml::Document::parse(xml).unwrap();
        assert_eq!(back.to_document().to_xml(), dom.to_xml());
    }

    /// Offset of the arena's string-count field in `doc`'s encoding.
    fn arena_offset(doc: &Doc) -> usize {
        let names: usize = doc.tags().iter().map(|(_, s)| 4 + s.len()).sum();
        16 + doc.len() * 15 + 4 + names
    }

    fn put(bytes: &mut [u8], at: usize, v: u32) {
        bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    #[test]
    fn structurally_bad_input_is_a_typed_error() {
        let doc = Doc::from_xml("<a x='1'>\u{e9}<b>t</b></a>").unwrap();
        let good = doc.to_bytes().to_vec();
        let (n, arena) = (doc.len(), arena_offset(&doc));
        let corrupt = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = good.clone();
            edit(&mut bytes);
            match Doc::from_bytes(&bytes) {
                Err(DecodeError::Corrupt(why)) => why,
                other => panic!("expected Corrupt, got {other:?}"),
            }
        };
        // The last content index points past the three strings.
        let last = good.len() - 4;
        assert!(corrupt(&|b| put(b, last, 1000)).contains("content index"));
        assert!(corrupt(&|b| put(b, 12, 70_000)).contains("height"));
        // Tag column: node 0's tag id, past the three names.
        assert!(corrupt(&|b| put(b, 16 + n * 7, 3)).contains("tag id"));
        // Strings end at 1, 3, 4: \u{e9} is two bytes, so 2 splits it.
        assert!(corrupt(&|b| put(b, arena + 4 + 4, 2)).contains("string end"));
        assert!(corrupt(&|b| put(b, arena + 4, 4)).contains("string end"));
        assert!(corrupt(&|b| put(b, arena + 4 + 8, 5)).contains("string end"));
        assert!(corrupt(&|b| put(b, last - n * 4, 2)).contains("content flag"));
        // A name that occurs twice would shift every later tag id.
        let tags = 16 + n * 15;
        assert_eq!(&good[tags + 8..tags + 9], b"a");
        assert!(corrupt(&|b| b[tags + 8 + 5] = b'a').contains("duplicate tag"));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let doc = sample();
        let bytes = doc.to_bytes();
        // Chop at a sample of byte positions; every prefix must fail
        // cleanly, never panic.
        for cut in (0..bytes.len() - 1).step_by(7) {
            let err = Doc::from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn empty_document_roundtrips() {
        let doc = crate::EncodingBuilder::new().finish();
        let back = Doc::from_bytes(&doc.to_bytes()).unwrap();
        assert!(back.is_empty());
    }
}
