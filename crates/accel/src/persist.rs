//! Binary persistence for encoded documents.
//!
//! The paper assumes documents are encoded once ("at document loading
//! time") and queried many times; this module makes the encoded form a
//! first-class storable artifact so loading a multi-million-node plane is
//! a bulk column read instead of an XML re-parse.
//!
//! Format, version 3 (little-endian). A file stores only what cannot be
//! derived (paper §4.2: the plane is two small integers a node, the rest
//! follows); [`Doc::from_bytes`] rebuilds `post`, `parent`, the height and
//! the content index in the pass that checks the file.
//!
//! ```text
//! magic "SCJ1" | u32 version = 3 | u32 n
//! level[n] : u16
//! kind[n]  : u8
//! tags     : u32 count, then (u32 len, bytes)*
//! tag[n]   : u16 when count < 65 535 (u16::MAX is NO_TAG), else u32
//! arena    : u32 bytes | blob[bytes] | u32 count | ends[count] : u32
//! ```
//!
//! String `i` ends at byte `ends[i]` of `blob` and starts where string
//! `i − 1` ends. No content index is stored: a document built without
//! content has no strings, and one built with it gives every node that is
//! no element exactly one, in document order, so a node's string is its
//! rank among those nodes.

use bytes::Bytes;

use crate::doc::Doc;
use crate::tags::{TagId, TagInterner, NO_TAG};

const MAGIC: &[u8; 4] = b"SCJ1";
const VERSION: u32 = 3;

/// Tag tables with fewer names than this store the tag column as `u16`s.
const NARROW_TAGS: usize = u16::MAX as usize;

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
            DecodeError::UnsupportedVersion(v) => write!(
                f,
                "unsupported format version {v} (this build reads version {VERSION}; \
                 re-encode the XML with `xq --encode`)"
            ),
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
        let (arena, ends) = self.arena();
        let narrow = self.tags().len() < NARROW_TAGS;
        let names: usize = self.tags().iter().map(|(_, s)| 4 + s.len()).sum();
        // At most 7 bytes a node: level, kind and a wide tag.
        let mut buf = Vec::with_capacity(24 + n * 7 + names + arena.len() + ends.len() * 4);
        buf.extend_from_slice(MAGIC);
        put_u32s(&mut buf, &[VERSION, n as u32]);
        buf.extend(self.level_column().iter().flat_map(|l| l.to_le_bytes()));
        buf.extend_from_slice(self.kind_column());
        put_u32s(&mut buf, &[self.tags().len() as u32]);
        for (_, name) in self.tags().iter() {
            put_u32s(&mut buf, &[name.len() as u32]);
            buf.extend_from_slice(name.as_bytes());
        }
        if narrow {
            let narrowed = |t: TagId| if t == NO_TAG { u16::MAX } else { t as u16 };
            buf.extend(
                self.tag_column()
                    .iter()
                    .flat_map(|&t| narrowed(t).to_le_bytes()),
            );
        } else {
            put_u32s(&mut buf, self.tag_column());
        }
        put_u32s(&mut buf, &[arena.len() as u32]);
        buf.extend_from_slice(arena.as_bytes());
        put_u32s(&mut buf, &[ends.len() as u32]);
        put_u32s(&mut buf, ends);
        Bytes::from(buf)
    }

    /// Decodes a document previously written by [`Doc::to_bytes`].
    ///
    /// Whatever the bytes, the result is a typed error or a document that
    /// passes [`Doc::validate`]: the blocks are bounds-checked as they are
    /// read, and the pass that derives the rest checks the columns' local
    /// rules.
    pub fn from_bytes(mut input: &[u8]) -> Result<Doc, DecodeError> {
        let input = &mut input;
        if input.len() < 12 {
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
        let level = read_column(input, n, u16::from_le_bytes)?;
        let kind = take(input, n)?.to_vec();

        let tag_count = read_u32(input)? as usize;
        let mut tags = TagInterner::new();
        for _ in 0..tag_count {
            let len = read_u32(input)? as usize;
            let name =
                std::str::from_utf8(take(input, len)?).map_err(|_| DecodeError::BadString)?;
            tags.intern(name);
        }
        if tags.len() != tag_count {
            return Err(corrupt("duplicate tag name"));
        }
        let tag = if tag_count < NARROW_TAGS {
            read_column(input, n, |b| match u16::from_le_bytes(b) {
                u16::MAX => NO_TAG,
                t => TagId::from(t),
            })?
        } else {
            read_column(input, n, u32::from_le_bytes)?
        };

        let bytes = read_u32(input)? as usize;
        let arena = std::str::from_utf8(take(input, bytes)?).map_err(|_| DecodeError::BadString)?;
        let count = read_u32(input)? as usize;
        let ends = read_column(input, count, u32::from_le_bytes)?;
        let mut start = 0;
        for &end in &ends {
            if end < start || !arena.is_char_boundary(end as usize) {
                return Err(corrupt(
                    "content string end out of order or inside a character",
                ));
            }
            start = end;
        }
        Doc::from_stored(level, kind, tag, tags, arena.to_string(), ends)
            .map_err(DecodeError::Corrupt)
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

/// Reads a column of `n` values of `W` bytes each; the reservation is
/// bounded by the input because the bytes are split off before anything
/// is allocated.
fn read_column<T, const W: usize>(
    input: &mut &[u8],
    n: usize,
    value: impl Fn([u8; W]) -> T,
) -> Result<Vec<T>, DecodeError> {
    let block = take(input, n.checked_mul(W).ok_or(DecodeError::Truncated)?)?;
    Ok(block
        .chunks_exact(W)
        .map(|c| value(c.try_into().expect("W bytes")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EncodingBuilder;

    fn sample() -> Doc {
        Doc::from_xml(r#"<site><person id="p0"><name>Jo &amp; Co</name></person><x/></site>"#)
            .unwrap()
    }

    fn assert_same(doc: &Doc, back: &Doc) {
        assert_eq!(doc.len(), back.len());
        assert_eq!(doc.post_column(), back.post_column());
        assert_eq!(doc.level_column(), back.level_column());
        assert_eq!(doc.kind_column(), back.kind_column());
        assert_eq!(doc.tag_column(), back.tag_column());
        assert_eq!(doc.parent_column(), back.parent_column());
        assert_eq!(doc.height(), back.height());
        for v in doc.pres() {
            assert_eq!(doc.tag_name(v), back.tag_name(v));
            assert_eq!(doc.content(v), back.content(v));
        }
        for (t, _) in doc.tags().iter() {
            assert_eq!(doc.tags().element_count(t), back.tags().element_count(t));
        }
    }

    #[test]
    fn roundtrip_identity() {
        let doc = sample();
        let bytes = doc.to_bytes();
        let back = Doc::from_bytes(&bytes).unwrap();
        assert_same(&doc, &back);
        // Five bytes a node (level, kind, a narrow tag); the content index
        // is every non-element node's rank, so it is not stored.
        let (arena, ends) = doc.arena();
        let names: usize = doc.tags().iter().map(|(_, s)| 4 + s.len()).sum();
        let expected = 12 + doc.len() * 5 + 4 + names + 8 + arena.len() + 4 * ends.len();
        assert_eq!(bytes.len(), expected);
    }

    #[test]
    fn a_document_without_content_roundtrips() {
        // No strings at all, so no node has content after the load either.
        let mut b = EncodingBuilder::without_content();
        b.open_element("a");
        b.attribute("x", "1");
        b.text("dropped");
        b.close_element();
        let doc = b.finish();
        let back = Doc::from_bytes(&doc.to_bytes()).unwrap();
        assert_same(&doc, &back);
        assert_eq!(back.validate(), Ok(()));
        assert_eq!(back.content(2), None);
    }

    #[test]
    fn a_tag_table_of_65_535_names_widens_the_tag_column() {
        let mut b = EncodingBuilder::new();
        for i in 0..NARROW_TAGS {
            b.intern(&format!("t{i}"));
        }
        b.open_element("t65534");
        b.attribute("t7", "v");
        b.text("x");
        b.close_element();
        let doc = b.finish();
        assert_eq!(doc.tags().len(), NARROW_TAGS);
        let bytes = doc.to_bytes();
        let names: usize = doc.tags().iter().map(|(_, s)| 4 + s.len()).sum();
        let tag_column = 12 + doc.len() * 3 + 4 + names;
        let wide = |v: usize| {
            let at = tag_column + 4 * v;
            u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
        };
        assert_eq!([wide(0), wide(1), wide(2)], [65_534, 7, NO_TAG]);
        assert_same(&doc, &Doc::from_bytes(&bytes).unwrap());
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
        // Versions 1 and 2 stored the derived columns; neither is read.
        for version in [1, 2, 99] {
            bytes[4] = version;
            let err = Doc::from_bytes(&bytes).unwrap_err();
            assert_eq!(err, DecodeError::UnsupportedVersion(version as u32));
            assert!(err.to_string().contains("xq --encode"), "{err}");
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

    fn put(bytes: &mut [u8], at: usize, v: u32) {
        bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    #[test]
    fn structurally_bad_input_is_a_typed_error() {
        // a, @x, text "é", b, text "t": strings end at 1, 3, 4.
        let doc = Doc::from_xml("<a x='1'>\u{e9}<b>t</b></a>").unwrap();
        let good = doc.to_bytes().to_vec();
        let n = doc.len();
        let (tags, tag_column) = (12 + 3 * n, 12 + 3 * n + 4 + 3 * 5);
        let corrupt = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = good.clone();
            edit(&mut bytes);
            match Doc::from_bytes(&bytes) {
                Err(DecodeError::Corrupt(why)) => why,
                other => panic!("expected Corrupt, got {other:?}"),
            }
        };
        // Node 0's tag id, past the three names.
        assert_eq!(&good[tag_column..tag_column + 2], [0, 0]);
        assert!(corrupt(&|b| b[tag_column] = 3).contains("tag id"));
        // The string ends are the last three fields: \u{e9} is two bytes,
        // so 2 splits it; 1000 is past the blob.
        let end = |i: usize| good.len() - 12 + 4 * i;
        assert!(corrupt(&|b| put(b, end(2), 1000)).contains("string end"));
        assert!(corrupt(&|b| put(b, end(1), 2)).contains("string end"));
        assert!(corrupt(&|b| put(b, end(0), 4)).contains("string end"));
        // A name that occurs twice would shift every later tag id.
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
