//! Seeded text-mutation fuzzing of XML ingest (offline, vendored `rand`
//! only). A seed document with every construct the parser knows is mutated
//! a few thousand times; every input must end in a document or a typed
//! error, never a panic, and must end in the *same* one as the golden
//! record in `golden/fuzz_xml.txt`: the FNV-1a hash of the encoding's
//! column image ([`column_image`]) and of what `canonicalize` (the
//! `PullParser` event stream written back out) made of it, or the error's
//! text with its position. The record was taken
//! from the byte-at-a-time pull parser the push tokenizer replaced, so a
//! changed error position, a lost check or a different encoding shows here
//! as the number of the input that moved. (The encoding hashes were
//! recomputed once, when comments and PIs outside the root element left
//! the encoding: each is the old loader's encoding of the same input's
//! root element subtree alone.)

mod common;

use common::{counting, CountingAlloc};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use staircase_accel::Doc;
use staircase_xml::{canonicalize, Document};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const MUTATIONS: usize = 4_000;

const GOLDEN: &str = include_str!("golden/fuzz_xml.txt");

/// Prolog, DOCTYPE with an internal subset, comments and PIs outside the
/// root, attributes in both quotes, every kind of reference, CDATA (one of
/// them empty), non-ASCII names and text, self-closing and empty elements.
const SEED: &str = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
<!DOCTYPE site [ <!ELEMENT site ANY> <!ATTLIST item id ID #REQUIRED> ]>\n\
<!-- before the root --><?style sheet=\"a\"?>\n\
<site xmlns:x=\"urn:x\">\n\
 <item id=\"i0\" note='a &amp; b' x:lang=\"fr\">caf&#233; &lt;menu&gt; <![CDATA[<raw & ok>]]><![CDATA[]]> tail &#x1F600;</item>\n\
 <données étiquette=\"ü\">日本語<vide/></données>\n\
 <!-- inside --><?pi data here?>\n\
 <item id=\"i1\" empty=''><name>n&#x41;me &quot;q&apos;</name><empty></empty>text<![CDATA[]]>more</item>\n\
</site>\n\
<!-- after --><?after root?>\n";

/// Pieces of markup worth splicing in: delimiters, references good and
/// bad, and whole constructs.
const TOKENS: &[&str] = &[
    "<",
    ">",
    "/",
    "&",
    ";",
    "=",
    "\"",
    "'",
    "?",
    "!",
    "-",
    "]",
    "[",
    " ",
    "\n",
    "é",
    "日",
    "&amp;",
    "&lt;",
    "&#65;",
    "&#x42;",
    "&#0;",
    "&#xD800;",
    "&#x110000;",
    "&bogus;",
    "&#;",
    "]]>",
    "<!--",
    "-->",
    "--",
    "<![CDATA[",
    "<?",
    "?>",
    "<?xml version='1.0'?>",
    "<!DOCTYPE r [<!ELEMENT r ANY>]>",
    "<!DOCTYPE",
    "</a>",
    "<a>",
    "<a/>",
    "<b x='1'>",
    "</b>",
    " x='1'",
    " x=\"2\"",
    " y=",
    "<:n/>",
    "<1a/>",
    "<é/>",
    "<!x>",
];

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every column of `doc`, read through its public accessors, laid out in
/// the field order of the version-2 `.scj` file the golden record was
/// hashed from: `post`, `level`, `kind`, `tag`, `parent`, the tag table,
/// the content strings with their ends, and each node's string index. The
/// record so pins what ingest builds, whatever the file format stores.
fn column_image(doc: &Doc) -> Vec<u8> {
    fn put(out: &mut Vec<u8>, values: impl IntoIterator<Item = u32>) {
        out.extend(values.into_iter().flat_map(u32::to_le_bytes));
    }
    let strings: Vec<&str> = doc.pres().filter_map(|v| doc.content(v)).collect();
    let mut out = b"SCJ1".to_vec();
    put(&mut out, [2, doc.len() as u32, doc.height() as u32]);
    put(&mut out, doc.post_column().iter().copied());
    out.extend(doc.level_column().iter().flat_map(|l| l.to_le_bytes()));
    out.extend_from_slice(doc.kind_column());
    put(&mut out, doc.tag_column().iter().copied());
    put(&mut out, doc.parent_column().iter().copied());
    put(&mut out, [doc.tags().len() as u32]);
    for (_, name) in doc.tags().iter() {
        put(&mut out, [name.len() as u32]);
        out.extend_from_slice(name.as_bytes());
    }
    put(&mut out, [strings.len() as u32]);
    put(
        &mut out,
        strings.iter().scan(0, |end, s| {
            *end += s.len() as u32;
            Some(*end)
        }),
    );
    put(&mut out, [strings.iter().map(|s| s.len() as u32).sum()]);
    strings
        .iter()
        .for_each(|s| out.extend_from_slice(s.as_bytes()));
    if strings.is_empty() {
        put(&mut out, [0]);
    } else {
        put(&mut out, [1]);
        // A string's index is its rank in document order.
        let mut rank = 0;
        let index = doc.pres().map(|v| match doc.content(v) {
            Some(_) => {
                rank += 1;
                rank - 1
            }
            None => u32::MAX,
        });
        put(&mut out, index);
    }
    out
}

/// A random char boundary of `s` (its end included).
fn boundary(rng: &mut SmallRng, s: &str) -> usize {
    let mut at = rng.gen_range(0..s.len() + 1);
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// A char-aligned span of `s` of at most `max` bytes.
fn span(rng: &mut SmallRng, s: &str, max: usize) -> (usize, usize) {
    let from = boundary(rng, s);
    let mut to = (from + rng.gen_range(0..max + 1)).min(s.len());
    while !s.is_char_boundary(to) {
        to -= 1;
    }
    (from, to)
}

fn mutate(rng: &mut SmallRng, xml: &mut String) {
    match rng.gen_range(0..6u32) {
        // Delete a short span.
        0 => {
            let (from, to) = span(rng, xml, 8);
            xml.replace_range(from..to, "");
        }
        // Insert a token.
        1 | 2 => {
            let at = boundary(rng, xml);
            xml.insert_str(at, TOKENS[rng.gen_range(0..TOKENS.len())]);
        }
        // Copy a span of the document over, or in front of, another place.
        3 => {
            let (from, to) = span(rng, xml, 40);
            let piece = xml[from..to].to_string();
            let at = boundary(rng, xml);
            let end = if rng.gen_bool(0.5) {
                at
            } else {
                let mut end = (at + piece.len()).min(xml.len());
                while !xml.is_char_boundary(end) {
                    end -= 1;
                }
                end
            };
            xml.replace_range(at..end, &piece);
        }
        // Replace one character by a printable ASCII one.
        4 => {
            let (from, _) = span(rng, xml, 0);
            let len = xml[from..].chars().next().map_or(0, char::len_utf8);
            let c = char::from(rng.gen_range(0x20..0x7fu32) as u8);
            xml.replace_range(from..from + len, c.encode_utf8(&mut [0; 4]));
        }
        // Truncate.
        _ => {
            let at = boundary(rng, xml);
            xml.truncate(at);
        }
    }
}

/// The mutated inputs, the same on every run: one to three stacked
/// mutations of the seed each.
fn inputs() -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(0x00C0_FFEE_0041);
    (0..MUTATIONS)
        .map(|_| {
            let mut xml = SEED.to_string();
            for _ in 0..rng.gen_range(1..4u32) {
                mutate(&mut rng, &mut xml);
            }
            xml
        })
        .collect()
}

/// What ingest made of `xml`: the encoding's hash or the error's text,
/// and the hash of the event stream written back out unless it failed
/// with the same error.
fn fingerprint(xml: &str) -> String {
    match (Doc::from_xml(xml), canonicalize(xml)) {
        (Ok(doc), Ok(text)) => format!(
            "ok {:016x} {:016x}",
            fnv(&column_image(&doc)),
            fnv(text.as_bytes())
        ),
        (Err(e), Err(same)) if e == same => format!("error {e}"),
        (doc, text) => format!(
            "mixed {:?} {:?}",
            doc.map(|d| fnv(&column_image(&d))),
            text.map(|t| fnv(t.as_bytes()))
        ),
    }
}

#[test]
fn the_seed_has_every_construct_and_parses() {
    let doc = Doc::from_xml(SEED).expect("seed parses");
    let (elements, attributes, texts, comments, pis) = doc.kind_counts();
    assert!(elements >= 7 && attributes >= 7 && texts >= 6);
    // The comments and PIs before and after the root element are no
    // nodes of the encoding, which holds the root element's subtree.
    assert_eq!((comments, pis), (1, 1));
    doc.validate().unwrap();
}

#[test]
fn mutated_inputs_reproduce_the_golden_record() {
    let golden: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(golden.len(), MUTATIONS, "one golden line per input");
    let mut refused = 0;
    for (i, (xml, want)) in inputs().iter().zip(&golden).enumerate() {
        let got = fingerprint(xml);
        assert_eq!(&got, want, "input {i}: {xml:?}");
        refused += usize::from(got.starts_with("error "));
    }
    // The loop has teeth both ways: most mutations are caught, and
    // hundreds still parse.
    assert!(refused > MUTATIONS / 2, "{refused} refused");
    assert!(MUTATIONS - refused > MUTATIONS / 10, "{refused} refused");
}

#[test]
fn the_tree_and_the_encoding_accept_the_same_inputs() {
    for (i, xml) in inputs().iter().enumerate() {
        let tree = Document::parse(xml);
        let encoded = Doc::from_xml(xml);
        assert_eq!(
            tree.as_ref().err(),
            encoded.as_ref().err(),
            "input {i}: {xml:?}"
        );
        if let (Ok(tree), Ok(encoded)) = (tree, encoded) {
            let from_tree = Doc::from_document(&tree).unwrap();
            assert_eq!(from_tree.to_bytes(), encoded.to_bytes(), "input {i}");
        }
    }
}

#[test]
fn ingest_holds_a_fixed_multiple_of_its_input() {
    for xml in inputs() {
        let (_, counts) = counting(|| Doc::from_xml(&xml));
        assert!(
            counts.peak <= 8 * xml.len() as u64 + 8192,
            "{} bytes held encoding {} bytes",
            counts.peak,
            xml.len()
        );
    }
}
