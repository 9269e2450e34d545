//! Seeded byte-mutation fuzzing of the `.scj` reader (offline, vendored
//! `rand` only): whatever is done to a valid file, decoding ends in `Ok`
//! with a document that validates, or in a typed error — never a panic —
//! and never holds more than a fixed multiple of the input in memory, so no
//! length field in the file can size an allocation by itself. One
//! hand-corrupted file per rule of the load pass shows each rule refusing.

mod common;

use common::{counting, CountingAlloc};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use staircase_accel::{DecodeError, Doc, EncodingBuilder, NodeKind, MAX_DEPTH};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const MUTATIONS: usize = 2_000;

/// A document with every node kind, multi-byte content and empty strings.
fn seed_document() -> Doc {
    let mut xml = String::from("<?xml version='1.0'?><site><!--catalogue--><?render fast?>");
    for i in 0..40 {
        xml.push_str(&format!(
            "<item id='i{i}' note=''><name>n&#233;e {i} &amp; co</name>\
             <![CDATA[<raw {i}>]]>日本語<empty/></item>"
        ));
    }
    xml.push_str("</site>");
    Doc::from_xml(&xml).expect("seed document parses")
}

/// Offsets of the file's `u32` length fields (`n`, the tag count, each
/// tag's length, the blob's bytes, the string count) and of its string
/// ends, which are lengths in all but name. The seed's tag column is
/// narrow.
fn length_fields(doc: &Doc) -> [Vec<usize>; 2] {
    let n = doc.len();
    let mut at = 12 + n * 3;
    let mut fields = vec![8, at];
    at += 4;
    for (_, name) in doc.tags().iter() {
        fields.push(at);
        at += 4 + name.len();
    }
    at += n * 2;
    let strings = doc.pres().filter(|&v| doc.content(v).is_some()).count();
    let blob: usize = doc
        .pres()
        .filter_map(|v| doc.content(v))
        .map(str::len)
        .sum();
    fields.push(at);
    at += 4 + blob;
    fields.push(at);
    let ends = (0..strings).map(|i| at + 4 + i * 4).collect();
    [fields, ends]
}

fn mutate(rng: &mut SmallRng, good: &[u8], fields: &[Vec<usize>; 2]) -> Vec<u8> {
    let mut bytes = good.to_vec();
    let at = rng.gen_range(0..bytes.len());
    match rng.gen_range(0..5u32) {
        // Flip: one bit, or one whole byte.
        0 => bytes[at] ^= 1 << rng.gen_range(0..8u32),
        1 => bytes[at] = rng.gen::<u64>() as u8,
        // Truncate.
        2 => bytes.truncate(at),
        // Splice: a stretch of the file copied into, or over, another place.
        3 => {
            let from = rng.gen_range(0..bytes.len());
            let len = rng.gen_range(0..(bytes.len() - from).min(64) + 1);
            let piece = bytes[from..from + len].to_vec();
            let end = if rng.gen_bool(0.5) {
                at
            } else {
                (at + len).min(bytes.len())
            };
            bytes.splice(at..end, piece);
        }
        // Length-field edit: off by a little, by a lot, or to a limit.
        _ => {
            let fields = &fields[rng.gen_range(0..2usize)];
            let field = fields[rng.gen_range(0..fields.len())];
            let old = u32::from_le_bytes(bytes[field..field + 4].try_into().unwrap());
            let new = match rng.gen_range(0..5u32) {
                0 => old.wrapping_add(1),
                1 => old.wrapping_sub(1),
                2 => u32::MAX - rng.gen_range(0..4u32),
                3 => rng.gen_range(0..1u32 << 30),
                _ => old.wrapping_mul(2),
            };
            bytes[field..field + 4].copy_from_slice(&new.to_le_bytes());
        }
    }
    bytes
}

#[test]
fn mutated_files_end_in_ok_or_a_typed_error_within_bounded_memory() {
    let doc = seed_document();
    let good = doc.to_bytes();
    let fields = length_fields(&doc);
    assert_eq!(fields[1].last().unwrap() + 4, good.len());
    let mut rng = SmallRng::seed_from_u64(0x5C12_F022);
    let (mut accepted, mut refused) = (0, 0);
    for _ in 0..MUTATIONS {
        let bytes = mutate(&mut rng, &good, &fields);
        let (decoded, counts) = counting(|| Doc::from_bytes(&bytes));
        // A decoded document is about the size of its file; the tag tables
        // cost a few words per name on top.
        assert!(
            counts.peak <= 4 * bytes.len() as u64 + 4096,
            "{} bytes held decoding {} bytes",
            counts.peak,
            bytes.len()
        );
        match decoded {
            // What passes must be safe to read back in full.
            Ok(doc) => {
                accepted += 1;
                assert_eq!(doc.validate(), Ok(()));
                assert!(doc.pres().filter_map(|v| doc.content(v)).count() <= doc.len());
                doc.to_document();
            }
            Err(_) => refused += 1,
        }
    }
    // The loop has teeth both ways: most mutations are caught, and those
    // that only touch content bytes still decode.
    assert!(refused > MUTATIONS / 2, "{refused} refused");
    assert!(accepted > 0, "{accepted} accepted");
}

/// Where the stored columns of `doc`'s file start: `level`, `kind` and the
/// (narrow) `tag` column.
fn columns(doc: &Doc) -> [usize; 3] {
    let n = doc.len();
    let names: usize = doc.tags().iter().map(|(_, s)| 4 + s.len()).sum();
    [12, 12 + 2 * n, 12 + 3 * n + 4 + names]
}

#[test]
fn each_rule_of_the_load_pass_refuses_a_file_with_a_typed_error() {
    // a, @x, b, "t" under b, c, "u": levels 0 1 1 2 1 1, strings "1" "t" "u".
    let doc = Doc::from_xml("<a x='1'><b>t</b><c/>u</a>").unwrap();
    let good = doc.to_bytes().to_vec();
    let [level, kind, tag] = columns(&doc);
    let edit = |at: usize, bytes: &[u8]| {
        let mut file = good.clone();
        file[at..at + bytes.len()].copy_from_slice(bytes);
        file
    };
    // The deepest element a document may hold, with a text child one
    // level down: turning that text into an element nests it too deep.
    let mut b = EncodingBuilder::without_content();
    for _ in 0..MAX_DEPTH {
        b.open_element("a");
    }
    b.text("t");
    for _ in 0..MAX_DEPTH {
        b.close_element();
    }
    let deep = b.finish();
    let [_, deep_kind, deep_tag] = columns(&deep);

    let element = NodeKind::Element as u8;
    let cases: Vec<(&str, Vec<u8>, &str)> = vec![
        ("level(0) = 0", edit(level, &[1, 0]), "level(0) = 1"),
        (
            "only pre 0 at level 0",
            edit(level + 2 * 2, &[0, 0]),
            "second top-level node",
        ),
        (
            "level(v) <= level(v-1) + 1",
            edit(level + 2 * 4, &[4, 0]),
            "more than one below",
        ),
        (
            "deeper only under an element",
            edit(level + 2 * 4, &[3, 0]),
            "only elements have children",
        ),
        (
            "attributes before other children",
            edit(kind + 4, &[NodeKind::Attribute as u8]),
            "does not follow its element",
        ),
        (
            "a kind is a node kind",
            edit(kind + 3, &[5]),
            "unknown kind 5",
        ),
        (
            "depth <= MAX_DEPTH",
            {
                let mut file = deep.to_bytes().to_vec();
                // Node MAX_DEPTH, the text, becomes an element named "a".
                file[deep_kind + MAX_DEPTH] = element;
                file[deep_tag + 2 * MAX_DEPTH..][..2].fill(0);
                file
            },
            "nested deeper than 65535 levels",
        ),
        (
            "tag id inside the table",
            edit(tag + 2 * 2, &[4, 0]),
            "tag id 4 of node 2",
        ),
        (
            "an element has a name",
            edit(tag + 2 * 2, &[0xff, 0xff]),
            "tag id 4294967295 of node 2",
        ),
        (
            "content: a string per node that is no element",
            edit(kind + 4, &[NodeKind::Comment as u8]),
            "but the arena holds 3 strings",
        ),
    ];
    for (rule, file, why) in cases {
        match Doc::from_bytes(&file) {
            Err(e @ DecodeError::Corrupt(_)) => {
                let text = e.to_string();
                assert!(text.starts_with("corrupt document: "), "{rule}: {text}");
                assert!(text.contains(why), "{rule}: {text}");
            }
            other => panic!("{rule}: expected Corrupt, got {:?}", other.map(|d| d.len())),
        }
    }

    // A version-2 file: its header is the same shape, its version is not.
    let v2 = edit(4, &2u32.to_le_bytes());
    let err = Doc::from_bytes(&v2).unwrap_err();
    assert_eq!(err, DecodeError::UnsupportedVersion(2));
    assert!(
        err.to_string()
            .contains("re-encode the XML with `xq --encode`"),
        "{err}"
    );
    // Every edit above was needed: the untouched files decode.
    for file in [good, deep.to_bytes().to_vec()] {
        Doc::from_bytes(&file).unwrap().validate().unwrap();
    }
}
