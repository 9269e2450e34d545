//! Seeded byte-mutation fuzzing of the `.scj` reader (offline, vendored
//! `rand` only): whatever is done to a valid file, decoding plus validation
//! ends in `Ok` or a typed error — never a panic — and never holds more
//! than a fixed multiple of the input in memory, so no length field in the
//! file can size an allocation by itself.

mod common;

use common::{counting, CountingAlloc};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use staircase_accel::{DecodeError, Doc};

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

/// Offsets of the file's `u32` length fields (`n`, height, tag count, each
/// tag's length, string count, blob bytes, content flag) and of its string
/// ends, which are lengths in all but name.
fn length_fields(doc: &Doc) -> [Vec<usize>; 2] {
    let mut at = 16 + doc.len() * 15;
    let mut fields = vec![8, 12, at];
    at += 4;
    for (_, name) in doc.tags().iter() {
        fields.push(at);
        at += 4 + name.len();
    }
    let strings = doc.pres().filter(|&v| doc.content(v).is_some()).count();
    let blob: usize = doc
        .pres()
        .filter_map(|v| doc.content(v))
        .map(str::len)
        .sum();
    fields.push(at);
    let ends = (0..strings).map(|i| at + 4 + i * 4).collect();
    at += 4 + strings * 4;
    fields.push(at);
    at += 4 + blob;
    fields.push(at);
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
    assert_eq!(fields[0].last().unwrap() + 4 + doc.len() * 4, good.len());
    let mut rng = SmallRng::seed_from_u64(0x5C12_F022);
    let (mut accepted, mut refused) = (0, 0);
    for _ in 0..MUTATIONS {
        let bytes = mutate(&mut rng, &good, &fields);
        let (decoded, counts) = counting(|| {
            let doc = Doc::from_bytes(&bytes)?;
            doc.validate().map_err(DecodeError::Corrupt)?;
            Ok::<Doc, DecodeError>(doc)
        });
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
