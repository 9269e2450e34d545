//! Seeded byte-mutation fuzzing of the wire decoder (offline, vendored
//! `rand` only): whatever is done to a stream of valid frames, reading it
//! back with `read_frame` and decoding every payload as a `QUERY`, `DONE`,
//! `ERROR` and `CHUNK` ends in `Ok` or a typed error — never a panic — and
//! never holds more than a small multiple of `max_frame` in memory, so no
//! length field on the wire can size an allocation by itself.

#[path = "../../accel/tests/common/mod.rs"]
mod common;

use common::{counting, CountingAlloc};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use staircase_server::protocol::{
    code, done_payload, encode_frame, error_payload, flags, frame, ids_payload, parse_done_payload,
    parse_error_payload, parse_ids_payload, parse_query_payload, query_payload,
    query_payload_deadline, read_frame,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const MUTATIONS: usize = 4_000;

/// The reader's frame limit: small, so a mutated length field easily
/// lands on either side of it.
const MAX_FRAME: usize = 4096;

/// One stream of every frame kind, back to back, and where each frame's
/// header starts.
fn seed_stream() -> (Vec<u8>, Vec<usize>) {
    let frames = [
        encode_frame(
            frame::QUERY,
            &query_payload(flags::RENDER, "auto", "//open_auction[bidder]/@id"),
        ),
        encode_frame(
            frame::QUERY,
            &query_payload_deadline(flags::COUNT_ONLY, Some(250), "staircase", "//bidder"),
        ),
        encode_frame(frame::CANCEL, &[]),
        encode_frame(frame::CHUNK, &ids_payload(&[0, 7, 1_000_000])),
        encode_frame(frame::RCHUNK, "pre        3  text \"日本語\"\n".as_bytes()),
        encode_frame(frame::DONE, &done_payload(3, 1234, 1)),
        encode_frame(frame::ERROR, &error_payload(code::PARSE, "bad step")),
        encode_frame(frame::STATS, &[]),
    ];
    let mut stream = Vec::new();
    let mut headers = Vec::new();
    for f in frames {
        headers.push(stream.len());
        stream.extend_from_slice(&f);
    }
    (stream, headers)
}

fn mutate(rng: &mut SmallRng, good: &[u8], headers: &[usize]) -> Vec<u8> {
    let mut bytes = good.to_vec();
    let at = rng.gen_range(0..bytes.len());
    match rng.gen_range(0..6u32) {
        // Flip: one bit, or one whole byte.
        0 => bytes[at] ^= 1 << rng.gen_range(0..8u32),
        1 => bytes[at] = rng.gen::<u64>() as u8,
        // Truncate.
        2 => bytes.truncate(at),
        // Splice: a stretch of the stream copied into, or over, another
        // place.
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
        // A QUERY's flag byte or engine-name length: deadline flag on or
        // off, the name running short or past the payload.
        4 => {
            let payload = headers[rng.gen_range(0..2usize)] + 5;
            let field = payload + rng.gen_range(0..6usize);
            bytes[field] = match rng.gen_range(0..3u32) {
                0 => bytes[field] ^ flags::DEADLINE,
                1 => bytes[field].wrapping_add(1),
                _ => u8::MAX,
            };
        }
        // Length-field edit: off by a little, by a lot, or to a limit.
        _ => {
            let field = headers[rng.gen_range(0..headers.len())];
            let old = u32::from_be_bytes(bytes[field..field + 4].try_into().unwrap());
            let new = match rng.gen_range(0..5u32) {
                0 => old.wrapping_add(1),
                1 => old.wrapping_sub(1),
                2 => u32::MAX - rng.gen_range(0..4u32),
                3 => rng.gen_range(0..(MAX_FRAME as u32) * 2),
                _ => rng.gen_range(0..1u32 << 30),
            };
            bytes[field..field + 4].copy_from_slice(&new.to_be_bytes());
        }
    }
    bytes
}

/// What one decoded stream came to.
#[derive(Default)]
struct Tally {
    frames: usize,
    queries: usize,
}

/// Reads frames until the stream ends or breaks, decoding each payload
/// every way a peer might.
fn decode(mut stream: &[u8]) -> Tally {
    let mut tally = Tally::default();
    loop {
        match read_frame(&mut stream, MAX_FRAME) {
            Ok(Some(f)) => {
                tally.frames += 1;
                assert!(f.payload.len() <= MAX_FRAME);
                // Every payload goes through every decoder; only a
                // QUERY frame's counts as a decoded query.
                if let Ok((_, _, engine, expr)) = parse_query_payload(&f.payload) {
                    assert!(engine.len() + expr.len() < f.payload.len());
                    tally.queries += usize::from(f.ty == frame::QUERY);
                }
                let _ = parse_done_payload(&f.payload);
                let _ = parse_error_payload(&f.payload);
                if let Ok(ids) = parse_ids_payload(&f.payload) {
                    assert_eq!(ids.len() * 4, f.payload.len());
                }
            }
            Ok(None) | Err(_) => return tally,
        }
    }
}

#[test]
fn mutated_frames_end_in_ok_or_a_typed_error_within_bounded_memory() {
    let (good, headers) = seed_stream();
    let clean = decode(&good);
    assert_eq!((clean.frames, clean.queries), (headers.len(), 2));
    let mut rng = SmallRng::seed_from_u64(0x3173_F4A3);
    let (mut broken, mut queries) = (0, 0);
    for _ in 0..MUTATIONS {
        let bytes = mutate(&mut rng, &good, &headers);
        let (tally, counts) = counting(|| decode(&bytes));
        // One payload, one id vector decoded from it, and error text.
        assert!(
            counts.peak <= 2 * MAX_FRAME as u64 + 1024,
            "{} bytes held decoding {} bytes",
            counts.peak,
            bytes.len()
        );
        if tally.frames < headers.len() || tally.queries < 2 {
            broken += 1;
        }
        queries += tally.queries;
    }
    // The loop has teeth both ways: many mutations break the stream or a
    // query, and most queries still decode.
    assert!(broken > MUTATIONS / 4, "{broken} streams broken");
    assert!(queries > MUTATIONS, "{queries} queries decoded");
}
