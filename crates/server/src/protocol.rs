//! The wire protocol: length-prefixed frames, typed error codes, and
//! the payload encodings both ends share.
//!
//! Every frame on the wire is
//!
//! ```text
//! ┌──────────────┬─────────┬───────────────────┐
//! │ len: u32 BE  │ ty: u8  │ payload: len bytes│
//! └──────────────┴─────────┴───────────────────┘
//! ```
//!
//! where `len` counts the payload only (the 5-byte header is fixed) and
//! `ty` is one of [`frame`]'s constants. Frames larger than the
//! server's `max_frame` are answered with an
//! [`code::OVERSIZED`] error and the connection is closed — a length
//! that huge is garbage, not a request worth resynchronizing past.
//!
//! ## Requests (client → server)
//!
//! * [`frame::QUERY`] — payload `[flags: u8][deadline_ms: u32 BE, only
//!   when `flags & DEADLINE`][engine_len: u8][engine name][XPath
//!   expression…]`. Flags: [`flags::RENDER`] asks for rendered node
//!   lines instead of raw pre ranks, [`flags::COUNT_ONLY`] suppresses
//!   result chunks entirely (the [`frame::DONE`] frame carries the
//!   total), [`flags::DEADLINE`] says a 4-byte per-query deadline in
//!   milliseconds follows the flag byte (the server clamps it to its
//!   own execution timeout). The engine name is one of `staircase |
//!   pushdown | fragmented | naive | sql | auto` (see
//!   [`engine_by_name`]).
//! * [`frame::CANCEL`] — no payload; cancels the connection's in-flight
//!   query. The query answers with an [`code::CANCELLED`] error frame
//!   (unless it won the race and completed); the connection survives.
//!   The server looks for it at most once a millisecond while the query
//!   runs, and before it starts; it cancels the query right before it
//!   (behind a pipelined `QUERY`, that one). A `CANCEL` with nothing in
//!   flight is ignored.
//! * [`frame::STATS`] — no payload; the server answers with one
//!   [`frame::RCHUNK`] of `key value` metric lines and a `DONE`.
//! * [`frame::SHUTDOWN`] — no payload; the server acknowledges with
//!   `DONE` and then shuts down gracefully (stops accepting, finishes
//!   running queries, exits).
//!
//! ## Responses (server → client)
//!
//! A query answer is **streamed**: zero or more chunk frames followed
//! by exactly one terminal frame ([`frame::DONE`] or [`frame::ERROR`]),
//! so a client can process results incrementally instead of waiting
//! for — or buffering — the whole node vector.
//!
//! * [`frame::CHUNK`] — a run of result pre ranks, 4 bytes big-endian
//!   each, in document order.
//! * [`frame::RCHUNK`] — UTF-8 text: rendered result lines (or metric
//!   lines for `STATS`), `\n`-separated.
//! * [`frame::DONE`] — `[total: u32][touched: u64][batch: u32]`: the
//!   result cardinality, the nodes touched evaluating it, and a batch
//!   size that is always 1 (every query runs alone; the field stays for
//!   wire compatibility).
//! * [`frame::ERROR`] — `[code: u8][message…]`; see [`code`]. Parse
//!   ([`code::PARSE`]), engine ([`code::ENGINE`]), busy
//!   ([`code::BUSY`]), shutdown ([`code::SHUTTING_DOWN`]), and the
//!   governed execution errors — [`code::TIMEOUT`] for an expired
//!   query deadline, [`code::RESOURCE`] for an exhausted cost budget,
//!   [`code::CANCELLED`] for a client cancel — leave the connection
//!   usable; framing errors ([`code::MALFORMED`] on an undecodable
//!   *frame*, [`code::OVERSIZED`], and `TIMEOUT` for a *read* timeout
//!   with no query in flight) are followed by a close. A malformed
//!   *payload* inside a well-framed message is answered with
//!   `MALFORMED` and the connection survives — the frame boundary was
//!   never lost.

use std::io::{Read, Write};

use staircase_accel::{Doc, NodeKind, Pre};
use staircase_xpath::Engine;

/// Frame type bytes.
pub mod frame {
    /// Client → server: evaluate one XPath expression.
    pub const QUERY: u8 = 0x01;
    /// Server → client: a run of big-endian `u32` result pre ranks.
    pub const CHUNK: u8 = 0x02;
    /// Server → client: rendered UTF-8 result (or metric) lines.
    pub const RCHUNK: u8 = 0x03;
    /// Server → client: terminal success frame (total, touched, batch).
    pub const DONE: u8 = 0x04;
    /// Server → client: terminal error frame (code, message).
    pub const ERROR: u8 = 0x05;
    /// Client → server: report server metrics.
    pub const STATS: u8 = 0x06;
    /// Client → server: cancel the connection's in-flight query.
    pub const CANCEL: u8 = 0x07;
    /// Client → server: graceful shutdown request.
    pub const SHUTDOWN: u8 = 0x08;
}

/// Request flag bits (first byte of a [`frame::QUERY`] payload).
pub mod flags {
    /// Stream rendered node lines ([`frame::RCHUNK`](super::frame::RCHUNK))
    /// instead of raw pre ranks.
    pub const RENDER: u8 = 0x01;
    /// Send no result chunks at all; the client only wants the
    /// cardinality in the [`frame::DONE`](super::frame::DONE) frame.
    pub const COUNT_ONLY: u8 = 0x02;
    /// A 4-byte big-endian per-query deadline (milliseconds) follows
    /// the flag byte. The server enforces the smaller of this and its
    /// own execution timeout.
    pub const DEADLINE: u8 = 0x04;
}

/// Typed error codes (first byte of a [`frame::ERROR`] payload).
pub mod code {
    /// The XPath expression did not parse. Connection survives.
    pub const PARSE: u8 = 1;
    /// The server's execution slots are all taken — back off and
    /// retry. Connection survives.
    pub const BUSY: u8 = 2;
    /// The frame or payload did not decode. The connection survives a
    /// malformed payload (the frame boundary held) and is closed after
    /// a malformed frame.
    pub const MALFORMED: u8 = 3;
    /// The announced frame length exceeds the server's limit.
    /// Connection closes.
    pub const OVERSIZED: u8 = 4;
    /// The server is draining for shutdown and admits no new queries.
    /// Connection survives (until the server exits).
    pub const SHUTTING_DOWN: u8 = 5;
    /// The query's execution failed internally (a caught panic). Only
    /// that query fails; the connection survives.
    pub const INTERNAL: u8 = 6;
    /// A deadline expired. For a *query* deadline (the client's
    /// [`flags::DEADLINE`](super::flags::DEADLINE) or the server's
    /// execution timeout) the connection survives; for a *read*
    /// timeout — the connection idled or dribbled a partial frame —
    /// it closes.
    pub const TIMEOUT: u8 = 7;
    /// The request named an unknown engine. Connection survives.
    pub const ENGINE: u8 = 8;
    /// The query exhausted a resource budget (cost ceiling) and was
    /// stopped. Connection survives.
    pub const RESOURCE: u8 = 9;
    /// The query was cancelled — a [`frame::CANCEL`](super::frame::CANCEL),
    /// or the client hung up mid-query. Connection survives (when it is
    /// still there).
    pub const CANCELLED: u8 = 10;
}

/// Frame header size: `u32` payload length + `u8` frame type.
pub const HEADER_LEN: usize = 5;

/// A decoded frame: type byte plus raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// One of the [`frame`] constants (unknown values are delivered and
    /// left to the caller to reject).
    pub ty: u8,
    /// The raw payload bytes.
    pub payload: Vec<u8>,
}

/// Why reading a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (including timeouts).
    Io(std::io::Error),
    /// The announced payload length exceeds the reader's limit.
    Oversized {
        /// The announced payload length.
        len: u32,
        /// The reader's limit.
        max: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Reads one frame, blocking. `Ok(None)` is a clean EOF — the peer
/// closed between frames.
///
/// # Errors
///
/// [`FrameError::Oversized`] when the announced length exceeds
/// `max_frame` (nothing past the header is consumed);
/// [`FrameError::Io`] on stream errors, including an EOF that cuts a
/// frame in half.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Option<Frame>, FrameError> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, max_frame, &mut payload)?.map(|ty| Frame { ty, payload }))
}

/// [`read_frame`] into a caller-owned payload buffer, which is
/// overwritten (its capacity is kept, so a reader that reuses it stops
/// allocating once it has seen its largest frame). Returns the frame
/// type; errors and the clean EOF as for [`read_frame`].
pub(crate) fn read_frame_into(
    r: &mut impl Read,
    max_frame: usize,
    payload: &mut Vec<u8>,
) -> Result<Option<u8>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    // A clean EOF before the first header byte is a normal close.
    match r.read(&mut header[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(e.into()),
    }
    r.read_exact(&mut header[1..])?;
    let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]);
    if len as usize > max_frame {
        return Err(FrameError::Oversized {
            len,
            max: max_frame,
        });
    }
    payload.clear();
    payload.resize(len as usize, 0);
    r.read_exact(payload)?;
    Ok(Some(header[4]))
}

/// Appends one frame (header + payload) to `buf` — the building block
/// of the server's per-connection output buffer, where several frames
/// leave in one `write`.
pub(crate) fn push_frame(buf: &mut Vec<u8>, ty: u8, payload: &[u8]) {
    buf.reserve(HEADER_LEN + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.push(ty);
    buf.extend_from_slice(payload);
}

/// Appends a frame header whose length is not known yet and returns
/// where the frame starts; write the payload straight into `buf`, then
/// [`end_frame`] patches the length in.
pub(crate) fn begin_frame(buf: &mut Vec<u8>, ty: u8) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0, 0, 0, 0, ty]);
    start
}

/// Closes the frame opened at `start` by [`begin_frame`].
pub(crate) fn end_frame(buf: &mut [u8], start: usize) {
    let len = (buf.len() - start - HEADER_LEN) as u32;
    buf[start..start + 4].copy_from_slice(&len.to_be_bytes());
}

/// Appends pre ranks as big-endian `u32`s — a [`frame::CHUNK`] payload
/// written in place, without an intermediate vector.
pub(crate) fn push_ids(buf: &mut Vec<u8>, ids: &[Pre]) {
    let start = buf.len();
    buf.resize(start + ids.len() * 4, 0);
    for (slot, id) in buf[start..].chunks_exact_mut(4).zip(ids) {
        slot.copy_from_slice(&id.to_be_bytes());
    }
}

/// Encodes a frame (header + payload) into one buffer, ready for a
/// single `write_all`.
pub fn encode_frame(ty: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    push_frame(&mut buf, ty, payload);
    buf
}

/// Writes one frame.
///
/// # Errors
///
/// Propagates the stream's error (including write timeouts).
pub fn write_frame(w: &mut impl Write, ty: u8, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&encode_frame(ty, payload))
}

/// Builds a [`frame::QUERY`] payload without a per-query deadline.
pub fn query_payload(flags: u8, engine: &str, expr: &str) -> Vec<u8> {
    query_payload_deadline(flags, None, engine, expr)
}

/// Builds a [`frame::QUERY`] payload; `deadline_ms` (when given) sets
/// [`flags::DEADLINE`] and inserts the 4-byte deadline field.
pub fn query_payload_deadline(
    flags: u8,
    deadline_ms: Option<u32>,
    engine: &str,
    expr: &str,
) -> Vec<u8> {
    let mut p = Vec::with_capacity(6 + engine.len() + expr.len());
    push_query(&mut p, flags, deadline_ms, engine, expr);
    p
}

/// Appends a [`frame::QUERY`] payload to `buf` — the client writes its
/// requests into one buffer it keeps.
pub(crate) fn push_query(
    buf: &mut Vec<u8>,
    flags: u8,
    deadline_ms: Option<u32>,
    engine: &str,
    expr: &str,
) {
    match deadline_ms {
        Some(ms) => {
            buf.push(flags | self::flags::DEADLINE);
            buf.extend_from_slice(&ms.to_be_bytes());
        }
        None => buf.push(flags & !self::flags::DEADLINE),
    }
    buf.push(engine.len() as u8);
    buf.extend_from_slice(engine.as_bytes());
    buf.extend_from_slice(expr.as_bytes());
}

/// Decodes a [`frame::QUERY`] payload into `(flags, deadline_ms,
/// engine, expr)`; `deadline_ms` is `Some` exactly when the payload
/// carries [`flags::DEADLINE`].
///
/// # Errors
///
/// A human-readable description of the defect (truncated payload,
/// engine-name length past the end, non-UTF-8 text).
pub fn parse_query_payload(payload: &[u8]) -> Result<(u8, Option<u32>, &str, &str), String> {
    if payload.is_empty() {
        return Err("query payload is empty".to_string());
    }
    let flags = payload[0];
    let mut rest = &payload[1..];
    let deadline_ms = if flags & self::flags::DEADLINE != 0 {
        if rest.len() < 4 {
            return Err(format!(
                "deadline flag set but only {} payload bytes follow the flags",
                rest.len()
            ));
        }
        let ms = u32::from_be_bytes(rest[..4].try_into().expect("4 bytes"));
        rest = &rest[4..];
        Some(ms)
    } else {
        None
    };
    let (&engine_len_byte, rest) = rest
        .split_first()
        .ok_or_else(|| format!("query payload of {} bytes is truncated", payload.len()))?;
    let engine_len = engine_len_byte as usize;
    if engine_len > rest.len() {
        return Err(format!(
            "engine name of {engine_len} bytes overruns the {}-byte payload",
            payload.len()
        ));
    }
    let engine = std::str::from_utf8(&rest[..engine_len])
        .map_err(|_| "engine name is not UTF-8".to_string())?;
    let expr = std::str::from_utf8(&rest[engine_len..])
        .map_err(|_| "expression is not UTF-8".to_string())?;
    Ok((flags, deadline_ms, engine, expr))
}

/// Builds a [`frame::DONE`] payload.
pub fn done_payload(total: u32, touched: u64, batch: u32) -> Vec<u8> {
    let mut p = Vec::with_capacity(16);
    p.extend_from_slice(&total.to_be_bytes());
    p.extend_from_slice(&touched.to_be_bytes());
    p.extend_from_slice(&batch.to_be_bytes());
    p
}

/// Decodes a [`frame::DONE`] payload into `(total, touched, batch)`.
///
/// # Errors
///
/// A description of the defect when the payload is not 16 bytes.
pub fn parse_done_payload(payload: &[u8]) -> Result<(u32, u64, u32), String> {
    if payload.len() != 16 {
        return Err(format!("done payload is {} bytes, not 16", payload.len()));
    }
    let total = u32::from_be_bytes(payload[0..4].try_into().expect("4 bytes"));
    let touched = u64::from_be_bytes(payload[4..12].try_into().expect("8 bytes"));
    let batch = u32::from_be_bytes(payload[12..16].try_into().expect("4 bytes"));
    Ok((total, touched, batch))
}

/// Builds a [`frame::ERROR`] payload.
pub fn error_payload(code: u8, message: &str) -> Vec<u8> {
    let mut p = Vec::with_capacity(1 + message.len());
    p.push(code);
    p.extend_from_slice(message.as_bytes());
    p
}

/// Decodes a [`frame::ERROR`] payload into `(code, message)`.
///
/// # Errors
///
/// A description of the defect when the payload is empty or the
/// message is not UTF-8.
pub fn parse_error_payload(payload: &[u8]) -> Result<(u8, &str), String> {
    let (&code, msg) = payload
        .split_first()
        .ok_or_else(|| "error payload is empty".to_string())?;
    let message = std::str::from_utf8(msg).map_err(|_| "error message is not UTF-8".to_string())?;
    Ok((code, message))
}

/// Builds a [`frame::CHUNK`] payload from a run of pre ranks.
pub fn ids_payload(ids: &[Pre]) -> Vec<u8> {
    let mut p = Vec::new();
    push_ids(&mut p, ids);
    p
}

/// Decodes a [`frame::CHUNK`] payload back into pre ranks.
///
/// # Errors
///
/// A description of the defect when the payload length is not a
/// multiple of four.
pub fn parse_ids_payload(payload: &[u8]) -> Result<Vec<Pre>, String> {
    let mut ids = Vec::new();
    decode_ids_into(payload, &mut ids)?;
    Ok(ids)
}

/// [`parse_ids_payload`] appending to `out` — how the client decodes a
/// chunk straight into the reply's vector.
pub(crate) fn decode_ids_into(payload: &[u8], out: &mut Vec<Pre>) -> Result<(), String> {
    if !payload.len().is_multiple_of(4) {
        return Err(format!(
            "id chunk of {} bytes is not a whole number of u32s",
            payload.len()
        ));
    }
    out.extend(
        payload
            .chunks_exact(4)
            .map(|c| Pre::from_be_bytes(c.try_into().expect("4 bytes"))),
    );
    Ok(())
}

/// Resolves a wire engine name to a validated [`Engine`] — `staircase`,
/// `pushdown`, `fragmented`, `naive`, `sql` and `auto`, at their default
/// configurations (variants are a client-side concern; the wire names
/// pick policies, not knobs). `xq --engine` accepts these six plus
/// `twig` and `adaptive`, which are local-only; `adaptive` is another
/// name for `auto`, so the wire name `auto` is the same engine.
pub fn engine_by_name(name: &str) -> Option<Engine> {
    match name {
        "staircase" => Some(Engine::default()),
        "pushdown" => Engine::staircase().pushdown(true).build().ok(),
        "fragmented" => Engine::staircase().fragmented(true).build().ok(),
        "naive" => Some(Engine::naive()),
        "sql" => Engine::sql()
            .eq1_window(true)
            .early_nametest(true)
            .build()
            .ok(),
        "auto" => Some(Engine::auto()),
        _ => None,
    }
}

/// Renders one result node the way `xq` prints it — shared by the
/// server's [`flags::RENDER`] path and `xq`'s local mode, so remote and
/// local output are byte-identical.
pub fn render_node(doc: &Doc, v: Pre) -> String {
    let mut buf = Vec::with_capacity(48);
    write_node(&mut buf, doc, v);
    String::from_utf8(buf).expect("rendered from UTF-8 parts")
}

/// The full output line for one result node (`pre <rank>  <rendered>`).
pub fn render_line(doc: &Doc, v: Pre) -> String {
    let mut buf = Vec::with_capacity(64);
    write_line(&mut buf, doc, v);
    String::from_utf8(buf).expect("rendered from UTF-8 parts")
}

/// Appends [`render_line`]'s text (no newline) to `buf` — how the server
/// renders straight into its frame buffer, with no `String` per node.
pub fn write_line(buf: &mut Vec<u8>, doc: &Doc, v: Pre) {
    buf.extend_from_slice(b"pre ");
    write_rank(buf, v);
    buf.extend_from_slice(b"  ");
    write_node(buf, doc, v);
}

/// `v` in decimal, right-aligned in eight columns (`{v:>8}`), without
/// `fmt`: the server renders every node of a rendered reply through here.
fn write_rank(buf: &mut Vec<u8>, mut v: Pre) {
    // `u32::MAX` has ten digits; the unused front stays blank.
    let mut text = [b' '; 10];
    let mut first = text.len();
    loop {
        first -= 1;
        text[first] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&text[first.min(text.len() - 8)..]);
}

fn write_node(buf: &mut Vec<u8>, doc: &Doc, v: Pre) {
    let name = || doc.tag_name(v).unwrap_or("?");
    let content = || doc.content(v).unwrap_or("");
    // Writing into a `Vec` cannot fail.
    let _ = match doc.kind(v) {
        NodeKind::Element => {
            buf.push(b'<');
            buf.extend_from_slice(name().as_bytes());
            buf.push(b'>');
            Ok(())
        }
        NodeKind::Attribute => write!(buf, "@{}={:?}", name(), content()),
        NodeKind::Text => write!(buf, "text {:?}", truncate(content())),
        NodeKind::Comment => write!(buf, "comment {:?}", truncate(content())),
        NodeKind::Pi => write!(buf, "pi <?{}?>", name()),
    };
}

/// The longest prefix of `s` that ends at the first char boundary at or
/// past 40 bytes (all of `s` when it is shorter).
fn truncate(s: &str) -> &str {
    let end = (40..s.len()).find(|&i| s.is_char_boundary(i));
    &s[..end.unwrap_or(s.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let payload = query_payload(flags::RENDER, "auto", "//bidder");
        let bytes = encode_frame(frame::QUERY, &payload);
        let mut cursor = &bytes[..];
        let f = read_frame(&mut cursor, 1 << 20).unwrap().unwrap();
        assert_eq!(f.ty, frame::QUERY);
        let (fl, deadline, engine, expr) = parse_query_payload(&f.payload).unwrap();
        assert_eq!(
            (fl, deadline, engine, expr),
            (flags::RENDER, None, "auto", "//bidder")
        );
    }

    #[test]
    fn deadline_payloads_round_trip() {
        let payload = query_payload_deadline(flags::COUNT_ONLY, Some(250), "auto", "//bidder");
        let (fl, deadline, engine, expr) = parse_query_payload(&payload).unwrap();
        assert_eq!(fl & flags::COUNT_ONLY, flags::COUNT_ONLY);
        assert_eq!(fl & flags::DEADLINE, flags::DEADLINE);
        assert_eq!((deadline, engine, expr), (Some(250), "auto", "//bidder"));
        // The deadline flag without its 4-byte field is malformed.
        assert!(parse_query_payload(&[flags::DEADLINE, 0, 1]).is_err());
    }

    #[test]
    fn eof_between_frames_is_clean() {
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty, 1024).unwrap().is_none());
    }

    #[test]
    fn eof_inside_a_frame_is_an_error() {
        let bytes = encode_frame(frame::QUERY, &[0u8; 10]);
        let mut cut = &bytes[..7];
        assert!(matches!(read_frame(&mut cut, 1024), Err(FrameError::Io(_))));
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        bytes.push(frame::QUERY);
        let mut cursor = &bytes[..];
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(FrameError::Oversized {
                len: u32::MAX,
                max: 1024
            })
        ));
    }

    #[test]
    fn done_and_error_payloads_round_trip() {
        let (t, n, b) = parse_done_payload(&done_payload(7, 1234, 3)).unwrap();
        assert_eq!((t, n, b), (7, 1234, 3));
        let err = error_payload(code::BUSY, "full");
        let (c, m) = parse_error_payload(&err).unwrap();
        assert_eq!((c, m), (code::BUSY, "full"));
        assert!(parse_done_payload(&[0; 3]).is_err());
        assert!(parse_error_payload(&[]).is_err());
    }

    #[test]
    fn id_chunks_round_trip() {
        let ids = vec![0u32, 5, 1_000_000];
        assert_eq!(parse_ids_payload(&ids_payload(&ids)).unwrap(), ids);
        assert!(parse_ids_payload(&[1, 2, 3]).is_err());
    }

    #[test]
    fn malformed_query_payloads_are_described() {
        assert!(parse_query_payload(&[]).is_err());
        // A lone flag byte has no engine-length byte.
        assert!(parse_query_payload(&[0]).is_err());
        // Engine length pointing past the end of the payload.
        assert!(parse_query_payload(&[0, 200, b'a']).is_err());
        // Non-UTF-8 expression.
        assert!(parse_query_payload(&[0, 1, b'a', 0xFF, 0xFE]).is_err());
    }

    #[test]
    fn truncate_cuts_at_the_first_boundary_past_forty_bytes() {
        assert_eq!(truncate(""), "");
        assert_eq!(truncate("1"), "1");
        let forty = "0123456789".repeat(4);
        assert_eq!(truncate(&forty), forty);
        assert_eq!(truncate(&format!("{forty}x")), forty);
        // A character straddling byte 40 is kept whole.
        let straddle = format!("{}\u{65e5}\u{672c}", &forty[..39]);
        assert_eq!(truncate(&straddle), &straddle[..42]);
        assert_eq!(truncate(&straddle[..42]), &straddle[..42]);
        let wide = "\u{e9}".repeat(30);
        assert_eq!(truncate(&wide), &wide[..40]);
    }

    #[test]
    fn short_text_renders_whole() {
        let doc = Doc::from_xml("<a>world &amp; more<increase>1</increase><!--c--></a>").unwrap();
        assert_eq!(render_node(&doc, 1), "text \"world & more\"");
        assert_eq!(render_node(&doc, 3), "text \"1\"");
        assert_eq!(render_node(&doc, 4), "comment \"c\"");
    }

    #[test]
    fn rendering_matches_the_format_text_for_every_kind_and_rank_width() {
        // The text `write_line` produced through `fmt`, kept as the reference.
        let reference = |doc: &Doc, v: Pre| {
            let name = doc.tag_name(v).unwrap_or("?");
            let content = doc.content(v).unwrap_or("");
            let node = match doc.kind(v) {
                NodeKind::Element => format!("<{name}>"),
                NodeKind::Attribute => format!("@{name}={content:?}"),
                NodeKind::Text => format!("text {:?}", truncate(content)),
                NodeKind::Comment => format!("comment {:?}", truncate(content)),
                NodeKind::Pi => format!("pi <?{name}?>"),
            };
            format!("pre {v:>8}  {node}")
        };
        let doc = Doc::from_xml(r#"<a id="x&quot;1"><!--c "q"--><?p d?>caf&#233; &amp; t<b/></a>"#)
            .unwrap();
        let mut kinds = Vec::new();
        for v in 0..doc.len() as Pre {
            assert_eq!(render_line(&doc, v), reference(&doc, v), "node {v}");
            kinds.push(doc.kind(v));
        }
        for kind in [
            NodeKind::Element,
            NodeKind::Attribute,
            NodeKind::Text,
            NodeKind::Comment,
            NodeKind::Pi,
        ] {
            assert!(kinds.contains(&kind), "{kind:?} not covered");
        }
        for v in [
            0,
            1,
            9,
            10,
            1_234_567,
            9_999_999,
            12_345_678,
            123_456_789,
            u32::MAX,
        ] {
            let mut buf = Vec::new();
            write_rank(&mut buf, v);
            assert_eq!(String::from_utf8(buf).unwrap(), format!("{v:>8}"));
        }
    }

    #[test]
    fn every_wire_engine_name_resolves() {
        for name in [
            "staircase",
            "pushdown",
            "fragmented",
            "naive",
            "sql",
            "auto",
        ] {
            assert!(engine_by_name(name).is_some(), "{name}");
        }
        assert!(engine_by_name("warp-drive").is_none());
    }
}
