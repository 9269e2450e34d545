//! A blocking client for the frame protocol — what `xq --connect`
//! speaks.

use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use staircase_accel::Pre;

use crate::protocol::{
    self, begin_frame, code, decode_ids_into, end_frame, flags, frame, parse_done_payload,
    parse_error_payload, push_query, write_frame, FrameError,
};

/// How a query should be asked for and answered.
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Wire engine name (see [`protocol::engine_by_name`]).
    pub engine: String,
    /// Ask for rendered result lines instead of raw pre ranks.
    pub render: bool,
    /// Ask for no result chunks at all — only the `DONE` totals.
    pub count_only: bool,
    /// Per-query execution deadline in milliseconds; the server answers
    /// a `TIMEOUT` error frame (connection kept open) if the query is
    /// still running when it expires. `None` leaves only the server's
    /// own execution ceiling.
    pub deadline_ms: Option<u32>,
}

impl Default for QueryOptions {
    fn default() -> QueryOptions {
        QueryOptions {
            engine: "staircase".to_string(),
            render: false,
            count_only: false,
            deadline_ms: None,
        }
    }
}

/// A collected query answer.
#[derive(Debug, Clone, Default)]
pub struct QueryReply {
    /// Result pre ranks (empty under `render`/`count_only`).
    pub ids: Vec<Pre>,
    /// Rendered result lines (empty unless `render`).
    pub rendered: Vec<String>,
    /// Result cardinality, from the terminal frame.
    pub total: u32,
    /// Nodes the evaluation touched.
    pub touched: u64,
    /// The `DONE` frame's batch field: always 1, since every query runs
    /// alone.
    pub batch_size: u32,
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed.
    Io(io::Error),
    /// The server broke the protocol (or exceeded the frame limit).
    Protocol(String),
    /// The server answered with a typed error frame.
    Server {
        /// One of the [`code`] constants.
        code: u8,
        /// The server's message.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { code: c, message } => {
                write!(f, "server error ({}): {message}", code_name(*c))
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> ClientError {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            oversized => ClientError::Protocol(oversized.to_string()),
        }
    }
}

/// The human name of a wire error code.
pub fn code_name(c: u8) -> &'static str {
    match c {
        code::PARSE => "PARSE",
        code::BUSY => "SERVER_BUSY",
        code::MALFORMED => "MALFORMED",
        code::OVERSIZED => "OVERSIZED",
        code::SHUTTING_DOWN => "SHUTTING_DOWN",
        code::INTERNAL => "INTERNAL",
        code::TIMEOUT => "TIMEOUT",
        code::ENGINE => "ENGINE",
        code::RESOURCE => "RESOURCE",
        code::CANCELLED => "CANCELLED",
        _ => "UNKNOWN",
    }
}

/// One connection to a running server.
pub struct Client {
    /// Responses are read through the buffer (a frame costs one `read`,
    /// not three); requests are written to the stream under it.
    stream: BufReader<TcpStream>,
    max_frame: usize,
    /// The request frame being written, then the payload of each
    /// response frame read: one buffer, reused query after query.
    buf: Vec<u8>,
}

impl Client {
    /// Connects (blocking) to a server.
    ///
    /// # Errors
    ///
    /// The underlying connect failing.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream: BufReader::new(stream),
            // Generous: response frames are bounded by the server's
            // chunking, not by its request limit.
            max_frame: 64 << 20,
            buf: Vec::new(),
        })
    }

    /// Sends one query and collects the whole streamed answer.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for typed error frames (parse errors,
    /// `SERVER_BUSY`, …), [`ClientError::Io`]/[`ClientError::Protocol`]
    /// for transport trouble.
    pub fn query(&mut self, expr: &str, opts: &QueryOptions) -> Result<QueryReply, ClientError> {
        let mut reply = QueryReply::default();
        self.send_query(expr, opts)?;
        let (total, touched, batch_size) = self.read_response(
            &mut |chunk| decode_ids_into(chunk, &mut reply.ids),
            &mut |text| {
                reply.rendered.extend(text.lines().map(|l| l.to_string()));
            },
        )?;
        reply.total = total;
        reply.touched = touched;
        reply.batch_size = batch_size;
        Ok(reply)
    }

    /// Sends one query and hands each chunk to a callback as it
    /// arrives — the streaming form ([`Client::query`] is this plus
    /// collection). Returns the terminal `(total, touched,
    /// batch_size)`.
    ///
    /// # Errors
    ///
    /// As for [`Client::query`].
    pub fn query_streamed(
        &mut self,
        expr: &str,
        opts: &QueryOptions,
        on_ids: &mut dyn FnMut(&[Pre]),
        on_text: &mut dyn FnMut(&str),
    ) -> Result<(u32, u64, u32), ClientError> {
        self.send_query(expr, opts)?;
        let mut ids = Vec::new();
        self.read_response(
            &mut |chunk| {
                ids.clear();
                decode_ids_into(chunk, &mut ids)?;
                on_ids(&ids);
                Ok(())
            },
            on_text,
        )
    }

    /// Writes one `QUERY` frame, built in the client's buffer.
    fn send_query(&mut self, expr: &str, opts: &QueryOptions) -> Result<(), ClientError> {
        let mut request_flags = 0u8;
        if opts.render {
            request_flags |= flags::RENDER;
        }
        if opts.count_only {
            request_flags |= flags::COUNT_ONLY;
        }
        self.buf.clear();
        let start = begin_frame(&mut self.buf, frame::QUERY);
        push_query(
            &mut self.buf,
            request_flags,
            opts.deadline_ms,
            &opts.engine,
            expr,
        );
        end_frame(&mut self.buf, start);
        self.stream.get_mut().write_all(&self.buf)?;
        Ok(())
    }

    /// Asks the server to cancel the query currently in flight on this
    /// connection. Fire-and-forget: the *query's* response (a
    /// `CANCELLED` error frame if the cancel won the race, the normal
    /// answer if it lost) is still read by whoever sent the query —
    /// typically a second thread sharing this connection via
    /// [`Client::try_clone`].
    ///
    /// # Errors
    ///
    /// The write failing.
    pub fn cancel(&mut self) -> Result<(), ClientError> {
        write_frame(self.stream.get_mut(), frame::CANCEL, &[])?;
        Ok(())
    }

    /// Clones the underlying stream so one thread can [`Client::cancel`]
    /// while another is blocked reading a query's answer. Only one of
    /// the two should read responses: each buffers what it reads.
    ///
    /// # Errors
    ///
    /// The OS-level duplication failing.
    pub fn try_clone(&self) -> io::Result<Client> {
        Ok(Client {
            stream: BufReader::new(self.stream.get_ref().try_clone()?),
            max_frame: self.max_frame,
            buf: Vec::new(),
        })
    }

    /// Asks for the server's metrics: `key value` lines.
    ///
    /// # Errors
    ///
    /// As for [`Client::query`].
    pub fn server_stats(&mut self) -> Result<String, ClientError> {
        write_frame(self.stream.get_mut(), frame::STATS, &[])?;
        let mut text = String::new();
        self.read_response(&mut |_| Ok(()), &mut |t| text.push_str(t))?;
        Ok(text)
    }

    /// Asks the server to shut down gracefully; returns once the
    /// server has acknowledged.
    ///
    /// # Errors
    ///
    /// As for [`Client::query`].
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        write_frame(self.stream.get_mut(), frame::SHUTDOWN, &[])?;
        self.read_response(&mut |_| Ok(()), &mut |_| {})?;
        Ok(())
    }

    /// Reads chunk frames until the terminal `DONE` or `ERROR`, each into
    /// the client's buffer: `on_chunk` gets every `CHUNK` payload and
    /// decodes it (a defect it reports is a protocol error), `on_text`
    /// every `RCHUNK`'s text.
    fn read_response(
        &mut self,
        on_chunk: &mut dyn FnMut(&[u8]) -> Result<(), String>,
        on_text: &mut dyn FnMut(&str),
    ) -> Result<(u32, u64, u32), ClientError> {
        loop {
            let ty = protocol::read_frame_into(&mut self.stream, self.max_frame, &mut self.buf)?
                .ok_or_else(|| ClientError::Protocol("server closed mid-response".into()))?;
            let payload = &self.buf[..];
            match ty {
                frame::CHUNK => on_chunk(payload).map_err(ClientError::Protocol)?,
                frame::RCHUNK => {
                    let text = std::str::from_utf8(payload)
                        .map_err(|_| ClientError::Protocol("rendered chunk is not UTF-8".into()))?;
                    on_text(text);
                }
                frame::DONE => {
                    return parse_done_payload(payload).map_err(ClientError::Protocol);
                }
                frame::ERROR => {
                    let (c, message) =
                        parse_error_payload(payload).map_err(ClientError::Protocol)?;
                    return Err(ClientError::Server {
                        code: c,
                        message: message.to_string(),
                    });
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected response frame type 0x{other:02x}"
                    )));
                }
            }
        }
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("peer", &self.stream.get_ref().peer_addr().ok())
            .finish()
    }
}
