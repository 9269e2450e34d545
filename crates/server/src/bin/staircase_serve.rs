//! `staircase-serve` — the batching XPath query server.
//!
//! ```text
//! staircase-serve <DOC> [options]
//!
//! <DOC> is an XML file, or a pre-encoded plane with --encoded.
//!
//! options:
//!   --addr A           bind address (default 127.0.0.1:7878; port 0 = ephemeral)
//!   --threads N        session worker-pool width (default 1)
//!   --window-us W      admission window in µs (default 2000; 0 = pass-through)
//!   --max-batch B      largest admission batch (default 32)
//!   --queue-depth Q    admission queue bound before SERVER_BUSY (default 256)
//!   --read-timeout-ms  per-connection read deadline (default 30000)
//!   --exec-timeout-ms  server-side execution ceiling per query
//!                      (default 10000); a query still running when it
//!                      expires is stopped cooperatively and answered
//!                      with a TIMEOUT error frame, connection kept open
//!   --warm             build aux structures before accepting traffic
//! ```
//!
//! Prints `listening on <addr>` to stderr once ready, then serves until
//! a client sends a `SHUTDOWN` frame (graceful: stop accepting, drain
//! admitted batches, exit). Wire protocol: see the `staircase-server`
//! crate docs.

use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use staircase_server::{Server, ServerConfig};
use staircase_xpath::Session;

fn usage() -> ! {
    eprintln!(
        "usage: staircase-serve <DOC> [--encoded] [--addr A] [--threads N] [--window-us W]\n\
         \u{20}      [--max-batch B] [--queue-depth Q] [--read-timeout-ms T]\n\
         \u{20}      [--exec-timeout-ms T] [--warm]"
    );
    exit(2);
}

fn parse_flag<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

fn main() {
    let mut doc_path: Option<String> = None;
    let mut encoded = false;
    let mut addr = "127.0.0.1:7878".to_string();
    let mut threads = 1usize;
    let mut window_us = 2000u64;
    let mut warm = false;
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--encoded" => encoded = true,
            "--addr" => addr = args.next().unwrap_or_else(|| usage()),
            "--threads" => {
                threads = parse_flag(&mut args);
                if threads == 0 {
                    usage();
                }
            }
            "--window-us" => window_us = parse_flag(&mut args),
            "--max-batch" => config.max_batch = parse_flag(&mut args),
            "--queue-depth" => config.queue_depth = parse_flag(&mut args),
            "--read-timeout-ms" => {
                config.read_timeout = Duration::from_millis(parse_flag(&mut args));
            }
            "--exec-timeout-ms" => {
                config.exec_timeout = Duration::from_millis(parse_flag(&mut args));
            }
            "--warm" => warm = true,
            "--help" | "-h" => usage(),
            other if doc_path.is_none() && !other.starts_with('-') => {
                doc_path = Some(other.to_string());
            }
            _ => usage(),
        }
    }
    let Some(doc_path) = doc_path else { usage() };
    config.addr = addr;
    config.window = Duration::from_micros(window_us);

    let session = if encoded {
        Session::open_encoded(&doc_path)
    } else {
        Session::open_xml(&doc_path)
    };
    let session = match session {
        Ok(s) => s.with_threads(threads),
        Err(e) => {
            eprintln!("staircase-serve: {doc_path}: {e}");
            exit(1);
        }
    };
    if warm {
        session.warm();
    }
    eprintln!(
        "loaded {} nodes (height {}), pool width {threads}, window {window_us} µs, \
         max batch {}, queue depth {}",
        session.doc().len(),
        session.doc().height(),
        config.max_batch,
        config.queue_depth,
    );

    let handle = match Server::start(Arc::new(session), config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("staircase-serve: bind failed: {e}");
            exit(1);
        }
    };
    eprintln!("listening on {}", handle.local_addr());
    handle.join();
    eprintln!("staircase-serve: shut down cleanly");
}
