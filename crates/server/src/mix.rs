//! Query-file ("query mix") loading, shared by `xq --query-file` and
//! `xq --connect --query-file` — one line-numbered error-reporting path
//! instead of two.
//!
//! The format: one XPath expression per line; blank lines and lines
//! starting with `#` are ignored. Reading is **buffered and
//! per-line**: a line that is not valid UTF-8 is reported with its
//! line number as a [`LineIssue`] and skipped, and every other line
//! still loads — the whole file is never rejected for one bad byte
//! (the old `read_to_string` path did exactly that).
//!
//! ## `EXIT_BATCH_PARTIAL` semantics (normative)
//!
//! This is the single place the partial-batch contract is defined;
//! `xq` and the server-side loaders follow it:
//!
//! * A file that cannot be opened or read at all is an I/O error —
//!   nothing runs (`xq` exits `4`).
//! * A line that fails to load (bad UTF-8) or fails to parse as XPath
//!   is reported to stderr with `file:line` and **skipped**; the
//!   remaining queries still run.
//! * If anything was skipped, the run is a *partial batch*: `xq` exits
//!   `5` (`EXIT_BATCH_PARTIAL`) instead of `0`, so scripts can tell a
//!   partial batch from a clean one even though results were produced.

use std::io::{BufRead, BufReader};
use std::path::Path;

/// A loadable query line: its 1-based line number and its trimmed text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryLine {
    /// 1-based line number in the file (comments and blanks count, so
    /// reported numbers match editors).
    pub lineno: usize,
    /// The trimmed expression text.
    pub text: String,
}

/// A line that could not be loaded (distinct from one that loads but
/// fails to parse as XPath — parsing is the caller's business).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineIssue {
    /// 1-based line number.
    pub lineno: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for LineIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.lineno, self.message)
    }
}

/// Reads a query file buffered, line by line. Returns the loadable
/// query lines plus per-line issues for the lines that were not
/// (currently: invalid UTF-8).
///
/// # Errors
///
/// Only file-level I/O failures (open failing, the underlying reader
/// erroring); per-line defects are returned as issues, not errors.
pub fn read_query_lines(
    path: impl AsRef<Path>,
) -> std::io::Result<(Vec<QueryLine>, Vec<LineIssue>)> {
    read_query_lines_from(std::fs::File::open(path)?)
}

/// [`read_query_lines`] over any reader (how the tests feed it bad
/// bytes without a filesystem).
///
/// # Errors
///
/// Reader-level I/O failures only.
pub fn read_query_lines_from(
    reader: impl std::io::Read,
) -> std::io::Result<(Vec<QueryLine>, Vec<LineIssue>)> {
    let mut reader = BufReader::new(reader);
    let mut lines = Vec::new();
    let mut issues = Vec::new();
    let mut raw = Vec::new();
    let mut lineno = 0usize;
    loop {
        raw.clear();
        let n = reader.read_until(b'\n', &mut raw)?;
        if n == 0 {
            break;
        }
        lineno += 1;
        if raw.last() == Some(&b'\n') {
            raw.pop();
            if raw.last() == Some(&b'\r') {
                raw.pop();
            }
        }
        let text = match std::str::from_utf8(&raw) {
            Ok(text) => text.trim(),
            Err(_) => {
                issues.push(LineIssue {
                    lineno,
                    message: "line is not valid UTF-8".to_string(),
                });
                continue;
            }
        };
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        lines.push(QueryLine {
            lineno,
            text: text.to_string(),
        });
    }
    Ok((lines, issues))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_blanks_and_numbering() {
        let (lines, issues) = read_query_lines_from("# mix\n//a\n\n  //b  \n".as_bytes()).unwrap();
        assert!(issues.is_empty());
        assert_eq!(
            lines,
            vec![
                QueryLine {
                    lineno: 2,
                    text: "//a".into()
                },
                QueryLine {
                    lineno: 4,
                    text: "//b".into()
                },
            ]
        );
    }

    #[test]
    fn a_bad_utf8_line_is_an_issue_not_a_file_error() {
        let bytes: &[u8] = b"//a\n\xFF\xFE\n//b\n";
        let (lines, issues) = read_query_lines_from(bytes).unwrap();
        assert_eq!(lines.len(), 2, "the good lines around the bad one load");
        assert_eq!(lines[1].lineno, 3);
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].lineno, 2);
        assert!(issues[0].message.contains("UTF-8"));
    }

    #[test]
    fn crlf_files_load_cleanly() {
        let (lines, issues) = read_query_lines_from("//a\r\n//b\r\n".as_bytes()).unwrap();
        assert!(issues.is_empty());
        assert_eq!(lines[0].text, "//a");
        assert_eq!(lines[1].text, "//b");
    }

    #[test]
    fn missing_files_are_io_errors() {
        assert!(read_query_lines("/definitely/not/here.txt").is_err());
    }
}
