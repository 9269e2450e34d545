//! The flags of the harness binaries. `--help`, a flag the binary does
//! not know, or a value that is missing or does not parse prints the
//! binary's usage to stderr and exits with status 2, as `xq` does.

use std::str::FromStr;

/// The command line after the program name, read flag by flag.
pub struct Args {
    usage: &'static str,
    rest: std::iter::Skip<std::env::Args>,
}

impl Args {
    /// The process's arguments, refused with `usage`.
    pub fn new(usage: &'static str) -> Args {
        Args {
            usage,
            rest: std::env::args().skip(1),
        }
    }

    /// The next flag; `None` at the end. `--help` and `-h` print the
    /// usage and exit.
    pub fn next_flag(&mut self) -> Option<String> {
        let flag = self.rest.next()?;
        if flag == "--help" || flag == "-h" {
            self.refuse("");
        }
        Some(flag)
    }

    /// The value that follows `flag`, parsed.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> T {
        match self.rest.next().map(|v| v.parse()) {
            Some(Ok(value)) => value,
            Some(Err(_)) => self.refuse(&format!("{flag} takes a {}", std::any::type_name::<T>())),
            None => self.refuse(&format!("{flag} takes a value")),
        }
    }

    /// Prints `why` (when there is one) and the usage to stderr, and
    /// exits with status 2.
    pub fn refuse(&self, why: &str) -> ! {
        if !why.is_empty() {
            eprintln!("{why}");
        }
        eprintln!("{}", self.usage);
        std::process::exit(2)
    }
}
