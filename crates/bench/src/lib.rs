//! # staircase-bench
//!
//! The experiment harness: every table and figure of the paper's
//! evaluation (§4.4) has a regenerator here, shared between the `repro`
//! binary (`cargo run -p staircase-bench --release --bin repro`) and the
//! Criterion benches (`cargo bench`).
//!
//! | Paper artifact | Regenerator |
//! |---|---|
//! | Table 1 (intermediary result sizes)            | [`experiments::table1`] |
//! | Figure 11(a) duplicates avoided (Q2)           | [`experiments::fig11a`] |
//! | Figure 11(b) staircase join performance (Q2)   | [`experiments::fig11b`] |
//! | Figure 11(c) skipping: nodes accessed (Q1)     | [`experiments::fig11c`] |
//! | Figure 11(d) skipping: execution time (Q1)     | [`experiments::fig11d`] |
//! | Figure 11(e) comparison, Q1                    | [`experiments::fig11e`] |
//! | Figure 11(f) comparison, Q2                    | [`experiments::fig11f`] |
//! | §4.3 copy-phase bandwidth                      | [`experiments::bandwidth`] |
//! | §6 tag-name fragmentation (Q1)                 | [`experiments::fragmentation`] |

#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod table;
pub mod workload;

pub use table::Table;
pub use workload::{Workload, BATCH_MIXED, BATCH_VERTICAL, QUERY_Q1, QUERY_Q2};
