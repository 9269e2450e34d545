//! # staircase-bench
//!
//! The paper's evaluation (§4.3, §4.4, §6), regenerated: every table and
//! figure has a regenerator here. The `repro` binary
//! (`cargo run -p staircase-bench --release --bin repro`) prints them as
//! tables; the three `fig11*` Criterion benches (`cargo bench -p
//! staircase-bench`) time Figure 11(b), (d) and (e)/(f). The engine as a
//! whole is measured by the repository's benchmark (`benchmark/`), not
//! here.
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

pub mod experiments;
pub mod table;
pub mod workload;

pub use table::Table;
pub use workload::{Workload, QUERY_Q1, QUERY_Q2};
