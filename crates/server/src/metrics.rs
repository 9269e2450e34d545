//! Server counters: what the traffic layer did, as lock-free atomics.
//!
//! Every counter is monotonic and updated with relaxed ordering — the
//! metrics are observability, not synchronization — with one exception:
//! [`Metrics::connections_open`] is a gauge that goes down as well as
//! up. [`Metrics::render`] is the `STATS` frame's
//! payload: one `key value` pair per line, a format both the load
//! generator and shell pipelines can split.

use std::sync::atomic::{AtomicU64, Ordering};

/// One server's lifetime in numbers: monotonic counters, and the
/// `connections_open` gauge.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connections open right now: up on accept, down when the
    /// connection's thread ends. The one field that is not monotonic.
    pub connections_open: AtomicU64,
    /// Queries answered successfully.
    pub queries_ok: AtomicU64,
    /// Queries refused with `PARSE` (bad expression) or `ENGINE`
    /// (unknown engine name).
    pub rejected_requests: AtomicU64,
    /// Undecodable frames or payloads.
    pub protocol_errors: AtomicU64,
    /// Queries refused with `SERVER_BUSY` (`queue_depth` queries were
    /// already executing).
    pub busy_rejections: AtomicU64,
    /// Connections closed for idling past the read timeout.
    pub timeouts: AtomicU64,
    /// Queries stopped at a deadline — the client's per-query deadline
    /// or the server's execution timeout. The connection survives.
    pub exec_timeouts: AtomicU64,
    /// Queries stopped by a `CANCEL` frame or a mid-query hangup.
    pub cancelled_queries: AtomicU64,
    /// Queries stopped at a resource (cost) budget ceiling.
    pub resource_exhausted: AtomicU64,
    /// Queries that failed with an isolated internal execution error
    /// (a caught panic); the server and connection survive.
    pub internal_errors: AtomicU64,
    /// Queries executed: every query that reached `Session::execute`,
    /// whatever its outcome. Each runs alone, as a batch of one.
    pub batches: AtomicU64,
    /// Queries in those executions — equal to `batches`, since each
    /// runs alone.
    pub batched_queries: AtomicU64,
    /// Largest single execution: 1 once any query has run.
    pub max_batch: AtomicU64,
}

impl Metrics {
    /// Records one execution of `n` queries (the server passes 1).
    pub fn record_batch(&self, n: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_queries.fetch_add(n as u64, Ordering::Relaxed);
        self.max_batch.fetch_max(n as u64, Ordering::Relaxed);
    }

    /// The `STATS` payload: one `key value` pair per line.
    pub fn render(&self) -> String {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        format!(
            "connections {}\nconnections_open {}\nqueries_ok {}\nrejected_requests {}\nprotocol_errors {}\n\
             busy_rejections {}\ntimeouts {}\nexec_timeouts {}\ncancelled_queries {}\n\
             resource_exhausted {}\ninternal_errors {}\nbatches {}\nbatched_queries {}\n\
             max_batch {}\n",
            get(&self.connections),
            get(&self.connections_open),
            get(&self.queries_ok),
            get(&self.rejected_requests),
            get(&self.protocol_errors),
            get(&self.busy_rejections),
            get(&self.timeouts),
            get(&self.exec_timeouts),
            get(&self.cancelled_queries),
            get(&self.resource_exhausted),
            get(&self.internal_errors),
            get(&self.batches),
            get(&self.batched_queries),
            get(&self.max_batch),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_lists_every_counter_once() {
        let m = Metrics::default();
        m.record_batch(3);
        m.record_batch(5);
        m.queries_ok.store(8, Ordering::Relaxed);
        let text = m.render();
        for key in [
            "connections ",
            "connections_open",
            "queries_ok",
            "rejected_requests",
            "protocol_errors",
            "busy_rejections",
            "timeouts",
            "exec_timeouts",
            "cancelled_queries",
            "resource_exhausted",
            "internal_errors",
            "batches",
            "batched_queries",
            "max_batch",
        ] {
            assert_eq!(
                text.lines().filter(|l| l.starts_with(key)).count(),
                1,
                "{key} in {text}"
            );
        }
        assert!(text.contains("batches 2"));
        assert!(text.contains("batched_queries 8"));
        assert!(text.contains("max_batch 5"));
    }
}
