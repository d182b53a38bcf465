//! Server instrumentation and its Prometheus text rendering.
//!
//! Counters are plain relaxed atomics bumped on the request path; a
//! `/metrics` scrape takes a point-in-time snapshot and renders the
//! [text exposition format](https://prometheus.io/docs/instrumenting/exposition_formats/):
//! `# HELP`/`# TYPE` preambles, one sample per line. The harness cache
//! counters (trace/cell hits, misses, in-flight shares) are folded in from
//! [`HarnessStats`] so a scrape shows how much simulation work requests
//! are actually causing versus serving from cache.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use fdip_sim::harness::HarnessStats;

/// The status codes this server can emit (the label set of
/// `requests_total`). Keeping the set closed lets the counters live in a
/// fixed array with no locking or allocation on the request path.
pub const STATUS_CODES: [u16; 11] = [200, 400, 404, 405, 408, 413, 429, 431, 500, 502, 503];

/// Upper bounds (seconds) of the request-latency histogram buckets; a
/// `+Inf` bucket is implicit.
pub const LATENCY_BUCKETS: [f64; 8] = [0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 30.0];

/// All server counters. One instance lives in the server and is shared by
/// the accept loop and every worker.
#[derive(Default)]
pub struct Metrics {
    /// Completed responses, indexed like [`STATUS_CODES`].
    responses: [AtomicU64; STATUS_CODES.len()],
    /// Connections accepted (including ones later shed).
    pub connections_total: AtomicU64,
    /// Connections shed with 503 because the queue was full.
    pub shed_total: AtomicU64,
    /// Requests rejected because their deadline expired before handling.
    pub deadline_expired_total: AtomicU64,
    /// Requests that attached to an identical in-flight request instead
    /// of running their own simulation.
    pub coalesced_total: AtomicU64,
    /// Requests rejected with 429 by a tenant's token bucket.
    pub rate_limited_total: AtomicU64,
    /// Connections currently registered with the event loop.
    pub open_connections: AtomicU64,
    /// Requests currently being handled by a worker.
    pub in_flight: AtomicU64,
    /// Per-tenant queue depths, refreshed by the event loop whenever its
    /// scheduler state changes. A snapshot rather than an atomic because
    /// the tenant set is dynamic; updates happen off the per-request hot
    /// path.
    tenant_depths: Mutex<Vec<(String, u64)>>,
    /// Latency histogram bucket counts, indexed like [`LATENCY_BUCKETS`]
    /// with the final slot counting `+Inf`.
    latency_buckets: [AtomicU64; LATENCY_BUCKETS.len() + 1],
    /// Total observed latency in microseconds.
    latency_sum_us: AtomicU64,
    /// Total observations.
    latency_count: AtomicU64,
}

impl Metrics {
    /// Records a completed response.
    pub fn record_response(&self, status: u16) {
        if let Some(i) = STATUS_CODES.iter().position(|&s| s == status) {
            self.responses[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one request's handling latency.
    pub fn record_latency(&self, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        let i = LATENCY_BUCKETS
            .iter()
            .position(|&b| secs <= b)
            .unwrap_or(LATENCY_BUCKETS.len());
        self.latency_buckets[i].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us
            .fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Responses recorded for `status` so far.
    pub fn responses_for(&self, status: u16) -> u64 {
        STATUS_CODES
            .iter()
            .position(|&s| s == status)
            .map(|i| self.responses[i].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Total responses across all status codes.
    pub fn responses_total(&self) -> u64 {
        self.responses
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Latency observations recorded so far.
    pub fn latency_count(&self) -> u64 {
        self.latency_count.load(Ordering::Relaxed)
    }

    /// Total observed latency.
    pub fn latency_sum(&self) -> Duration {
        Duration::from_micros(self.latency_sum_us.load(Ordering::Relaxed))
    }

    /// Replaces the per-tenant queue-depth snapshot (sorted by tenant).
    pub fn set_tenant_depths(&self, depths: Vec<(String, u64)>) {
        *self.tenant_depths.lock().expect("tenant depths poisoned") = depths;
    }

    /// Renders the Prometheus text document. `queue_depth` and
    /// `queue_capacity` come from the live queue; `harness` is the shared
    /// harness's counter snapshot; `node_health` is the fleet's per-node
    /// health snapshot (empty without a fleet).
    pub fn render(
        &self,
        queue_depth: usize,
        queue_capacity: usize,
        harness: &HarnessStats,
        node_health: &[(String, &'static str)],
    ) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(4096);
        let counter = |out: &mut String, name: &str, help: &str, value: u64| {
            let _ = write!(
                out,
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            );
        };

        let _ = write!(
            out,
            "# HELP fdip_serve_requests_total Responses sent, by HTTP status.\n\
             # TYPE fdip_serve_requests_total counter\n"
        );
        for (i, status) in STATUS_CODES.iter().enumerate() {
            let _ = writeln!(
                out,
                "fdip_serve_requests_total{{status=\"{status}\"}} {}",
                self.responses[i].load(Ordering::Relaxed)
            );
        }

        counter(
            &mut out,
            "fdip_serve_connections_total",
            "Connections accepted.",
            self.connections_total.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "fdip_serve_shed_total",
            "Connections shed with 503 because the request queue was full.",
            self.shed_total.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "fdip_serve_deadline_expired_total",
            "Requests whose deadline expired before a worker reached them.",
            self.deadline_expired_total.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "fdip_serve_coalesced_total",
            "Requests that shared an identical in-flight request's result.",
            self.coalesced_total.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "fdip_serve_rate_limited_total",
            "Requests rejected with 429 by a tenant's rate limit.",
            self.rate_limited_total.load(Ordering::Relaxed),
        );

        let _ = write!(
            out,
            "# HELP fdip_serve_in_flight Requests currently being handled.\n\
             # TYPE fdip_serve_in_flight gauge\n\
             fdip_serve_in_flight {}\n\
             # HELP fdip_serve_open_connections Connections registered with the event loop.\n\
             # TYPE fdip_serve_open_connections gauge\n\
             fdip_serve_open_connections {}\n\
             # HELP fdip_serve_queue_depth Requests waiting in the bounded queue.\n\
             # TYPE fdip_serve_queue_depth gauge\n\
             fdip_serve_queue_depth {queue_depth}\n\
             # HELP fdip_serve_queue_capacity Configured request-queue capacity.\n\
             # TYPE fdip_serve_queue_capacity gauge\n\
             fdip_serve_queue_capacity {queue_capacity}\n",
            self.in_flight.load(Ordering::Relaxed),
            self.open_connections.load(Ordering::Relaxed)
        );

        let _ = write!(
            out,
            "# HELP fdip_serve_tenant_queue_depth Queued requests per tenant.\n\
             # TYPE fdip_serve_tenant_queue_depth gauge\n"
        );
        for (tenant, depth) in self
            .tenant_depths
            .lock()
            .expect("tenant depths poisoned")
            .iter()
        {
            let _ = writeln!(
                out,
                "fdip_serve_tenant_queue_depth{{tenant=\"{tenant}\"}} {depth}"
            );
        }

        let _ = write!(
            out,
            "# HELP fdip_serve_request_seconds Request handling latency.\n\
             # TYPE fdip_serve_request_seconds histogram\n"
        );
        let mut cumulative = 0u64;
        for (i, bound) in LATENCY_BUCKETS.iter().enumerate() {
            cumulative += self.latency_buckets[i].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "fdip_serve_request_seconds_bucket{{le=\"{bound}\"}} {cumulative}"
            );
        }
        cumulative += self.latency_buckets[LATENCY_BUCKETS.len()].load(Ordering::Relaxed);
        let _ = write!(
            out,
            "fdip_serve_request_seconds_bucket{{le=\"+Inf\"}} {cumulative}\n\
             fdip_serve_request_seconds_sum {}\n\
             fdip_serve_request_seconds_count {}\n",
            self.latency_sum_us.load(Ordering::Relaxed) as f64 / 1e6,
            self.latency_count.load(Ordering::Relaxed)
        );

        for (name, help, value) in [
            (
                "fdip_serve_harness_traces_generated_total",
                "Traces generated by the shared harness (store misses).",
                harness.traces_generated,
            ),
            (
                "fdip_serve_harness_trace_hits_total",
                "Trace requests served from the harness store.",
                harness.trace_hits,
            ),
            (
                "fdip_serve_harness_traces_shared_total",
                "Trace requests coalesced onto an in-flight generation.",
                harness.traces_shared,
            ),
            (
                "fdip_serve_harness_cells_simulated_total",
                "Simulation cells actually run (cell-cache misses).",
                harness.cells_simulated,
            ),
            (
                "fdip_serve_harness_cells_batched_total",
                "Cells simulated inside a lockstep multi-config batch.",
                harness.cells_batched,
            ),
            (
                "fdip_serve_harness_cell_hits_total",
                "Cell requests served from the harness cache.",
                harness.cell_hits,
            ),
            (
                "fdip_serve_harness_cells_shared_total",
                "Cell requests coalesced onto an in-flight simulation.",
                harness.cells_shared,
            ),
            (
                "fdip_serve_harness_cells_failed_total",
                "Cell requests that ended in a terminal error.",
                harness.cells_failed,
            ),
            (
                "fdip_serve_harness_cell_retries_total",
                "Retry attempts after retryable cell failures.",
                harness.cell_retries,
            ),
            (
                "fdip_serve_harness_cell_timeouts_total",
                "Cells cancelled for exceeding their wall-clock budget.",
                harness.cell_timeouts,
            ),
            (
                "fdip_serve_harness_journal_restored_total",
                "Cells preloaded from an attached journal instead of simulated.",
                harness.journal_restored,
            ),
            (
                "fdip_serve_harness_journal_corrupt_lines_total",
                "Journal lines that failed CRC32 verification on replay.",
                harness.journal_corrupt_lines,
            ),
            (
                "fdip_serve_worker_restarts_total",
                "Isolated worker processes respawned into a used pool slot.",
                harness.worker_restarts,
            ),
            (
                "fdip_serve_worker_kills_total",
                "Isolated worker processes SIGKILLed (budget or lost heartbeat).",
                harness.worker_kills,
            ),
            (
                "fdip_serve_worker_crash_loops_total",
                "Crash-loop backoff pauses before respawning a worker.",
                harness.worker_crash_loops,
            ),
            (
                "fdip_serve_node_losses_total",
                "Fleet nodes declared lost (dead socket or missed heartbeats).",
                harness.node_losses,
            ),
            (
                "fdip_serve_cells_redispatched_total",
                "Cells re-dispatched to another fleet node after a failure.",
                harness.cells_redispatched,
            ),
            (
                "fdip_serve_remote_cache_hits_total",
                "Cells served from the shared on-disk result cache.",
                harness.remote_cache_hits,
            ),
            (
                "fdip_serve_node_readmissions_total",
                "Lost fleet nodes readmitted (on probation) after a reprobe.",
                harness.node_readmissions,
            ),
        ] {
            counter(&mut out, name, help, value);
        }

        let _ = write!(
            out,
            "# HELP fdip_serve_fleet_workers Worker seats across connected fleet nodes.\n\
             # TYPE fdip_serve_fleet_workers gauge\n\
             fdip_serve_fleet_workers {}\n",
            harness.fleet_workers
        );

        // One-hot per-node health: every node emits a sample for each
        // state, exactly one of them 1, so dashboards can sum by state
        // without knowing the node set in advance.
        let _ = write!(
            out,
            "# HELP fdip_serve_fleet_node_health Fleet node health (1 for the node's current state).\n\
             # TYPE fdip_serve_fleet_node_health gauge\n"
        );
        for (node, state) in node_health {
            for candidate in ["healthy", "suspect", "lost", "probation"] {
                let _ = writeln!(
                    out,
                    "fdip_serve_fleet_node_health{{node=\"{node}\",state=\"{candidate}\"}} {}",
                    u64::from(*state == candidate)
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_every_family_and_reconciles() {
        let m = Metrics::default();
        m.record_response(200);
        m.record_response(200);
        m.record_response(503);
        m.record_response(777); // unknown codes are ignored, not panicked on
        m.record_latency(Duration::from_millis(3));
        m.record_latency(Duration::from_secs(60));
        m.connections_total.fetch_add(3, Ordering::Relaxed);
        m.coalesced_total.fetch_add(4, Ordering::Relaxed);
        m.rate_limited_total.fetch_add(5, Ordering::Relaxed);
        m.open_connections.fetch_add(6, Ordering::Relaxed);
        m.set_tenant_depths(vec![("alpha".to_string(), 2), ("default".to_string(), 1)]);

        assert_eq!(m.responses_for(200), 2);
        assert_eq!(m.responses_for(503), 1);
        assert_eq!(m.responses_total(), 3);

        let harness = HarnessStats {
            cells_simulated: 5,
            cells_batched: 11,
            cell_hits: 7,
            cells_failed: 2,
            cell_retries: 4,
            cell_timeouts: 1,
            journal_restored: 3,
            journal_corrupt_lines: 6,
            worker_restarts: 8,
            worker_kills: 9,
            worker_crash_loops: 10,
            fleet_workers: 12,
            node_losses: 13,
            cells_redispatched: 14,
            remote_cache_hits: 15,
            node_readmissions: 16,
            ..HarnessStats::default()
        };
        let nodes = vec![
            ("127.0.0.1:9001".to_string(), "healthy"),
            ("127.0.0.1:9002".to_string(), "lost"),
        ];
        let text = m.render(2, 64, &harness, &nodes);
        assert!(
            text.contains("fdip_serve_requests_total{status=\"200\"} 2"),
            "{text}"
        );
        assert!(text.contains("fdip_serve_requests_total{status=\"503\"} 1"));
        assert!(text.contains("fdip_serve_connections_total 3"));
        assert!(text.contains("fdip_serve_coalesced_total 4"));
        assert!(text.contains("fdip_serve_rate_limited_total 5"));
        assert!(text.contains("fdip_serve_open_connections 6"));
        assert!(text.contains("fdip_serve_tenant_queue_depth{tenant=\"alpha\"} 2"));
        assert!(text.contains("fdip_serve_tenant_queue_depth{tenant=\"default\"} 1"));
        assert!(text.contains("fdip_serve_queue_depth 2"));
        assert!(text.contains("fdip_serve_queue_capacity 64"));
        assert!(text.contains("fdip_serve_request_seconds_count 2"));
        assert!(text.contains("fdip_serve_request_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("fdip_serve_harness_cells_simulated_total 5"));
        assert!(text.contains("fdip_serve_harness_cells_batched_total 11"));
        assert!(text.contains("fdip_serve_harness_cell_hits_total 7"));
        assert!(text.contains("fdip_serve_harness_cells_failed_total 2"));
        assert!(text.contains("fdip_serve_harness_cell_retries_total 4"));
        assert!(text.contains("fdip_serve_harness_cell_timeouts_total 1"));
        assert!(text.contains("fdip_serve_harness_journal_restored_total 3"));
        assert!(text.contains("fdip_serve_harness_journal_corrupt_lines_total 6"));
        assert!(text.contains("fdip_serve_worker_restarts_total 8"));
        assert!(text.contains("fdip_serve_worker_kills_total 9"));
        assert!(text.contains("fdip_serve_worker_crash_loops_total 10"));
        assert!(text.contains("fdip_serve_fleet_workers 12"));
        assert!(text.contains("fdip_serve_node_losses_total 13"));
        assert!(text.contains("fdip_serve_cells_redispatched_total 14"));
        assert!(text.contains("fdip_serve_remote_cache_hits_total 15"));
        assert!(text.contains("fdip_serve_node_readmissions_total 16"));
        // One-hot health: each node's current state is 1, the rest 0.
        assert!(text
            .contains("fdip_serve_fleet_node_health{node=\"127.0.0.1:9001\",state=\"healthy\"} 1"));
        assert!(
            text.contains("fdip_serve_fleet_node_health{node=\"127.0.0.1:9001\",state=\"lost\"} 0")
        );
        assert!(
            text.contains("fdip_serve_fleet_node_health{node=\"127.0.0.1:9002\",state=\"lost\"} 1")
        );
        assert!(text
            .contains("fdip_serve_fleet_node_health{node=\"127.0.0.1:9002\",state=\"healthy\"} 0"));
        assert!(text.contains("fdip_serve_requests_total{status=\"502\"} 0"));
        // Histogram buckets are cumulative: the 3ms observation lands in
        // le=0.005 and every later bucket includes it.
        assert!(text.contains("fdip_serve_request_seconds_bucket{le=\"0.005\"} 1"));
        assert!(text.contains("fdip_serve_request_seconds_bucket{le=\"30\"} 1"));
    }
}
