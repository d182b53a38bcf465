//! `fdip-serve`: the reproduction's simulation service, on `std::net`
//! alone.
//!
//! The workspace's no-external-dependency policy extends to the server:
//! HTTP parsing ([`http`]), the readiness poller ([`poller`]), the
//! connection state machine ([`conn`]), the admission scheduler
//! ([`sched`]), the bounded dispatch queue ([`queue`]), Prometheus
//! metrics ([`metrics`]), and signal handling ([`signal`]) are all
//! hand-rolled on `std` (raw syscalls where the platform demands them).
//! What makes the service worth running is its [`Harness`]: every request
//! is answered through the server's own trace store and content-keyed
//! cell cache, built once from the [`ServeConfig`] when the server binds,
//! so a warm server answers repeated and overlapping experiment queries
//! orders of magnitude faster than cold simulation, and concurrent
//! identical requests coalesce — at the harness *and*, since the event
//! loop, at the HTTP layer, where byte-identical in-flight `/v1/run`
//! requests share a single simulation and response.
//!
//! # Architecture
//!
//! One event-loop thread owns the listener and every connection
//! (nonblocking sockets, readiness from [`poller::Poller`]); a small
//! worker pool runs simulations. The paper's framing applies to the
//! serving layer itself: like FDIP decoupling branch prediction from
//! fetch, the loop decouples protocol I/O from simulation so a slow
//! client never stalls compute and a slow simulation never stalls I/O.
//! Requests flow `accept → read/parse → admit (rate limit, coalesce,
//! shed) → per-tenant fair queue → worker → write`, with `/healthz` and
//! `/metrics` answered inline by the loop so they stay responsive under
//! full compute saturation (`GET /v1/experiments` reads from disk and
//! therefore rides the worker pool like the simulation routes).
//!
//! # Endpoints
//!
//! | Route | Meaning |
//! |---|---|
//! | `GET /healthz` | liveness probe |
//! | `GET /metrics` | Prometheus text: request counters, queue/in-flight gauges, latency histogram, harness cache counters |
//! | `POST /v1/run` | simulate one `(workload, config)` cell |
//! | `POST /v1/compare` | a config list vs the no-prefetch baseline: speedups + miss coverage |
//! | `GET /v1/experiments/{id}` | a persisted, schema-versioned `results/` document |
//!
//! # Overload, fairness, and deadlines
//!
//! Parsed simulation requests enter per-tenant FIFO queues
//! ([`sched::Scheduler`], tenant = `x-fdip-tenant` header) dispatched
//! round-robin, each tenant optionally rate-limited (`--tenant-rps`,
//! 429 beyond budget). When the global queue bound fills the request is
//! shed with `503` + `Retry-After` — written through the connection's
//! buffered nonblocking writer, so a stalled client can never block the
//! accept path. Offered load beyond capacity costs O(1) memory (the
//! connection count itself is bounded by `max_conns`). Every request
//! carries a deadline — `min(server timeout, client's x-fdip-deadline-ms
//! header)` measured from accept — and requests that expire while queued
//! are answered `408` (client-set deadline) or `429` (server default)
//! without starting the simulation; a coalesced follower expires on its
//! *own* deadline, independent of the leader it shares a simulation
//! with. A malformed deadline header is a `400`, never silently ignored.
//!
//! # Example
//!
//! ```no_run
//! use fdip_serve::{ServeConfig, Server};
//!
//! let server = Server::bind(ServeConfig {
//!     addr: "127.0.0.1:8080".to_string(),
//!     ..ServeConfig::default()
//! })?;
//! server.run()?; // blocks until SIGTERM / ctrl-c, then drains
//! # Ok::<(), std::io::Error>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod http;
pub mod metrics;
pub mod poller;
pub mod queue;
pub mod sched;
pub mod service;
pub mod signal;

mod server;

pub use server::{Server, ShutdownHandle};

use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use fdip_sim::fault::{FaultPlan, RetryPolicy};
use fdip_sim::harness::{Harness, Opened};
use fdip_sim::options::{Dispatch, RunOptions};
use fdip_sim::supervisor::SupervisorConfig;

/// Server configuration, mirrored by the `fdip serve` CLI flags.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:8080` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads; 0 means `available_parallelism`.
    pub threads: usize,
    /// Bounded request-queue capacity; requests beyond it are shed
    /// with 503.
    pub queue_depth: usize,
    /// Most concurrently open connections; accepts beyond it are closed
    /// after an inline 503 (memory bound independent of `queue_depth`).
    pub max_conns: usize,
    /// Per-tenant rate limit in requests/second with a one-second burst;
    /// 0 disables limiting. Requests over budget are answered 429.
    pub tenant_rps: u64,
    /// Server-side deadline per request, in milliseconds. Also bounds how
    /// long an idle keep-alive connection may pin a worker.
    pub timeout_ms: u64,
    /// Directory holding persisted experiment documents for
    /// `GET /v1/experiments/{id}`.
    pub results_dir: PathBuf,
    /// Largest `trace_len` a request may ask for (memory bound).
    pub max_trace_len: usize,
    /// Most configs accepted by one `/v1/compare` request.
    pub max_configs: usize,
    /// Worker processes for isolated cell execution (`--isolate N`);
    /// 0 runs cells in-process as before. With isolation on, a cell that
    /// aborts or hangs costs one worker process and returns a structured
    /// 502 — the server and its other connections stay up.
    pub isolate_workers: usize,
    /// Comma-separated `fdip workerd` addresses for fleet cell dispatch
    /// (`--fleet`); `None` keeps cells on this machine. With a fleet,
    /// a killed or partitioned node costs a re-dispatch, never a failed
    /// request, and takes precedence over `isolate_workers`.
    pub fleet: Option<String>,
    /// Fleet liveness override (`--fleet-heartbeat-ms`): how long a
    /// silent node stays routable before it is reclassified for
    /// re-dispatch. `None` defers to `$FDIP_FLEET_HEARTBEAT_MS` or the
    /// built-in default. Ignored without `fleet`.
    pub fleet_heartbeat_ms: Option<u64>,
    /// Directory for the shared on-disk result cache (`--cache`); `None`
    /// disables persistence. With a cache attached, a restarted server is
    /// warm from its first request: finished cells are read back (CRC32-
    /// verified) instead of re-simulated.
    pub cache_dir: Option<PathBuf>,
    /// Deterministic faults injected into this server's cells (`fdip
    /// serve` reads them from `$FDIP_FAULTS`); matching cells answer with
    /// a structured 502. Abort/hang/bigalloc faults need
    /// `isolate_workers`, network faults need `fleet`.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:8080".to_string(),
            threads: 0,
            queue_depth: 64,
            max_conns: 1024,
            tenant_rps: 0,
            timeout_ms: 30_000,
            results_dir: PathBuf::from("results"),
            max_trace_len: 2_000_000,
            max_configs: 16,
            isolate_workers: 0,
            fleet: None,
            fleet_heartbeat_ms: None,
            cache_dir: None,
            faults: None,
        }
    }
}

impl ServeConfig {
    /// Builds the server's harness: cells run in-process, in
    /// `isolate_workers` worker processes, or on the `fleet` — out of
    /// process, the request timeout doubles as the hard per-cell budget —
    /// with `faults` injected and `cache_dir` as the shared result cache.
    ///
    /// # Errors
    ///
    /// As [`Harness::open`], plus an empty `fleet` address list.
    pub fn open_harness(&self) -> io::Result<Opened> {
        let dispatch = match (&self.fleet, self.isolate_workers) {
            (Some(addrs), _) => Dispatch::fleet(addrs, self.fleet_heartbeat_ms)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?,
            (None, 0) => Dispatch::InProcess,
            (None, workers) => Dispatch::Isolated(SupervisorConfig {
                workers,
                ..SupervisorConfig::default()
            }),
        };
        let cell_budget =
            (dispatch != Dispatch::InProcess).then(|| Duration::from_millis(self.timeout_ms));
        Harness::open(RunOptions {
            retry: RetryPolicy {
                cell_budget,
                ..RetryPolicy::default()
            },
            faults: self.faults.clone(),
            cache: self.cache_dir.clone(),
            dispatch,
            ..RunOptions::default()
        })
    }
}
