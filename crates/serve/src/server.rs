//! The event loop, compute worker pool, and connection lifecycle.
//!
//! ```text
//!            readiness (poller)              per-tenant fair queues
//!  accept ──▶ read / parse ──▶ admit ───▶ ┌──────────────────────┐
//!              │      ▲        │ 429/503  │ sched: rate limit,   │  dispatch
//!              │      │        ▼          │ coalesce, rr rotate  │──────────▶ workers
//!   GETs answered inline     write buffer └──────────────────────┘  (≤ threads)   │
//!              │                  ▲                                               ▼
//!              ▼                  │ completions + waker                 Service::route
//!           write ◀───────────────┴───────────────────────────────────────────────┘
//! ```
//!
//! One loop thread owns the listener and every connection; sockets are
//! nonblocking and all protocol I/O is readiness-driven through
//! [`Poller`]. Simulation requests are admitted into the [`Scheduler`]
//! (rate limit → coalesce → capacity shed), dispatched round-robin
//! across tenants into a [`BoundedQueue`] feeding the worker pool, and
//! their responses flow back through a completion list plus an eventfd
//! waker. `/healthz` and `/metrics` are answered on the loop thread
//! itself, so they stay live under full compute saturation;
//! `GET /v1/experiments` reads persisted documents from disk, so it
//! rides the worker pool like the sim routes.
//!
//! Backpressure is O(1) per excess request: beyond `queue_depth` queued
//! leaders a request is shed with `503` + `Retry-After` *into the
//! connection's write buffer* — a stalled client slows only its own
//! socket, never the accept path (the PR 2 shed bug). Beyond `max_conns`
//! open sockets, accepts are answered with a best-effort inline 503 and
//! closed; `max_conns` itself is clamped under the fd soft limit at
//! bind, and actual descriptor exhaustion parks the listener until a
//! connection closes instead of killing the server. Every request
//! carries a deadline — the smaller of the
//! server's `timeout_ms` and a well-formed `x-fdip-deadline-ms` header
//! (malformed is a 400) — measured from accept for a connection's first
//! request; requests that expire queued are answered `408`/`429`
//! without doing the work. Shutdown (signal or [`ShutdownHandle`]) stops
//! accepting, answers everything admitted, then returns from
//! [`Server::run`].

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::conn::{Conn, ConnState, ReadOutcome, WriteOutcome};
use crate::http::{self, Request, Response};
use crate::metrics::Metrics;
use crate::poller::{Event, Interest, Poller, Waker};
use crate::queue::{BoundedQueue, PushError};
use crate::sched::{Admission, Job, Requester, Scheduler};
use crate::service::{self, Service};
use crate::{signal, ServeConfig};

/// Poller token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Poller token of the loop waker (worker completions, signals).
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const TOKEN_CONN_BASE: u64 = 2;

/// How long the loop sleeps with nothing ready; bounds how late timers
/// (sweeps, deadline expiry, shutdown noticed without a waker) can fire.
const POLL_TIMEOUT: Duration = Duration::from_millis(50);

/// How often stalled/idle connections and expired queued jobs are swept.
const SWEEP_INTERVAL: Duration = Duration::from_millis(100);

/// Cooperative stop switch for an in-process server (tests, the loadgen
/// harness). The process-level SIGINT/SIGTERM path trips the same logic.
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Asks the server to stop accepting, drain, and return from `run`.
    /// The loop notices within one poll timeout.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }
}

/// A bound listener plus everything needed to serve it.
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    threads: usize,
}

impl Server {
    /// Binds `config.addr`, builds the server's own harness from `config`
    /// ([`ServeConfig::open_harness`]), and prepares the worker pool
    /// (workers start in [`run`](Server::run)).
    ///
    /// # Errors
    ///
    /// Propagates bind failures and [`ServeConfig::open_harness`]'s.
    pub fn bind(mut config: ServeConfig) -> io::Result<Server> {
        if let Some(limit) = fd_soft_limit() {
            // Keep the connection cap comfortably under the fd soft
            // limit (headroom for the listener, poller, waker, worker
            // pipes, cache files, and stdio), so overload is shed by the
            // max_conns guard instead of surfacing as EMFILE.
            let ceiling = limit.saturating_sub(64).max(16);
            if config.max_conns as u64 > ceiling {
                eprintln!(
                    "serve: clamping max_conns {} to {ceiling} (fd soft limit {limit})",
                    config.max_conns
                );
                // The cast is lossless: ceiling < the old usize value.
                config.max_conns = ceiling as usize;
            }
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let opened = config.open_harness()?;
        eprint!("{}", opened.startup_lines());
        let harness = Arc::new(opened.harness);
        let threads = if config.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
        } else {
            config.threads
        };
        let service = Arc::new(Service::new(config, Arc::new(Metrics::default()), harness));
        Ok(Server {
            listener,
            service,
            shutdown: Arc::new(AtomicBool::new(false)),
            threads: threads.max(1),
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops this server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            flag: Arc::clone(&self.shutdown),
        }
    }

    /// The shared metrics sink (for observation in tests and the loadgen).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(self.service.metrics())
    }

    /// Serves until a signal arrives or the [`ShutdownHandle`] fires, then
    /// drains admitted work and returns.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener/poller errors; per-connection errors are
    /// handled inline.
    pub fn run(&self) -> io::Result<()> {
        signal::install();
        let poller = Poller::new()?;
        let waker = Waker::new(&poller, TOKEN_WAKER)?;
        // A signal mid-poll pokes the waker so drain starts immediately
        // instead of on the next poll timeout.
        signal::set_wakeup_fd(waker.raw_fd());
        poller.register(fd_of(&self.listener), TOKEN_LISTENER, Interest::READ)?;

        let config = self.service.config().clone();
        let dispatch: Arc<BoundedQueue<Job>> = Arc::new(BoundedQueue::new(self.threads));
        let completions: Arc<Mutex<Vec<(Job, Response)>>> = Arc::new(Mutex::new(Vec::new()));
        let result = std::thread::scope(|scope| {
            for _ in 0..self.threads {
                let queue = Arc::clone(&dispatch);
                let service = Arc::clone(&self.service);
                let completions = Arc::clone(&completions);
                let waker = waker.handle();
                scope.spawn(move || worker_loop(&queue, &service, &completions, &waker));
            }
            let mut el = EventLoop {
                listener: &self.listener,
                shutdown: &self.shutdown,
                service: Arc::clone(&self.service),
                metrics: Arc::clone(self.service.metrics()),
                poller: &poller,
                waker: &waker,
                conns: HashMap::new(),
                sched: Scheduler::new(config.queue_depth, config.tenant_rps),
                dispatch: Arc::clone(&dispatch),
                completions: Arc::clone(&completions),
                config,
                threads: self.threads,
                draining: false,
                accept_paused: false,
                sched_dirty: false,
                next_token: TOKEN_CONN_BASE,
                events: Vec::new(),
            };
            let out = el.run_loop();
            // Workers block in `pop`; closing the queue releases them so
            // the scope can join. (Queued jobs are gone by now on the
            // clean path — the loop drains before returning Ok.)
            dispatch.close();
            out
        });
        signal::set_wakeup_fd(-1);
        result
    }
}

/// The raw fd of a socket, for poller registration.
#[cfg(unix)]
fn fd_of<T: std::os::unix::io::AsRawFd>(t: &T) -> i32 {
    t.as_raw_fd()
}

/// Non-unix placeholder; [`Poller::new`] fails before any fd is used.
#[cfg(not(unix))]
fn fd_of<T>(_t: &T) -> i32 {
    -1
}

/// True when `accept` failed because the process (`EMFILE`) or system
/// (`ENFILE`) descriptor table is full — transient by definition, since
/// closing any connection frees a slot. Fatal treatment here is the bug
/// the review caught: ~1000 idle remote sockets could crash the server.
fn fd_exhausted(e: &io::Error) -> bool {
    // ENFILE = 23 and EMFILE = 24 on Linux and the BSDs alike.
    matches!(e.raw_os_error(), Some(23) | Some(24))
}

/// The process's soft limit on open file descriptors, used to clamp
/// `max_conns` at bind time so the connection cap sheds *before* the fd
/// table runs dry.
#[cfg(unix)]
#[allow(unsafe_code)]
fn fd_soft_limit() -> Option<u64> {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    }
    // RLIMIT_NOFILE is 7 on Linux and 8 on the BSDs (macOS included).
    #[cfg(target_os = "linux")]
    const RLIMIT_NOFILE: i32 = 7;
    #[cfg(not(target_os = "linux"))]
    const RLIMIT_NOFILE: i32 = 8;
    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: plain syscall writing into a properly sized, owned struct.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } == 0 {
        Some(lim.cur)
    } else {
        None
    }
}

/// Non-unix placeholder: no limit knowable, no clamp applied.
#[cfg(not(unix))]
fn fd_soft_limit() -> Option<u64> {
    None
}

/// One compute worker: pop jobs, run the handler (panic-safe), hand the
/// response back to the loop, and poke its waker.
fn worker_loop(
    queue: &BoundedQueue<Job>,
    service: &Service,
    completions: &Mutex<Vec<(Job, Response)>>,
    waker: &Waker,
) {
    while let Some(job) = queue.pop() {
        // Queue depth 0 here: only GET /metrics (answered on the loop,
        // which knows the live depth) reads the gauge argument.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| service.route(&job.req, 0)));
        let resp =
            result.unwrap_or_else(|_| Response::error(500, "internal error handling the request"));
        completions
            .lock()
            .expect("completion list poisoned")
            .push((job, resp));
        waker.wake();
    }
}

/// All loop-thread state. Owned by [`Server::run`] for the lifetime of
/// one serve session.
struct EventLoop<'a> {
    listener: &'a TcpListener,
    shutdown: &'a AtomicBool,
    service: Arc<Service>,
    metrics: Arc<Metrics>,
    poller: &'a Poller,
    waker: &'a Waker,
    conns: HashMap<u64, Conn>,
    sched: Scheduler,
    dispatch: Arc<BoundedQueue<Job>>,
    completions: Arc<Mutex<Vec<(Job, Response)>>>,
    config: ServeConfig,
    threads: usize,
    draining: bool,
    accept_paused: bool,
    sched_dirty: bool,
    next_token: u64,
    events: Vec<Event>,
}

impl EventLoop<'_> {
    fn run_loop(&mut self) -> io::Result<()> {
        let mut next_sweep = Instant::now() + SWEEP_INTERVAL;
        loop {
            if !self.draining
                && (self.shutdown.load(Ordering::Relaxed) || signal::shutdown_requested())
            {
                self.begin_drain();
            }
            if self.draining {
                self.close_idle_readers();
                if self.conns.is_empty() && self.sched.is_idle() {
                    return Ok(());
                }
            }

            let mut events = std::mem::take(&mut self.events);
            self.poller.wait(&mut events, Some(POLL_TIMEOUT))?;
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready()?,
                    TOKEN_WAKER => self.waker.drain(),
                    token => self.on_conn_event(token),
                }
            }
            self.events = events;

            self.process_completions();
            self.dispatch_ready();

            let now = Instant::now();
            if now >= next_sweep {
                self.sweep(now);
                next_sweep = now + SWEEP_INTERVAL;
            }
            if self.sched_dirty {
                self.metrics.set_tenant_depths(self.sched.tenant_depths());
                self.sched_dirty = false;
            }
        }
    }

    /// Stops accepting; admitted work keeps flowing until answered.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.poller.deregister(fd_of(self.listener));
    }

    /// During a drain, connections with no request in flight are closed
    /// (nobody will be admitted again), which is what lets the loop reach
    /// the empty state and return.
    fn close_idle_readers(&mut self) {
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.state == ConnState::Reading)
            .map(|(t, _)| *t)
            .collect();
        for token in idle {
            self.close_conn(token);
        }
    }

    /// Accepts everything pending on the listener.
    fn accept_ready(&mut self) -> io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.metrics
                        .connections_total
                        .fetch_add(1, Ordering::Relaxed);
                    if self.conns.len() >= self.config.max_conns {
                        self.shed_accept(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(fd_of(&stream), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(token, Conn::new(stream, Instant::now()));
                    self.metrics
                        .open_connections
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // A connection that died between SYN and accept is the
                // peer's failure, not the listener's.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionAborted | io::ErrorKind::ConnectionReset
                    ) => {}
                Err(e) if fd_exhausted(&e) => {
                    // EMFILE/ENFILE: the process (or system) descriptor
                    // table is full, so every further accept would fail
                    // the same way. Park the listener — level-triggered
                    // polling would otherwise spin on it, and returning
                    // the error would let a client holding idle sockets
                    // kill the whole server. Accepts resume when a
                    // connection closes (or on the next sweep).
                    self.pause_accepts();
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Parks the listener (deregisters it from the poller) so descriptor
    /// exhaustion cannot spin or crash the loop. Serving of already-open
    /// connections continues untouched.
    fn pause_accepts(&mut self) {
        if !self.accept_paused {
            self.accept_paused = true;
            self.poller.deregister(fd_of(self.listener));
            eprintln!(
                "serve: out of file descriptors ({} conns open), pausing accepts",
                self.conns.len()
            );
        }
    }

    /// Re-arms a parked listener once there is descriptor headroom. A
    /// drain never resumes: the listener stays down for good.
    fn resume_accepts(&mut self) {
        if self.accept_paused && !self.draining {
            self.accept_paused = false;
            let _ = self
                .poller
                .register(fd_of(self.listener), TOKEN_LISTENER, Interest::READ);
        }
    }

    /// Over the connection cap: answer 503 with one best-effort
    /// nonblocking write and close. Never blocks the loop — an unwritable
    /// client just gets a reset.
    fn shed_accept(&mut self, stream: TcpStream) {
        self.metrics.shed_total.fetch_add(1, Ordering::Relaxed);
        self.metrics.record_response(503);
        let _ = stream.set_nonblocking(true);
        let bytes = Response::error(503, "server at connection capacity, try again shortly")
            .with_header("retry-after", "1")
            .to_bytes(true);
        let mut s = stream;
        let _ = s.write(&bytes);
    }

    /// Routes one readiness event to a connection. A `Waiting`
    /// connection is registered with `Interest::NONE`, so the only
    /// events that can reach it are the always-reported level-triggered
    /// `ERR`/`HUP` — a peer that reset or fully closed while its request
    /// is queued or in flight. That condition must be *consumed* (by
    /// reaping the connection), not skipped: `drive` breaking on
    /// `Waiting` would leave it pending and make every `poller.wait`
    /// return instantly, spinning the loop at 100% CPU until the job
    /// finishes — a cheap DoS for clients that abort in-flight requests.
    fn on_conn_event(&mut self, token: u64) {
        match self.conns.get(&token).map(|c| c.state) {
            Some(ConnState::Waiting) => self.reap_if_hung_up(token),
            Some(_) => self.drive(token),
            None => {}
        }
    }

    /// Probes a `Waiting` connection that reported an event and closes
    /// it if the peer is gone. Safe to drop mid-request: the scheduler
    /// tolerates delivery to a missing connection, and the shared
    /// computation proceeds for any live coalesced followers.
    fn reap_if_hung_up(&mut self, token: u64) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        let mut probe = [0u8; 1];
        match conn.stream().peek(&mut probe) {
            // Still alive: a spurious or already-cleared condition.
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::Interrupted => {}
            // EOF, a pending socket error (RST), or bytes sent before
            // the close that raised this event — with `Interest::NONE`
            // an event here implies ERR/HUP, so the peer can no longer
            // receive the response either way.
            _ => self.close_conn(token),
        }
    }

    /// Advances one connection's state machine as far as readiness
    /// allows: read → parse → admit/answer → write → (keep-alive) repeat.
    fn drive(&mut self, token: u64) {
        loop {
            let Some(state) = self.conns.get(&token).map(|c| c.state) else {
                return;
            };
            let now = Instant::now();
            match state {
                ConnState::Reading => {
                    let outcome = self
                        .conns
                        .get_mut(&token)
                        .expect("conn present")
                        .on_readable(now);
                    match outcome {
                        ReadOutcome::NeedMore => break,
                        ReadOutcome::Closed => return self.close_conn(token),
                        ReadOutcome::Error(err) => match http::error_status(&err) {
                            // Protocol errors poison the byte stream, so
                            // the connection always closes after the 4xx.
                            Some(status) => {
                                self.answer(
                                    token,
                                    &Response::error(status, &err.to_string()),
                                    true,
                                    false,
                                );
                            }
                            None => return self.close_conn(token),
                        },
                        ReadOutcome::Request(req) => self.handle_request(token, req),
                    }
                }
                ConnState::Writing => {
                    let outcome = self
                        .conns
                        .get_mut(&token)
                        .expect("conn present")
                        .on_writable(now);
                    match outcome {
                        WriteOutcome::Pending => break,
                        WriteOutcome::Closed => return self.close_conn(token),
                        WriteOutcome::Flushed => {
                            let conn = self.conns.get_mut(&token).expect("conn present");
                            if conn.close_after_write {
                                return self.close_conn(token);
                            }
                            if let Some(started) = conn.finish_write(now) {
                                self.metrics.record_latency(started.elapsed());
                            }
                            // Loop again: pipelined bytes already buffered
                            // parse without waiting for readiness.
                        }
                    }
                }
                ConnState::Waiting => break,
            }
        }
        self.sync_interest(token);
    }

    /// Registers the poller interest implied by the connection's state.
    fn sync_interest(&mut self, token: u64) {
        if let Some(conn) = self.conns.get(&token) {
            let interest = match conn.state {
                ConnState::Reading => Interest::READ,
                ConnState::Writing => Interest::WRITE,
                ConnState::Waiting => Interest::NONE,
            };
            let _ = self.poller.modify(fd_of(conn.stream()), token, interest);
        }
    }

    /// Validates headers, enforces the deadline, and either answers
    /// inline (GETs, errors) or admits the request to the scheduler.
    fn handle_request(&mut self, token: u64, req: Request) {
        let now = Instant::now();
        let Some(req_started) = self.conns.get(&token).map(|c| c.req_started) else {
            return;
        };
        let close_hint = req.wants_close() || self.draining;

        // Strict header validation applies to every route uniformly: a
        // malformed deadline or tenant is a 400, never silently ignored.
        let tenant = match service::tenant_of(&req) {
            Ok(t) => t,
            Err(e) => return self.answer(token, &e.into(), close_hint, true),
        };
        let client_deadline = match service::parse_deadline_ms(&req) {
            Ok(d) => d,
            Err(e) => return self.answer(token, &e.into(), close_hint, true),
        };
        let server_budget = Duration::from_millis(self.config.timeout_ms);
        let (budget, client_set) = match client_deadline {
            Some(client) => (client.min(server_budget), client <= server_budget),
            None => (server_budget, false),
        };
        // The clock started at accept (first request) or previous flush:
        // time already spent reading counts against the budget.
        let deadline = req_started + budget;
        if now >= deadline {
            self.metrics
                .deadline_expired_total
                .fetch_add(1, Ordering::Relaxed);
            return self.answer(token, &expiry_response(client_set), close_hint, true);
        }

        if !service::is_pooled_route(&req) {
            // Only routes whose handlers never block (liveness probes,
            // in-memory metrics, protocol errors) run on the loop
            // thread; anything touching disk or simulation takes a
            // worker seat via the scheduler below.
            let depth = self.sched.pending();
            let result =
                std::panic::catch_unwind(AssertUnwindSafe(|| self.service.route(&req, depth)));
            let resp = result
                .unwrap_or_else(|_| Response::error(500, "internal error handling the request"));
            return self.answer(token, &resp, close_hint, true);
        }

        let key = service::sim_coalesce_key(&req);
        let leader = Requester {
            conn: token,
            started: req_started,
            deadline,
            client_deadline: client_set,
        };
        match self.sched.admit(&tenant, req, leader, deadline, key, now) {
            admitted @ (Admission::Enqueued | Admission::Coalesced(_)) => {
                if matches!(admitted, Admission::Coalesced(_)) {
                    self.metrics.coalesced_total.fetch_add(1, Ordering::Relaxed);
                }
                let conn = self.conns.get_mut(&token).expect("conn present");
                conn.state = ConnState::Waiting;
                conn.close_when_answered = close_hint;
                self.sched_dirty = true;
            }
            Admission::RateLimited => {
                self.metrics
                    .rate_limited_total
                    .fetch_add(1, Ordering::Relaxed);
                self.answer(
                    token,
                    &Response::error(429, "tenant rate limit exceeded, slow down")
                        .with_header("retry-after", "1"),
                    close_hint,
                    true,
                );
            }
            Admission::Shed => {
                self.metrics.shed_total.fetch_add(1, Ordering::Relaxed);
                self.answer(
                    token,
                    &Response::error(503, "server at capacity, try again shortly")
                        .with_header("retry-after", "1"),
                    close_hint,
                    true,
                );
            }
        }
    }

    /// Queues `resp` on the connection and counts it. The caller's drive
    /// loop (or an explicit [`drive`](Self::drive)) flushes it.
    fn answer(&mut self, token: u64, resp: &Response, close: bool, count_latency: bool) {
        if let Some(conn) = self.conns.get_mut(&token) {
            self.metrics.record_response(resp.status);
            conn.queue_response(resp, close, count_latency);
        }
    }

    /// Moves scheduler work onto free worker seats, answering queued jobs
    /// whose deadline already passed instead of running them.
    fn dispatch_ready(&mut self) {
        let now = Instant::now();
        while self.sched.in_flight() < self.threads && self.sched.pending() > 0 {
            let Some(job) = self.sched.next_job() else {
                break;
            };
            self.sched_dirty = true;
            if job.deadline <= now {
                let followers = self.sched.complete(&job);
                self.expire(job.leader, &followers);
                continue;
            }
            self.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
            match self.dispatch.try_push(job) {
                Ok(()) => {}
                Err(PushError::Full(job)) | Err(PushError::Closed(job)) => {
                    // Unreachable by construction (outstanding ≤ threads =
                    // queue capacity; the queue closes only after the loop
                    // exits) — but a lost job must still be answered.
                    self.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
                    let followers = self.sched.complete(&job);
                    let resp = Response::error(500, "internal dispatch failure");
                    self.deliver(job.leader, &resp);
                    for f in followers {
                        self.deliver(f, &resp);
                    }
                }
            }
        }
    }

    /// Hands finished jobs' responses to their leader and followers.
    fn process_completions(&mut self) {
        let done: Vec<(Job, Response)> = {
            let mut list = self.completions.lock().expect("completion list poisoned");
            std::mem::take(&mut *list)
        };
        for (job, resp) in done {
            self.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
            let followers = self.sched.complete(&job);
            self.deliver(job.leader, &resp);
            for f in followers {
                self.deliver(f, &resp);
            }
        }
    }

    /// Queues a computed response on a waiting connection and pushes its
    /// bytes as far as the socket allows right now.
    fn deliver(&mut self, to: Requester, resp: &Response) {
        let Some(conn) = self.conns.get(&to.conn) else {
            // The connection died while waiting; the work (possibly shared
            // with live followers) is simply unclaimed.
            return;
        };
        let close = conn.close_when_answered || self.draining;
        self.answer(to.conn, resp, close, true);
        self.drive(to.conn);
    }

    /// Answers a leader and its followers whose deadline expired while
    /// queued: 408 for a client-set deadline, 429 for the server default.
    fn expire(&mut self, leader: Requester, followers: &[Requester]) {
        for r in std::iter::once(&leader).chain(followers) {
            self.expire_one(*r);
        }
    }

    /// Answers one requester whose own deadline expired.
    fn expire_one(&mut self, r: Requester) {
        self.metrics
            .deadline_expired_total
            .fetch_add(1, Ordering::Relaxed);
        self.deliver(r, &expiry_response(r.client_deadline));
    }

    /// Periodic maintenance: stalled/idle connection closes, queued-job
    /// deadline expiry, rate-bucket pruning.
    fn sweep(&mut self, now: Instant) {
        let io_timeout = Duration::from_millis(self.config.timeout_ms.clamp(100, 60_000));
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| match c.state {
                // Idle keep-alive and mid-request stalls both close at the
                // I/O timeout; a waiting request's lifetime is governed by
                // its deadline, not socket activity.
                ConnState::Reading | ConnState::Writing => {
                    now.saturating_duration_since(c.last_activity) > io_timeout
                }
                ConnState::Waiting => false,
            })
            .map(|(t, _)| *t)
            .collect();
        for token in stale {
            self.close_conn(token);
        }

        let expired = self.sched.take_expired(now);
        if !expired.is_empty() {
            self.sched_dirty = true;
        }
        for (job, followers) in expired {
            self.expire(job.leader, &followers);
        }
        // Followers carry their own deadlines (often tighter than the
        // leader they coalesced onto): expire them individually, even
        // while the shared job is still queued or in flight.
        for follower in self.sched.take_expired_followers(now) {
            self.expire_one(follower);
        }
        self.sched.prune_buckets(now, Duration::from_secs(120));

        // Backstop for a pause caused by non-connection descriptors
        // (cache files, worker pipes) being freed: retry accepting even
        // if no connection closed in the meantime.
        if self.conns.len() < self.config.max_conns {
            self.resume_accepts();
        }
    }

    /// Deregisters and drops one connection, flushing its pending latency
    /// sample (histograms must reconcile with status counts even when the
    /// client vanished before the response drained).
    fn close_conn(&mut self, token: u64) {
        if let Some(mut conn) = self.conns.remove(&token) {
            if let Some(started) = conn.take_latency() {
                self.metrics.record_latency(started.elapsed());
            }
            self.poller.deregister(fd_of(conn.stream()));
            self.metrics
                .open_connections
                .fetch_sub(1, Ordering::Relaxed);
            // The close frees a descriptor: if accepts were parked on
            // EMFILE/ENFILE, there is room again now.
            if self.conns.len() < self.config.max_conns {
                self.resume_accepts();
            }
        }
    }
}

/// The response for a request whose deadline passed before compute.
fn expiry_response(client_set: bool) -> Response {
    let status = if client_set { 408 } else { 429 };
    Response::error(
        status,
        "deadline expired before the request could be handled",
    )
    .with_header("retry-after", "1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fd_exhaustion_is_transient_not_fatal() {
        assert!(fd_exhausted(&io::Error::from_raw_os_error(23))); // ENFILE
        assert!(fd_exhausted(&io::Error::from_raw_os_error(24))); // EMFILE
        assert!(!fd_exhausted(&io::Error::from_raw_os_error(9))); // EBADF
        assert!(!fd_exhausted(&io::Error::other("x")));
    }

    #[cfg(unix)]
    #[test]
    fn bind_clamps_max_conns_under_the_fd_soft_limit() {
        let Some(limit) = fd_soft_limit() else {
            return;
        };
        if limit == u64::MAX {
            return; // unlimited: nothing to clamp against
        }
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_conns: usize::MAX,
            ..ServeConfig::default()
        })
        .expect("bind");
        let clamped = server.service.config().max_conns as u64;
        assert!(clamped < limit, "{clamped} vs limit {limit}");
    }
}
