//! The distributed tier: the fleet dispatcher behind `--fleet` and the
//! `fdip workerd` daemon loop.
//!
//! PR 5's supervisor contains cell failures inside one machine; this
//! module stretches the same protocol across machines without weakening
//! any of its guarantees:
//!
//! * **[`Fleet`]** — the client side. One slot per advertised worker
//!   seat, each slot a TCP connection to a registered node. Dispatch
//!   routes by the cell's content hash (same cell → same node → warm
//!   trace cache), liveness rides the PR 5 heartbeat discipline plus
//!   read deadlines, and every way a node can vanish — killed process,
//!   severed link, silent partition, corrupt frame — resolves to the
//!   *retryable* [`CellError::Crashed`], so a dead node costs
//!   re-dispatch, never a failed run.
//! * **[`serve_workerd`]** — the daemon side. Each accepted connection
//!   is handshake-checked ([`Hello`]/[`Welcome`]) and then proxied to a
//!   supervised self-exec'd child worker (the PR 5 worker, verbatim), so
//!   a cell that aborts or hangs remotely kills a disposable child, not
//!   the daemon. Children are spawned, read, and reaped through
//!   `crate::child`, the module the local supervisor uses too. A
//!   child's death is reported back as a typed `crashed` reply carrying
//!   the exit signal/code. On shutdown the daemon drains: in-flight
//!   cells finish, new ones are refused with a `bye`, and the process
//!   exits 0.
//!
//! The shared on-disk result cache that makes identical cells simulate
//! once cluster-wide lives in [`crate::cache`]; the harness consults it
//! before dispatching anywhere.
//!
//! Fault drills for every path above are injectable deterministically
//! via the `drop`/`partition`/`slowlink`/`truncframe` kinds in
//! [`crate::fault::FaultPlan`], realized here as [`NetFault`]s.

use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use fdip::SimStats;
use fdip_types::Json;

use crate::child::{self, Child, ChildEvent};
use crate::exec::{CellRun, Executor, Injected, Reach};
use crate::fault::CellError;
use crate::harness::{lock, HarnessStats};
use crate::ipc::{RunRequest, WorkerFault, WorkerReply};
use crate::net::{self, bye_frame, is_bye, Hello, NetFault, Welcome, PROTOCOL_VERSION};

/// Read-poll quantum for fleet streams: how often a blocked read wakes to
/// check budget/heartbeat/drain deadlines.
const POLL: Duration = Duration::from_millis(100);

/// How often the daemon's accept loop polls for shutdown.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// How long a fresh connection gets to complete its handshake.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Cells a proxied child runs before being retired and respawned fresh
/// (same leak bound as the local supervisor's `recycle_after`).
const RECYCLE_AFTER: u64 = 64;

/// Connection and liveness policy for a [`Fleet`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetConfig {
    /// Worker daemon addresses (`host:port`).
    pub addrs: Vec<String>,
    /// Dial timeout, also installed as each stream's write deadline.
    pub connect_timeout: Duration,
    /// Silence longer than this from a busy node means it is partitioned
    /// or dead, not slow; the cell is reclassified for re-dispatch.
    pub heartbeat_timeout: Duration,
    /// Base interval of the background reprobe's exponential backoff: a
    /// lost node is re-dialed after `base`, then `base·2`, `base·4`, …
    /// capped at `base·32`, until a full handshake readmits it.
    pub reprobe_base: Duration,
}

impl FleetConfig {
    /// Policy for `addrs` with defaults, overridable for drills via the
    /// `FDIP_FLEET_CONNECT_MS` / `FDIP_FLEET_HEARTBEAT_MS` /
    /// `FDIP_FLEET_REPROBE_MS` environment variables (tests shrink the heartbeat so partition drills converge
    /// in milliseconds, not seconds).
    pub fn new(addrs: Vec<String>) -> FleetConfig {
        let ms = |var: &str, default: u64| {
            std::env::var(var)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        FleetConfig {
            addrs,
            connect_timeout: Duration::from_millis(ms("FDIP_FLEET_CONNECT_MS", 3_000)),
            heartbeat_timeout: Duration::from_millis(ms("FDIP_FLEET_HEARTBEAT_MS", 5_000)),
            reprobe_base: Duration::from_millis(ms("FDIP_FLEET_REPROBE_MS", 250)),
        }
    }
}

/// Counters the fleet accumulates; folded into
/// [`HarnessStats`](crate::harness::HarnessStats) and exported by
/// `fdip-serve` `/metrics`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Worker seats registered across all reachable nodes.
    pub fleet_workers: u64,
    /// Nodes that went silent mid-run (one per down-transition, not per
    /// connection — a killed daemon with four seats is one loss).
    pub node_losses: u64,
    /// Cell attempts re-dispatched after a first attempt failed.
    pub cells_redispatched: u64,
    /// Lost nodes readmitted (on probation) after a reprobe re-handshake.
    pub node_readmissions: u64,
    /// Total milliseconds nodes spent down before readmission (divide by
    /// `node_readmissions` for mean time to recovery).
    pub readmission_downtime_ms: u64,
}

/// Where a node stands in the health state machine:
///
/// ```text
/// Healthy ──failure──▶ Suspect ──failure──▶ Lost
///    ▲                    │                  │ backoff reprobe
///    │◀──reply────────────┘                  │ (full re-handshake)
///    │                                       ▼
///    └────────reply───────────────────── Probation
/// ```
///
/// The `Healthy → Suspect` and `Probation → Lost` transitions each book
/// one `node_losses`; `Suspect → Lost` does not (same outage). Routing
/// treats everything but `Lost` as dispatchable.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NodeHealth {
    /// Answering normally.
    Healthy,
    /// One recent failure; still routed to (a single hiccup is not an
    /// outage), but one more failure confirms the loss.
    Suspect,
    /// Two consecutive failures (or a failure while on probation): not
    /// routed to; only the background reprobe talks to it.
    Lost,
    /// Readmitted after a reprobe completed the full hello/welcome
    /// fingerprint handshake; routed to again, demoted straight back to
    /// `Lost` on any failure, promoted to `Healthy` on a reply.
    Probation,
}

impl NodeHealth {
    /// Stable lowercase label, used by `/metrics` gauge families.
    pub fn name(self) -> &'static str {
        match self {
            NodeHealth::Healthy => "healthy",
            NodeHealth::Suspect => "suspect",
            NodeHealth::Lost => "lost",
            NodeHealth::Probation => "probation",
        }
    }
}

/// Mutable health bookkeeping for one node, behind its own lock so the
/// reprobe thread and dispatchers never contend on the slot locks.
#[derive(Debug)]
struct HealthCell {
    state: NodeHealth,
    /// Consecutive failed reprobes since the node went `Lost`.
    reprobe_failures: u32,
    /// When the next reprobe is due (meaningful only while `Lost`).
    next_reprobe: Instant,
    /// When the booked down-transition happened (for MTTR accounting).
    lost_at: Option<Instant>,
    /// Last reprobe failure message, kept to dedup log lines.
    last_probe_error: Option<String>,
}

/// One registered node.
#[derive(Debug)]
struct NodeState {
    addr: String,
    health: Mutex<HealthCell>,
}

impl NodeState {
    fn health(&self) -> NodeHealth {
        lock(&self.health).state
    }

    /// Whether dispatch may route to this node (everything but `Lost`).
    fn routable(&self) -> bool {
        self.health() != NodeHealth::Lost
    }
}

/// One dispatch seat: which node it belongs to and its (lazily dialed,
/// re-dialed after loss) connection.
#[derive(Debug)]
struct SlotConn {
    conn: Option<TcpStream>,
}

/// How one seat attempt ended, distinguishing "could not even reach the
/// node" (re-route within the same attempt) from a real cell outcome.
enum SlotOutcome {
    /// Dialing the node failed; the attempt has not been spent.
    Unreachable(CellError),
    /// The cell ran (or died) on the node; this is the attempt's result.
    Final(CellError),
}

/// The client side of distributed cell execution: a pool of TCP seats
/// across registered worker daemons: the TCP cell executor.
#[derive(Debug)]
pub struct Fleet {
    inner: Arc<FleetInner>,
    /// The background reprobe thread, joined on drop.
    reprobe: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.reprobe.take() {
            let _ = handle.join();
        }
    }
}

/// The shared state behind a [`Fleet`]: dispatchers and the reprobe
/// thread both hold it through an `Arc`.
#[derive(Debug)]
struct FleetInner {
    config: FleetConfig,
    nodes: Vec<NodeState>,
    /// `slot_nodes[i]` is the node index slot `i` belongs to (immutable
    /// after construction, so routing can consult it without slot locks).
    slot_nodes: Vec<usize>,
    slots: Vec<Mutex<SlotConn>>,
    free: Mutex<Vec<usize>>,
    available: Condvar,
    next_id: AtomicU64,
    node_losses: AtomicU64,
    cells_redispatched: AtomicU64,
    node_readmissions: AtomicU64,
    readmission_downtime_ms: AtomicU64,
    /// Tells the reprobe thread to exit (set when the `Fleet` drops).
    shutdown: AtomicBool,
}

impl Fleet {
    /// Registers with every address in `config`, learning each node's
    /// seat count from its handshake. Unreachable nodes are warned about
    /// and skipped — the fleet sails with whoever showed up.
    ///
    /// # Errors
    ///
    /// Only if *no* node is reachable: an empty fleet cannot run cells.
    pub fn connect(config: FleetConfig) -> io::Result<Fleet> {
        let mut nodes = Vec::new();
        let mut slot_nodes = Vec::new();
        let mut slots = Vec::new();
        for addr in &config.addrs {
            match dial(addr, config.connect_timeout) {
                Ok((stream, seats)) => {
                    let node = nodes.len();
                    nodes.push(NodeState {
                        addr: addr.clone(),
                        health: Mutex::new(HealthCell {
                            state: NodeHealth::Healthy,
                            reprobe_failures: 0,
                            next_reprobe: Instant::now(),
                            lost_at: None,
                            last_probe_error: None,
                        }),
                    });
                    let mut first = Some(stream);
                    for _ in 0..seats.max(1) {
                        slot_nodes.push(node);
                        slots.push(Mutex::new(SlotConn { conn: first.take() }));
                    }
                }
                Err(err) => {
                    eprintln!(
                        "fleet: {addr}: unreachable at startup ({err}); continuing without it"
                    );
                }
            }
        }
        if slots.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "no fleet node is reachable",
            ));
        }
        let free = (0..slots.len()).rev().collect();
        let inner = Arc::new(FleetInner {
            config,
            nodes,
            slot_nodes,
            slots,
            free: Mutex::new(free),
            available: Condvar::new(),
            next_id: AtomicU64::new(1),
            node_losses: AtomicU64::new(0),
            cells_redispatched: AtomicU64::new(0),
            node_readmissions: AtomicU64::new(0),
            readmission_downtime_ms: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let probe = Arc::clone(&inner);
        let reprobe = std::thread::Builder::new()
            .name("fleet-reprobe".to_string())
            .spawn(move || FleetInner::reprobe_loop(&probe))
            .ok();
        Ok(Fleet { inner, reprobe })
    }

    /// Total registered seats (the harness sizes its thread pool to this).
    pub fn workers(&self) -> usize {
        self.inner.slots.len()
    }

    /// Registered nodes and their seat counts, for startup reporting.
    pub fn nodes(&self) -> Vec<(String, usize)> {
        self.inner
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let seats = self.inner.slot_nodes.iter().filter(|&&s| s == i).count();
                (n.addr.clone(), seats)
            })
            .collect()
    }

    /// Each node's current health state, for `/metrics` gauges and the
    /// chaos harness.
    pub fn node_health(&self) -> Vec<(String, NodeHealth)> {
        self.inner
            .nodes
            .iter()
            .map(|n| (n.addr.clone(), n.health()))
            .collect()
    }

    /// Current counters.
    pub fn stats(&self) -> FleetStats {
        let inner = &self.inner;
        FleetStats {
            fleet_workers: inner.slots.len() as u64,
            node_losses: inner.node_losses.load(Ordering::Relaxed),
            cells_redispatched: inner.cells_redispatched.load(Ordering::Relaxed),
            node_readmissions: inner.node_readmissions.load(Ordering::Relaxed),
            readmission_downtime_ms: inner.readmission_downtime_ms.load(Ordering::Relaxed),
        }
    }
}

impl Executor for Fleet {
    fn reach(&self) -> Reach {
        Reach::Fleet
    }

    fn run(&self, cell: &CellRun<'_>, fault: Option<Injected>) -> Result<SimStats, CellError> {
        let (fault, net_fault) = match fault {
            Some(Injected::Worker(fault)) => (Some(fault), None),
            Some(Injected::Net(fault)) => (None, Some(fault)),
            None => (None, None),
        };
        self.inner.dispatch(cell, fault, net_fault)
    }

    fn workers(&self) -> usize {
        Fleet::workers(self)
    }

    fn fold_stats(&self, stats: &mut HarnessStats) {
        let own = self.stats();
        stats.fleet_workers = own.fleet_workers;
        stats.node_losses = own.node_losses;
        stats.cells_redispatched = own.cells_redispatched;
        stats.node_readmissions = own.node_readmissions;
    }

    fn node_health(&self) -> Vec<(String, &'static str)> {
        Fleet::node_health(self)
            .into_iter()
            .map(|(addr, health)| (addr, health.name()))
            .collect()
    }
}

impl FleetInner {
    /// Runs one cell attempt somewhere on the fleet, blocking until a
    /// seat is free, with an optional [`NetFault`] realized at this
    /// transport.
    ///
    /// Routing prefers the node picked by the cell's content hash (warm
    /// trace caches), rotated by attempt number so a re-dispatch lands
    /// elsewhere, restricted to nodes not currently marked lost. Within
    /// one attempt, an unreachable node is re-routed around rather than
    /// charged against the retry budget — as long as one node answers,
    /// dead ones cost nothing but a refused dial.
    ///
    /// Errors are typed exactly like the local path: [`CellError::Timeout`]
    /// for a budget preemption (the connection is severed, which kills the
    /// remote child), [`CellError::Crashed`] for silent node loss or a
    /// remotely crashed child, [`CellError::Panic`] /
    /// [`CellError::Transient`] when the remote worker survived and said
    /// so itself.
    fn dispatch(
        &self,
        cell: &CellRun<'_>,
        fault: Option<WorkerFault>,
        net_fault: Option<NetFault>,
    ) -> Result<SimStats, CellError> {
        let attempt = cell.attempt;
        if attempt > 1 {
            self.cells_redispatched.fetch_add(1, Ordering::Relaxed);
        }
        let key = crate::fault::fnv1a(&format!(
            "{}\u{0}{}\u{0}{}",
            cell.spec.name,
            cell.trace_len,
            crate::harness::config_fingerprint(cell.config)
        ));
        let mut last = CellError::Transient {
            message: "fleet had no node to dispatch to".to_string(),
            attempts: attempt,
        };
        // One re-route per registered node, so a single attempt walks the
        // whole fleet before conceding.
        for round in 0..self.nodes.len() {
            let preferred = self.route(key, attempt, round);
            let index = self.acquire_slot(preferred);
            let outcome = self.run_on_slot(index, cell, &fault, &net_fault);
            self.release_slot(index);
            match outcome {
                Ok(stats) => return Ok(stats),
                Err(SlotOutcome::Unreachable(err)) => last = err,
                Err(SlotOutcome::Final(err)) => return Err(err),
            }
        }
        Err(last)
    }

    /// Picks the preferred node for `(content key, attempt, re-route
    /// round)`: hash-routed over nodes not marked lost, falling back to
    /// the full set (a probe that re-discovers recovered nodes) when
    /// every node is marked lost.
    fn route(&self, key: u64, attempt: u32, round: usize) -> usize {
        let live: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].routable())
            .collect();
        let pool: &[usize] = if live.is_empty() {
            &self.slot_nodes // never empty; values are node indices
        } else {
            &live
        };
        let spin = key
            .wrapping_add(u64::from(attempt.saturating_sub(1)))
            .wrapping_add(round as u64);
        pool[(spin % pool.len() as u64) as usize]
    }

    fn acquire_slot(&self, preferred: usize) -> usize {
        let mut free = lock(&self.free);
        loop {
            if let Some(pos) = free.iter().rposition(|&i| self.slot_nodes[i] == preferred) {
                return free.remove(pos);
            }
            // Any seat on a routable node beats waiting.
            if let Some(pos) = free
                .iter()
                .rposition(|&i| self.nodes[self.slot_nodes[i]].routable())
            {
                return free.remove(pos);
            }
            // Every free seat is on a lost node. Probe one only when the
            // whole fleet is marked lost (a last-resort backstop under
            // the background reprobe); while any node is routable,
            // waiting for one of its busy seats beats burning the retry
            // budget on refused dials.
            let any_live = (0..self.nodes.len()).any(|n| self.nodes[n].routable());
            if !any_live {
                if let Some(index) = free.pop() {
                    return index;
                }
            }
            free = self
                .available
                .wait(free)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn release_slot(&self, index: usize) {
        lock(&self.free).push(index);
        self.available.notify_one();
    }

    /// Advances `node` through the health machine on a failure:
    /// `Healthy → Suspect` (books one loss), `Suspect → Lost` (same
    /// outage, no extra loss; arms the reprobe), `Probation → Lost`
    /// (relapse: books a fresh loss), `Lost` stays put.
    fn mark_failure(&self, node: usize) {
        let mut cell = lock(&self.nodes[node].health);
        match cell.state {
            NodeHealth::Healthy => {
                cell.state = NodeHealth::Suspect;
                cell.lost_at = Some(Instant::now());
                self.node_losses.fetch_add(1, Ordering::Relaxed);
            }
            NodeHealth::Suspect => {
                cell.state = NodeHealth::Lost;
                cell.reprobe_failures = 0;
                cell.next_reprobe = Instant::now() + self.config.reprobe_base;
                if cell.lost_at.is_none() {
                    cell.lost_at = Some(Instant::now());
                }
            }
            NodeHealth::Probation => {
                cell.state = NodeHealth::Lost;
                cell.reprobe_failures = 0;
                cell.next_reprobe = Instant::now() + self.config.reprobe_base;
                cell.lost_at = Some(Instant::now());
                self.node_losses.fetch_add(1, Ordering::Relaxed);
            }
            NodeHealth::Lost => {}
        }
    }

    /// A successful dial readmits a `Lost` node (this is the whole-fleet
    /// backstop path; the reprobe thread readmits through the same gate).
    fn mark_dialed(&self, node: usize) {
        let mut cell = lock(&self.nodes[node].health);
        if cell.state == NodeHealth::Lost {
            self.readmit_locked(node, &mut cell);
        }
    }

    /// A completed reply is the strongest health signal: full promotion.
    fn mark_replied(&self, node: usize) {
        let mut cell = lock(&self.nodes[node].health);
        if cell.state == NodeHealth::Lost {
            self.readmit_locked(node, &mut cell);
        }
        cell.state = NodeHealth::Healthy;
        cell.lost_at = None;
        cell.last_probe_error = None;
    }

    /// Readmission bookkeeping, with `node`'s health lock already held:
    /// `Lost → Probation`, one readmission booked, downtime accounted.
    fn readmit_locked(&self, node: usize, cell: &mut HealthCell) {
        cell.state = NodeHealth::Probation;
        cell.reprobe_failures = 0;
        cell.last_probe_error = None;
        let down_ms = cell
            .lost_at
            .take()
            .map_or(1, |at| (at.elapsed().as_millis() as u64).max(1));
        self.readmission_downtime_ms
            .fetch_add(down_ms, Ordering::Relaxed);
        self.node_readmissions.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "fleet: {}: readmitted on probation after {down_ms}ms down",
            self.nodes[node].addr
        );
        // Wake dispatchers parked because every routable seat was busy.
        self.available.notify_all();
    }

    /// Books a failure of `node` and returns the retryable error that
    /// sends the cell back through the harness's retry loop.
    fn node_lost(&self, node: usize, attempt: u32) -> CellError {
        self.mark_failure(node);
        CellError::Crashed {
            signal: None,
            code: None,
            attempts: attempt,
        }
    }

    /// The background reprobe: every lost node is re-dialed on a
    /// deterministic exponential backoff (`reprobe_base · 2^min(n, 5)`);
    /// a probe runs the full hello/welcome handshake, so a restarted
    /// daemon with a drifted build fingerprint is refused by name and
    /// stays lost instead of being silently readmitted.
    fn reprobe_loop(inner: &Arc<FleetInner>) {
        const TICK: Duration = Duration::from_millis(25);
        while !inner.shutdown.load(Ordering::Relaxed) {
            std::thread::sleep(TICK);
            for (i, node) in inner.nodes.iter().enumerate() {
                if inner.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                let due = {
                    let cell = lock(&node.health);
                    cell.state == NodeHealth::Lost && Instant::now() >= cell.next_reprobe
                };
                if !due {
                    continue;
                }
                match dial(&node.addr, inner.config.connect_timeout) {
                    Ok((_probe_stream, _seats)) => {
                        // Handshake verified; the probe stream itself is
                        // dropped — seats redial lazily on next dispatch.
                        let mut cell = lock(&node.health);
                        if cell.state == NodeHealth::Lost {
                            inner.readmit_locked(i, &mut cell);
                        }
                    }
                    Err(err) => {
                        let mut cell = lock(&node.health);
                        if cell.state != NodeHealth::Lost {
                            continue;
                        }
                        cell.reprobe_failures = cell.reprobe_failures.saturating_add(1);
                        let exp = cell.reprobe_failures.min(5);
                        cell.next_reprobe =
                            Instant::now() + inner.config.reprobe_base * (1u32 << exp);
                        let message = err.to_string();
                        if cell.last_probe_error.as_deref() != Some(message.as_str()) {
                            eprintln!(
                                "fleet: {}: reprobe failed ({message}); backing off",
                                node.addr
                            );
                            cell.last_probe_error = Some(message);
                        }
                    }
                }
            }
        }
    }

    fn run_on_slot(
        &self,
        index: usize,
        cell: &CellRun<'_>,
        fault: &Option<WorkerFault>,
        net_fault: &Option<NetFault>,
    ) -> Result<SimStats, SlotOutcome> {
        let (attempt, budget_ms) = (cell.attempt, cell.budget_ms());
        let node_index = self.slot_nodes[index];
        let mut slot = lock(&self.slots[index]);
        if slot.conn.is_none() {
            match dial(&self.nodes[node_index].addr, self.config.connect_timeout) {
                Ok((stream, _seats)) => {
                    slot.conn = Some(stream);
                    self.mark_dialed(node_index);
                }
                Err(err) => {
                    // Could not even reach the node: count a failure so
                    // routing steers away, and let dispatch re-route this
                    // same attempt.
                    self.mark_failure(node_index);
                    return Err(SlotOutcome::Unreachable(CellError::Transient {
                        message: format!(
                            "fleet dial {} failed: {err}",
                            self.nodes[node_index].addr
                        ),
                        attempts: attempt,
                    }));
                }
            }
        }

        // Realize pre-dispatch network faults.
        match net_fault {
            Some(NetFault::Slowlink(delay)) => std::thread::sleep(*delay),
            Some(NetFault::Drop) => {
                slot.conn = None;
                return Err(SlotOutcome::Final(self.node_lost(node_index, attempt)));
            }
            _ => {}
        }

        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let stream = slot.conn.as_mut().expect("connection just ensured");
        let sent = if matches!(net_fault, Some(NetFault::TruncFrame)) {
            // Corruption in flight: a complete frame whose body is
            // garbage bytes. The daemon must reject it and close; we
            // recover below through the ordinary loss path.
            let garbage = b"\xff\xfe deliberately corrupt fleet frame";
            let mut raw = Vec::with_capacity(4 + garbage.len());
            raw.extend_from_slice(&(garbage.len() as u32).to_be_bytes());
            raw.extend_from_slice(garbage);
            stream.write_all(&raw).and_then(|()| stream.flush())
        } else {
            let request = RunRequest {
                id,
                workload: cell.spec.clone(),
                trace_len: cell.trace_len,
                budget_ms,
                fault: fault.clone(),
                config: cell.config.clone(),
            };
            net::write_frame(stream, &request.to_json())
        };
        if sent.is_err() {
            slot.conn = None;
            return Err(SlotOutcome::Final(self.node_lost(node_index, attempt)));
        }

        let budget_deadline =
            (budget_ms > 0).then(|| Instant::now() + Duration::from_millis(budget_ms));
        let mut heartbeat_deadline = Instant::now() + self.config.heartbeat_timeout;

        // A partition delivers nothing — not the heartbeats that are in
        // fact arriving, not even the peer's FIN. Going fully deaf makes
        // the heartbeat deadline fire exactly as a real partition would.
        if matches!(net_fault, Some(NetFault::Partition)) {
            loop {
                std::thread::sleep(POLL);
                let now = Instant::now();
                if budget_deadline.is_some_and(|deadline| now >= deadline) {
                    slot.conn = None;
                    return Err(SlotOutcome::Final(CellError::Timeout { budget_ms }));
                }
                if now >= heartbeat_deadline {
                    slot.conn = None;
                    return Err(SlotOutcome::Final(self.node_lost(node_index, attempt)));
                }
            }
        }

        loop {
            let stream = slot.conn.as_mut().expect("connection live while waiting");
            match net::read_frame(stream) {
                Ok(Some(frame)) => {
                    if is_bye(&frame) {
                        // Orderly drain, not a crash: retire the seat's
                        // connection without charging a node loss.
                        slot.conn = None;
                        return Err(SlotOutcome::Final(CellError::Transient {
                            message: format!(
                                "worker daemon {} is draining; cell re-dispatched",
                                self.nodes[node_index].addr
                            ),
                            attempts: attempt,
                        }));
                    }
                    match WorkerReply::from_json(&frame) {
                        Some(WorkerReply::Heartbeat) => {
                            heartbeat_deadline = Instant::now() + self.config.heartbeat_timeout;
                        }
                        // `None` is a reply for a superseded id (a kill
                        // raced a completion): dropped.
                        Some(reply) => match reply.outcome(id, attempt) {
                            Some(Ok(stats)) => {
                                self.mark_replied(node_index);
                                return Ok(stats);
                            }
                            Some(Err(err)) => {
                                if matches!(err, CellError::Crashed { .. }) {
                                    // The remote child died; the daemon
                                    // told us so and will close this
                                    // connection.
                                    slot.conn = None;
                                }
                                return Err(SlotOutcome::Final(err));
                            }
                            None => {}
                        },
                        None => {
                            // The peer speaks frames but not our protocol:
                            // a corrupt or hostile stream. Sever it.
                            slot.conn = None;
                            return Err(SlotOutcome::Final(self.node_lost(node_index, attempt)));
                        }
                    }
                }
                Ok(None) => {
                    slot.conn = None;
                    return Err(SlotOutcome::Final(self.node_lost(node_index, attempt)));
                }
                Err(err) if err.is_timeout() => {
                    let now = Instant::now();
                    if budget_deadline.is_some_and(|deadline| now >= deadline) {
                        // Severing the connection is the remote SIGKILL:
                        // the daemon kills the child when its client
                        // vanishes. Intentional preemption, not a loss.
                        slot.conn = None;
                        return Err(SlotOutcome::Final(CellError::Timeout { budget_ms }));
                    }
                    if now >= heartbeat_deadline {
                        slot.conn = None;
                        return Err(SlotOutcome::Final(self.node_lost(node_index, attempt)));
                    }
                }
                Err(_) => {
                    slot.conn = None;
                    return Err(SlotOutcome::Final(self.node_lost(node_index, attempt)));
                }
            }
        }
    }
}

/// Dials one node and completes the registration handshake, returning the
/// stream (read deadline set to the poll quantum) and the node's
/// advertised seat count.
fn dial(addr: &str, timeout: Duration) -> io::Result<(TcpStream, usize)> {
    let mut stream = net::connect(addr, timeout)?;
    net::write_frame(&mut stream, &Hello::current().to_json())?;
    let doc = net::read_frame(&mut stream)
        .map_err(io::Error::from)?
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::ConnectionReset,
                "node closed during handshake",
            )
        })?;
    match Welcome::from_json(&doc) {
        Some(Welcome::Accepted { slots }) => {
            stream.set_read_timeout(Some(POLL))?;
            Ok((stream, slots))
        }
        Some(Welcome::Refused { reason }) => Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("node refused registration: {reason}"),
        )),
        None => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "node answered the handshake with an unintelligible frame",
        )),
    }
}

/// Builds the `crashed` reply a daemon sends when its proxied child died
/// under a cell, carrying the exit evidence for remote classification.
fn crash_reply(id: u64, status: &io::Result<std::process::ExitStatus>) -> Json {
    let (signal, code) = child::exit_evidence(status);
    let message = match (signal, code) {
        (Some(sig), _) => format!("remote worker killed by signal {sig}"),
        (None, Some(code)) => format!("remote worker exited with code {code}"),
        (None, None) => "remote worker died without a status".to_string(),
    };
    WorkerReply::Err {
        id,
        kind: "crashed".to_string(),
        message,
        signal,
        code,
    }
    .to_json()
}

/// The id that concludes a cell, if `frame` is a final (non-heartbeat)
/// reply.
fn concluding_id(frame: &Json) -> Option<u64> {
    match WorkerReply::from_json(frame) {
        Some(WorkerReply::Ok { id, .. }) | Some(WorkerReply::Err { id, .. }) => Some(id),
        _ => None,
    }
}

/// The `fdip workerd` serve loop: accepts fleet connections on
/// `listener`, advertising `slots` seats per handshake, until `shutdown`
/// returns true — then drains (in-flight cells finish, idle connections
/// get a `bye`, children retire) and returns.
///
/// Each connection is served on its own thread and proxied to a
/// supervised child worker spawned lazily on its first cell, so a cell
/// that aborts, hangs, or OOMs remotely takes down a disposable child —
/// never the daemon. A vanished client (severed connection) SIGKILLs the
/// child, which is how remote budget preemption works.
///
/// # Errors
///
/// Only listener-level failures; per-connection errors retire that
/// connection and are otherwise absorbed.
pub fn serve_workerd(
    listener: TcpListener,
    slots: usize,
    shutdown: &(dyn Fn() -> bool + Sync),
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let draining = Arc::new(AtomicBool::new(false));
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        if shutdown() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let draining = Arc::clone(&draining);
                conns.push(std::thread::spawn(move || {
                    serve_connection(stream, slots, &draining);
                }));
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
        conns.retain(|handle| !handle.is_finished());
    }
    // Drain: no new connections (we stopped accepting), in-flight cells
    // finish, idle connections say goodbye.
    draining.store(true, Ordering::Relaxed);
    for handle in conns {
        let _ = handle.join();
    }
    Ok(())
}

/// One fleet connection: handshake, then proxy cells to a child worker.
fn serve_connection(mut stream: TcpStream, slots: usize, draining: &AtomicBool) {
    stream.set_nodelay(true).ok();
    if stream.set_read_timeout(Some(POLL)).is_err()
        || stream.set_write_timeout(Some(HANDSHAKE_TIMEOUT)).is_err()
    {
        return;
    }

    // Handshake, bounded: a peer that won't identify itself gets nothing.
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let hello = loop {
        match net::read_frame(&mut stream) {
            Ok(Some(doc)) => break Hello::from_json(&doc),
            Ok(None) => return,
            Err(err) if err.is_timeout() => {
                if Instant::now() >= deadline || draining.load(Ordering::Relaxed) {
                    return;
                }
            }
            Err(_) => return, // oversized/truncated/garbage: refuse to guess
        }
    };
    let Some(hello) = hello else { return };
    let fingerprint = net::build_fingerprint();
    if hello.protocol != PROTOCOL_VERSION || hello.fingerprint != fingerprint {
        let reason = format!(
            "version mismatch: peer is {:?} proto {}, daemon is {:?} proto {PROTOCOL_VERSION}",
            hello.fingerprint, hello.protocol, fingerprint
        );
        let _ = net::write_frame(&mut stream, &Welcome::Refused { reason }.to_json());
        return;
    }
    if draining.load(Ordering::Relaxed) {
        let reason = "daemon is draining".to_string();
        let _ = net::write_frame(&mut stream, &Welcome::Refused { reason }.to_json());
        return;
    }
    if net::write_frame(&mut stream, &Welcome::Accepted { slots }.to_json()).is_err() {
        return;
    }

    let mut child: Option<Child> = None;
    let mut cells_done = 0u64;
    let mut announced = false;
    loop {
        // Idle: wait for the next cell (or the drain signal).
        let doc = match net::read_frame(&mut stream) {
            Ok(Some(doc)) => doc,
            Ok(None) => break, // client closed between cells
            Err(err) if err.is_timeout() => {
                if draining.load(Ordering::Relaxed) {
                    let _ = net::write_frame(&mut stream, &bye_frame());
                    break;
                }
                continue;
            }
            // Corrupt, oversized, or truncated input: never guess at a
            // desynchronized stream — sever it. The client re-dispatches.
            Err(_) => break,
        };
        let Some(request) = RunRequest::from_json(&doc) else {
            break; // valid JSON, wrong protocol: same treatment
        };
        if !announced {
            // Distinguishes a peer that actually dispatches cells from a
            // reprobe, which handshakes and leaves — readmission drills
            // grep for this line.
            announced = true;
            println!("fdip-workerd: serving cells for a registered peer");
        }
        if draining.load(Ordering::Relaxed) {
            let _ = net::write_frame(&mut stream, &bye_frame());
            break;
        }

        if child.is_none() {
            match Child::spawn() {
                Ok(spawned) => {
                    child = Some(spawned);
                    cells_done = 0;
                }
                Err(err) => {
                    let reply = WorkerReply::Err {
                        id: request.id,
                        kind: "transient".to_string(),
                        message: format!("daemon could not spawn a worker: {err}"),
                        signal: None,
                        code: None,
                    };
                    if net::write_frame(&mut stream, &reply.to_json()).is_err() {
                        break;
                    }
                    continue;
                }
            }
        }
        let proxy = child.as_mut().expect("child just ensured");
        if proxy.send(&doc).is_err() {
            // Child died between cells: report and close; the client
            // redials, getting a fresh connection and a fresh child.
            let status = child.take().expect("child present").reap();
            let _ = net::write_frame(&mut stream, &crash_reply(request.id, &status));
            break;
        }

        // Busy: pump the child's frames (heartbeats included) to the
        // client until this cell concludes. Deliberately no drain check
        // here — in-flight cells finish.
        let mut concluded = false;
        loop {
            let proxy = child.as_ref().expect("child live while busy");
            match proxy.recv_timeout(POLL) {
                Ok(ChildEvent::Frame(frame)) => {
                    let done = concluding_id(&frame) == Some(request.id);
                    if net::write_frame(&mut stream, &frame).is_err() {
                        // The client vanished mid-cell: that is the remote
                        // SIGKILL (budget preemption or client death).
                        child.take().expect("child present").kill();
                        return;
                    }
                    if done {
                        concluded = true;
                        break;
                    }
                }
                Ok(ChildEvent::Eof | ChildEvent::Failed) | Err(RecvTimeoutError::Disconnected) => {
                    let status = child.take().expect("child present").reap();
                    let _ = net::write_frame(&mut stream, &crash_reply(request.id, &status));
                    break;
                }
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
        if !concluded {
            break; // child crashed: close so the client starts clean
        }
        cells_done += 1;
        if cells_done >= RECYCLE_AFTER {
            child.take().expect("child survived the cell").retire();
        }
    }
    if let Some(proxy) = child {
        proxy.retire();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;
    use fdip::FrontendConfig;
    use std::net::TcpListener;

    fn canned_stats() -> SimStats {
        SimStats {
            cycles: 123,
            instructions: 456,
            ..SimStats::default()
        }
    }

    /// One attempt at a fixed cell, with an optional network fault.
    fn run(
        fleet: &Fleet,
        net_fault: Option<NetFault>,
        attempt: u32,
    ) -> Result<SimStats, CellError> {
        let spec = WorkloadSpec::new(fdip_trace::gen::Profile::Server, 1);
        let config = FrontendConfig::default();
        let cell = CellRun {
            spec: &spec,
            trace_len: 1000,
            label: "c",
            config: &config,
            budget: None,
            attempt,
        };
        fleet.run(&cell, net_fault.map(Injected::Net))
    }

    /// A scripted peer standing in for a workerd: accepts `conns`
    /// connections, handshakes each, then runs `script` on it.
    fn fake_node(
        conns: usize,
        script: impl Fn(usize, &mut TcpStream) + Send + 'static,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            for i in 0..conns {
                let (mut stream, _) = listener.accept().unwrap();
                let doc = net::read_frame(&mut stream).unwrap().unwrap();
                assert!(Hello::from_json(&doc).is_some());
                net::write_frame(&mut stream, &Welcome::Accepted { slots: 1 }.to_json()).unwrap();
                script(i, &mut stream);
            }
        });
        (addr, handle)
    }

    fn tiny_config(addrs: Vec<String>) -> FleetConfig {
        FleetConfig {
            addrs,
            connect_timeout: Duration::from_secs(2),
            heartbeat_timeout: Duration::from_millis(400),
            reprobe_base: Duration::from_millis(50),
        }
    }

    #[test]
    fn fleet_runs_a_cell_against_a_node() {
        let (addr, node) = fake_node(1, |_, stream| {
            let doc = net::read_frame(stream).unwrap().unwrap();
            let request = RunRequest::from_json(&doc).expect("a run request");
            net::write_frame(stream, &WorkerReply::Heartbeat.to_json()).unwrap();
            let reply = WorkerReply::Ok {
                id: request.id,
                stats: Box::new(canned_stats()),
            };
            net::write_frame(stream, &reply.to_json()).unwrap();
        });
        let fleet = Fleet::connect(tiny_config(vec![addr.clone()])).unwrap();
        assert_eq!(fleet.workers(), 1);
        assert_eq!(fleet.nodes(), vec![(addr, 1)]);
        let stats = run(&fleet, None, 1).unwrap();
        assert_eq!(stats, canned_stats());
        assert_eq!(
            fleet.stats(),
            FleetStats {
                fleet_workers: 1,
                node_losses: 0,
                cells_redispatched: 0,
                node_readmissions: 0,
                readmission_downtime_ms: 0,
            }
        );
        assert_eq!(fleet.node_health()[0].1, NodeHealth::Healthy);
        node.join().unwrap();
    }

    #[test]
    fn a_node_closing_mid_cell_is_one_loss_and_a_redial_recovers() {
        let (addr, node) = fake_node(2, |conn, stream| {
            let doc = net::read_frame(stream).unwrap().unwrap();
            let request = RunRequest::from_json(&doc).expect("a run request");
            if conn == 0 {
                return; // die mid-cell: the client must classify a loss
            }
            let reply = WorkerReply::Ok {
                id: request.id,
                stats: Box::new(canned_stats()),
            };
            net::write_frame(stream, &reply.to_json()).unwrap();
        });
        let fleet = Fleet::connect(tiny_config(vec![addr])).unwrap();
        let err = run(&fleet, None, 1).unwrap_err();
        assert!(
            matches!(err, CellError::Crashed { .. }),
            "node loss must be retryable Crashed, got {err:?}"
        );
        assert!(err.retryable());
        // The retry (attempt 2) redials and succeeds.
        let stats = run(&fleet, None, 2).unwrap();
        assert_eq!(stats, canned_stats());
        let stats = fleet.stats();
        assert_eq!(stats.node_losses, 1);
        assert_eq!(stats.cells_redispatched, 1);
        node.join().unwrap();
    }

    #[test]
    fn partition_fault_trips_the_heartbeat_deadline() {
        let (addr, node) = fake_node(1, |_, stream| {
            let doc = net::read_frame(stream).unwrap().unwrap();
            let request = RunRequest::from_json(&doc).expect("a run request");
            // The node answers normally — the *client* is partitioned.
            let reply = WorkerReply::Ok {
                id: request.id,
                stats: Box::new(canned_stats()),
            };
            let _ = net::write_frame(stream, &reply.to_json());
        });
        let fleet = Fleet::connect(tiny_config(vec![addr])).unwrap();
        let start = Instant::now();
        let err = run(&fleet, Some(NetFault::Partition), 1).unwrap_err();
        assert!(matches!(err, CellError::Crashed { .. }), "{err:?}");
        assert!(
            start.elapsed() >= Duration::from_millis(350),
            "partition must be detected by the heartbeat deadline, not eagerly"
        );
        assert_eq!(fleet.stats().node_losses, 1);
        node.join().unwrap();
    }

    #[test]
    fn drop_fault_severs_before_dispatch() {
        let (addr, node) = fake_node(1, |_, stream| {
            // Nothing should arrive: severed before dispatch. Read until
            // the client closes.
            while let Ok(Some(_)) = net::read_frame(stream) {}
        });
        let fleet = Fleet::connect(tiny_config(vec![addr])).unwrap();
        let err = run(&fleet, Some(NetFault::Drop), 1).unwrap_err();
        assert!(matches!(err, CellError::Crashed { .. }), "{err:?}");
        assert_eq!(fleet.stats().node_losses, 1);
        drop(fleet); // closes the connection so the node thread ends
        node.join().unwrap();
    }

    #[test]
    fn a_lost_node_is_reprobed_and_readmitted_after_restart() {
        // Phase 1: a node that dies mid-cell twice, walking the health
        // machine Healthy → Suspect → Lost. The listener then drops, so
        // reprobes are refused until the "restart".
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let phase1 = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut stream, _) = listener.accept().unwrap();
                let doc = net::read_frame(&mut stream).unwrap().unwrap();
                assert!(Hello::from_json(&doc).is_some());
                net::write_frame(&mut stream, &Welcome::Accepted { slots: 1 }.to_json()).unwrap();
                // Die as soon as a cell arrives.
                let _ = net::read_frame(&mut stream);
            }
        });
        let fleet = Fleet::connect(tiny_config(vec![addr.clone()])).unwrap();
        for attempt in 1..=2 {
            let err = run(&fleet, None, attempt).unwrap_err();
            assert!(err.retryable(), "{err:?}");
        }
        phase1.join().unwrap();
        assert_eq!(fleet.node_health(), vec![(addr.clone(), NodeHealth::Lost)]);

        // Phase 2: "restart the daemon" on the same address. Probe
        // connections handshake and leave; a real dispatch gets served.
        std::thread::sleep(Duration::from_millis(80));
        let listener = TcpListener::bind(&addr).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let phase2 = std::thread::spawn(move || {
            listener.set_nonblocking(true).unwrap();
            while !flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        stream.set_nonblocking(false).ok();
                        let Ok(Some(doc)) = net::read_frame(&mut stream) else {
                            continue;
                        };
                        if Hello::from_json(&doc).is_none() {
                            continue;
                        }
                        if net::write_frame(&mut stream, &Welcome::Accepted { slots: 1 }.to_json())
                            .is_err()
                        {
                            continue;
                        }
                        if let Ok(Some(doc)) = net::read_frame(&mut stream) {
                            if let Some(request) = RunRequest::from_json(&doc) {
                                let reply = WorkerReply::Ok {
                                    id: request.id,
                                    stats: Box::new(canned_stats()),
                                };
                                let _ = net::write_frame(&mut stream, &reply.to_json());
                            }
                        }
                    }
                    Err(ref err) if err.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => break,
                }
            }
        });

        // The background reprobe must readmit within its backoff window.
        let deadline = Instant::now() + Duration::from_secs(5);
        while fleet.stats().node_readmissions == 0 {
            assert!(Instant::now() < deadline, "node was never readmitted");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(
            fleet.node_health(),
            vec![(addr.clone(), NodeHealth::Probation)]
        );
        let stats = run(&fleet, None, 3).unwrap();
        assert_eq!(stats, canned_stats());
        assert_eq!(fleet.node_health(), vec![(addr, NodeHealth::Healthy)]);
        let stats = fleet.stats();
        assert_eq!(stats.node_losses, 1, "one outage, one booked loss");
        assert_eq!(stats.node_readmissions, 1);
        assert!(stats.readmission_downtime_ms > 0);
        stop.store(true, Ordering::Relaxed);
        phase2.join().unwrap();
    }

    #[test]
    fn an_unreachable_fleet_is_an_error_and_a_refusal_names_its_reason() {
        let err = Fleet::connect(tiny_config(vec!["127.0.0.1:1".to_string()])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotConnected);

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let refuser = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = net::read_frame(&mut stream).unwrap();
            let reason = "protocol too old".to_string();
            net::write_frame(&mut stream, &Welcome::Refused { reason }.to_json()).unwrap();
        });
        let err = dial(&addr, Duration::from_secs(2)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        assert!(err.to_string().contains("protocol too old"), "{err}");
        refuser.join().unwrap();
    }

    #[test]
    fn workerd_refuses_a_mismatched_peer_and_drains_on_shutdown() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let daemon = std::thread::spawn(move || {
            serve_workerd(listener, 2, &move || flag.load(Ordering::Relaxed))
        });

        // Wrong protocol version → typed refusal, no child ever spawned.
        let mut stream = net::connect(&addr, Duration::from_secs(2)).unwrap();
        let bogus = Hello {
            protocol: PROTOCOL_VERSION + 1,
            fingerprint: net::build_fingerprint(),
        };
        net::write_frame(&mut stream, &bogus.to_json()).unwrap();
        let doc = read_with_patience(&mut stream);
        match Welcome::from_json(&doc) {
            Some(Welcome::Refused { reason }) => {
                assert!(reason.contains("version mismatch"), "{reason}")
            }
            other => panic!("expected a refusal, got {other:?}"),
        }

        // A well-formed handshake is accepted (still no cell, no child).
        let mut stream = net::connect(&addr, Duration::from_secs(2)).unwrap();
        net::write_frame(&mut stream, &Hello::current().to_json()).unwrap();
        let doc = read_with_patience(&mut stream);
        assert_eq!(
            Welcome::from_json(&doc),
            Some(Welcome::Accepted { slots: 2 })
        );

        stop.store(true, Ordering::Relaxed);
        daemon.join().unwrap().unwrap();
    }

    /// Reads one frame, riding out the poll-quantum read timeouts.
    fn read_with_patience(stream: &mut TcpStream) -> Json {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match net::read_frame(stream) {
                Ok(Some(doc)) => return doc,
                Ok(None) => panic!("peer closed before answering"),
                Err(err) if err.is_timeout() && Instant::now() < deadline => {}
                Err(err) => panic!("handshake read failed: {err}"),
            }
        }
    }
}
