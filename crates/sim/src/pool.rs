//! The one out-of-process cell executor: a pool of seats, each holding at
//! most one open link to a worker that runs cells one at a time.
//!
//! Every seat belongs to a node. [`Pool::local`] builds one local node
//! whose seats are self-exec'd child workers over stdin/stdout pipes
//! (`--isolate`); [`Pool::connect`] builds one node per `fdip workerd`
//! daemon, whose seats are TCP connections (`--fleet`). Either way, a cell
//! attempt takes a free seat and is sent, waited on and classified in one
//! loop (`Pool::exchange`):
//!
//! * **heartbeats** — a busy worker proves liveness every ~100 ms; silence
//!   past the heartbeat timeout means wedged or partitioned, not slow;
//! * **hard budgets** — past a cell's wall-clock budget the link is
//!   severed: SIGKILL for a child, a closed socket for a daemon (which
//!   kills its own child when its client vanishes), so `hang`/runaway
//!   cells die at the deadline even though they never poll anything;
//! * **classification** — every way a link can end maps onto a typed
//!   [`CellError`]: a budget kill is [`CellError::Timeout`], a dead or
//!   silent worker is the retryable [`CellError::Crashed`] (carrying a
//!   child's exit signal or code when its status is known), and a worker
//!   that survived reports [`CellError::Panic`] / [`CellError::Transient`]
//!   itself.
//!
//! What differs by transport stays at the edges: how a link opens (spawn
//! after the crash-loop pause, or dial and handshake), which network
//! faults can be realised (TCP only; `Reach` refuses them on a local
//! pool), and how a lost link is booked. A local seat counts consecutive
//! crashes and, past `CRASH_LOOP_THRESHOLD`, pauses before respawning, so
//! a poisoned machine degrades into slow retries instead of a fork bomb. A
//! remote node walks the [`NodeHealth`] machine, and a background thread
//! reprobes lost nodes on an exponential backoff.
//!
//! Scheduling, caching, retry policy, journaling and result ordering all
//! stay in the harness, so out-of-process runs keep the deterministic,
//! thread-count-invariant output of in-process ones.

use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fdip::SimStats;
use fdip_types::Json;

use crate::child::{self, Child, Recv};
use crate::exec::{CellRun, Executor, Injected, Reach};
use crate::fault::CellError;
use crate::fleet::{dial, FleetConfig, FleetStats, NodeHealth, POLL};
use crate::harness::{lock, HarnessStats};
use crate::ipc::{RunRequest, WorkerReply};
use crate::net::{self, is_bye, NetFault};
use crate::supervisor::SupervisorConfig;

/// Cells a worker process runs before it is retired and respawned fresh
/// (bounds the blast radius of slow leaks in long sweeps). Local seats and
/// `fdip workerd`'s proxied children share it.
pub(crate) const RECYCLE_AFTER: u64 = 64;

/// Consecutive crashes on one local seat before respawns start backing off.
pub(crate) const CRASH_LOOP_THRESHOLD: u32 = 3;

/// Base pause once a local seat is crash-looping; doubles per further crash
/// (capped at 16×), deterministically — no randomness, so drills reproduce.
pub(crate) const CRASH_BACKOFF: Duration = Duration::from_millis(200);

/// A seat's open connection to the worker that runs its cells.
enum Link {
    /// A self-exec'd child worker over stdin/stdout pipes.
    Pipe(Child),
    /// A registered connection to an `fdip workerd` daemon.
    Tcp(TcpStream),
}

impl Link {
    fn send(&mut self, doc: &Json) -> io::Result<()> {
        match self {
            Link::Pipe(child) => child.send(doc),
            Link::Tcp(stream) => net::write_frame(stream, doc),
        }
    }

    /// Waits up to `timeout` for the next frame (a TCP read wakes at its
    /// poll quantum instead).
    fn recv(&mut self, timeout: Duration) -> Recv {
        match self {
            Link::Pipe(child) => child.recv(timeout),
            Link::Tcp(stream) => match net::read_frame(stream) {
                Ok(Some(frame)) => Recv::Frame(frame),
                Err(err) if err.is_timeout() => Recv::Quiet,
                Ok(None) | Err(_) => Recv::Closed,
            },
        }
    }
}

/// One seat's bookkeeping; its mutex serializes the seat, not the pool.
#[derive(Default)]
struct Seat {
    /// The open link, if any; dropping a pipe link kills and reaps its child.
    link: Option<Link>,
    /// Cells a local seat has finished since it last recycled its child.
    cells_done: u64,
    /// Consecutive crashes on a local seat: the crash-loop signal.
    crashes: u32,
    /// Whether a local seat ever spawned (a later spawn is a restart).
    spawned: bool,
}

/// A remote node's health bookkeeping, behind its own lock so the reprobe
/// thread and dispatchers never contend on seat locks.
struct Health {
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

/// A set of seats: this machine's, or one worker daemon's.
struct Node {
    addr: String,
    health: Mutex<Health>,
}

impl Node {
    fn new(addr: String) -> Node {
        Node {
            addr,
            health: Mutex::new(Health {
                state: NodeHealth::Healthy,
                reprobe_failures: 0,
                next_reprobe: Instant::now(),
                lost_at: None,
                last_probe_error: None,
            }),
        }
    }

    fn health(&self) -> NodeHealth {
        lock(&self.health).state
    }

    /// Whether dispatch may route to this node (everything but `Lost`).
    fn routable(&self) -> bool {
        self.health() != NodeHealth::Lost
    }
}

/// How one seat attempt ended, distinguishing "could not even reach the
/// node" (re-route within the same attempt) from a real cell outcome.
enum SeatOutcome {
    /// Dialing the node failed; the attempt has not been spent.
    Unreachable(CellError),
    /// The cell ran (or died) on the seat; this is the attempt's result.
    Final(CellError),
}

/// The counters a pool accumulates.
#[derive(Default)]
struct Counts {
    worker_restarts: AtomicU64,
    worker_kills: AtomicU64,
    worker_crash_loops: AtomicU64,
    node_losses: AtomicU64,
    cells_redispatched: AtomicU64,
    node_readmissions: AtomicU64,
    readmission_downtime_ms: AtomicU64,
}

/// Worker seats on this machine or across worker daemons, running one
/// cell each at a time. See the module docs.
pub struct Pool {
    /// The daemons' dial and reprobe policy; `None` for a local pool.
    fleet: Option<FleetConfig>,
    heartbeat_timeout: Duration,
    nodes: Vec<Node>,
    /// `seat_nodes[i]` is the node seat `i` belongs to (fixed at
    /// construction, so routing reads it without seat locks).
    seat_nodes: Vec<usize>,
    seats: Vec<Mutex<Seat>>,
    free: Mutex<Vec<usize>>,
    available: Condvar,
    next_id: AtomicU64,
    counts: Counts,
    /// A TCP pool's background reprobe, joined on drop.
    reprobe: OnceLock<JoinHandle<()>>,
}

impl Pool {
    fn new(
        fleet: Option<FleetConfig>,
        heartbeat_timeout: Duration,
        nodes: Vec<Node>,
        seats: Vec<(usize, Option<Link>)>,
    ) -> Pool {
        Pool {
            fleet,
            heartbeat_timeout,
            nodes,
            seat_nodes: seats.iter().map(|&(node, _)| node).collect(),
            free: Mutex::new((0..seats.len()).rev().collect()),
            seats: seats
                .into_iter()
                .map(|(_, link)| {
                    Mutex::new(Seat {
                        link,
                        ..Seat::default()
                    })
                })
                .collect(),
            available: Condvar::new(),
            next_id: AtomicU64::new(1),
            counts: Counts::default(),
            reprobe: OnceLock::new(),
        }
    }

    /// A local pool of `config.workers` (at least one) seats. It spawns
    /// nothing and starts no thread: workers spawn on first dispatch.
    pub fn local(config: SupervisorConfig) -> Pool {
        let seats = (0..config.workers.max(1)).map(|_| (0, None)).collect();
        let local = vec![Node::new("local".to_string())];
        Pool::new(None, config.heartbeat_timeout, local, seats)
    }

    /// Registers with every address in `config`, learning each node's
    /// seat count from its handshake, and starts the background reprobe.
    /// Unreachable nodes are warned about and skipped — the pool sails
    /// with whoever showed up.
    ///
    /// # Errors
    ///
    /// Only if *no* node is reachable: an empty pool cannot run cells.
    pub fn connect(config: FleetConfig) -> io::Result<Arc<Pool>> {
        let mut nodes = Vec::new();
        let mut seats = Vec::new();
        for addr in &config.addrs {
            match dial(addr, config.connect_timeout) {
                Ok((stream, count)) => {
                    let (node, mut first) = (nodes.len(), Some(Link::Tcp(stream)));
                    seats.extend((0..count.max(1)).map(|_| (node, first.take())));
                    nodes.push(Node::new(addr.clone()));
                }
                Err(err) => {
                    eprintln!(
                        "fleet: {addr}: unreachable at startup ({err}); continuing without it"
                    );
                }
            }
        }
        if seats.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "no fleet node is reachable",
            ));
        }
        let heartbeat = config.heartbeat_timeout;
        let pool = Arc::new(Pool::new(Some(config), heartbeat, nodes, seats));
        let weak = Arc::downgrade(&pool);
        let reprobe = std::thread::Builder::new()
            .name("fleet-reprobe".to_string())
            .spawn(move || reprobe_loop(&weak));
        if let Ok(handle) = reprobe {
            let _ = pool.reprobe.set(handle);
        }
        Ok(pool)
    }

    /// The nodes and their seat counts, for startup reporting.
    pub fn nodes(&self) -> Vec<(String, usize)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let seats = self.seat_nodes.iter().filter(|&&n| n == i).count();
                (node.addr.clone(), seats)
            })
            .collect()
    }

    /// Each node's current health state, for the chaos harness and tests.
    pub fn node_health(&self) -> Vec<(String, NodeHealth)> {
        self.nodes
            .iter()
            .map(|node| (node.addr.clone(), node.health()))
            .collect()
    }

    /// The fleet counters; all zero for a local pool.
    pub fn stats(&self) -> FleetStats {
        if self.fleet.is_none() {
            return FleetStats::default();
        }
        let c = &self.counts;
        FleetStats {
            fleet_workers: self.seats.len() as u64,
            node_losses: c.node_losses.load(Ordering::Relaxed),
            cells_redispatched: c.cells_redispatched.load(Ordering::Relaxed),
            node_readmissions: c.node_readmissions.load(Ordering::Relaxed),
            readmission_downtime_ms: c.readmission_downtime_ms.load(Ordering::Relaxed),
        }
    }

    /// Runs `request` on a worker daemon's one-seat local pool and
    /// returns the reply for its client, relaying each heartbeat through
    /// `beat` (`false`: the client vanished, and the child is killed).
    /// The client enforces the budget; the daemon runs unbounded.
    pub(crate) fn serve(
        &self,
        request: &RunRequest,
        beat: &mut dyn FnMut() -> bool,
    ) -> WorkerReply {
        let cell = CellRun {
            spec: &request.workload,
            trace_len: request.trace_len,
            label: "",
            config: &request.config,
            budget: None,
            attempt: 1,
        };
        let fault = request.fault.clone().map(Injected::Worker);
        let outcome = self.run_on_seat(0, &cell, fault.as_ref(), beat);
        let outcome =
            outcome.map_err(|(SeatOutcome::Final(err) | SeatOutcome::Unreachable(err))| err);
        WorkerReply::from_outcome(request.id, outcome)
    }

    /// Picks the preferred node for `(content key, attempt, re-route
    /// round)`: hash-routed over nodes not marked lost, falling back to
    /// the full set (a probe that re-discovers recovered nodes) when
    /// every node is marked lost.
    fn route(&self, key: u64, attempt: u32, round: usize) -> usize {
        let live: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].routable())
            .collect();
        let candidates: &[usize] = if live.is_empty() {
            &self.seat_nodes // never empty; values are node indices
        } else {
            &live
        };
        let spin = key
            .wrapping_add(u64::from(attempt.saturating_sub(1)))
            .wrapping_add(round as u64);
        candidates[(spin % candidates.len() as u64) as usize]
    }

    /// Blocks until a seat is free, preferring one on node `preferred`.
    fn acquire(&self, preferred: usize) -> usize {
        let mut free = lock(&self.free);
        loop {
            if let Some(pos) = free.iter().rposition(|&i| self.seat_nodes[i] == preferred) {
                return free.remove(pos);
            }
            // Any seat on a routable node beats waiting.
            if let Some(pos) = free
                .iter()
                .rposition(|&i| self.nodes[self.seat_nodes[i]].routable())
            {
                return free.remove(pos);
            }
            // Every free seat is on a lost node. Probe one only when every
            // node is marked lost (a last-resort backstop under the
            // background reprobe); while any node is routable, waiting for
            // one of its busy seats beats burning the retry budget on
            // refused dials.
            if !self.nodes.iter().any(Node::routable) {
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

    fn release(&self, index: usize) {
        lock(&self.free).push(index);
        self.available.notify_one();
    }

    /// Runs one cell attempt on seat `index`, opening its link first.
    fn run_on_seat(
        &self,
        index: usize,
        cell: &CellRun<'_>,
        fault: Option<&Injected>,
        beat: &mut dyn FnMut() -> bool,
    ) -> Result<SimStats, SeatOutcome> {
        let node = self.seat_nodes[index];
        let mut seat = lock(&self.seats[index]);
        self.open(node, &mut seat, cell.attempt)?;
        self.exchange(node, &mut seat, cell, fault, beat)
            .map_err(SeatOutcome::Final)
    }

    /// Sends one cell attempt over the seat's open link and waits for its
    /// outcome: the one place an attempt is sent, waited on and
    /// classified, whatever the seat's transport. Each heartbeat is
    /// relayed through `beat`; `false` means whoever waits on this cell is
    /// gone, and the link is severed.
    fn exchange(
        &self,
        node: usize,
        seat: &mut Seat,
        cell: &CellRun<'_>,
        fault: Option<&Injected>,
        beat: &mut dyn FnMut() -> bool,
    ) -> Result<SimStats, CellError> {
        let (attempt, budget_ms) = (cell.attempt, cell.budget_ms());
        let (worker_fault, net_fault) = match fault {
            Some(Injected::Worker(fault)) => (Some(fault.clone()), None),
            Some(Injected::Net(fault)) => (None, Some(fault)),
            None => (None, None),
        };
        match net_fault {
            Some(NetFault::Slowlink(delay)) => std::thread::sleep(*delay),
            Some(NetFault::Drop) => return Err(self.lost(node, seat, attempt, false)),
            _ => {}
        }

        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let sent = match (net_fault, seat.link.as_mut().expect("link just opened")) {
            // Corruption in flight: a complete frame whose body is garbage
            // bytes. The daemon must reject it and close; the wait below
            // recovers through the ordinary loss path.
            (Some(NetFault::TruncFrame), Link::Tcp(stream)) => {
                let garbage = b"\xff\xfe deliberately corrupt fleet frame";
                let mut raw = (garbage.len() as u32).to_be_bytes().to_vec();
                raw.extend_from_slice(garbage);
                stream.write_all(&raw).and_then(|()| stream.flush())
            }
            (_, link) => link.send(
                &RunRequest {
                    id,
                    workload: cell.spec.clone(),
                    trace_len: cell.trace_len,
                    budget_ms,
                    fault: worker_fault,
                    config: cell.config.clone(),
                }
                .to_json(),
            ),
        };
        if sent.is_err() {
            return Err(self.lost(node, seat, attempt, false));
        }

        let budget_deadline =
            (budget_ms > 0).then(|| Instant::now() + Duration::from_millis(budget_ms));
        let mut heartbeat_deadline = Instant::now() + self.heartbeat_timeout;
        // A partition delivers nothing — not the heartbeats that are in
        // fact arriving, not even the peer's FIN. Going fully deaf makes
        // the heartbeat deadline fire exactly as a real partition would.
        let deaf = matches!(net_fault, Some(NetFault::Partition));
        loop {
            // Deadlines are checked before every wait, not only after a
            // quiet one: heartbeats arriving faster than a TCP read's poll
            // quantum must not hold off the budget.
            let now = Instant::now();
            if budget_deadline.is_some_and(|deadline| now >= deadline) {
                // Intentional preemption, not a crash: dropping the link
                // SIGKILLs a child, and a daemon kills its child when its
                // client vanishes.
                if let Some(Link::Pipe(_)) = seat.link.take() {
                    self.counts.worker_kills.fetch_add(1, Ordering::Relaxed);
                }
                return Err(CellError::Timeout { budget_ms });
            }
            if now >= heartbeat_deadline {
                return Err(self.lost(node, seat, attempt, true));
            }
            let wake = budget_deadline.map_or(heartbeat_deadline, |b| b.min(heartbeat_deadline));
            let event = if deaf {
                std::thread::sleep(POLL);
                Recv::Quiet
            } else {
                let link = seat.link.as_mut().expect("link live while waiting");
                link.recv(wake - now)
            };
            let frame = match event {
                Recv::Frame(frame) => frame,
                Recv::Quiet => continue,
                Recv::Closed => return Err(self.lost(node, seat, attempt, false)),
            };
            if is_bye(&frame) {
                // Orderly drain, not a crash: retire the link without
                // charging a node loss.
                seat.link = None;
                return Err(CellError::Transient {
                    message: format!(
                        "worker daemon {} is draining; cell re-dispatched",
                        self.nodes[node].addr
                    ),
                    attempts: attempt,
                });
            }
            match WorkerReply::from_json(&frame) {
                Some(WorkerReply::Heartbeat) => {
                    heartbeat_deadline = Instant::now() + self.heartbeat_timeout;
                    if !beat() {
                        seat.link = None;
                        return Err(CellError::Transient {
                            message: "the cell's requester went away".to_string(),
                            attempts: attempt,
                        });
                    }
                }
                // `outcome` is `None` for a reply to a superseded id (a
                // kill raced a completion): dropped.
                Some(reply) => {
                    if let Some(outcome) = reply.outcome(id, attempt) {
                        self.answered(node, seat, &outcome);
                        return outcome;
                    }
                }
                // The peer speaks frames but not our protocol: a corrupt
                // or hostile stream. Sever it.
                None => return Err(self.lost(node, seat, attempt, false)),
            }
        }
    }

    /// Makes sure the seat has a live link: a local seat respawns its
    /// child, a remote one redials its node.
    fn open(&self, node: usize, seat: &mut Seat, attempt: u32) -> Result<(), SeatOutcome> {
        let Some(config) = &self.fleet else {
            return self.spawn(seat, attempt).map_err(SeatOutcome::Final);
        };
        if seat.link.is_some() {
            return Ok(());
        }
        match dial(&self.nodes[node].addr, config.connect_timeout) {
            Ok((stream, _seats)) => {
                seat.link = Some(Link::Tcp(stream));
                self.mark_dialed(node);
                Ok(())
            }
            Err(err) => {
                // Could not even reach the node: count a failure so routing
                // steers away, and let dispatch re-route this same attempt.
                self.mark_failure(node);
                Err(SeatOutcome::Unreachable(CellError::Transient {
                    message: format!("fleet dial {} failed: {err}", self.nodes[node].addr),
                    attempts: attempt,
                }))
            }
        }
    }

    /// Makes sure a local seat has a live child: replaces one that died
    /// idle, pauses while the seat is crash-looping, and spawns.
    fn spawn(&self, seat: &mut Seat, attempt: u32) -> Result<(), CellError> {
        if let Some(Link::Pipe(child)) = &seat.link {
            if !child.drain_idle() {
                return Ok(());
            }
            // Died between cells: respawn instead of writing into a broken
            // pipe. Dying idle still counts toward the crash loop.
            seat.link = None;
            seat.crashes += 1;
        }
        if seat.crashes >= CRASH_LOOP_THRESHOLD {
            self.counts
                .worker_crash_loops
                .fetch_add(1, Ordering::Relaxed);
            let excess = seat.crashes - CRASH_LOOP_THRESHOLD;
            std::thread::sleep(CRASH_BACKOFF * 2u32.pow(excess.min(4)));
        }
        match Child::spawn() {
            Ok(child) => {
                seat.link = Some(Link::Pipe(child));
                if std::mem::replace(&mut seat.spawned, true) {
                    self.counts.worker_restarts.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            }
            Err(err) => {
                seat.crashes += 1;
                Err(CellError::Transient {
                    message: format!("spawning a worker process failed: {err}"),
                    attempts: attempt,
                })
            }
        }
    }

    /// A link died, went `silent` past its heartbeat deadline, or spoke
    /// garbage under a cell: sever it and book the loss. A local seat
    /// counts a crash, classified from the child's exit status unless the
    /// child was killed for its silence; a remote node advances through
    /// the health machine.
    fn lost(&self, node: usize, seat: &mut Seat, attempt: u32, silent: bool) -> CellError {
        match seat.link.take() {
            Some(Link::Pipe(child)) => {
                seat.crashes += 1;
                if !silent {
                    return child::crashed(&child.reap(), attempt);
                }
                self.counts.worker_kills.fetch_add(1, Ordering::Relaxed);
            }
            _ => self.mark_failure(node),
        }
        CellError::Crashed {
            signal: None,
            code: None,
            attempts: attempt,
        }
    }

    /// Books a cell the worker answered. A local child survived it,
    /// whatever the outcome, and retires once it has served its quota; a
    /// remote reply promotes its node, and a `crashed` one means the
    /// daemon's child died and the daemon is closing this connection.
    fn answered(&self, node: usize, seat: &mut Seat, outcome: &Result<SimStats, CellError>) {
        if self.fleet.is_some() {
            match outcome {
                Ok(_) => self.mark_replied(node),
                Err(CellError::Crashed { .. }) => seat.link = None,
                Err(_) => {}
            }
            return;
        }
        seat.crashes = 0;
        seat.cells_done += 1;
        if seat.cells_done >= RECYCLE_AFTER {
            seat.cells_done = 0;
            if let Some(Link::Pipe(child)) = seat.link.take() {
                if child.retire() {
                    self.counts.worker_kills.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Advances `node` through the health machine on a failure:
    /// `Healthy → Suspect` (books one loss), `Suspect → Lost` (same
    /// outage, no extra loss; arms the reprobe), `Probation → Lost`
    /// (relapse: books a fresh loss), `Lost` stays put.
    fn mark_failure(&self, node: usize) {
        let Some(config) = &self.fleet else { return };
        let mut health = lock(&self.nodes[node].health);
        match health.state {
            NodeHealth::Healthy => {
                health.state = NodeHealth::Suspect;
                health.lost_at = Some(Instant::now());
                self.counts.node_losses.fetch_add(1, Ordering::Relaxed);
            }
            NodeHealth::Suspect => {
                health.state = NodeHealth::Lost;
                health.reprobe_failures = 0;
                health.next_reprobe = Instant::now() + config.reprobe_base;
                if health.lost_at.is_none() {
                    health.lost_at = Some(Instant::now());
                }
            }
            NodeHealth::Probation => {
                health.state = NodeHealth::Lost;
                health.reprobe_failures = 0;
                health.next_reprobe = Instant::now() + config.reprobe_base;
                health.lost_at = Some(Instant::now());
                self.counts.node_losses.fetch_add(1, Ordering::Relaxed);
            }
            NodeHealth::Lost => {}
        }
    }

    /// A successful dial readmits a `Lost` node (the every-node-lost
    /// backstop; the reprobe thread readmits through the same gate).
    fn mark_dialed(&self, node: usize) {
        let mut health = lock(&self.nodes[node].health);
        if health.state == NodeHealth::Lost {
            self.readmit(node, &mut health);
        }
    }

    /// A completed reply is the strongest health signal: full promotion.
    fn mark_replied(&self, node: usize) {
        let mut health = lock(&self.nodes[node].health);
        if health.state == NodeHealth::Lost {
            self.readmit(node, &mut health);
        }
        health.state = NodeHealth::Healthy;
        health.lost_at = None;
        health.last_probe_error = None;
    }

    /// Readmission bookkeeping, with `node`'s health lock already held:
    /// `Lost → Probation`, one readmission booked, downtime accounted.
    fn readmit(&self, node: usize, health: &mut Health) {
        health.state = NodeHealth::Probation;
        health.reprobe_failures = 0;
        health.last_probe_error = None;
        let down_ms = health
            .lost_at
            .take()
            .map_or(1, |at| (at.elapsed().as_millis() as u64).max(1));
        let c = &self.counts;
        c.readmission_downtime_ms
            .fetch_add(down_ms, Ordering::Relaxed);
        c.node_readmissions.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "fleet: {}: readmitted on probation after {down_ms}ms down",
            self.nodes[node].addr
        );
        // Wake dispatchers parked because every routable seat was busy.
        self.available.notify_all();
    }

    /// Re-dials every lost node whose backoff has run out. A probe runs
    /// the full hello/welcome handshake, so a restarted daemon with a
    /// drifted build fingerprint is refused by name and stays lost
    /// instead of being silently readmitted.
    fn reprobe_due(&self, config: &FleetConfig) {
        for (i, node) in self.nodes.iter().enumerate() {
            let due = {
                let health = lock(&node.health);
                health.state == NodeHealth::Lost && Instant::now() >= health.next_reprobe
            };
            if !due {
                continue;
            }
            // On success the probe stream itself is dropped: seats redial
            // lazily on their next dispatch.
            let probe = dial(&node.addr, config.connect_timeout);
            let mut health = lock(&node.health);
            if health.state != NodeHealth::Lost {
                continue;
            }
            let Err(err) = probe else {
                self.readmit(i, &mut health);
                continue;
            };
            health.reprobe_failures = health.reprobe_failures.saturating_add(1);
            let exp = health.reprobe_failures.min(5);
            health.next_reprobe = Instant::now() + config.reprobe_base * (1u32 << exp);
            let message = err.to_string();
            if health.last_probe_error.as_deref() != Some(message.as_str()) {
                eprintln!(
                    "fleet: {}: reprobe failed ({message}); backing off",
                    node.addr
                );
                health.last_probe_error = Some(message);
            }
        }
    }
}

/// The background reprobe of a TCP pool: lost nodes are re-dialed on a
/// deterministic exponential backoff (`reprobe_base · 2^min(n, 5)`). The
/// thread holds the pool weakly and ends soon after the pool drops.
fn reprobe_loop(pool: &Weak<Pool>) {
    const TICK: Duration = Duration::from_millis(25);
    loop {
        std::thread::sleep(TICK);
        let Some(pool) = pool.upgrade() else { return };
        if let Some(config) = &pool.fleet {
            pool.reprobe_due(config);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let Some(handle) = self.reprobe.take() else {
            return;
        };
        // The reprobe thread holds the pool only weakly, but may drop the
        // last reference itself mid-probe; it must not join itself.
        if handle.thread().id() != std::thread::current().id() && handle.join().is_err() {
            eprintln!("fleet: the reprobe thread panicked");
        }
    }
}

impl Executor for Pool {
    fn reach(&self) -> Reach {
        if self.fleet.is_some() {
            Reach::Fleet
        } else {
            Reach::Process
        }
    }

    /// Runs one cell attempt on a seat, blocking until one is free.
    ///
    /// Routing prefers the node picked by the cell's content hash (warm
    /// trace caches), rotated by attempt number so a re-dispatch lands
    /// elsewhere, restricted to nodes not currently marked lost. Within
    /// one attempt, an unreachable node is re-routed around rather than
    /// charged against the retry budget — as long as one node answers,
    /// dead ones cost nothing but a refused dial.
    fn run(&self, cell: &CellRun<'_>, fault: Option<Injected>) -> Result<SimStats, CellError> {
        let attempt = cell.attempt;
        if attempt > 1 {
            self.counts
                .cells_redispatched
                .fetch_add(1, Ordering::Relaxed);
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
        // One re-route per node, so a single attempt walks every node
        // before conceding.
        for round in 0..self.nodes.len() {
            let index = self.acquire(self.route(key, attempt, round));
            let outcome = self.run_on_seat(index, cell, fault.as_ref(), &mut || true);
            self.release(index);
            match outcome {
                Ok(stats) => return Ok(stats),
                Err(SeatOutcome::Unreachable(err)) => last = err,
                Err(SeatOutcome::Final(err)) => return Err(err),
            }
        }
        Err(last)
    }

    fn workers(&self) -> usize {
        self.seats.len()
    }

    fn fold_stats(&self, stats: &mut HarnessStats) {
        let c = &self.counts;
        stats.worker_restarts = c.worker_restarts.load(Ordering::Relaxed);
        stats.worker_kills = c.worker_kills.load(Ordering::Relaxed);
        stats.worker_crash_loops = c.worker_crash_loops.load(Ordering::Relaxed);
        let own = self.stats();
        stats.fleet_workers = own.fleet_workers;
        stats.node_losses = own.node_losses;
        stats.cells_redispatched = own.cells_redispatched;
        stats.node_readmissions = own.node_readmissions;
    }

    /// The `/metrics` health gauges: worker daemons only.
    fn node_health(&self) -> Vec<(String, &'static str)> {
        if self.fleet.is_none() {
            return Vec::new();
        }
        Pool::node_health(self)
            .into_iter()
            .map(|(addr, health)| (addr, health.name()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Spawning real workers needs a worker-capable executable;
    // `current_exe()` inside `cargo test` is the libtest runner, which
    // must never be self-exec'd. Local seats are covered end to end by
    // `tests/isolation.rs` against the real `fdip` binary; these tests pin
    // the pure logic. The TCP transport's scripted fake-node tests live
    // beside the daemon in `fleet.rs`.

    #[test]
    fn config_defaults_are_sane() {
        let config = SupervisorConfig::default();
        assert!(config.workers >= 1 && config.workers <= 4);
        assert!(config.heartbeat_timeout >= Duration::from_secs(1));
        const _: () = assert!(RECYCLE_AFTER > 0 && CRASH_LOOP_THRESHOLD > 0);
        let pool = Pool::local(SupervisorConfig {
            workers: 0,
            ..config
        });
        assert_eq!(pool.workers(), 1, "zero workers clamps to one");
        assert_eq!(pool.reach(), Reach::Process);
        assert!(Executor::node_health(&pool).is_empty());
        let mut stats = HarnessStats::default();
        pool.fold_stats(&mut stats);
        assert_eq!(stats, HarnessStats::default());
    }

    #[test]
    fn slot_acquisition_hands_out_every_slot() {
        let pool = Pool::local(SupervisorConfig {
            workers: 3,
            ..SupervisorConfig::default()
        });
        let a = pool.acquire(0);
        let b = pool.acquire(0);
        let c = pool.acquire(0);
        let mut handed = [a, b, c];
        handed.sort_unstable();
        assert_eq!(handed, [0, 1, 2]);
        pool.release(b);
        assert_eq!(pool.acquire(0), b);
    }
}
