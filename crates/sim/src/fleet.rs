//! The distributed tier's edges: the TCP side of a fleet [`Pool`]
//! behind `--fleet`, and the `fdip workerd` daemon loop.
//!
//! PR 5's isolation contains cell failures inside one machine; the fleet
//! stretches the same protocol across machines without weakening any of
//! its guarantees:
//!
//! * **the client side** — [`Pool::connect`](crate::pool::Pool::connect)
//!   dials every [`FleetConfig`] address (this module's handshake,
//!   [`Hello`]/[`Welcome`]) and opens one seat per advertised worker
//!   slot. Dispatch routes by the cell's content hash (same cell → same
//!   node → warm trace cache), and every way a node can vanish — killed
//!   process, severed link, silent partition, corrupt frame — resolves to
//!   the *retryable* [`CellError::Crashed`](crate::fault::CellError::Crashed), so a
//!   dead node costs re-dispatch, never a failed run. Each node walks the
//!   [`NodeHealth`] machine.
//! * **[`serve_workerd`]** — the daemon side. Each accepted connection
//!   is handshake-checked and then runs its cells on a one-seat local
//!   [`Pool`] — a self-exec'd child worker (the PR 5 worker, verbatim) —
//!   so a cell that aborts or hangs remotely kills a disposable child, not
//!   the daemon, and is sent, waited on and classified by the same loop
//!   as `--isolate`. A child's death is reported back as a typed
//!   `crashed` reply carrying the exit signal/code. On shutdown the daemon
//!   drains: in-flight cells finish, new ones are refused with a `bye`,
//!   and the process exits 0.
//!
//! The shared on-disk result cache that makes identical cells simulate
//! once cluster-wide lives in [`crate::cache`]; the harness consults it
//! before dispatching anywhere.
//!
//! Fault drills for every path above are injectable deterministically
//! via the `drop`/`partition`/`slowlink`/`truncframe` kinds in
//! [`crate::fault::FaultPlan`], realized by the pool as
//! [`NetFault`](crate::net::NetFault)s.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::ipc::{RunRequest, WorkerReply};
use crate::net::{self, bye_frame, Hello, Welcome, PROTOCOL_VERSION};
use crate::options::parse_positive_ms;
use crate::pool::Pool;
use crate::supervisor::SupervisorConfig;

/// Read-poll quantum for fleet streams: how often a blocked read wakes to
/// check budget/heartbeat/drain deadlines.
pub(crate) const POLL: Duration = Duration::from_millis(100);

/// How often the daemon's accept loop polls for shutdown.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// How long a fresh connection gets to complete its handshake.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Connection and liveness policy for a fleet [`Pool`].
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
    /// `FDIP_FLEET_REPROBE_MS` environment variables (tests shrink the
    /// heartbeat so partition drills converge in milliseconds, not
    /// seconds).
    ///
    /// # Errors
    ///
    /// An override that is not a positive millisecond count, named in
    /// the message — the same rule as `--fleet-heartbeat-ms`.
    pub fn new(addrs: Vec<String>) -> Result<FleetConfig, String> {
        let ms = |var: &str, default: u64| {
            let ms = match std::env::var(var) {
                Ok(raw) => parse_positive_ms(var, &raw)?,
                Err(_) => default,
            };
            Ok::<_, String>(Duration::from_millis(ms))
        };
        Ok(FleetConfig {
            addrs,
            connect_timeout: ms("FDIP_FLEET_CONNECT_MS", 3_000)?,
            heartbeat_timeout: ms("FDIP_FLEET_HEARTBEAT_MS", 5_000)?,
            reprobe_base: ms("FDIP_FLEET_REPROBE_MS", 250)?,
        })
    }
}

/// Counters a fleet pool accumulates; folded into
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

/// Dials one node and completes the registration handshake, returning the
/// stream (read deadline set to the poll quantum) and the node's
/// advertised seat count.
pub(crate) fn dial(addr: &str, timeout: Duration) -> io::Result<(TcpStream, usize)> {
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

/// The `fdip workerd` serve loop: accepts fleet connections on
/// `listener`, advertising `slots` seats per handshake, until `shutdown`
/// returns true — then drains (in-flight cells finish, idle connections
/// get a `bye`, children are reaped) and returns.
///
/// Each connection is served on its own thread by a one-seat local
/// [`Pool`], whose child worker spawns lazily on the first cell, so a cell
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

/// One fleet connection: handshake, then run cells on a child worker.
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

    // The connection's one seat: a local pool spawns its child lazily on
    // the first cell, recycles it, and kills it when the pool drops.
    let seat = Pool::local(SupervisorConfig {
        workers: 1,
        ..SupervisorConfig::default()
    });
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

        let mut gone = false;
        let reply = seat.serve(&request, &mut || {
            gone = net::write_frame(&mut stream, &WorkerReply::Heartbeat.to_json()).is_err();
            !gone
        });
        if gone {
            return; // the client vanished mid-cell; its child is dead
        }
        let crashed = matches!(&reply, WorkerReply::Err { kind, .. } if kind == "crashed");
        if net::write_frame(&mut stream, &reply.to_json()).is_err() || crashed {
            break; // a crashed child closes the connection: the client starts clean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{CellRun, Executor, Injected};
    use crate::fault::CellError;
    use crate::net::NetFault;
    use crate::pool::Pool;
    use crate::workload::WorkloadSpec;
    use fdip::{FrontendConfig, SimStats};
    use fdip_types::Json;

    fn canned_stats() -> SimStats {
        SimStats {
            cycles: 123,
            instructions: 456,
            ..SimStats::default()
        }
    }

    /// One attempt at a fixed cell, with an optional network fault.
    fn run(fleet: &Pool, net_fault: Option<NetFault>, attempt: u32) -> Result<SimStats, CellError> {
        run_within(fleet, None, net_fault, attempt)
    }

    /// One attempt at a fixed cell under an optional wall-clock budget.
    fn run_within(
        fleet: &Pool,
        budget: Option<Duration>,
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
            budget,
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
        let fleet = Pool::connect(tiny_config(vec![addr.clone()])).unwrap();
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
        let fleet = Pool::connect(tiny_config(vec![addr])).unwrap();
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
        let fleet = Pool::connect(tiny_config(vec![addr])).unwrap();
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
        let fleet = Pool::connect(tiny_config(vec![addr])).unwrap();
        let err = run(&fleet, Some(NetFault::Drop), 1).unwrap_err();
        assert!(matches!(err, CellError::Crashed { .. }), "{err:?}");
        assert_eq!(fleet.stats().node_losses, 1);
        drop(fleet); // closes the connection so the node thread ends
        node.join().unwrap();
    }

    #[test]
    fn a_silent_cell_past_its_budget_times_out_without_a_loss_and_redials() {
        let (addr, node) = fake_node(2, |conn, stream| {
            let doc = net::read_frame(stream).unwrap().unwrap();
            let request = RunRequest::from_json(&doc).expect("a run request");
            if conn == 0 {
                // Alive but never done: heartbeat until the client severs.
                for _ in 0..40 {
                    std::thread::sleep(Duration::from_millis(50));
                    if net::write_frame(stream, &WorkerReply::Heartbeat.to_json()).is_err() {
                        return;
                    }
                }
                panic!("the client never severed the over-budget cell");
            }
            let reply = WorkerReply::Ok {
                id: request.id,
                stats: Box::new(canned_stats()),
            };
            net::write_frame(stream, &reply.to_json()).unwrap();
        });
        let fleet = Pool::connect(tiny_config(vec![addr.clone()])).unwrap();
        let err = run_within(&fleet, Some(Duration::from_millis(300)), None, 1).unwrap_err();
        assert_eq!(err, CellError::Timeout { budget_ms: 300 });
        assert_eq!(fleet.stats().node_losses, 0, "preemption is not a loss");
        assert_eq!(fleet.node_health(), vec![(addr, NodeHealth::Healthy)]);
        // The severed seat redials: the fake node's second connection.
        assert_eq!(run(&fleet, None, 2).unwrap(), canned_stats());
        node.join().unwrap();
    }

    #[test]
    fn a_reply_to_a_superseded_id_is_dropped_and_the_right_one_accepted() {
        let (addr, node) = fake_node(1, |_, stream| {
            let doc = net::read_frame(stream).unwrap().unwrap();
            let request = RunRequest::from_json(&doc).expect("a run request");
            let stale = WorkerReply::Ok {
                id: request.id.wrapping_sub(1),
                stats: Box::new(SimStats::default()),
            };
            net::write_frame(stream, &stale.to_json()).unwrap();
            let reply = WorkerReply::Ok {
                id: request.id,
                stats: Box::new(canned_stats()),
            };
            net::write_frame(stream, &reply.to_json()).unwrap();
        });
        let fleet = Pool::connect(tiny_config(vec![addr])).unwrap();
        assert_eq!(run(&fleet, None, 1).unwrap(), canned_stats());
        assert_eq!(fleet.stats().node_losses, 0);
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
        let fleet = Pool::connect(tiny_config(vec![addr.clone()])).unwrap();
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
        let Err(err) = Pool::connect(tiny_config(vec!["127.0.0.1:1".to_string()])) else {
            panic!("a fleet with no reachable node must not connect");
        };
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
