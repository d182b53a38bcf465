//! `fdip-loadgen`: drives an in-process `fdip-serve` server over real TCP
//! and reports throughput and latency percentiles for four phases:
//!
//! 1. **cold** — N distinct `/v1/run` requests (fresh seeds), every one a
//!    harness cache miss that generates and simulates a trace;
//! 2. **warm** — concurrent keep-alive clients replaying those N seeds,
//!    served from the shared cell cache (the event loop multiplexes all
//!    clients on one thread; compute workers only do cache lookups);
//! 3. **coalesce** — a burst of byte-identical cold requests: one
//!    simulation runs, every other client rides along as a follower;
//! 4. **saturation** — a burst of distinct pre-warmed requests against a
//!    1-worker, depth-2 queue whose seat is held by a deliberately slow
//!    cell: the queue absorbs 2, the rest are shed `429`-free with `503`,
//!    and the shed responses must come back fast (the old blocking-shed
//!    accept loop serialized them).
//!
//! The report is printed and persisted as `results/BENCH_serve.json`.
//! Flags: `--quick` shrinks the workload; `--check` exits nonzero unless
//! warm throughput clears the event-loop floor (10x the 925 rps
//! thread-per-connection baseline), warm is ≥2x cold, the coalesce burst
//! shared one simulation, saturation shed with a bounded p99, and the
//! server's `/metrics` counters reconcile with what this client observed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fdip_serve::{ServeConfig, Server, ShutdownHandle};
use fdip_sim::fault::FaultPlan;
use fdip_types::Json;

/// The committed warm throughput of the blocking thread-per-connection
/// server (PR 2, results/BENCH_serve.json at the time) and the floor the
/// event loop must clear.
const BASELINE_WARM_RPS: f64 = 925.0;
const WARM_RPS_FLOOR: f64 = BASELINE_WARM_RPS * 10.0;
/// Shed responses must come back under this even while the compute seat
/// is held — the regression gate for the blocking-shed bug.
const SHED_P99_FLOOR_MS: f64 = 1_000.0;

struct RunningServer {
    addr: SocketAddr,
    handle: ShutdownHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start_server(config: ServeConfig) -> RunningServer {
    let server = Server::bind(config).expect("bind loadgen server");
    let addr = server.local_addr().expect("local_addr");
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());
    RunningServer {
        addr,
        handle,
        thread,
    }
}

fn stop_server(server: RunningServer) {
    server.handle.shutdown();
    server
        .thread
        .join()
        .expect("server thread panicked")
        .expect("server run() errored");
}

/// One request on a fresh connection; returns (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    try_request(addr, method, path, body).expect("request failed")
}

/// Like [`request`], but surfaces connection errors instead of panicking —
/// under deliberate overload a shed connection may be reset before the
/// client manages to read the 503.
fn try_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nhost: loadgen\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes())?;
    read_response(&mut BufReader::new(stream))
}

fn read_response<R: Read>(reader: &mut BufReader<R>) -> std::io::Result<(u16, String)> {
    use std::io::{Error, ErrorKind};
    let bad = |what: &str| Error::new(ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        reader.read_line(&mut h)?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

fn run_body(seed: u64, trace_len: usize) -> String {
    format!(
        r#"{{"workload": {{"profile": "microloop", "seed": {seed}}}, "trace_len": {trace_len}}}"#
    )
}

/// Like [`run_body`] but with `pad` spaces of intra-JSON whitespace: the
/// same simulation identity (cache hit) with distinct body bytes, so
/// concurrent clients exercise the cache instead of coalescing with each
/// other.
fn run_body_padded(seed: u64, trace_len: usize, pad: usize) -> String {
    format!(
        r#"{{"workload": {{"profile": "microloop", "seed": {seed}}}, "trace_len": {trace_len}{:pad$}}}"#,
        ""
    )
}

struct PhaseReport {
    requests: usize,
    seconds: f64,
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

impl PhaseReport {
    fn from_latencies(mut latencies: Vec<Duration>, seconds: f64) -> PhaseReport {
        latencies.sort();
        PhaseReport {
            requests: latencies.len(),
            seconds,
            rps: latencies.len() as f64 / seconds.max(1e-9),
            p50_ms: percentile_ms(&latencies, 0.50),
            p99_ms: percentile_ms(&latencies, 0.99),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("requests", Json::uint(self.requests as u64)),
            ("seconds", Json::num(self.seconds)),
            ("rps", Json::num(self.rps)),
            ("p50_ms", Json::num(self.p50_ms)),
            ("p99_ms", Json::num(self.p99_ms)),
        ])
    }
}

fn percentile_ms(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx].as_secs_f64() * 1e3
}

/// Issues `/v1/run` for seeds `0..n` sequentially, asserting 200s.
fn cold_phase(addr: SocketAddr, n: usize, trace_len: usize) -> PhaseReport {
    let started = Instant::now();
    let mut latencies = Vec::with_capacity(n);
    for seed in 0..n as u64 {
        let body = run_body(seed, trace_len);
        let req_start = Instant::now();
        let (status, resp) = request(addr, "POST", "/v1/run", &body);
        assert_eq!(status, 200, "run seed {seed}: {resp}");
        latencies.push(req_start.elapsed());
    }
    PhaseReport::from_latencies(latencies, started.elapsed().as_secs_f64())
}

/// `clients` keep-alive connections in parallel, each issuing
/// `per_client` request/response round trips over the (cache-warm)
/// seeds `0..n`.
fn warm_phase(
    addr: SocketAddr,
    clients: usize,
    per_client: usize,
    n: usize,
    trace_len: usize,
) -> PhaseReport {
    let started = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("warm connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(120)))
                    .unwrap();
                let mut w = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let mut latencies = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let body = run_body_padded(((c + i) % n) as u64, trace_len, c);
                    let req = format!(
                        "POST /v1/run HTTP/1.1\r\nhost: loadgen\r\ncontent-length: {}\r\n\r\n{body}",
                        body.len()
                    );
                    let req_start = Instant::now();
                    w.write_all(req.as_bytes()).expect("warm write");
                    let (status, resp) = read_response(&mut reader).expect("warm read");
                    assert_eq!(status, 200, "warm client {c} request {i}: {resp}");
                    latencies.push(req_start.elapsed());
                }
                latencies
            })
        })
        .collect();
    let mut all = Vec::new();
    for t in threads {
        all.extend(t.join().expect("warm client panicked"));
    }
    PhaseReport::from_latencies(all, started.elapsed().as_secs_f64())
}

/// Parses one counter value out of a Prometheus text document.
fn metric_value(text: &str, line_prefix: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(line_prefix))
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or_else(|| panic!("metric {line_prefix:?} missing from scrape"))
}

/// A deterministic slow-cell fault for `seed`, so a phase can hold a
/// compute seat for an exact duration regardless of host speed. Each
/// server gets its own plan.
fn seat_holder(seed: u64, millis: u64) -> Option<Arc<FaultPlan>> {
    let plan =
        FaultPlan::parse(&format!("slow@microloop~s{seed}/run:{millis}")).expect("fault plan");
    Some(Arc::new(plan))
}

/// The coalesce phase's seed, slowed on the first server.
const COALESCE_SEED: u64 = 9_100;
/// The saturation phase's seat-holding seed, slowed on the tight server.
const HOLDER_SEED: u64 = 9_000;

/// Coalescing: `burst` byte-identical cold requests in flight at once.
/// The leader's cell is slowed (by the server's fault plan) so every
/// follower arrives while it runs; all must answer 200 with identical
/// bodies. Returns the number the server reports as coalesced.
fn coalesce_phase(addr: SocketAddr, burst: usize, seed: u64, trace_len: usize) -> u64 {
    let (status, scrape) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let before = metric_value(&scrape, "fdip_serve_coalesced_total ");
    let clients: Vec<_> = (0..burst)
        .map(|_| {
            let body = run_body(seed, trace_len);
            std::thread::spawn(move || request(addr, "POST", "/v1/run", &body))
        })
        .collect();
    let mut bodies = Vec::new();
    for client in clients {
        let (status, body) = client.join().expect("coalesce client panicked");
        assert_eq!(status, 200, "coalesce: {body}");
        bodies.push(body);
    }
    assert!(
        bodies.windows(2).all(|w| w[0] == w[1]),
        "coalesced responses diverged"
    );
    let (status, scrape) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    metric_value(&scrape, "fdip_serve_coalesced_total ") - before
}

/// Saturation: a deterministically slow cell (the server's fault plan
/// slows [`HOLDER_SEED`]) holds the single compute seat, then `burst`
/// *distinct* pre-warmed requests arrive at once. The depth-2 queue
/// absorbs 2; the rest are shed 503 — and those sheds must come back
/// immediately, not serialized behind the seat.
///
/// Returns (completed_200, shed, shed latencies).
fn saturation_phase(
    addr: SocketAddr,
    burst: usize,
    trace_len: usize,
) -> (usize, usize, Vec<Duration>) {
    let holder = {
        let body = run_body(HOLDER_SEED, trace_len);
        std::thread::spawn(move || request(addr, "POST", "/v1/run", &body))
    };
    std::thread::sleep(Duration::from_millis(300)); // the seat is now held

    let clients: Vec<_> = (0..burst as u64)
        .map(|seed| {
            let body = run_body(seed, trace_len); // warm: distinct, all cached
            std::thread::spawn(move || {
                let started = Instant::now();
                (
                    try_request(addr, "POST", "/v1/run", &body),
                    started.elapsed(),
                )
            })
        })
        .collect();

    let mut completed = 0usize;
    let mut shed = 0usize;
    let mut shed_latencies = Vec::new();
    for client in clients {
        let (outcome, latency) = client.join().expect("client thread panicked");
        match outcome {
            Ok((200, _)) => completed += 1,
            Ok((503, _)) | Err(_) => {
                shed += 1;
                shed_latencies.push(latency);
            }
            Ok((other, body)) => panic!("unexpected status {other} during saturation: {body}"),
        }
    }
    let (status, body) = holder.join().expect("holder thread panicked");
    assert_eq!(status, 200, "seat holder: {body}");
    shed_latencies.sort();
    (completed, shed, shed_latencies)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let quick = argv.iter().any(|a| a == "--quick");
    let check = argv.iter().any(|a| a == "--check");
    if let Some(bad) = argv.iter().find(|a| *a != "--quick" && *a != "--check") {
        eprintln!("usage: fdip-loadgen [--quick] [--check] (got {bad:?})");
        std::process::exit(2);
    }

    let (n, trace_len, burst, warm_clients, warm_per_client) = if quick {
        (8, 20_000, 12, 8, 250)
    } else {
        (12, 60_000, 16, 8, 1_500)
    };

    // ---- cold / warm / coalesce phases on one server --------------------
    let server = start_server(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 4,
        timeout_ms: 120_000,
        faults: seat_holder(COALESCE_SEED, 800),
        ..ServeConfig::default()
    });
    eprintln!(
        "[loadgen] server on {} ({} cold requests x {} instrs)",
        server.addr, n, trace_len
    );

    let cold = cold_phase(server.addr, n, trace_len);
    eprintln!(
        "[loadgen] cold: {:.2} rps, p50 {:.1}ms, p99 {:.1}ms",
        cold.rps, cold.p50_ms, cold.p99_ms
    );
    let warm = warm_phase(server.addr, warm_clients, warm_per_client, n, trace_len);
    eprintln!(
        "[loadgen] warm: {:.2} rps over {} keep-alive clients, p50 {:.2}ms, p99 {:.2}ms",
        warm.rps, warm_clients, warm.p50_ms, warm.p99_ms
    );
    let warm_over_cold = warm.rps / cold.rps.max(1e-9);
    eprintln!(
        "[loadgen] warm/cold {:.1}x; warm vs {:.0} rps blocking baseline: {:.1}x",
        warm_over_cold,
        BASELINE_WARM_RPS,
        warm.rps / BASELINE_WARM_RPS
    );

    let coalesce_burst = burst;
    let coalesced = coalesce_phase(server.addr, coalesce_burst, COALESCE_SEED, trace_len);
    eprintln!(
        "[loadgen] coalesce: {coalesce_burst} identical requests, {coalesced} rode along on 1 simulation"
    );

    // ---- reconcile /metrics against client-observed responses ----------
    let (status, scrape) = request(server.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let server_200 = metric_value(&scrape, "fdip_serve_requests_total{status=\"200\"} ");
    // Every run request plus the coalesce phase's two scrapes, before
    // this one.
    let client_200 = (n + warm_clients * warm_per_client + coalesce_burst + 2) as u64;
    let reconciled = server_200 == client_200;
    eprintln!(
        "[loadgen] /metrics 200s: server {server_200}, client {client_200} ({})",
        if reconciled { "reconciled" } else { "MISMATCH" }
    );
    // The fleet-recovery families must always render, and without a fleet
    // configured they must be zero.
    let family = "fdip_serve_node_readmissions_total ";
    let fleet_counters_inert = scrape.contains(family)
        && metric_value(&scrape, family) == 0
        && scrape.contains("fdip_serve_fleet_node_health");
    eprintln!(
        "[loadgen] fleet recovery counters: {}",
        if fleet_counters_inert {
            "present and zero (no fleet configured)"
        } else {
            "MISSING OR NONZERO"
        }
    );
    stop_server(server);

    // ---- saturation on a 1-worker, depth-2 server -----------------------
    let tight = start_server(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        queue_depth: 2,
        timeout_ms: 60_000,
        faults: seat_holder(HOLDER_SEED, 2_000),
        ..ServeConfig::default()
    });
    // Pre-warm every burst seed: the tight server has its own cell cache,
    // so this simulates each seed once.
    for seed in 0..burst as u64 {
        let (status, _) = request(tight.addr, "POST", "/v1/run", &run_body(seed, trace_len));
        assert_eq!(status, 200);
    }
    let (completed, shed, shed_latencies) = saturation_phase(tight.addr, burst, trace_len);
    let shed_p50 = percentile_ms(&shed_latencies, 0.50);
    let shed_p99 = percentile_ms(&shed_latencies, 0.99);
    eprintln!(
        "[loadgen] saturation: offered {burst}, completed {completed}, shed {shed} \
         (queue depth 2); shed p50 {shed_p50:.1}ms, p99 {shed_p99:.1}ms"
    );
    let (status, scrape) = request(tight.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let server_shed = metric_value(&scrape, "fdip_serve_shed_total ");
    let shed_reconciled = server_shed == shed as u64;
    stop_server(tight);

    // ---- persist --------------------------------------------------------
    let doc = Json::obj([
        ("schema_version", Json::uint(2)),
        ("id", Json::str("BENCH_serve")),
        ("quick", Json::Bool(quick)),
        ("trace_len", Json::uint(trace_len as u64)),
        ("cold", cold.to_json()),
        ("warm", warm.to_json()),
        ("warm_clients", Json::uint(warm_clients as u64)),
        ("warm_over_cold", Json::num(warm_over_cold)),
        ("baseline_warm_rps", Json::num(BASELINE_WARM_RPS)),
        (
            "coalesce",
            Json::obj([
                ("offered", Json::uint(coalesce_burst as u64)),
                ("coalesced", Json::uint(coalesced)),
            ]),
        ),
        (
            "saturation",
            Json::obj([
                ("offered", Json::uint(burst as u64)),
                ("completed", Json::uint(completed as u64)),
                ("shed", Json::uint(shed as u64)),
                ("shed_p50_ms", Json::num(shed_p50)),
                ("shed_p99_ms", Json::num(shed_p99)),
                ("queue_depth", Json::uint(2)),
            ]),
        ),
        (
            "metrics_reconciliation",
            Json::obj([
                ("server_200", Json::uint(server_200)),
                ("client_200", Json::uint(client_200)),
                ("server_shed", Json::uint(server_shed)),
                ("client_shed", Json::uint(shed as u64)),
                ("reconciled", Json::Bool(reconciled && shed_reconciled)),
            ]),
        ),
    ]);
    let dir = fdip_bench::results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("BENCH_serve.json");
    fdip_sim::persist::write_atomic_str(&path, &doc.to_string_pretty())
        .expect("write BENCH_serve.json");
    eprintln!("[loadgen] wrote {}", path.display());

    if check {
        let mut failures = Vec::new();
        if warm.rps < WARM_RPS_FLOOR {
            failures.push(format!(
                "warm throughput {:.0} rps under the event-loop floor of {WARM_RPS_FLOOR:.0} \
                 (10x the {BASELINE_WARM_RPS:.0} rps blocking baseline)",
                warm.rps
            ));
        }
        if warm_over_cold < 2.0 {
            failures.push(format!(
                "warm throughput only {warm_over_cold:.2}x cold (need >= 2x)"
            ));
        }
        if coalesced == 0 {
            failures.push("no requests coalesced during the identical burst".to_string());
        }
        if shed == 0 {
            failures.push("saturation shed no connections".to_string());
        }
        if shed_p99 > SHED_P99_FLOOR_MS {
            failures.push(format!(
                "shed p99 {shed_p99:.0}ms exceeds {SHED_P99_FLOOR_MS:.0}ms — \
                 sheds are waiting on the compute seat"
            ));
        }
        if !(reconciled && shed_reconciled) {
            failures.push("metrics do not reconcile with client observations".to_string());
        }
        if !fleet_counters_inert {
            failures.push(
                "fleet recovery counters missing or nonzero on a fleetless server".to_string(),
            );
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("[loadgen] CHECK FAILED: {f}");
            }
            std::process::exit(1);
        }
        eprintln!("[loadgen] all checks passed");
    }
}
