//! The `serve_mix` workload: an in-process `fdip-serve` server under
//! open-loop traffic.
//!
//! Arrivals are a seeded Poisson process at a fixed rate (conditioned on
//! its count), sent by two load threads with one keep-alive connection
//! each. A request is timed from when it was due, so a stall is charged
//! to every request queued behind it. The mix: 88% `/v1/run` hits on 32
//! pre-warmed Client seeds (the event loop and the cell-cache lookup),
//! 10% cold `/v1/run` on fresh seeds and 2% cold `/v1/compare` on fresh
//! Server seeds (trace generation and simulation), so cache writes
//! happen beside cache reads.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fdip::{spec, CpfMode, FrontendConfig, SimStats};
use fdip_serve::{ServeConfig, Server, ShutdownHandle};
use fdip_sim::harness::{Harness, HarnessStats};
use fdip_trace::gen::Profile;
use fdip_types::{FromJson, Json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::http::{self, Conn};
use crate::report::{median, percentile, summarize};
use crate::{sim, Bench};

/// The percentile of each class's latency that `op_ms` weights.
///
/// On a two-vCPU host at 500 req/s, taking one of the server's two
/// worker threads away (half its capacity) moved the weighted p75 by
/// +318% and the weighted median by +7.8%: most requests still find a
/// thread free, so the median barely sees the queueing. Across eight
/// seeds the weighted p75 spread 3.3% (interquartile range over median)
/// and the weighted median 6.6%.
const GATED_PERCENTILE: usize = 75;

/// Request rate, trace length and pool sizes of the workload.
pub struct ServeSize {
    pub trace_len: usize,
    pub rate: f64,
    pub warm_seeds: u64,
    /// Server set-ups per run; the last one serves the measured load.
    pub setups: u64,
    /// Keys per request class checked against a direct harness run.
    pub checked_per_class: usize,
}

impl ServeSize {
    /// 500 req/s, a third of the measured knee: the class-weighted
    /// median latency rises 7% from 500 to 1000 req/s, the hit median
    /// doubles at 1500 and the backlog grows through the run at 2000.
    /// Nearer the knee, host load spread that latency across seeds by 13%
    /// at 750 req/s, 20% at 1000 and 167% at 1500.
    pub fn full() -> ServeSize {
        ServeSize {
            trace_len: 20_000,
            rate: 500.0,
            warm_seeds: 32,
            setups: 5,
            checked_per_class: 4,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> ServeSize {
        ServeSize {
            trace_len: 2_000,
            rate: 1000.0,
            warm_seeds: 4,
            setups: 2,
            checked_per_class: 1,
        }
    }
}

/// The three kinds of request in the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Hit,
    Cold,
    Compare,
}

impl Class {
    const ALL: [Class; 3] = [Class::Hit, Class::Cold, Class::Compare];

    fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Cold => "cold",
            Class::Compare => "compare",
        }
    }

    /// The class's share of the mix, in percent.
    fn percent(self) -> usize {
        match self {
            Class::Hit => 88,
            Class::Cold => 10,
            Class::Compare => 2,
        }
    }
}

/// The candidate prefetchers of a compare request.
const COMPARED: [&str; 3] = ["fdip", "nlp", "stream"];

/// One scheduled request.
struct Planned {
    /// When it is due, from the start of the load.
    due: Duration,
    class: Class,
    seed: u64,
    request: Vec<u8>,
}

fn run_body(seed: u64, trace_len: usize) -> String {
    format!(
        r#"{{"workload": {{"profile": "client", "seed": {seed}}}, "trace_len": {trace_len}, "config": {{"prefetcher": "fdip"}}}}"#
    )
}

fn compare_body(seed: u64, trace_len: usize) -> String {
    let configs: Vec<String> = COMPARED
        .iter()
        .map(|p| format!(r#"{{"label": "{p}", "prefetcher": "{p}"}}"#))
        .collect();
    format!(
        r#"{{"workload": {{"profile": "server", "seed": {seed}}}, "trace_len": {trace_len}, "configs": [{}]}}"#,
        configs.join(", ")
    )
}

fn request_for(class: Class, seed: u64, trace_len: usize) -> Vec<u8> {
    match class {
        Class::Compare => http::request("POST", "/v1/compare", &compare_body(seed, trace_len)),
        _ => http::request("POST", "/v1/run", &run_body(seed, trace_len)),
    }
}

/// Disjoint seed ranges per run seed: warm sets per set-up, then cold
/// seeds.
fn warm_seeds(seed: u64, setup: u64, count: u64) -> Vec<u64> {
    let base = seed.wrapping_mul(10_000_000).wrapping_add(setup * 1_000);
    (0..count).map(|i| base.wrapping_add(i)).collect()
}

fn cold_base(seed: u64) -> u64 {
    seed.wrapping_mul(10_000_000).wrapping_add(1_000_000)
}

/// The seeded open-loop schedule over `span`: a Poisson process at
/// `rate` per second conditioned on its count (`rate * span` arrival
/// times drawn uniformly, then sorted), carrying the mix in exact shares
/// in seeded order. Fixing the count and the shares keeps the number of
/// cold traces, and with it peak memory, from varying with the seed;
/// drawn per request, they moved peak memory by 6% between seeds.
fn schedule(seed: u64, rate: f64, span: Duration, warm: &[u64], trace_len: usize) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e77_e000_0000_0001);
    // At least 100 arrivals, so that every class of the mix has some.
    let n = (rate * span.as_secs_f64()).round().max(100.0) as usize;
    let mut due: Vec<f64> = (0..n)
        .map(|_| rng.gen::<f64>() * span.as_secs_f64())
        .collect();
    due.sort_by(f64::total_cmp);
    let cold = (n * Class::Cold.percent()).div_ceil(100);
    let compare = (n * Class::Compare.percent()).div_ceil(100);
    let mut classes: Vec<Class> = (0..n)
        .map(|i| {
            if i < cold {
                Class::Cold
            } else if i < cold + compare {
                Class::Compare
            } else {
                Class::Hit
            }
        })
        .collect();
    // Fisher-Yates.
    for i in (1..n).rev() {
        classes.swap(i, rng.gen_range(0..=i));
    }
    let mut next_cold = cold_base(seed);
    due.into_iter()
        .zip(classes)
        .map(|(t, class)| {
            let seed = match class {
                Class::Hit => warm[rng.gen_range(0..warm.len())],
                _ => {
                    next_cold = next_cold.wrapping_add(1);
                    next_cold
                }
            };
            Planned {
                due: Duration::from_secs_f64(t),
                class,
                seed,
                request: request_for(class, seed, trace_len),
            }
        })
        .collect()
}

/// What happened to one scheduled request.
struct Done {
    /// When a load thread took the request off the schedule.
    taken: Instant,
    sent: Instant,
    done: Instant,
    /// 0 when the exchange failed at the socket.
    status: u16,
    body: Vec<u8>,
}

/// Sends `plan` from two load threads, one keep-alive connection each,
/// starting at `origin`. A thread takes the next request as soon as it
/// is free, waits until it is due, and sends it; with both connections
/// busy, due requests wait, and that wait counts in their latency.
fn drive(addr: SocketAddr, plan: &[Planned], origin: Instant, first: Conn) -> Vec<Done> {
    let next = AtomicUsize::new(0);
    let load = |mut conn: Option<Conn>| {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(p) = plan.get(i) else { return mine };
            let taken = Instant::now();
            let due = origin + p.due;
            if due > taken {
                std::thread::sleep(due - taken);
            }
            let sent = Instant::now();
            let reply = match conn.as_mut() {
                Some(c) => c.exchange(&p.request),
                None => Err(std::io::Error::other("not connected")),
            };
            let done = Instant::now();
            let (status, body) = reply.unwrap_or_else(|err| {
                eprintln!("[fdip-benchmark] request {i} failed: {err}");
                conn = Conn::connect(addr).ok();
                (0, Vec::new())
            });
            mine.push((
                i,
                Done {
                    taken,
                    sent,
                    done,
                    status,
                    body,
                },
            ));
        }
    };
    let mut all: Vec<(usize, Done)> = std::thread::scope(|s| {
        let a = s.spawn(|| load(Some(first)));
        let b = s.spawn(|| load(Conn::connect(addr).ok()));
        let mut all = a.join().expect("load thread panicked");
        all.extend(b.join().expect("load thread panicked"));
        all
    });
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, d)| d).collect()
}

struct Running {
    addr: SocketAddr,
    handle: ShutdownHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

fn start_server() -> std::io::Result<Running> {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        timeout_ms: 60_000,
        ..ServeConfig::default()
    })?;
    let addr = server.local_addr()?;
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());
    Ok(Running {
        addr,
        handle,
        thread,
    })
}

fn stop_server(bench: &mut Bench, server: Running) {
    server.handle.shutdown();
    let ended = server.thread.join();
    bench.out.check(matches!(ended, Ok(Ok(()))), || {
        format!("server did not shut down cleanly: {ended:?}")
    });
}

/// The shed and coalesced counters of a `/metrics` scrape.
fn scrape(conn: &mut Conn) -> Option<(u64, u64)> {
    let (status, body) = conn.exchange(&http::request("GET", "/metrics", "")).ok()?;
    if status != 200 {
        return None;
    }
    let text = String::from_utf8(body).ok()?;
    let counter = |name: &str| {
        text.lines().find_map(|l| {
            l.strip_prefix(name)?
                .strip_prefix(' ')?
                .trim()
                .parse::<u64>()
                .ok()
        })
    };
    Some((
        counter("fdip_serve_shed_total")?,
        counter("fdip_serve_coalesced_total")?,
    ))
}

/// Starts a server and warms its cell cache with `seeds` over one
/// connection, which it returns for the load.
fn setup(bench: &mut Bench, seeds: &[u64], trace_len: usize) -> (Running, Conn) {
    let server = start_server().expect("bind the benchmark server on 127.0.0.1");
    let mut conn = Conn::connect(server.addr).expect("connect to the benchmark server");
    for &seed in seeds {
        let status = conn
            .exchange(&request_for(Class::Hit, seed, trace_len))
            .map_or(0, |(status, _)| status);
        bench.out.check(status == 200, || {
            format!("warming seed {seed} answered {status}")
        });
    }
    (server, conn)
}

fn harness_delta(after: HarnessStats, before: HarnessStats) -> HarnessStats {
    HarnessStats {
        traces_generated: after.traces_generated - before.traces_generated,
        cells_simulated: after.cells_simulated - before.cells_simulated,
        cells_batched: after.cells_batched - before.cells_batched,
        cell_hits: after.cell_hits - before.cell_hits,
        cells_shared: after.cells_shared - before.cells_shared,
        cells_failed: after.cells_failed - before.cells_failed,
        ..HarnessStats::default()
    }
}

pub fn run(bench: &mut Bench, size: &ServeSize) {
    let root = bench.tracer.root();
    let mut setup_s = Vec::new();
    let mut running = None;
    for k in 0..size.setups {
        if let Some((server, conn)) = running.take() {
            drop(conn);
            stop_server(bench, server);
        }
        let seeds = warm_seeds(bench.seed, k, size.warm_seeds);
        let open = bench.tracer.open(root, "setup");
        running = Some(setup(bench, &seeds, size.trace_len));
        setup_s.push(bench.tracer.close(open).as_secs_f64());
    }
    bench.out.setup_times(&setup_s);
    let (server, mut conn) = running.expect("at least one set-up");
    let warm = warm_seeds(bench.seed, size.setups - 1, size.warm_seeds);

    let plan = schedule(bench.seed, size.rate, bench.seconds, &warm, size.trace_len);
    let counters_before = scrape(&mut conn);
    let harness_before = Harness::global().stats();
    // A short lead so the first requests are not already late.
    let origin = Instant::now() + Duration::from_millis(5);
    let load = bench.tracer.open(root, "load");
    let done = drive(server.addr, &plan, origin, conn);
    bench.tracer.close(load);
    let harness = harness_delta(Harness::global().stats(), harness_before);
    let mut conn = Conn::connect(server.addr).expect("reconnect after the load");
    let counters = counters_before.zip(scrape(&mut conn));
    bench.out.check(counters.is_some(), || {
        "could not scrape /metrics".to_string()
    });
    let (shed, coalesced) = counters.map_or((0, 0), |(b, a)| (a.0 - b.0, a.1 - b.1));
    drop(conn);
    stop_server(bench, server);

    report_load(bench, &plan, &done, origin, shed);
    check_responses(bench, &plan, &done, size);
    if bench.traced() {
        let spec = sim::profile_spec(Profile::Client, warm[0]);
        let trace = spec.generate(size.trace_len);
        sim::decompose(bench, &(spec, trace), size.trace_len);
        sim::layer_counters(bench, Some(harness), Some((shed, coalesced)));
    }
}

/// Latency from each request's due time, per class, and how late the
/// generator ran; in the traced run, one span per request.
///
/// `op_ms` weights each class's p75 latency by the class's share of the
/// mix (see [`GATED_PERCENTILE`]).
fn report_load(bench: &mut Bench, plan: &[Planned], done: &[Done], origin: Instant, shed: u64) {
    let pairs: Vec<(&Planned, &Done)> = plan.iter().zip(done).collect();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let latency = |(p, d): &(&Planned, &Done)| ms(d.done - (origin + p.due));
    let all = summarize(&pairs.iter().map(latency).collect::<Vec<_>>());
    eprintln!("[fdip-benchmark] all     n={:<6} {}", all.n, all.describe());
    let mut weighted = 0.0;
    for class in Class::ALL {
        let of_class: Vec<f64> = pairs
            .iter()
            .filter(|(p, _)| p.class == class)
            .map(latency)
            .collect();
        // Every class has requests: the schedule rounds each share up.
        let gated = percentile(&of_class, GATED_PERCENTILE);
        weighted += class.percent() as f64 / 100.0 * gated;
        eprintln!(
            "[fdip-benchmark] {:<7} n={:<6} p{GATED_PERCENTILE} {gated:.3}ms, {}",
            class.name(),
            of_class.len(),
            summarize(&of_class).describe()
        );
    }
    bench.out.end_to_end("op_ms", weighted, "ms", all.n);
    // Lateness: how long after it was due a request left while its
    // thread was free (sleep overshoot, not queueing). Queueing: how long
    // after it was due it left at all; a backlog that grows shows as a
    // later quarter queueing longer than the first.
    let late: Vec<f64> = pairs
        .iter()
        .map(|(p, d)| ms(d.sent - (origin + p.due).max(d.taken)))
        .collect();
    let queued = |part: &[(&Planned, &Done)]| {
        median(
            &part
                .iter()
                .map(|(p, d)| ms(d.sent - (origin + p.due)))
                .collect::<Vec<_>>(),
        )
    };
    let quarter = (pairs.len() / 4).max(1);
    let elapsed = done.last().map_or(1.0, |d| (d.done - origin).as_secs_f64());
    eprintln!(
        "[fdip-benchmark] completed {:.0} req/s; generator lateness {}; queueing median {:.3}ms in the first quarter, \
         {:.3}ms in the last; {shed} shed",
        done.len() as f64 / elapsed,
        summarize(&late).describe(),
        queued(&pairs[..quarter]),
        queued(&pairs[pairs.len() - quarter..]),
    );
    if bench.traced() {
        for (i, (p, d)) in pairs.iter().enumerate() {
            let trace = i as u64 + 1;
            let req = bench.tracer.record(
                trace,
                None,
                format!("request {}", p.class.name()),
                origin + p.due,
                d.done,
            );
            bench
                .tracer
                .record(trace, Some(req), "exchange", d.sent, d.done);
        }
    }
}

/// Every request answered 200; every hit on one key returned the same
/// cell; sampled responses of each class equal a direct computation.
fn check_responses(bench: &mut Bench, plan: &[Planned], done: &[Done], size: &ServeSize) {
    let mut cells: HashMap<u64, String> = HashMap::new();
    let mut mismatched = Vec::new();
    let mut sampled: Vec<(Class, u64, Json)> = Vec::new();
    for (p, d) in plan.iter().zip(done) {
        let doc = std::str::from_utf8(&d.body)
            .ok()
            .and_then(|t| Json::parse(t).ok());
        let ok = d.status == 200 && doc.is_some();
        bench.out.op(ok);
        let Some(doc) = doc.filter(|_| ok) else {
            eprintln!(
                "[fdip-benchmark] {} seed {} answered {}",
                p.class.name(),
                p.seed,
                d.status
            );
            continue;
        };
        if p.class == Class::Hit {
            let cell = doc.get("cell").map(Json::to_string).unwrap_or_default();
            let first = cells.entry(p.seed).or_insert_with(|| cell.clone());
            if *first != cell {
                mismatched.push(p.seed);
            }
        }
        let taken = sampled.iter().filter(|(c, ..)| *c == p.class).count();
        let seen = sampled
            .iter()
            .any(|(c, s, _)| *c == p.class && *s == p.seed);
        if taken < size.checked_per_class && !seen {
            sampled.push((p.class, p.seed, doc));
        }
    }
    mismatched.sort_unstable();
    mismatched.dedup();
    bench.out.check(mismatched.is_empty(), || {
        format!("hits on seeds {mismatched:?} returned different cells")
    });
    for class in Class::ALL {
        let n = sampled.iter().filter(|(c, ..)| *c == class).count();
        bench
            .out
            .check(n > 0, || format!("no {} response to check", class.name()));
    }

    let direct = Harness::with_threads(1);
    let prefetcher = |name: &str| {
        let kind = spec::parse_prefetcher(name, CpfMode::None).expect("known prefetcher");
        FrontendConfig::default().with_prefetcher(kind)
    };
    for (class, seed, doc) in sampled {
        let ok = match class {
            Class::Hit | Class::Cold => {
                let spec = sim::profile_spec(Profile::Client, seed);
                let configs = vec![("run".to_string(), prefetcher("fdip"))];
                let want = direct
                    .run_matrix(&[spec], size.trace_len, &configs)
                    .into_cells();
                let got = doc
                    .get("cell")
                    .and_then(|c| c.get("stats"))
                    .and_then(SimStats::from_json);
                got.as_ref() == Some(&want[0].stats)
            }
            Class::Compare => {
                let spec = sim::profile_spec(Profile::Server, seed);
                let mut configs = vec![("baseline".to_string(), FrontendConfig::default())];
                configs.extend(COMPARED.iter().map(|p| (p.to_string(), prefetcher(p))));
                let want = direct
                    .run_matrix(&[spec], size.trace_len, &configs)
                    .into_cells();
                let rows = doc.get("results").and_then(Json::as_array).unwrap_or(&[]);
                rows.len() == COMPARED.len()
                    && rows.iter().zip(&want[1..]).all(|(row, cell)| {
                        let speedup = cell.stats.try_speedup_over(&want[0].stats);
                        row.get("label").and_then(Json::as_str) == Some(cell.config.as_str())
                            && row.get("speedup").and_then(Json::as_f64) == speedup
                            && row.get("ipc").and_then(Json::as_f64) == Some(cell.stats.ipc())
                    })
            }
        };
        bench.out.check(ok, || {
            format!(
                "{} response for seed {seed} differs from a direct harness run",
                class.name()
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpListener;

    #[test]
    fn the_schedule_is_seeded_and_follows_the_mix() {
        let warm = warm_seeds(5, 0, 32);
        let span = Duration::from_secs(20);
        let a = schedule(5, 500.0, span, &warm, 20_000);
        let b = schedule(5, 500.0, span, &warm, 20_000);
        let key = |p: &Planned| (p.due, p.class, p.seed, p.request.clone());
        assert_eq!(
            a.iter().map(key).collect::<Vec<_>>(),
            b.iter().map(key).collect::<Vec<_>>()
        );
        let c = schedule(6, 500.0, span, &warm_seeds(6, 0, 32), 20_000);
        assert_ne!(
            a.iter().map(|p| p.due).collect::<Vec<_>>(),
            c.iter().map(|p| p.due).collect::<Vec<_>>()
        );

        // Exactly 500/s for 20s, in due order, spread over the span.
        assert_eq!(a.len(), 10_000);
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.last().unwrap().due < span);
        for quarter in 0..4 {
            let from = span * quarter / 4;
            let to = span * (quarter + 1) / 4;
            let arrivals = a.iter().filter(|p| p.due >= from && p.due < to).count();
            assert!((2_300..2_700).contains(&arrivals), "{arrivals}");
        }
        // Exact shares, shuffled through the run.
        let count = |plan: &[Planned], class| plan.iter().filter(|p| p.class == class).count();
        assert_eq!(count(&a, Class::Hit), 8_800);
        assert_eq!(count(&a, Class::Cold), 1_000);
        assert_eq!(count(&a, Class::Compare), 200);
        assert!((820..940).contains(&count(&a[..1_000], Class::Hit)));
        assert!((60..140).contains(&count(&a[..1_000], Class::Cold)));
        // Hits draw from the warm pool; cold requests never repeat a seed.
        assert!(a
            .iter()
            .filter(|p| p.class == Class::Hit)
            .all(|p| warm.contains(&p.seed)));
        let mut cold: Vec<u64> = a
            .iter()
            .filter(|p| p.class != Class::Hit)
            .map(|p| p.seed)
            .collect();
        let n = cold.len();
        cold.sort_unstable();
        cold.dedup();
        assert_eq!(cold.len(), n);
        assert!(cold.iter().all(|s| !warm.contains(s)));
    }

    /// A fake server that holds the first request on each connection for
    /// `stall`, then answers at once.
    fn stalling_server(stall: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let stream = stream.unwrap();
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    let mut first = true;
                    loop {
                        let mut len = 0;
                        loop {
                            let mut line = String::new();
                            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                                return;
                            }
                            if let Some(v) = line.strip_prefix("content-length: ") {
                                len = v.trim().parse().unwrap();
                            }
                            if line == "\r\n" {
                                break;
                            }
                        }
                        let mut body = vec![0; len];
                        reader.read_exact(&mut body).unwrap();
                        if std::mem::take(&mut first) {
                            std::thread::sleep(stall);
                        }
                        writer
                            .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}")
                            .unwrap();
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_behind_it() {
        let stall = Duration::from_millis(80);
        let addr = stalling_server(stall);
        let plan: Vec<Planned> = (0..6)
            .map(|i| Planned {
                due: Duration::from_millis(i * 2),
                class: Class::Hit,
                seed: i,
                request: http::request("POST", "/v1/run", "{}"),
            })
            .collect();
        let origin = Instant::now() + Duration::from_millis(5);
        let done = drive(addr, &plan, origin, Conn::connect(addr).unwrap());
        assert_eq!(done.len(), 6);
        assert!(done.iter().all(|d| d.status == 200));
        for (i, (p, d)) in plan.iter().zip(&done).enumerate().skip(2) {
            // Both connections were held by requests 0 and 1, so the later
            // requests left late and their latency from due time includes
            // the wait.
            let due = origin + p.due;
            assert!(
                d.sent - due >= stall - Duration::from_millis(15),
                "request {i}"
            );
            assert!(
                d.done - due >= stall - Duration::from_millis(15),
                "request {i}"
            );
            // The wait is queueing, not generator lateness.
            assert!(d.taken >= due, "request {i} was taken before it was due");
        }
    }
}
