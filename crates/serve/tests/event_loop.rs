//! Event-loop behaviour over real TCP: nonblocking shedding under
//! slow-loris clients, queue wait visible in reported latency, strict
//! deadline-header validation, request coalescing, per-tenant rate
//! limiting, and keep-alive pipelining.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use common::{plan, read_response, request, request_with_headers, run_body, spawn_run, TestServer};
use fdip_serve::ServeConfig;

/// Regression for the blocking-shed bug: the old accept loop wrote 503
/// responses synchronously with a 500ms timeout, so clients that never
/// read — or never finished their request — stalled everyone behind
/// them. The event loop must keep answering while six unread shed
/// responses and three half-written requests are outstanding.
#[test]
fn shedding_never_reading_clients_does_not_block_other_requests() {
    let t = TestServer::start(ServeConfig {
        faults: plan("slow@microloop~s930/run:1500"),
        threads: 1,
        queue_depth: 1,
        timeout_ms: 30_000,
        ..ServeConfig::default()
    });

    let inflight = spawn_run(t.addr, 930);
    std::thread::sleep(Duration::from_millis(300)); // holds the only seat
    let queued = spawn_run(t.addr, 931);
    std::thread::sleep(Duration::from_millis(200)); // queue now full

    // Six clients whose requests will be shed — none of them ever reads
    // its 503.
    let mut unread = Vec::new();
    for seed in 932..938u64 {
        let mut s = TcpStream::connect(t.addr).expect("connect shed");
        let body = run_body(seed);
        s.write_all(
            format!(
                "POST /v1/run HTTP/1.1\r\nhost: test\r\nconnection: close\r\n\
                 content-length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("write shed request");
        unread.push(s);
    }

    // Three slow-loris clients that send half a request line and stop.
    let mut loris = Vec::new();
    for _ in 0..3 {
        let mut s = TcpStream::connect(t.addr).expect("connect loris");
        s.write_all(b"POST /v1/run HTT").expect("write partial");
        loris.push(s);
    }
    std::thread::sleep(Duration::from_millis(200));

    // Despite all of the above, a fresh client gets served immediately.
    let started = Instant::now();
    let (status, body) = request(t.addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "healthz stalled behind shed writes: {:?}",
        started.elapsed()
    );
    let (status, text) = request(t.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(text.contains("fdip_serve_open_connections"), "{text}");

    let (status, body) = inflight.join().expect("inflight thread");
    assert_eq!(status, 200, "{body}");
    let (status, body) = queued.join().expect("queued thread");
    assert_eq!(status, 200, "{body}");

    drop(unread);
    drop(loris);
    let metrics = t.stop();
    assert_eq!(metrics.shed_total.load(Ordering::Relaxed), 6);
    assert_eq!(metrics.responses_for(503), 6);
}

/// Regression for the latency bugfix: the clock used to start when the
/// request was parsed by a worker, so time spent waiting in the queue
/// was invisible. It now starts at accept, so a request that waits
/// ~450ms for the seat reports ~450ms more than its compute time.
#[test]
fn reported_latency_includes_queue_wait() {
    let t = TestServer::start(ServeConfig {
        faults: plan("slow@microloop~s940/run:700"),
        threads: 1,
        queue_depth: 4,
        timeout_ms: 30_000,
        ..ServeConfig::default()
    });

    let inflight = spawn_run(t.addr, 940);
    std::thread::sleep(Duration::from_millis(250)); // holds the only seat

    // This fast simulation waits ~450ms in the queue before running.
    let started = Instant::now();
    let (status, body) = request(t.addr, "POST", "/v1/run", &run_body(941));
    assert_eq!(status, 200, "{body}");
    let observed = started.elapsed();
    assert!(
        observed >= Duration::from_millis(300),
        "expected a queue wait, got {observed:?}"
    );

    let (status, body) = inflight.join().expect("inflight thread");
    assert_eq!(status, 200, "{body}");

    let metrics = t.stop();
    assert_eq!(metrics.latency_count(), 2);
    // Slow job ≈700ms + queued job ≈450ms wait. If queue wait were
    // excluded (the old bug) the sum would be ≈700ms + a few ms of
    // compute, well under this floor.
    assert!(
        metrics.latency_sum() >= Duration::from_millis(1000),
        "histogram sum omits queue wait: {:?}",
        metrics.latency_sum()
    );
}

/// A malformed `x-fdip-deadline-ms` used to be silently ignored (the
/// request ran with no deadline at all). It is now a structured 400.
#[test]
fn malformed_deadline_header_is_rejected_with_400() {
    let t = TestServer::start(ServeConfig {
        timeout_ms: 30_000,
        ..ServeConfig::default()
    });

    let malformed = ["500ms", "-1", "0", "1e3", "", "18446744073709551616"];
    for raw in malformed {
        let (status, _headers, body) = request_with_headers(
            t.addr,
            "POST",
            "/v1/run",
            &[("x-fdip-deadline-ms", raw)],
            &run_body(950),
        );
        assert_eq!(status, 400, "value {raw:?}: {body}");
        assert!(body.contains("x-fdip-deadline-ms"), "value {raw:?}: {body}");
    }

    // A valid value still works, as does an invalid tenant check.
    let (status, _headers, body) = request_with_headers(
        t.addr,
        "POST",
        "/v1/run",
        &[("x-fdip-deadline-ms", "5000")],
        &run_body(951),
    );
    assert_eq!(status, 200, "{body}");
    let (status, _headers, body) = request_with_headers(
        t.addr,
        "POST",
        "/v1/run",
        &[("x-fdip-tenant", "has space")],
        &run_body(952),
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("x-fdip-tenant"), "{body}");

    let metrics = t.stop();
    assert_eq!(metrics.responses_for(400), malformed.len() as u64 + 1);
}

/// Concurrent byte-identical simulations share one compute: followers
/// get the leader's response without holding a queue slot, and the
/// coalesced counter says how many rode along.
#[test]
fn identical_concurrent_runs_coalesce_into_one_simulation() {
    let t = TestServer::start(ServeConfig {
        faults: plan("slow@microloop~s960/run:800"),
        threads: 1,
        queue_depth: 4,
        timeout_ms: 30_000,
        ..ServeConfig::default()
    });

    let leader = spawn_run(t.addr, 960);
    std::thread::sleep(Duration::from_millis(250)); // in flight
    let follower_a = spawn_run(t.addr, 960);
    let follower_b = spawn_run(t.addr, 960);
    std::thread::sleep(Duration::from_millis(200));

    // The loop answers GETs inline, so we can observe the coalescing
    // while the shared simulation is still running.
    let (status, text) = request(t.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(text.contains("fdip_serve_coalesced_total 2"), "{text}");

    let (status, leader_body) = leader.join().expect("leader thread");
    assert_eq!(status, 200, "{leader_body}");
    let (status, body_a) = follower_a.join().expect("follower a");
    assert_eq!(status, 200, "{body_a}");
    let (status, body_b) = follower_b.join().expect("follower b");
    assert_eq!(status, 200, "{body_b}");
    // One simulation, one answer, fanned out byte-identically.
    assert_eq!(leader_body, body_a);
    assert_eq!(leader_body, body_b);

    let metrics = t.stop();
    assert_eq!(metrics.coalesced_total.load(Ordering::Relaxed), 2);
    assert_eq!(metrics.responses_for(200), 4); // 3 runs + 1 metrics scrape
}

/// With `--tenant-rps 1` each tenant gets one simulation per second;
/// the second request inside the window is answered 429 without
/// touching the queue, and other tenants are unaffected.
#[test]
fn tenant_rate_limit_answers_429_per_tenant() {
    let t = TestServer::start(ServeConfig {
        threads: 2,
        tenant_rps: 1,
        timeout_ms: 30_000,
        ..ServeConfig::default()
    });

    let alice = [("x-fdip-tenant", "alice")];
    let (status, _h, body) =
        request_with_headers(t.addr, "POST", "/v1/run", &alice, &run_body(970));
    assert_eq!(status, 200, "{body}");

    let (status, headers, body) =
        request_with_headers(t.addr, "POST", "/v1/run", &alice, &run_body(971));
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("rate limit"), "{body}");
    assert!(
        headers.iter().any(|(n, v)| n == "retry-after" && v == "1"),
        "{headers:?}"
    );

    // Other tenants (and the default bucket) have their own budgets.
    let (status, _h, body) = request_with_headers(
        t.addr,
        "POST",
        "/v1/run",
        &[("x-fdip-tenant", "bob")],
        &run_body(972),
    );
    assert_eq!(status, 200, "{body}");
    let (status, body) = request(t.addr, "POST", "/v1/run", &run_body(973));
    assert_eq!(status, 200, "{body}");

    let (status, text) = request(t.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(text.contains("fdip_serve_rate_limited_total 1"), "{text}");

    let metrics = t.stop();
    assert_eq!(metrics.rate_limited_total.load(Ordering::Relaxed), 1);
    assert_eq!(metrics.responses_for(429), 1);
}

/// Keep-alive pipelining: two requests written back-to-back on one
/// connection get two in-order responses, and the connection stays open
/// until the client asks to close it.
#[test]
fn keep_alive_pipelined_requests_share_a_connection() {
    let t = TestServer::start(ServeConfig {
        timeout_ms: 30_000,
        ..ServeConfig::default()
    });

    let stream = TcpStream::connect(t.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut w = stream.try_clone().unwrap();
    w.write_all(
        b"GET /healthz HTTP/1.1\r\nhost: test\r\ncontent-length: 0\r\n\r\n\
          GET /healthz HTTP/1.1\r\nhost: test\r\ncontent-length: 0\r\n\r\n",
    )
    .expect("write pipelined");

    let mut reader = BufReader::new(stream);
    for _ in 0..2 {
        let (status, headers, body) = read_response(&mut reader);
        assert_eq!(status, 200, "{body}");
        assert!(
            !headers
                .iter()
                .any(|(n, v)| n == "connection" && v == "close"),
            "{headers:?}"
        );
    }

    // Third request asks to close; the server honours it.
    w.write_all(
        b"GET /healthz HTTP/1.1\r\nhost: test\r\nconnection: close\r\ncontent-length: 0\r\n\r\n",
    )
    .expect("write final");
    let (status, headers, _body) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert!(
        headers
            .iter()
            .any(|(n, v)| n == "connection" && v == "close"),
        "{headers:?}"
    );
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("eof"), 0, "{rest:?}");

    let metrics = t.stop();
    assert_eq!(metrics.responses_for(200), 3);
}

/// A coalesced follower keeps its *own* deadline. The leader runs a slow
/// simulation under the 30s server default; a follower with a 300ms
/// `x-fdip-deadline-ms` coalesces onto it and must get its 408 while the
/// leader is still computing — not wait out the leader's lazier budget.
#[test]
fn coalesced_follower_expires_on_its_own_deadline() {
    let t = TestServer::start(ServeConfig {
        faults: plan("slow@microloop~s9400/run:1500"),
        threads: 1,
        queue_depth: 4,
        timeout_ms: 30_000,
        ..ServeConfig::default()
    });

    let leader = spawn_run(t.addr, 9400);
    std::thread::sleep(Duration::from_millis(300)); // leader in flight

    let started = Instant::now();
    let (status, _headers, body) = request_with_headers(
        t.addr,
        "POST",
        "/v1/run",
        &[("x-fdip-deadline-ms", "300")],
        &run_body(9400),
    );
    let waited = started.elapsed();
    assert_eq!(status, 408, "{body}");
    assert!(body.contains("deadline expired"), "{body}");
    // Answered on its own clock (300ms + sweep granularity), well before
    // the shared simulation finishes at ~1.2s from now.
    assert!(
        waited < Duration::from_millis(1100),
        "follower waited {waited:?}"
    );

    let (status, leader_body) = leader.join().expect("leader thread");
    assert_eq!(status, 200, "{leader_body}");

    let metrics = t.stop();
    assert_eq!(metrics.coalesced_total.load(Ordering::Relaxed), 1);
    assert_eq!(metrics.deadline_expired_total.load(Ordering::Relaxed), 1);
    assert_eq!(metrics.responses_for(408), 1);
    assert_eq!(metrics.responses_for(200), 1);
}

/// Forces an RST on close by enabling SO_LINGER with a zero timeout.
#[cfg(target_os = "linux")]
fn set_linger_zero(stream: &TcpStream) {
    use std::os::unix::io::AsRawFd;
    #[repr(C)]
    struct Linger {
        onoff: i32,
        linger: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let lin = Linger {
        onoff: 1,
        linger: 0,
    };
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &lin,
            std::mem::size_of::<Linger>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_LINGER)");
}

/// A client that RSTs its socket while its request is in flight must be
/// reaped promptly — a `Waiting` connection has no I/O interest, so the
/// level-triggered HUP would otherwise wake the loop continuously at
/// 100% CPU until the simulation finishes (the review's busy-spin bug).
#[cfg(target_os = "linux")]
#[test]
fn rst_while_waiting_is_reaped_not_spun() {
    let t = TestServer::start(ServeConfig {
        faults: plan("slow@microloop~s9500/run:1200"),
        threads: 1,
        timeout_ms: 30_000,
        ..ServeConfig::default()
    });

    let mut s = TcpStream::connect(t.addr).expect("connect");
    let body = run_body(9500);
    s.write_all(
        format!(
            "POST /v1/run HTTP/1.1\r\nhost: test\r\nconnection: close\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .expect("write request");
    std::thread::sleep(Duration::from_millis(300)); // dispatched, Waiting
    assert_eq!(t.metrics.open_connections.load(Ordering::Relaxed), 1);
    set_linger_zero(&s);
    drop(s); // RST while the simulation still has ~900ms to run

    // The loop notices the reset and reaps the connection long before
    // the job completes, instead of spinning on the pending HUP.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(t.metrics.open_connections.load(Ordering::Relaxed), 0);

    // The server is still healthy; the orphaned job finishes harmlessly.
    let (status, body) = request(t.addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    t.stop();
}

/// `GET /v1/experiments` does blocking disk reads, so it rides the
/// worker pool and is subject to admission like the sim routes — here
/// the per-tenant rate limit — while `/healthz` stays on the loop
/// thread, uncounted and unlimited.
#[test]
fn experiment_reads_ride_the_worker_pool() {
    let dir = std::env::temp_dir().join("fdip-serve-test-pooled-experiments");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::create_dir_all(&dir);
    let t = TestServer::start(ServeConfig {
        threads: 2,
        tenant_rps: 1,
        timeout_ms: 30_000,
        results_dir: dir,
        ..ServeConfig::default()
    });

    // First read takes the tenant's only token and is answered by the
    // pooled handler (404: known id, no persisted document).
    let (status, body) = request(t.addr, "GET", "/v1/experiments/e01", "");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("no persisted results"), "{body}");

    // Second read inside the window hits admission: 429, proving the
    // route goes through the scheduler rather than the loop thread.
    let (status, body) = request(t.addr, "GET", "/v1/experiments/e01", "");
    assert_eq!(status, 429, "{body}");

    // Loop-thread routes are not admitted and cannot be rate limited.
    let (status, _body) = request(t.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    let metrics = t.stop();
    assert_eq!(metrics.rate_limited_total.load(Ordering::Relaxed), 1);
}
