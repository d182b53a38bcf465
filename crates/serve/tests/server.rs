//! End-to-end tests over real TCP: backpressure shedding, queued-request
//! deadlines, graceful drain, and metrics reconciliation.
//!
//! Each test binds its own server on port 0 and runs it on a background
//! thread. Every server owns its harness — cell cache, counters and fault
//! plan — so concurrent tests cannot see each other's state.

mod common;

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use common::{plan, read_response, request, request_with_headers, run_body, spawn_run, TestServer};
use fdip_serve::ServeConfig;

#[test]
fn healthz_run_and_metrics_over_tcp() {
    let t = TestServer::start(ServeConfig {
        threads: 1,
        timeout_ms: 30_000,
        ..ServeConfig::default()
    });

    let (status, body) = request(t.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""), "{body}");

    let run_body = r#"{"workload": {"profile": "microloop", "seed": 31}, "trace_len": 1500}"#;
    let (status, body) = request(t.addr, "POST", "/v1/run", run_body);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ipc\""), "{body}");
    assert!(body.contains("\"schema_version\""), "{body}");

    let (status, body) = request(t.addr, "GET", "/v1/experiments/not-an-id", "");
    assert_eq!(status, 404);
    assert!(body.contains("unknown experiment"), "{body}");

    // The scrape itself is recorded only after it renders, so the text
    // reflects the 3 responses observed so far.
    let (status, text) = request(t.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        text.contains("fdip_serve_requests_total{status=\"200\"} 2"),
        "{text}"
    );
    assert!(
        text.contains("fdip_serve_requests_total{status=\"404\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("fdip_serve_harness_cells_simulated_total"),
        "{text}"
    );
    assert!(
        text.contains("fdip_serve_request_seconds_bucket{le=\"+Inf\"} 3"),
        "{text}"
    );

    let metrics = t.stop();

    // Client-observed responses reconcile with the server's counters:
    // 4 requests made, all completed, none shed.
    assert_eq!(metrics.responses_total(), 4);
    assert_eq!(metrics.responses_for(200), 3);
    assert_eq!(metrics.responses_for(404), 1);
    assert_eq!(
        metrics
            .shed_total
            .load(std::sync::atomic::Ordering::Relaxed),
        0
    );
}

#[test]
fn fault_plans_belong_to_the_server_they_configure() {
    // Two servers in one process, asked for the same cell at the same
    // time: only the one whose config carries the plan fails it.
    let faulted = TestServer::start(ServeConfig {
        threads: 1,
        faults: plan("panic@microloop~s950/run"),
        ..ServeConfig::default()
    });
    let clean = TestServer::start(ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    });
    let a = spawn_run(faulted.addr, 950);
    let b = spawn_run(clean.addr, 950);
    let (status, body) = a.join().expect("faulted client");
    assert_eq!(status, 502, "{body}");
    assert!(body.contains("\"cell_error\""), "{body}");
    let (status, body) = b.join().expect("clean client");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ipc\""), "{body}");

    let (_, text) = request(faulted.addr, "GET", "/metrics", "");
    assert!(
        text.contains("fdip_serve_harness_cells_failed_total 1"),
        "{text}"
    );
    let (_, text) = request(clean.addr, "GET", "/metrics", "");
    assert!(
        text.contains("fdip_serve_harness_cells_failed_total 0"),
        "{text}"
    );
    assert!(
        text.contains("fdip_serve_harness_cells_simulated_total 1"),
        "{text}"
    );
    faulted.stop();
    clean.stop();
}

#[test]
fn full_queue_sheds_with_503_and_retry_after() {
    // Seed 900 holds the single compute seat for 1.5s; seed 901 sits in
    // the queue's one slot behind it.
    let t = TestServer::start(ServeConfig {
        faults: plan("slow@microloop~s900/run:1500"),
        threads: 1,
        queue_depth: 1,
        timeout_ms: 30_000,
        ..ServeConfig::default()
    });

    let inflight = spawn_run(t.addr, 900);
    std::thread::sleep(Duration::from_millis(300)); // dispatched to the worker
    let queued = spawn_run(t.addr, 901);
    std::thread::sleep(Duration::from_millis(300)); // admitted, queue now full

    // A third distinct simulation finds the queue full and is shed at
    // admission — the event loop answers 503 without touching a worker.
    let (status, headers, body) =
        request_with_headers(t.addr, "POST", "/v1/run", &[], &run_body(902));
    assert_eq!(status, 503, "{body}");
    assert!(
        headers.iter().any(|(n, v)| n == "retry-after" && v == "1"),
        "{headers:?}"
    );
    assert!(body.contains("capacity"), "{body}");

    // Shedding one request never cancels admitted work.
    let (status, body) = inflight.join().expect("inflight thread");
    assert_eq!(status, 200, "{body}");
    let (status, body) = queued.join().expect("queued thread");
    assert_eq!(status, 200, "{body}");

    let metrics = t.stop();
    assert_eq!(
        metrics
            .shed_total
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    assert_eq!(metrics.responses_for(503), 1);
    assert_eq!(metrics.responses_for(200), 2);
}

#[test]
fn queued_request_past_its_deadline_gets_408() {
    let t = TestServer::start(ServeConfig {
        faults: plan("slow@microloop~s910/run:1200"),
        threads: 1,
        queue_depth: 4,
        timeout_ms: 30_000,
        ..ServeConfig::default()
    });

    let inflight = spawn_run(t.addr, 910);
    std::thread::sleep(Duration::from_millis(300)); // occupies the only seat

    // This simulation waits in the queue behind the slow one; its 100ms
    // client deadline expires long before the seat frees up, and the
    // sweep rejects it from the queue without doing the work.
    let started = std::time::Instant::now();
    let (status, headers, body) = request_with_headers(
        t.addr,
        "POST",
        "/v1/run",
        &[("x-fdip-deadline-ms", "100")],
        &run_body(911),
    );
    assert_eq!(status, 408, "{body}");
    assert!(
        headers.iter().any(|(n, _)| n == "retry-after"),
        "{headers:?}"
    );
    // The rejection must not have waited for the worker seat (the slow
    // job still has ~600ms to run when the deadline hits).
    assert!(
        started.elapsed() < Duration::from_millis(800),
        "expiry waited for the worker: {:?}",
        started.elapsed()
    );

    let (status, body) = inflight.join().expect("inflight thread");
    assert_eq!(status, 200, "{body}");

    let metrics = t.stop();
    assert!(
        metrics
            .deadline_expired_total
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    assert_eq!(metrics.responses_for(408), 1);
}

#[test]
fn shutdown_drains_queued_work_before_returning() {
    let t = TestServer::start(ServeConfig {
        faults: plan("slow@microloop~s920/run:800"),
        threads: 1,
        queue_depth: 4,
        timeout_ms: 30_000,
        ..ServeConfig::default()
    });

    let inflight = spawn_run(t.addr, 920);
    std::thread::sleep(Duration::from_millis(250)); // occupies the only seat

    // Queue a second simulation on a keep-alive connection (no
    // `connection: close` from the client side).
    let queued = TcpStream::connect(t.addr).expect("connect");
    queued
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let body = run_body(921);
    let mut w = queued.try_clone().unwrap();
    w.write_all(
        format!(
            "POST /v1/run HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .expect("write");
    std::thread::sleep(Duration::from_millis(150)); // parsed and admitted

    // Shutdown stops accepting, but both the in-flight and the queued
    // simulation still complete before run() returns.
    t.handle.shutdown();

    let (status, body) = inflight.join().expect("inflight thread");
    assert_eq!(status, 200, "{body}");

    let mut reader = BufReader::new(queued);
    let (status, headers, body) = read_response(&mut reader);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ipc\""), "{body}");
    // Drain forces connection close even on keep-alive clients so the
    // loop can exit.
    assert!(
        headers
            .iter()
            .any(|(n, v)| n == "connection" && v == "close"),
        "{headers:?}"
    );

    let result = t.thread.join().expect("server thread panicked");
    assert!(result.is_ok(), "{result:?}");
    assert_eq!(t.metrics.responses_for(200), 2);
}
