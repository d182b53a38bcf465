//! Shared helpers for the serve integration tests: a self-stopping test
//! server, minimal HTTP/1.1 client plumbing, and fault plans to hand a
//! test server through its config.

#![allow(dead_code)] // each test binary uses a subset of these helpers

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use fdip_serve::metrics::Metrics;
use fdip_serve::{ServeConfig, Server, ShutdownHandle};
use fdip_sim::fault::FaultPlan;

pub struct TestServer {
    pub addr: SocketAddr,
    pub handle: ShutdownHandle,
    pub metrics: Arc<Metrics>,
    pub thread: JoinHandle<std::io::Result<()>>,
}

impl TestServer {
    pub fn start(mut config: ServeConfig) -> TestServer {
        config.addr = "127.0.0.1:0".to_string();
        let server = Server::bind(config).expect("bind");
        let addr = server.local_addr().expect("local_addr");
        let handle = server.shutdown_handle();
        let metrics = server.metrics();
        let thread = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            handle,
            metrics,
            thread,
        }
    }

    pub fn stop(self) -> Arc<Metrics> {
        self.handle.shutdown();
        let result = self.thread.join().expect("server thread panicked");
        assert!(result.is_ok(), "server run() errored: {result:?}");
        self.metrics
    }
}

/// Reads one HTTP/1.1 response (status line, headers, content-length body)
/// off `reader`.
pub fn read_response<R: Read>(reader: &mut BufReader<R>) -> (u16, Vec<(String, String)>, String) {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {line:?}"));
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        reader.read_line(&mut h).expect("header line");
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        let (name, value) = h.split_once(':').expect("header colon");
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value.parse().expect("content-length value");
        }
        headers.push((name, value));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (
        status,
        headers,
        String::from_utf8(body).expect("utf-8 body"),
    )
}

/// One-shot request on a fresh connection (Connection: close).
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _headers, body) = request_with_headers(addr, method, path, &[], body);
    (status, body)
}

pub fn request_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra: &[(&str, &str)],
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut req = format!("{method} {path} HTTP/1.1\r\nhost: test\r\nconnection: close\r\n");
    for (name, value) in extra {
        req.push_str(&format!("{name}: {value}\r\n"));
    }
    req.push_str(&format!("content-length: {}\r\n\r\n{body}", body.len()));
    stream.write_all(req.as_bytes()).expect("write request");
    let mut reader = BufReader::new(stream);
    read_response(&mut reader)
}

/// The fault plan `spec`, for a test server's [`ServeConfig::faults`]:
/// each server injects only its own plan.
pub fn plan(spec: &str) -> Option<Arc<FaultPlan>> {
    Some(Arc::new(FaultPlan::parse(spec).expect("plan")))
}

/// A `/v1/run` body for the microloop profile at `seed` (distinct seeds
/// are distinct cache identities, so each is a fresh simulation).
pub fn run_body(seed: u64) -> String {
    format!(r#"{{"workload": {{"profile": "microloop", "seed": {seed}}}, "trace_len": 1500}}"#)
}

/// Fires a `/v1/run` for `seed` on a background thread and returns the
/// join handle (status, body).
pub fn spawn_run(addr: SocketAddr, seed: u64) -> JoinHandle<(u16, String)> {
    std::thread::spawn(move || request(addr, "POST", "/v1/run", &run_body(seed)))
}
