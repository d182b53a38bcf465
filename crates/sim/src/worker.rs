//! The worker side of process-isolated cell execution.
//!
//! A worker is *this same binary*, re-executed by a local pool seat
//! ([`crate::pool`]) or a worker daemon with [`WORKER_ENV`] set. It speaks
//! the [`crate::ipc`] protocol in [`crate::net`] frames on stdin/stdout: read a
//! [`RunRequest`], simulate the cell, reply `ok`/`err`, repeat until
//! stdin reaches EOF. While a cell is in flight a dedicated thread emits
//! heartbeat frames, so the supervisor can tell a *long* cell (heartbeats
//! flowing, wall-clock budget still enforces the limit) from a *wedged*
//! one (silence → SIGKILL).
//!
//! Faults that arrive on the request (`abort`/`hang`/`bigalloc`, see
//! [`crate::fault`]) are realized *here*, inside the disposable process,
//! so isolation drills exercise exactly the containment path a real
//! crash would take. Panics — injected or genuine — are caught and
//! reported as `err` frames; the worker survives them and takes the next
//! cell.
//!
//! Binaries opt in by calling [`maybe_worker_entry`] first thing in
//! `main`: it is a no-op in a normal invocation and never returns in a
//! worker one. Activation is by environment variable rather than argv so
//! every harness-owning binary (`fdip`, `exp_all`) becomes worker-capable
//! without touching its argument parsing.

use std::collections::HashMap;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use fdip::CancelToken;
use fdip_trace::Trace;

use crate::exec::{panic_message, simulate_with_fault};
use crate::fault::CellError;
use crate::ipc::{RunRequest, WorkerReply};
use crate::net::{read_frame, write_frame};

/// Environment variable that turns an invocation of a harness binary into
/// a single-purpose cell worker (any non-empty value).
pub const WORKER_ENV: &str = "FDIP_WORKER";

/// Environment variable that turns an invocation of a harness binary into
/// a worker *daemon*: its value is the `host:port` to listen on. This is
/// how in-process harnesses (the chaos soak) spawn disposable workerds
/// without shelling out to the `fdip` CLI.
pub const WORKERD_LISTEN_ENV: &str = "FDIP_WORKERD_LISTEN";

/// Seat count advertised by an env-activated worker daemon (default 2).
pub const WORKERD_SLOTS_ENV: &str = "FDIP_WORKERD_SLOTS";

/// How often a busy worker proves liveness to its supervisor.
pub const HEARTBEAT_PERIOD: Duration = Duration::from_millis(100);

/// Becomes the worker process and never returns if [`WORKER_ENV`] is set,
/// or the workerd daemon if [`WORKERD_LISTEN_ENV`] is set; otherwise does
/// nothing. Call first thing in `main`, before argument parsing, in every
/// binary the supervisor may self-exec. [`WORKER_ENV`] is checked first:
/// a daemon's own children must become plain workers (the daemon clears
/// the listen variable for them, but first wins regardless).
pub fn maybe_worker_entry() {
    if std::env::var_os(WORKER_ENV).is_some() {
        std::process::exit(worker_main());
    }
    if let Some(listen) = std::env::var_os(WORKERD_LISTEN_ENV) {
        let listen = listen.to_string_lossy().into_owned();
        std::process::exit(workerd_main(&listen));
    }
}

/// The env-activated daemon entry: bind, announce (the spawner parses the
/// banner for the bound address), serve until killed.
fn workerd_main(listen: &str) -> i32 {
    let slots = std::env::var(WORKERD_SLOTS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(2);
    let listener = match std::net::TcpListener::bind(listen) {
        Ok(listener) => listener,
        Err(err) => {
            eprintln!("fdip-workerd: cannot listen on {listen}: {err}");
            return 1;
        }
    };
    let addr = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| listen.to_string());
    // Same banner as `fdip workerd` so one parser serves both paths.
    println!("fdip-workerd listening on {addr} ({slots} seat(s))");
    match crate::fleet::serve_workerd(listener, slots, &|| false) {
        Ok(()) => 0,
        Err(err) => {
            eprintln!("fdip-workerd: serve loop failed: {err}");
            1
        }
    }
}

/// The worker protocol loop. Exit code 0 is an orderly shutdown (EOF on
/// stdin, or the supervisor went away mid-write); 2 is a protocol error —
/// the supervisor treats any unexpected exit as a crash, so precision
/// beyond that is not load-bearing.
pub fn worker_main() -> i32 {
    // Failures travel up the pipe as typed `err` frames; the default
    // hook's per-panic backtrace on stderr would only interleave garbage
    // into the supervisor's own output.
    panic::set_hook(Box::new(|_| {}));

    let stdout = Arc::new(Mutex::new(io::stdout()));
    let busy = Arc::new(AtomicBool::new(false));
    {
        // Heartbeats only while a cell is in flight: an idle worker is
        // silent, so frames never pile up while it sits in the pool.
        let stdout = Arc::clone(&stdout);
        let busy = Arc::clone(&busy);
        std::thread::spawn(move || loop {
            std::thread::sleep(HEARTBEAT_PERIOD);
            if busy.load(Ordering::Relaxed) {
                let mut out = stdout.lock().unwrap_or_else(PoisonError::into_inner);
                if write_frame(&mut *out, &WorkerReply::Heartbeat.to_json()).is_err() {
                    // The pool is gone; nothing left to work for.
                    std::process::exit(0);
                }
            }
        });
    }

    // Workers outlive many cells (the supervisor recycles after K), so
    // cache generated traces like the in-process trace store would.
    let mut traces: HashMap<(String, usize), Trace> = HashMap::new();
    let mut stdin = io::stdin().lock();
    loop {
        let frame = match read_frame(&mut stdin) {
            Ok(Some(frame)) => frame,
            Ok(None) => return 0,
            Err(_) => return 2,
        };
        let Some(request) = RunRequest::from_json(&frame) else {
            return 2;
        };
        busy.store(true, Ordering::Relaxed);
        let reply = run_one(&request, &mut traces);
        busy.store(false, Ordering::Relaxed);
        let mut out = stdout.lock().unwrap_or_else(PoisonError::into_inner);
        if write_frame(&mut *out, &reply.to_json()).is_err() {
            return 0;
        }
    }
}

/// Simulates one requested cell, realizing any injected fault on the way
/// (the crash kinds exist to prove isolation contains exactly them).
fn run_one(request: &RunRequest, traces: &mut HashMap<(String, usize), Trace>) -> WorkerReply {
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        // The budget is enforced by the pool's SIGKILL, not
        // cooperatively: a fresh token keeps the simulation path identical
        // to the in-process one without ever cancelling.
        simulate_with_fault(
            request.fault.as_ref(),
            format_args!("{}", request.workload.name),
            &CancelToken::new(),
            &request.config,
            move || {
                traces
                    .entry((request.workload.name.clone(), request.trace_len))
                    .or_insert_with(|| request.workload.generate(request.trace_len))
            },
        )
    }));
    let outcome = match outcome {
        Ok(Ok(stats)) => Ok(stats),
        Ok(Err(fdip::Cancelled)) => Err(CellError::Transient {
            message: "worker cancel token fired unexpectedly".to_string(),
            attempts: 1,
        }),
        Err(payload) => Err(CellError::Panic {
            message: panic_message(payload.as_ref()),
            attempts: 1,
        }),
    };
    WorkerReply::from_outcome(request.id, outcome)
}
