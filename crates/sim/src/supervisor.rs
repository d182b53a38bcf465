//! Sizing for process-isolated cell execution (`--isolate`).
//!
//! PR 3's in-process fault tolerance has a hard floor: `catch_unwind`
//! cannot contain `std::process::abort`, a stack overflow, or an OOM
//! kill, and the cooperative [`CancelToken`](fdip::CancelToken) cannot
//! preempt a cell that never polls it. Isolation buys true containment
//! by putting each cell in a disposable child process: a
//! [`SupervisorConfig`] sizes the local [`Pool`](crate::pool::Pool) that
//! spawns, heartbeats, preempts and classifies those children.

use std::time::Duration;

/// Pool size and liveness policy for a local
/// [`Pool`](crate::pool::Pool).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Worker processes in the pool.
    pub workers: usize,
    /// Silence longer than this from a busy worker means it is wedged,
    /// not slow, and gets SIGKILLed.
    pub heartbeat_timeout: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            workers: default_worker_count(),
            heartbeat_timeout: Duration::from_secs(5),
        }
    }
}

/// Default pool size for `--isolate` with no explicit count: the
/// machine's parallelism, capped at 4 — workers duplicate trace storage,
/// so the cap keeps memory bounded on wide machines.
pub fn default_worker_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .clamp(1, 4)
}
