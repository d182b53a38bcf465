//! The supervisor side of process-isolated cell execution: a pool of
//! worker *processes*, hard preemption, and typed crash classification.
//!
//! PR 3's in-process fault tolerance has a hard floor: `catch_unwind`
//! cannot contain `std::process::abort`, a stack overflow, or an OOM
//! kill, and the cooperative [`CancelToken`](fdip::CancelToken) cannot
//! preempt a cell that never polls it. The supervisor buys true
//! containment the way every production training/inference stack does —
//! by putting each cell in a disposable child process:
//!
//! * **pool** — N slots, each holding at most one live worker (the
//!   current binary self-exec'd with [`crate::worker::WORKER_ENV`] set),
//!   spawned lazily and recycled after `recycle_after` cells;
//! * **heartbeats** — a busy worker proves liveness every ~100 ms; going
//!   silent for `heartbeat_timeout` means *wedged, not slow* → SIGKILL;
//! * **hard budgets** — a cell's wall-clock budget is enforced with
//!   SIGKILL, so `hang`/runaway cells die at the deadline even though
//!   they never poll anything;
//! * **classification** — every way a worker can die maps onto a typed
//!   [`CellError`]: the exit status's signal/code becomes
//!   [`CellError::Crashed`], a budget kill becomes
//!   [`CellError::Timeout`], an in-worker panic comes back as
//!   [`CellError::Panic`] (the worker survives those);
//! * **crash-loop detection** — consecutive crashes on a slot past
//!   `crash_loop_threshold` insert a deterministic, exponentially growing
//!   pause before the next respawn, so a poisoned machine degrades into
//!   slow retries instead of a fork bomb.
//!
//! The harness routes cell attempts here when isolation is enabled
//! ([`crate::harness::Harness::enable_isolation`]); scheduling, caching,
//! retry policy, journaling, and result ordering all stay in the
//! harness, so isolated runs keep the deterministic, thread-count-
//! invariant output the seed tests pin.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use fdip::SimStats;

use crate::child::{self, Child, ChildEvent};
use crate::exec::{CellRun, Executor, Injected, Reach};
use crate::fault::CellError;
use crate::harness::{lock, HarnessStats};
use crate::ipc::{RunRequest, WorkerFault, WorkerReply};

/// Pool sizing and liveness policy for a [`Supervisor`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Worker processes in the pool.
    pub workers: usize,
    /// Cells a worker runs before it is retired and respawned fresh
    /// (bounds the blast radius of slow leaks in long sweeps).
    pub recycle_after: u64,
    /// Silence longer than this from a busy worker means it is wedged,
    /// not slow, and gets SIGKILLed.
    pub heartbeat_timeout: Duration,
    /// Consecutive crashes on one slot before respawns start backing off.
    pub crash_loop_threshold: u32,
    /// Base pause once a slot is crash-looping; doubles per further crash
    /// (capped), deterministically — no randomness, so drills reproduce.
    pub crash_backoff: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            workers: default_worker_count(),
            recycle_after: 64,
            heartbeat_timeout: Duration::from_secs(5),
            crash_loop_threshold: 3,
            crash_backoff: Duration::from_millis(200),
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

/// One pool slot's bookkeeping; the mutex serializes the slot, not the
/// pool — N cells run in N slots concurrently.
#[derive(Default)]
struct SlotState {
    worker: Option<Child>,
    cells_done: u64,
    consecutive_crashes: u32,
    ever_spawned: bool,
}

/// A pool of supervised worker processes executing cells one at a time
/// each. See the module docs for the state machine.
pub struct Supervisor {
    config: SupervisorConfig,
    slots: Vec<Mutex<SlotState>>,
    free: Mutex<Vec<usize>>,
    available: Condvar,
    next_id: AtomicU64,
    worker_restarts: AtomicU64,
    worker_kills: AtomicU64,
    worker_crash_loops: AtomicU64,
}

impl Supervisor {
    /// A pool per `config`; workers spawn lazily on first dispatch.
    pub fn new(config: SupervisorConfig) -> Supervisor {
        let workers = config.workers.max(1);
        Supervisor {
            config: SupervisorConfig { workers, ..config },
            slots: (0..workers).map(|_| Mutex::default()).collect(),
            free: Mutex::new((0..workers).rev().collect()),
            available: Condvar::new(),
            next_id: AtomicU64::new(1),
            worker_restarts: AtomicU64::new(0),
            worker_kills: AtomicU64::new(0),
            worker_crash_loops: AtomicU64::new(0),
        }
    }

    /// The pool size.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    fn acquire_slot(&self) -> usize {
        let mut free = lock(&self.free);
        loop {
            if let Some(index) = free.pop() {
                return index;
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

    /// Runs one cell attempt on the worker in slot `index`. Every worker
    /// death comes back typed: [`CellError::Timeout`] for a budget kill,
    /// [`CellError::Crashed`] for signals/aborts/lost heartbeats,
    /// [`CellError::Panic`] / [`CellError::Transient`] when the worker
    /// survived and reported the failure itself.
    fn run_on_slot(
        &self,
        index: usize,
        cell: &CellRun<'_>,
        fault: Option<WorkerFault>,
    ) -> Result<SimStats, CellError> {
        let (attempt, budget_ms) = (cell.attempt, cell.budget_ms());
        let mut slot = lock(&self.slots[index]);
        if slot.worker.as_ref().is_some_and(Child::drain_idle) {
            // Died between cells: respawn instead of writing into a broken
            // pipe. Dying idle still counts toward the crash loop.
            let _ = slot.worker.take().expect("worker present").reap();
            slot.consecutive_crashes += 1;
        }
        if slot.worker.is_none() {
            if slot.consecutive_crashes >= self.config.crash_loop_threshold {
                // Deterministic exponential pause: crash-looping degrades
                // into slow retries, never a fork bomb.
                self.worker_crash_loops.fetch_add(1, Ordering::Relaxed);
                let excess = slot.consecutive_crashes - self.config.crash_loop_threshold;
                std::thread::sleep(self.config.crash_backoff * 2u32.pow(excess.min(4)));
            }
            let replacing = slot.ever_spawned;
            match Child::spawn() {
                Ok(worker) => {
                    slot.worker = Some(worker);
                    slot.ever_spawned = true;
                    if replacing {
                        self.worker_restarts.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(err) => {
                    slot.consecutive_crashes += 1;
                    return Err(CellError::Transient {
                        message: format!("spawning a worker process failed: {err}"),
                        attempts: attempt,
                    });
                }
            }
        }

        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let request = RunRequest {
            id,
            workload: cell.spec.clone(),
            trace_len: cell.trace_len,
            budget_ms,
            fault,
            config: cell.config.clone(),
        };
        let worker = slot.worker.as_mut().expect("worker just ensured");
        if worker.send(&request.to_json()).is_err() {
            // Died between cells; classify from the exit status.
            return Err(self.crashed(&mut slot, attempt));
        }

        let budget_deadline =
            (budget_ms > 0).then(|| Instant::now() + Duration::from_millis(budget_ms));
        let mut heartbeat_deadline = Instant::now() + self.config.heartbeat_timeout;
        loop {
            let mut wake = heartbeat_deadline;
            if let Some(deadline) = budget_deadline {
                wake = wake.min(deadline);
            }
            let timeout = wake.saturating_duration_since(Instant::now());
            let event = slot
                .worker
                .as_ref()
                .expect("worker live while waiting")
                .recv_timeout(timeout);
            match event {
                Ok(ChildEvent::Frame(frame)) => match WorkerReply::from_json(&frame) {
                    Some(WorkerReply::Heartbeat) => {
                        heartbeat_deadline = Instant::now() + self.config.heartbeat_timeout;
                    }
                    // A reply for a superseded id — possible only after a
                    // kill raced a completion — decodes to `None`.
                    Some(reply) => {
                        if let Some(outcome) = reply.outcome(id, attempt) {
                            // The worker *survived* this cell, whatever its
                            // outcome; the process is reusable.
                            self.finish_cell(&mut slot);
                            return outcome;
                        }
                    }
                    // Unintelligible frame: treated like a crash.
                    None => return Err(self.crashed(&mut slot, attempt)),
                },
                Ok(ChildEvent::Eof | ChildEvent::Failed) | Err(RecvTimeoutError::Disconnected) => {
                    return Err(self.crashed(&mut slot, attempt));
                }
                Err(RecvTimeoutError::Timeout) => {
                    let now = Instant::now();
                    if budget_deadline.is_some_and(|deadline| now >= deadline) {
                        // Intentional preemption: the worker was healthy,
                        // the cell overran. Not a crash-loop signal.
                        self.kill_worker(slot.worker.take().expect("worker present"));
                        return Err(CellError::Timeout { budget_ms });
                    }
                    if now >= heartbeat_deadline {
                        self.kill_worker(slot.worker.take().expect("worker present"));
                        slot.consecutive_crashes += 1;
                        return Err(CellError::Crashed {
                            signal: None,
                            code: None,
                            attempts: attempt,
                        });
                    }
                }
            }
        }
    }

    /// Reaps the slot's dead worker and classifies its exit status.
    fn crashed(&self, slot: &mut SlotState, attempt: u32) -> CellError {
        let status = slot.worker.take().expect("worker present").reap();
        slot.consecutive_crashes += 1;
        child::crashed(&status, attempt)
    }

    /// Books a completed cell on the slot and retires the worker if it
    /// has served its quota.
    fn finish_cell(&self, slot: &mut SlotState) {
        slot.consecutive_crashes = 0;
        slot.cells_done += 1;
        if slot.cells_done >= self.config.recycle_after {
            slot.cells_done = 0;
            if let Some(worker) = slot.worker.take() {
                if worker.retire() {
                    self.worker_kills.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// SIGKILL and reap, counting the kill.
    fn kill_worker(&self, worker: Child) {
        self.worker_kills.fetch_add(1, Ordering::Relaxed);
        worker.kill();
    }
}

impl Executor for Supervisor {
    fn reach(&self) -> Reach {
        Reach::Process
    }

    fn run(&self, cell: &CellRun<'_>, fault: Option<Injected>) -> Result<SimStats, CellError> {
        let fault = match fault {
            Some(Injected::Worker(fault)) => Some(fault),
            _ => None,
        };
        let slot = self.acquire_slot();
        let result = self.run_on_slot(slot, cell, fault);
        self.release_slot(slot);
        result
    }

    fn workers(&self) -> usize {
        self.config.workers
    }

    fn fold_stats(&self, stats: &mut HarnessStats) {
        stats.worker_restarts = self.worker_restarts.load(Ordering::Relaxed);
        stats.worker_kills = self.worker_kills.load(Ordering::Relaxed);
        stats.worker_crash_loops = self.worker_crash_loops.load(Ordering::Relaxed);
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        for slot in &self.slots {
            if let Some(worker) = lock(slot).worker.take() {
                // Shutdown is not a drill: kill without ceremony or stats.
                worker.kill();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Spawning real workers needs a worker-capable executable;
    // `current_exe()` inside `cargo test` is the libtest runner, which
    // must never be self-exec'd. End-to-end supervision is covered by the
    // `tests/isolation.rs` integration test against the real `fdip`
    // binary; these tests pin the pure logic.

    #[test]
    fn config_defaults_are_sane() {
        let config = SupervisorConfig::default();
        assert!(config.workers >= 1 && config.workers <= 4);
        assert!(config.recycle_after > 0);
        assert!(config.heartbeat_timeout >= Duration::from_secs(1));
        assert!(config.crash_loop_threshold >= 1);
        let sup = Supervisor::new(SupervisorConfig {
            workers: 0,
            ..config
        });
        assert_eq!(sup.workers(), 1, "zero workers clamps to one");
        let mut stats = HarnessStats::default();
        sup.fold_stats(&mut stats);
        assert_eq!(stats, HarnessStats::default());
    }

    #[test]
    fn slot_acquisition_hands_out_every_slot() {
        let sup = Supervisor::new(SupervisorConfig {
            workers: 3,
            ..SupervisorConfig::default()
        });
        let a = sup.acquire_slot();
        let b = sup.acquire_slot();
        let c = sup.acquire_slot();
        let mut handed = [a, b, c];
        handed.sort_unstable();
        assert_eq!(handed, [0, 1, 2]);
        sup.release_slot(b);
        assert_eq!(sup.acquire_slot(), b);
    }
}
