//! The one seam between the harness and whatever runs a cell.
//!
//! Every cell attempt — in this process, in a supervised worker process,
//! or on a remote worker daemon — goes through [`attempt`] and one
//! [`Executor::run`]. The harness keeps scheduling, caching, retries,
//! journaling, and result ordering; an executor only turns one
//! [`CellRun`] into statistics or a typed [`CellError`]. Two
//! implementations exist:
//!
//! * [`InProcess`] — `catch_unwind` plus a cooperative [`CancelToken`]
//!   budget, on the calling thread;
//! * [`Pool`](crate::pool::Pool) — seats holding links to worker
//!   processes: local children over stdin/stdout pipes (`--isolate`), or
//!   worker daemons over TCP (`--fleet`).
//!
//! Injected faults are classified once ([`crate::fault::classify`]):
//! logical faults fail the attempt before dispatch, and the rest reach the
//! executor as an [`Injected`] fault. An executor's [`Reach`] says which
//! of those it can realise; [`attempt`] refuses the others by naming the
//! flag that would (`--isolate` or `--fleet`).

use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use fdip::{CancelToken, Cancelled, FrontendConfig, SimStats, Simulator};
use fdip_trace::Trace;

use crate::fault::{classify, CellError, FaultPlan};
use crate::harness::{Harness, HarnessStats, TraceEntry};
use crate::ipc::WorkerFault;
use crate::net::NetFault;
use crate::workload::WorkloadSpec;

/// One attempt's worth of cell: everything an executor needs, borrowed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CellRun<'a> {
    /// The workload whose trace the cell simulates.
    pub(crate) spec: &'a WorkloadSpec,
    /// Trace length in instructions.
    pub(crate) trace_len: usize,
    /// The config's label in its matrix (fault sites match on it).
    pub(crate) label: &'a str,
    /// The machine configuration to simulate.
    pub(crate) config: &'a FrontendConfig,
    /// Wall-clock budget for this attempt, if any.
    pub(crate) budget: Option<Duration>,
    /// 1-based attempt number, stamped into any resulting error.
    pub(crate) attempt: u32,
}

impl CellRun<'_> {
    /// The budget in whole milliseconds, 0 meaning unbounded (the wire
    /// encoding the pipe and TCP transports carry).
    pub(crate) fn budget_ms(&self) -> u64 {
        self.budget
            .map_or(0, |b| u64::try_from(b.as_millis()).unwrap_or(u64::MAX))
    }
}

/// A fault that survives classification and must be realised by the
/// executor itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Injected {
    /// Realised inside whatever process simulates the cell.
    Worker(WorkerFault),
    /// Realised at the fleet transport.
    Net(NetFault),
}

/// How far from the harness an executor runs cells, which bounds the
/// faults it can realise: each reach realises everything the nearer ones
/// can, plus its own kinds.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Reach {
    /// On the harness's own thread: `panic` and `slow` only.
    InProcess,
    /// In a disposable child process: also `abort`, `hang`, `bigalloc`.
    Process,
    /// On a remote daemon: also the network kinds.
    Fleet,
}

impl Injected {
    /// The nearest reach that can realise this fault.
    pub(crate) fn needs(&self) -> Reach {
        match self {
            Injected::Worker(WorkerFault::Panic | WorkerFault::Slow(_)) => Reach::InProcess,
            Injected::Worker(_) => Reach::Process,
            Injected::Net(_) => Reach::Fleet,
        }
    }

    /// `None` when an executor of `reach` can realise this fault, else
    /// the execution mode (and its flag) that could.
    pub(crate) fn refused_by(&self, reach: Reach) -> Option<&'static str> {
        match self.needs() {
            needs if needs <= reach => None,
            Reach::Fleet => Some("fleet dispatch (--fleet)"),
            _ => Some("process isolation (--isolate)"),
        }
    }
}

/// Something that runs one cell attempt.
pub(crate) trait Executor {
    /// Which injected faults this executor can realise.
    fn reach(&self) -> Reach;

    /// Runs one attempt. `fault` is already classified and within
    /// [`reach`](Self::reach). Every failure — a panic, a dead worker, a
    /// lost node, a blown budget — comes back as a typed [`CellError`].
    fn run(&self, cell: &CellRun<'_>, fault: Option<Injected>) -> Result<SimStats, CellError>;

    /// Cells this executor can run at once; the harness sizes its
    /// dispatching threads to it.
    fn workers(&self) -> usize;

    /// Folds this executor's own counters into a harness snapshot.
    fn fold_stats(&self, _stats: &mut HarnessStats) {}

    /// Per-node health `(addr, state)` for executors that have nodes.
    fn node_health(&self) -> Vec<(String, &'static str)> {
        Vec::new()
    }
}

/// One attempt at a cell on `executor`: fire the fault plan, fail a
/// logical fault on the spot, refuse a fault the executor cannot realise
/// (the backstop behind [`Harness::open`]'s up-front reach check: such a
/// fault stays visible instead of silent), and dispatch the rest.
pub(crate) fn attempt(
    executor: &dyn Executor,
    cell: &CellRun<'_>,
    plan: Option<&FaultPlan>,
) -> Result<SimStats, CellError> {
    let fault = match plan.and_then(|p| p.fire(&cell.spec.name, cell.label)) {
        Some(action) => Some(classify(action, &cell.spec.name, cell.label, cell.attempt)?),
        None => None,
    };
    if let Some(mode) = fault.as_ref().and_then(|f| f.refused_by(executor.reach())) {
        return Err(CellError::Transient {
            message: format!(
                "injected fault at ({}, {}) requires {mode}",
                cell.spec.name, cell.label
            ),
            attempts: cell.attempt,
        });
    }
    executor.run(cell, fault)
}

/// The in-process executor: simulates on the calling thread under
/// `catch_unwind`, with the budget enforced cooperatively through a
/// [`CancelToken`]. It reads traces from the harness's store and keeps
/// the entry it used, so the harness needs no second store request for
/// the result's trace characterization.
pub(crate) struct InProcess<'h> {
    harness: &'h Harness,
    entry: Cell<Option<Arc<TraceEntry>>>,
}

impl<'h> InProcess<'h> {
    pub(crate) fn new(harness: &'h Harness) -> InProcess<'h> {
        InProcess {
            harness,
            entry: Cell::new(None),
        }
    }

    /// The trace entry the last attempt simulated over, if it got that far.
    pub(crate) fn take_entry(&self) -> Option<Arc<TraceEntry>> {
        self.entry.take()
    }
}

impl Executor for InProcess<'_> {
    fn reach(&self) -> Reach {
        Reach::InProcess
    }

    fn run(&self, cell: &CellRun<'_>, fault: Option<Injected>) -> Result<SimStats, CellError> {
        let token = match cell.budget {
            Some(budget) => CancelToken::with_deadline(budget),
            None => CancelToken::new(),
        };
        let fault = match fault {
            Some(Injected::Worker(fault)) => Some(fault),
            _ => None,
        };
        let mut fetched = None;
        let slot = &mut fetched;
        let outcome = quiet_catch_unwind(AssertUnwindSafe(|| {
            simulate_with_fault(
                fault.as_ref(),
                format_args!("{}, {}", cell.spec.name, cell.label),
                &token,
                cell.config,
                move || {
                    &slot
                        .insert(self.harness.trace(cell.spec, cell.trace_len))
                        .trace
                },
            )
        }));
        self.entry.set(fetched);
        match outcome {
            Ok(Ok(stats)) => Ok(stats),
            Ok(Err(Cancelled)) => Err(CellError::Timeout {
                budget_ms: cell.budget_ms(),
            }),
            Err(payload) => Err(CellError::Panic {
                message: panic_message(payload.as_ref()),
                attempts: cell.attempt,
            }),
        }
    }

    fn workers(&self) -> usize {
        local_parallelism()
    }
}

/// Worker threads for in-process execution: the machine's parallelism.
pub(crate) fn local_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Realises `fault` in the calling process, then simulates `config` over
/// the trace `trace` yields. Shared by the in-process executor and the
/// worker process, so a drill behaves the same on either side of a pipe.
///
/// The crash kinds never return — they exist to prove containment: an
/// abort, a busy loop that never polls `token`, and an impossible
/// allocation (the non-unwinding OOM shape). `panic` panics (the caller's
/// `catch_unwind` types it), naming `site`; `slow` sleeps, cut short when
/// `token` expires. The trace is fetched after the fault and before the
/// cancellation check.
///
/// # Errors
///
/// [`Cancelled`] when `token` expired before or during the simulation.
pub(crate) fn simulate_with_fault<'t>(
    fault: Option<&WorkerFault>,
    site: fmt::Arguments<'_>,
    token: &CancelToken,
    config: &FrontendConfig,
    trace: impl FnOnce() -> &'t Trace,
) -> Result<SimStats, Cancelled> {
    match fault {
        Some(WorkerFault::Abort) => std::process::abort(),
        Some(WorkerFault::Hang) => loop {
            std::hint::spin_loop();
        },
        Some(WorkerFault::BigAlloc) => {
            // The layout is valid (under isize::MAX) but no address space
            // backs it, so the allocator fails and `handle_alloc_error`
            // aborts.
            let doomed: Vec<u8> = Vec::with_capacity(isize::MAX as usize / 2);
            std::hint::black_box(doomed.capacity());
            unreachable!("allocation of half the address space succeeded");
        }
        Some(WorkerFault::Panic) => panic!("injected fault: panic at ({site})"),
        Some(WorkerFault::Slow(ms)) => sleep_cancellable(Duration::from_millis(*ms), token),
        None => {}
    }
    let trace = trace();
    if token.is_cancelled() {
        return Err(Cancelled);
    }
    Simulator::new(config, trace).run_cancellable(token)
}

/// Sleeps up to `total`, in small slices so an expiring [`CancelToken`]
/// cuts the wait short.
fn sleep_cancellable(total: Duration, token: &CancelToken) {
    const STEP: Duration = Duration::from_millis(5);
    let mut remaining = total;
    while !remaining.is_zero() {
        if token.is_cancelled() {
            return;
        }
        let chunk = remaining.min(STEP);
        std::thread::sleep(chunk);
        remaining -= chunk;
    }
}

thread_local! {
    /// True while this thread is inside an in-process cell attempt, where
    /// any panic is caught and converted to a [`CellError`].
    static IN_CELL_ATTEMPT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// `catch_unwind` without the default hook's backtrace spew: a panic that
/// is about to become a typed [`CellError`] is an *expected* outcome, so
/// printing a full backtrace per attempt (retries included) only buries
/// real diagnostics. The process-wide hook is replaced once with a
/// delegating wrapper; panics outside cell attempts still report exactly
/// as before.
pub(crate) fn quiet_catch_unwind<R>(
    body: AssertUnwindSafe<impl FnOnce() -> R>,
) -> std::thread::Result<R> {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !IN_CELL_ATTEMPT.with(std::cell::Cell::get) {
                previous(info);
            }
        }));
    });
    IN_CELL_ATTEMPT.with(|flag| flag.set(true));
    let outcome = panic::catch_unwind(body);
    IN_CELL_ATTEMPT.with(|flag| flag.set(false));
    outcome
}

/// Extracts a human-readable message from a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdip_trace::gen::Profile;

    /// Records the fault it was handed; never simulates.
    struct Stub {
        reach: Reach,
        got: Cell<Option<Option<Injected>>>,
    }

    impl Executor for Stub {
        fn reach(&self) -> Reach {
            self.reach
        }

        fn run(&self, _cell: &CellRun<'_>, fault: Option<Injected>) -> Result<SimStats, CellError> {
            self.got.set(Some(fault));
            Ok(SimStats::default())
        }

        fn workers(&self) -> usize {
            1
        }
    }

    #[derive(Copy, Clone, Debug, PartialEq)]
    enum Class {
        Logical,
        Worker,
        Net,
    }

    #[derive(Copy, Clone, Debug, PartialEq)]
    enum Verdict {
        /// The attempt failed before dispatch.
        Failed,
        /// The executor was handed the fault.
        Realised,
        /// Refused, naming the flag that would realise it.
        Refused(&'static str),
    }

    #[test]
    fn every_fault_kind_has_one_class_and_each_executor_realises_or_refuses_it() {
        use Verdict::{Failed, Realised, Refused};
        const ISOLATE: Verdict = Refused("--isolate");
        const FLEET: Verdict = Refused("--fleet");
        // (kind, class, verdict in-process / worker pipe / fleet)
        let table = [
            ("transient", Class::Logical, [Failed, Failed, Failed]),
            ("trace", Class::Logical, [Failed, Failed, Failed]),
            ("panic", Class::Worker, [Realised, Realised, Realised]),
            ("slow:5", Class::Worker, [Realised, Realised, Realised]),
            ("abort", Class::Worker, [ISOLATE, Realised, Realised]),
            ("hang", Class::Worker, [ISOLATE, Realised, Realised]),
            ("bigalloc", Class::Worker, [ISOLATE, Realised, Realised]),
            ("drop", Class::Net, [FLEET, FLEET, Realised]),
            ("partition", Class::Net, [FLEET, FLEET, Realised]),
            ("slowlink:5", Class::Net, [FLEET, FLEET, Realised]),
            ("truncframe", Class::Net, [FLEET, FLEET, Realised]),
        ];
        let spec = WorkloadSpec::new(Profile::Server, 0);
        let config = FrontendConfig::default();
        let cell = CellRun {
            spec: &spec,
            trace_len: 1000,
            label: "c",
            config: &config,
            budget: None,
            attempt: 1,
        };
        for (kind, class, verdicts) in table {
            // `kind` may carry an argument (`slow:5`), which goes last.
            let (name, arg) = kind.split_once(':').unwrap_or((kind, ""));
            let site = format!("{name}@{}/c:{arg}", spec.name);
            let site = site.trim_end_matches(':');
            for (reach, expected) in [Reach::InProcess, Reach::Process, Reach::Fleet]
                .into_iter()
                .zip(verdicts)
            {
                let plan = FaultPlan::parse(site).unwrap();
                let stub = Stub {
                    reach,
                    got: Cell::new(None),
                };
                let outcome = attempt(&stub, &cell, Some(&plan));
                let verdict = match (stub.got.take(), &outcome) {
                    (Some(fault), Ok(_)) => {
                        let got = match fault {
                            Some(Injected::Worker(_)) => Class::Worker,
                            Some(Injected::Net(_)) => Class::Net,
                            None => panic!("{kind}: dispatched without its fault"),
                        };
                        assert_eq!(got, class, "{kind}");
                        Realised
                    }
                    (None, Err(CellError::Transient { message, .. }))
                        if message.contains("requires") =>
                    {
                        if message.contains("(--isolate)") {
                            ISOLATE
                        } else {
                            assert!(message.contains("(--fleet)"), "{message}");
                            FLEET
                        }
                    }
                    (None, Err(_)) => {
                        assert_eq!(class, Class::Logical, "{kind}");
                        Failed
                    }
                    other => panic!("{kind} on {reach:?}: {other:?}"),
                };
                assert_eq!(verdict, expected, "{kind} on {reach:?}");
            }
        }
    }
}
