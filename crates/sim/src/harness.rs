//! The shared experiment harness: trace store, content-keyed cell cache,
//! and a fault-tolerant cell-granular deterministic scheduler.
//!
//! Every experiment in the catalogue ultimately evaluates *cells* — one
//! `(workload, config)` simulation over a generated trace. Before this
//! harness existed each experiment regenerated its suite traces and
//! re-simulated overlapping cells from scratch; `exp_all` generated the
//! full-suite traces ~25 times over and ran the no-prefetch baseline a
//! dozen times per workload. The harness makes both kinds of redundant
//! work structurally impossible within a process:
//!
//! * the **trace store** generates each `(workload, trace_len)` trace at
//!   most once and shares it as an [`Arc<TraceEntry>`];
//! * the **cell cache** keys finished simulations by *content* — workload
//!   name, trace length, and the config's full debug rendering — so a
//!   config reused under a different label (every experiment names the
//!   baseline differently) still hits;
//! * the **scheduler** hands out individual cells to worker threads
//!   work-stealing style, then assembles results in workload-major input
//!   order, so output is byte-identical regardless of thread count
//!   (covered by `determinism.rs`);
//! * the **lockstep batch pass** runs a matrix's not-yet-cached configs
//!   for each workload through [`fdip::run_batch`] — one shared BPU walk
//!   per walk key instead of one per config — before the per-cell
//!   scheduler mops up whatever the pass could not claim. Batched cells
//!   produce byte-identical statistics to solo runs (enforced by
//!   `fdip`'s differential proptests and the tests here), share the same
//!   cache slots and fingerprints, and journal identically; the pass
//!   stands down entirely when a fault plan, an out-of-process executor,
//!   or a cell budget is active, or when [`RunOptions::batching`] turned
//!   it off (`--batch=off` on the CLIs).
//!
//! On top of the caching sits the fault model (see [`crate::fault`]):
//!
//! * every cell computes under `catch_unwind`, so a panicking cell
//!   becomes a typed [`CellError`] in its [`RunResult`] instead of
//!   tearing down the whole matrix;
//! * retryable failures are re-attempted under the harness's
//!   [`RetryPolicy`] with deterministic jittered backoff; a per-cell
//!   wall-clock budget cancels runaway simulations cooperatively
//!   ([`CellError::Timeout`]);
//! * failures are **never cached** — the failed slot resets to idle so a
//!   later request (or a resumed run) can try again;
//! * with a journal ([`RunOptions::journal`]), every completed cell is
//!   appended to a crash-tolerant JSONL file and a restart preloads it,
//!   re-simulating only what never finished;
//! * every lock acquisition recovers from poisoning
//!   (`PoisonError::into_inner`): the caches hold plain finished data, so
//!   a panic while holding a guard cannot leave them logically torn.
//!
//! A harness's configuration is one [`RunOptions`] value, fixed when
//! [`Harness::open`] builds it: plain fields that no method changes
//! afterwards, so the per-cell path reads them without locking and two
//! harnesses in one process never share a knob.
//!
//! [`Harness::stats`] exposes hit/miss plus failure/retry/journal
//! counters; the acceptance tests in `tests/experiment_smoke.rs` and
//! `tests/fault_tolerance.rs` use them to prove `exp_all` simulates no
//! duplicate cell and resumes without re-simulating journaled ones.
//!
//! # Examples
//!
//! ```
//! use fdip::FrontendConfig;
//! use fdip_sim::harness::Harness;
//! use fdip_sim::workload::{suite, SuiteKind};
//! use fdip_sim::Scale;
//!
//! let harness = Harness::new();
//! let workloads = suite(SuiteKind::Client, Scale::quick());
//! let configs = vec![("base".to_string(), FrontendConfig::default())];
//! let first = harness.run_matrix(&workloads, 10_000, &configs);
//! let again = harness.run_matrix(&workloads, 10_000, &configs);
//! let cell = first.try_cell("client-1", "base").unwrap();
//! assert_eq!(cell.stats, again.try_cell("client-1", "base").unwrap().stats);
//! assert_eq!(harness.stats().cells_simulated, 1);
//! assert_eq!(harness.stats().cell_hits, 1);
//! ```

use std::collections::HashMap;
use std::io;
use std::ops::Deref;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use fdip::{run_batch, FrontendConfig, SimStats};
use fdip_trace::{Trace, TraceStats};

use crate::cache::{CacheLookup, CacheSummary, ResultCache};
use crate::exec::{self, quiet_catch_unwind, CellRun, Executor, InProcess, Reach};
use crate::fault::{fnv1a, splitmix64, CellError, FaultPlan, RetryPolicy};
use crate::journal::{self, Journal, JournalEntry, JournalSummary};
use crate::options::{Dispatch, RunOptions};
use crate::pool::Pool;
use crate::runner::RunResult;
use crate::supervisor::SupervisorConfig;
use crate::workload::WorkloadSpec;

/// Locks a mutex, recovering from poisoning. Every shared structure in
/// the harness holds plain finished values (or a state flag that the
/// owner restores outside the panicking region), so a guard abandoned by
/// a panic cannot leave torn data behind — recovery is always sound here.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A generated trace plus its one-pass characterization, shared read-only
/// across every experiment in the process.
#[derive(Debug)]
pub struct TraceEntry {
    /// The workload this trace realizes.
    pub spec: WorkloadSpec,
    /// The generated trace.
    pub trace: Trace,
    /// Its measured statistics.
    pub stats: TraceStats,
}

/// Snapshot of the harness's cache and fault counters.
///
/// Each counter is an atomic the workers bump as they go, so a snapshot
/// is cheap enough for a `/metrics` scrape on every request. *Hits* are
/// requests served from an already-finished entry; *shared* counts
/// requests that arrived while another thread was still computing the
/// same entry and blocked on its slot instead of duplicating the work
/// (in-flight coalescing).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct HarnessStats {
    /// Traces actually generated (trace-store misses).
    pub traces_generated: u64,
    /// Trace requests served from the store after generation finished.
    pub trace_hits: u64,
    /// Trace requests coalesced onto another thread's in-flight generation.
    pub traces_shared: u64,
    /// Cells actually simulated (cell-cache misses).
    pub cells_simulated: u64,
    /// Cells computed by the lockstep batch pass (a subset of
    /// `cells_simulated`; zero when batching is off or ineligible).
    pub cells_batched: u64,
    /// Cell requests served from the cache after simulation finished.
    pub cell_hits: u64,
    /// Cell requests coalesced onto another thread's in-flight simulation.
    pub cells_shared: u64,
    /// Cell requests that ended in a terminal [`CellError`].
    pub cells_failed: u64,
    /// Retry attempts made after a retryable cell failure.
    pub cell_retries: u64,
    /// Cells cancelled for exceeding their wall-clock budget.
    pub cell_timeouts: u64,
    /// Cells preloaded from an attached journal instead of simulated.
    pub journal_restored: u64,
    /// Journal lines whose CRC32 frame failed verification (bit rot).
    pub journal_corrupt_lines: u64,
    /// Worker processes respawned into a previously used pool slot
    /// (isolated mode only; see [`crate::pool`]).
    pub worker_restarts: u64,
    /// Worker processes SIGKILLed by a local pool (budget preemption or
    /// lost heartbeat; isolated mode only).
    pub worker_kills: u64,
    /// Crash-loop backoff pauses taken before respawning a worker
    /// (isolated mode only).
    pub worker_crash_loops: u64,
    /// Worker seats registered across the fleet (fleet mode only; see
    /// [`crate::fleet`]).
    pub fleet_workers: u64,
    /// Fleet nodes that went silent mid-run (one per down-transition).
    pub node_losses: u64,
    /// Cell attempts re-dispatched to the fleet after a failed attempt.
    pub cells_redispatched: u64,
    /// Cells served from the shared on-disk result cache instead of
    /// simulated (requires [`RunOptions::cache`]).
    pub remote_cache_hits: u64,
    /// Lost fleet nodes readmitted (on probation) after a reprobe
    /// completed a full re-handshake.
    pub node_readmissions: u64,
}

impl HarnessStats {
    /// Total cell requests, however they were served (or failed).
    pub fn cell_requests(&self) -> u64 {
        self.cells_simulated + self.cell_hits + self.cells_shared + self.cells_failed
    }
}

impl fdip_types::ToJson for HarnessStats {
    fn to_json(&self) -> fdip_types::Json {
        fdip_types::json_fields!(
            self,
            traces_generated,
            trace_hits,
            traces_shared,
            cells_simulated,
            cells_batched,
            cell_hits,
            cells_shared,
            cells_failed,
            cell_retries,
            cell_timeouts,
            journal_restored,
            journal_corrupt_lines,
            worker_restarts,
            worker_kills,
            worker_crash_loops,
            fleet_workers,
            node_losses,
            cells_redispatched,
            remote_cache_hits,
            node_readmissions,
        )
    }
}

/// Identifies a trace by content: workload name (which fixes profile and
/// seed) and target length.
type TraceKey = (String, usize);

/// Identifies a cell by content: workload name, target length, and the
/// configuration's full `Debug` rendering.
///
/// `FrontendConfig` holds `f64` fields, so it cannot derive `Hash`/`Eq`;
/// its derived `Debug` output enumerates every field and Rust's float
/// `Debug` is shortest-round-trip, so the rendering is a faithful
/// fingerprint of the config's content.
type CellKey = (String, usize, String);

type Slot<T> = Arc<OnceLock<T>>;

/// Lifecycle of one cell-cache slot. Unlike the trace store's `OnceLock`,
/// a cell compute can *fail*, so the slot is an explicit state machine: a
/// failed compute resets to `Idle` (failures are never cached) and wakes
/// any waiters, who then claim the compute themselves.
#[derive(Clone, Debug, Default)]
enum CellState {
    /// Nobody has (successfully) computed this cell yet.
    #[default]
    Idle,
    /// A worker claimed the compute; waiters block on the condvar.
    Computing,
    /// Finished statistics, shared by every later request.
    Done(Arc<SimStats>),
}

#[derive(Debug, Default)]
struct CellSlot {
    state: Mutex<CellState>,
    done: Condvar,
}

/// The experiment execution engine. See the module docs.
pub struct Harness {
    traces: Mutex<HashMap<TraceKey, Slot<Arc<TraceEntry>>>>,
    cells: Mutex<HashMap<CellKey, Arc<CellSlot>>>,
    /// Worker-thread override; `None` means one per core, or one per
    /// executor seat.
    threads: Option<usize>,
    retry: RetryPolicy,
    faults: Option<Arc<FaultPlan>>,
    batching: bool,
    journal: Option<Journal>,
    /// When set, finished cells persist to (and are restored from) the
    /// shared on-disk result cache.
    disk_cache: Option<ResultCache>,
    /// When set, cell attempts run on this executor (supervised worker
    /// processes or a fleet of worker daemons) instead of in-process.
    /// Attached at most once, before the first cell runs.
    executor: OnceLock<Arc<dyn Executor + Send + Sync>>,
    counters: Counters,
}

/// A harness built by [`Harness::open`], with what opening it attached.
pub struct Opened {
    /// The harness, configured once and for good.
    pub harness: Harness,
    /// The fleet cells dispatch to, under [`Dispatch::Fleet`].
    pub fleet: Option<Arc<Pool>>,
    /// What a scan of [`RunOptions::cache`] found.
    pub cache: Option<CacheSummary>,
    /// What replaying [`RunOptions::journal`] restored.
    pub journal: Option<JournalSummary>,
}

impl Opened {
    /// The start-up report, one line per thing the run attached: the
    /// fleet or worker pool, the disk cache, the fault plan, the journal.
    /// Empty for a default-options harness.
    pub fn startup_lines(&self) -> String {
        let harness = &self.harness;
        let mut out = String::new();
        if let Some(fleet) = &self.fleet {
            let nodes = fleet.nodes();
            let list: Vec<String> = nodes
                .iter()
                .map(|(addr, seats)| format!("{addr} x{seats}"))
                .collect();
            out += &format!(
                "fleet: {} node(s), {} worker seat(s): {}\n",
                nodes.len(),
                fleet.workers(),
                list.join(", ")
            );
        } else if let (Reach::Process, Some(pool)) = (harness.reach(), harness.executor.get()) {
            let budget = harness.retry.cell_budget.map_or_else(
                || "unbounded".to_string(),
                |b| format!("{}ms (hard SIGKILL)", b.as_millis()),
            );
            out += &format!(
                "isolation: {} worker process(es), cell budget {budget}\n",
                pool.workers()
            );
        }
        if let (Some(cache), Some(summary)) = (&harness.disk_cache, &self.cache) {
            out += &format!(
                "cell cache {}: {} entr{} restored, {} corrupt\n",
                cache.dir().display(),
                summary.entries,
                if summary.entries == 1 { "y" } else { "ies" },
                summary.corrupt,
            );
        }
        if let Some(plan) = &harness.faults {
            out += &format!(
                "fault plan: {} site(s), seed {}\n",
                plan.site_count(),
                plan.seed()
            );
        }
        if let Some(summary) = &self.journal {
            out += &format!(
                "journal: restored {} cell(s), skipped {} line(s), {} corrupt\n",
                summary.restored, summary.skipped, summary.corrupt
            );
        }
        out
    }
}

/// The counters behind [`HarnessStats`], bumped as the workers go.
#[derive(Default)]
struct Counters {
    traces_generated: AtomicU64,
    trace_hits: AtomicU64,
    traces_shared: AtomicU64,
    cells_simulated: AtomicU64,
    cells_batched: AtomicU64,
    cell_hits: AtomicU64,
    cells_shared: AtomicU64,
    cells_failed: AtomicU64,
    cell_retries: AtomicU64,
    cell_timeouts: AtomicU64,
    journal_restored: AtomicU64,
    journal_corrupt_lines: AtomicU64,
    remote_cache_hits: AtomicU64,
}

impl Default for Harness {
    fn default() -> Harness {
        Harness::new()
    }
}

impl Harness {
    /// An empty harness sized to the machine's parallelism.
    pub fn new() -> Harness {
        Harness::configured(&RunOptions::default())
    }

    /// An empty harness pinned to exactly `threads` worker threads
    /// (`1` runs everything inline on the calling thread).
    pub fn with_threads(threads: usize) -> Harness {
        Harness::configured(&RunOptions {
            threads: Some(threads),
            ..RunOptions::default()
        })
    }

    /// A harness holding `options`' plain values, with nothing attached.
    fn configured(options: &RunOptions) -> Harness {
        Harness {
            traces: Mutex::default(),
            cells: Mutex::default(),
            threads: options.threads.map(|t| t.max(1)),
            retry: options.retry,
            faults: options.faults.clone(),
            batching: options.batching,
            journal: None,
            disk_cache: None,
            executor: OnceLock::new(),
            counters: Counters::default(),
        }
    }

    /// Builds the harness `options` describe, doing all of its start-up
    /// work once: checks that the dispatch can realise every fault in the
    /// plan, connects the fleet or prepares the worker pool, opens the
    /// disk cache, and replays the journal into the cell cache.
    ///
    /// # Errors
    ///
    /// A fault plan the dispatch cannot realise (`InvalidInput`, naming
    /// the flag that would), no reachable fleet node, or a filesystem
    /// error opening the cache or journal — each prefixed with what
    /// failed. *Corrupt* cache entries and journal lines are skipped and
    /// counted, not errors.
    pub fn open(options: RunOptions) -> io::Result<Opened> {
        fn context(what: String) -> impl FnOnce(io::Error) -> io::Error {
            move |e| io::Error::new(e.kind(), format!("{what}: {e}"))
        }
        let needs = options
            .faults
            .as_ref()
            .map_or(Reach::InProcess, |p| p.needs());
        if needs > options.dispatch.reach() {
            let message = if needs == Reach::Fleet {
                "fault plan injects drop/partition/slowlink/truncframe network faults, \
                 which exist only at the fleet transport; rerun with --fleet ADDR,... \
                 (plus --isolate)"
            } else {
                "fault plan injects abort/hang/bigalloc faults, which take the whole \
                 process down; rerun with --isolate to contain them in worker processes"
            };
            return Err(io::Error::new(io::ErrorKind::InvalidInput, message));
        }
        let mut harness = Harness::configured(&options);
        let fleet = match options.dispatch {
            Dispatch::InProcess => None,
            Dispatch::Isolated(config) => {
                harness.enable_isolation(config);
                None
            }
            Dispatch::Fleet(config) => {
                let fleet = Pool::connect(config).map_err(context("fleet".into()))?;
                harness.attach(Arc::clone(&fleet) as _);
                Some(fleet)
            }
        };
        let cache = match &options.cache {
            Some(dir) => {
                let cache =
                    ResultCache::open(dir).map_err(context(format!("cache {}", dir.display())))?;
                let summary = cache.scan();
                harness.disk_cache = Some(cache);
                Some(summary)
            }
            None => None,
        };
        let journal = match &options.journal {
            Some(path) => Some(
                harness
                    .replay_journal(path)
                    .map_err(context(format!("journal {}", path.display())))?,
            ),
            None => None,
        };
        Ok(Opened {
            harness,
            fleet,
            cache,
            journal,
        })
    }

    /// The process-wide default-options harness behind the registry's
    /// convenience calls, sharing traces and cells across experiments.
    /// Nothing configures it; a run that needs options builds its own
    /// with [`open`](Self::open). Its locks recover from poisoning, so a
    /// panicking cell in one experiment never bricks the instance.
    pub fn global() -> &'static Harness {
        static GLOBAL: OnceLock<Harness> = OnceLock::new();
        GLOBAL.get_or_init(Harness::new)
    }

    /// Current cache and fault counters (worker and fleet counters folded
    /// in from the attached executor, if any).
    pub fn stats(&self) -> HarnessStats {
        let c = &self.counters;
        let mut stats = HarnessStats {
            traces_generated: c.traces_generated.load(Ordering::Relaxed),
            trace_hits: c.trace_hits.load(Ordering::Relaxed),
            traces_shared: c.traces_shared.load(Ordering::Relaxed),
            cells_simulated: c.cells_simulated.load(Ordering::Relaxed),
            cells_batched: c.cells_batched.load(Ordering::Relaxed),
            cell_hits: c.cell_hits.load(Ordering::Relaxed),
            cells_shared: c.cells_shared.load(Ordering::Relaxed),
            cells_failed: c.cells_failed.load(Ordering::Relaxed),
            cell_retries: c.cell_retries.load(Ordering::Relaxed),
            cell_timeouts: c.cell_timeouts.load(Ordering::Relaxed),
            journal_restored: c.journal_restored.load(Ordering::Relaxed),
            journal_corrupt_lines: c.journal_corrupt_lines.load(Ordering::Relaxed),
            remote_cache_hits: c.remote_cache_hits.load(Ordering::Relaxed),
            ..HarnessStats::default()
        };
        if let Some(executor) = self.executor.get() {
            executor.fold_stats(&mut stats);
        }
        stats
    }

    /// Per-node fleet health states (addr, state name), empty when no
    /// fleet is attached — the `/metrics` health gauge family.
    pub fn fleet_node_health(&self) -> Vec<(String, &'static str)> {
        self.executor
            .get()
            .map(|executor| executor.node_health())
            .unwrap_or_default()
    }

    /// Routes every cell compute through a local pool of worker
    /// processes (see [`crate::pool`]): panics, aborts, and runaway
    /// loops cost one worker, not this process, and the per-cell budget
    /// becomes a hard SIGKILL deadline instead of a cooperative
    /// cancellation. Caching, retries, journaling, and result ordering
    /// are unchanged. [`open`](Self::open) calls this for
    /// [`Dispatch::Isolated`]; call it directly only on a fresh harness,
    /// before its first cell.
    ///
    /// # Panics
    ///
    /// When the harness already has an executor.
    pub fn enable_isolation(&self, config: SupervisorConfig) -> Arc<Pool> {
        let pool = Arc::new(Pool::local(config));
        self.attach(Arc::clone(&pool) as _);
        pool
    }

    /// Attaches the executor every cell compute runs on: the one attach
    /// path for worker pools, fleets and test executors.
    fn attach(&self, executor: Arc<dyn Executor + Send + Sync>) {
        assert!(
            self.executor.set(executor).is_ok(),
            "a harness's executor is attached once, when the harness is built"
        );
    }

    /// How far from this process the harness runs its cells.
    fn reach(&self) -> Reach {
        self.executor
            .get()
            .map_or(Reach::InProcess, |executor| executor.reach())
    }

    /// The end-of-run report: the `harness:` counter line, plus the
    /// `isolation:` or `fleet:` line when cells left the process.
    pub fn summary(&self) -> String {
        let stats = self.stats();
        let mut out = format!(
            "harness: {} traces generated ({} shared), {} cells simulated \
             ({} batched, {} hits, {} restored from journal), {} retries, {} timeouts, {} failed\n",
            stats.traces_generated,
            stats.traces_shared,
            stats.cells_simulated,
            stats.cells_batched,
            stats.cell_hits,
            stats.journal_restored,
            stats.cell_retries,
            stats.cell_timeouts,
            stats.cells_failed,
        );
        match self.reach() {
            Reach::InProcess => {}
            Reach::Process => {
                out += &format!(
                    "isolation: {} worker restart(s), {} kill(s), {} crash-loop pause(s)\n",
                    stats.worker_restarts, stats.worker_kills, stats.worker_crash_loops,
                );
            }
            Reach::Fleet => {
                out += &format!(
                    "fleet: {} worker seat(s), {} node loss(es), {} cell(s) re-dispatched, \
                     {} remote cache hit(s), {} readmission(s)\n",
                    stats.fleet_workers,
                    stats.node_losses,
                    stats.cells_redispatched,
                    stats.remote_cache_hits,
                    stats.node_readmissions,
                );
            }
        }
        out
    }

    /// Preloads every valid entry of the journal at `path` into the cell
    /// cache (so it will not be re-simulated), then opens the journal for
    /// appending every cell completed from now on.
    fn replay_journal(&mut self, path: &Path) -> io::Result<JournalSummary> {
        let replay = journal::read_entries(path)?;
        let cells = self.cells.get_mut().unwrap_or_else(PoisonError::into_inner);
        let mut restored = 0usize;
        for entry in replay.entries {
            let key = (entry.workload, entry.trace_len, entry.config);
            if let std::collections::hash_map::Entry::Vacant(slot) = cells.entry(key) {
                slot.insert(Arc::new(CellSlot {
                    state: Mutex::new(CellState::Done(Arc::new(entry.stats))),
                    done: Condvar::new(),
                }));
                restored += 1;
            }
        }
        self.counters
            .journal_restored
            .fetch_add(restored as u64, Ordering::Relaxed);
        self.counters
            .journal_corrupt_lines
            .fetch_add(replay.corrupt as u64, Ordering::Relaxed);
        self.journal = Some(Journal::open_append(path)?);
        Ok(JournalSummary {
            restored,
            skipped: replay.skipped,
            corrupt: replay.corrupt,
        })
    }

    /// The trace for `spec` at `trace_len`, generating it on first request
    /// and sharing the same allocation afterwards.
    ///
    /// Concurrent first requests are deduplicated: exactly one caller
    /// generates, the rest block on the same slot and then share it.
    pub fn trace(&self, spec: &WorkloadSpec, trace_len: usize) -> Arc<TraceEntry> {
        let slot = {
            let mut map = lock(&self.traces);
            map.entry((spec.name.clone(), trace_len))
                .or_default()
                .clone()
        };
        // A slot that is already populated is a plain hit; an empty slot we
        // end up not initializing means we blocked on a concurrent
        // generation and shared its result.
        let finished_before = slot.get().is_some();
        let mut computed = false;
        let entry = slot.get_or_init(|| {
            computed = true;
            let trace = spec.generate(trace_len);
            let stats = TraceStats::measure(&trace);
            Arc::new(TraceEntry {
                spec: spec.clone(),
                trace,
                stats,
            })
        });
        let counter = if computed {
            &self.counters.traces_generated
        } else if finished_before {
            &self.counters.trace_hits
        } else {
            &self.counters.traces_shared
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Arc::clone(entry)
    }

    /// Serves one cell: from the cache if an identical
    /// `(workload, trace_len, config)` cell already finished (including
    /// journal-restored ones), otherwise by computing it under the fault
    /// model. Exactly one trace-store request is made per call, so cache
    /// counters stay deterministic across thread counts.
    fn cell_stats(
        &self,
        spec: &WorkloadSpec,
        trace_len: usize,
        label: &str,
        config: &FrontendConfig,
    ) -> Result<(Arc<TraceEntry>, Arc<SimStats>), CellError> {
        let fingerprint = config_fingerprint(config);
        let slot = {
            let mut map = lock(&self.cells);
            map.entry((spec.name.clone(), trace_len, fingerprint.clone()))
                .or_default()
                .clone()
        };
        let mut waited = false;
        {
            let mut state = lock(&slot.state);
            loop {
                match &*state {
                    CellState::Done(stats) => {
                        let stats = Arc::clone(stats);
                        drop(state);
                        let counter = if waited {
                            &self.counters.cells_shared
                        } else {
                            &self.counters.cell_hits
                        };
                        counter.fetch_add(1, Ordering::Relaxed);
                        let entry = self.trace(spec, trace_len);
                        return Ok((entry, stats));
                    }
                    CellState::Computing => {
                        waited = true;
                        state = slot
                            .done
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    // Idle — either first request, or a previous compute
                    // failed (failures are never cached): claim it.
                    CellState::Idle => {
                        *state = CellState::Computing;
                        break;
                    }
                }
            }
        }
        // The claim is ours. A verified entry in the shared disk cache
        // settles it without simulating — this is how a restarted server
        // is warm from request one and a second fleet run simulates zero
        // cells.
        if let Some(cache) = &self.disk_cache {
            if let CacheLookup::Hit(stats) = cache.lookup(&spec.name, trace_len, &fingerprint) {
                let stats: Arc<SimStats> = Arc::new(*stats);
                *lock(&slot.state) = CellState::Done(Arc::clone(&stats));
                slot.done.notify_all();
                self.counters
                    .remote_cache_hits
                    .fetch_add(1, Ordering::Relaxed);
                self.counters.cell_hits.fetch_add(1, Ordering::Relaxed);
                let entry = self.trace(spec, trace_len);
                return Ok((entry, stats));
            }
        }
        match self.compute_cell(spec, trace_len, label, config, &fingerprint) {
            Ok((entry, stats)) => {
                self.publish(&slot, spec, trace_len, fingerprint, &stats);
                Ok((entry, stats))
            }
            Err(error) => {
                *lock(&slot.state) = CellState::Idle;
                slot.done.notify_all();
                if matches!(error, CellError::Timeout { .. }) {
                    self.counters.cell_timeouts.fetch_add(1, Ordering::Relaxed);
                }
                self.counters.cells_failed.fetch_add(1, Ordering::Relaxed);
                Err(error)
            }
        }
    }

    /// Publishes one freshly simulated cell: its slot turns `Done` (waking
    /// waiters), and the result is appended to the journal and the disk
    /// cache. Persistence failures degrade to warnings — the result
    /// is already in memory; only resumes and warm restarts lose out.
    fn publish(
        &self,
        slot: &CellSlot,
        spec: &WorkloadSpec,
        trace_len: usize,
        fingerprint: String,
        stats: &Arc<SimStats>,
    ) {
        *lock(&slot.state) = CellState::Done(Arc::clone(stats));
        slot.done.notify_all();
        self.counters
            .cells_simulated
            .fetch_add(1, Ordering::Relaxed);
        let record = JournalEntry {
            workload: spec.name.clone(),
            trace_len,
            config: fingerprint,
            stats: (**stats).clone(),
        };
        if let Some(journal) = &self.journal {
            if let Err(err) = journal.append(&record) {
                eprintln!(
                    "warning: journal append to {} failed: {err}",
                    journal.path().display()
                );
            }
        }
        if let Some(cache) = &self.disk_cache {
            if let Err(err) = cache.store(&record) {
                eprintln!(
                    "warning: cell cache store to {} failed: {err}",
                    cache.dir().display()
                );
            }
        }
    }

    /// Computes one claimed cell under the fault model: up to
    /// `max_attempts` tries through the attached executor (in-process when
    /// none is attached), with deterministic jittered backoff between
    /// retryable failures and a wall-clock budget per attempt.
    fn compute_cell(
        &self,
        spec: &WorkloadSpec,
        trace_len: usize,
        label: &str,
        config: &FrontendConfig,
        fingerprint: &str,
    ) -> Result<(Arc<TraceEntry>, Arc<SimStats>), CellError> {
        let retry = self.retry;
        let plan = self.faults.as_deref();
        let local = InProcess::new(self);
        let executor: &dyn Executor = match self.executor.get() {
            Some(executor) => executor.as_ref(),
            None => &local,
        };
        let seed = plan.map_or(0, FaultPlan::seed);
        let jitter_key =
            splitmix64(fnv1a(&spec.name) ^ fnv1a(fingerprint) ^ (trace_len as u64) ^ seed);
        let max_attempts = retry.max_attempts.max(1);
        let mut error = CellError::Transient {
            message: "cell was never attempted".to_string(),
            attempts: 0,
        };
        for attempt in 1..=max_attempts {
            if attempt > 1 {
                self.counters.cell_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(retry.backoff_before(attempt, jitter_key));
            }
            let cell = CellRun {
                spec,
                trace_len,
                label,
                config,
                budget: retry.cell_budget,
                attempt,
            };
            match exec::attempt(executor, &cell, plan) {
                Ok(stats) => {
                    // The in-process executor kept the entry it simulated
                    // over; any other one simulated elsewhere, so the
                    // result's trace characterization comes from the store.
                    let entry = local
                        .take_entry()
                        .unwrap_or_else(|| self.trace(spec, trace_len));
                    return Ok((entry, Arc::new(stats)));
                }
                Err(err) => error = err,
            }
            if !error.retryable() {
                break;
            }
        }
        Err(error)
    }

    /// The lockstep batch pass over one matrix: for each workload, claim
    /// every idle cell slot (first occurrence per config fingerprint) and
    /// simulate the claimed configs together through [`fdip::run_batch`]
    /// — one shared BPU walk per walk key. Returns finished results
    /// indexed by workload-major slot; `None` slots flow through the
    /// per-cell scheduler (already-cached cells, cells another thread is
    /// computing, duplicate-fingerprint labels — which then hit the cache
    /// exactly as they would solo — and everything when the pass is
    /// ineligible).
    ///
    /// Eligibility mirrors the solo path's extra machinery: a fault plan
    /// (faults are per-cell attempts), an attached executor (cells run
    /// out of process), or a cell wall-clock budget (cancellation is
    /// not plumbed through the lockstep loop) each suspend the pass, as
    /// does [`RunOptions::batching`] off or a single-config matrix
    /// (nothing to share).
    fn batch_pass(
        &self,
        workloads: &[WorkloadSpec],
        trace_len: usize,
        configs: &[(String, FrontendConfig)],
        threads: usize,
    ) -> Vec<Option<RunResult>> {
        let mut out: Vec<Option<RunResult>> = Vec::new();
        out.resize_with(workloads.len() * configs.len(), || None);
        if !self.batching
            || configs.len() < 2
            || self.faults.is_some()
            || self.executor.get().is_some()
            || self.retry.cell_budget.is_some()
        {
            return out;
        }
        // One batch per workload; workloads parallelize across threads
        // (each batch itself is single-threaded lockstep).
        type WorkloadChunk<'a> = (usize, &'a mut [Option<RunResult>]);
        let queue: Mutex<Vec<WorkloadChunk<'_>>> =
            Mutex::new(out.chunks_mut(configs.len()).enumerate().collect());
        let drain = |harness: &Harness| loop {
            let Some((w, chunk)) = lock(&queue).pop() else {
                return;
            };
            harness.batch_workload(&workloads[w], trace_len, configs, chunk);
        };
        if threads <= 1 {
            drain(self);
        } else {
            std::thread::scope(|scope| {
                for _ in 0..threads.min(workloads.len()) {
                    scope.spawn(|| drain(self));
                }
            });
        }
        drop(queue);
        out
    }

    /// Claims and batch-simulates one workload's idle cells; fills the
    /// workload's `out` slice (indexed by config position) for every cell
    /// it completed. With fewer than two claimable cells the claims are
    /// released untouched — a lone cell gains nothing from the batch
    /// machinery. A panic inside the batch releases every claimed slot to
    /// idle so the per-cell path recomputes (and types) the failure solo.
    fn batch_workload(
        &self,
        spec: &WorkloadSpec,
        trace_len: usize,
        configs: &[(String, FrontendConfig)],
        out: &mut [Option<RunResult>],
    ) {
        // (config index, slot, fingerprint) per claimed cell.
        let mut claimed: Vec<(usize, Arc<CellSlot>, String)> = Vec::new();
        for (c, (_, config)) in configs.iter().enumerate() {
            let fingerprint = config_fingerprint(config);
            if claimed.iter().any(|(_, _, f)| f == &fingerprint) {
                continue; // duplicate label: later a plain cache hit
            }
            let slot = {
                let mut map = lock(&self.cells);
                map.entry((spec.name.clone(), trace_len, fingerprint.clone()))
                    .or_default()
                    .clone()
            };
            let mut state = lock(&slot.state);
            if matches!(*state, CellState::Idle) {
                // The disk cache settles claims here too; the per-cell
                // scheduler then serves the slot as an ordinary hit.
                if let Some(cache) = &self.disk_cache {
                    if let CacheLookup::Hit(stats) =
                        cache.lookup(&spec.name, trace_len, &fingerprint)
                    {
                        *state = CellState::Done(Arc::new(*stats));
                        drop(state);
                        slot.done.notify_all();
                        self.counters
                            .remote_cache_hits
                            .fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                }
                *state = CellState::Computing;
                drop(state);
                claimed.push((c, slot, fingerprint));
            }
        }
        if claimed.len() < 2 {
            for (_, slot, _) in &claimed {
                *lock(&slot.state) = CellState::Idle;
                slot.done.notify_all();
            }
            return;
        }
        // One trace-store request per claimed cell, exactly as the
        // per-cell path would make — keeps the hit/shared telemetry
        // split identical whether or not cells batch.
        let mut entry = self.trace(spec, trace_len);
        for _ in 1..claimed.len() {
            entry = self.trace(spec, trace_len);
        }
        let batch_configs: Vec<FrontendConfig> = claimed
            .iter()
            .map(|(c, _, _)| configs[*c].1.clone())
            .collect();
        let outcome =
            quiet_catch_unwind(AssertUnwindSafe(|| run_batch(&batch_configs, &entry.trace)));
        let Ok(batch_stats) = outcome else {
            for (_, slot, _) in &claimed {
                *lock(&slot.state) = CellState::Idle;
                slot.done.notify_all();
            }
            return;
        };
        for ((c, slot, fingerprint), stats) in claimed.into_iter().zip(batch_stats) {
            let stats = Arc::new(stats);
            self.publish(&slot, spec, trace_len, fingerprint, &stats);
            self.counters.cells_batched.fetch_add(1, Ordering::Relaxed);
            out[c] = Some(RunResult {
                workload: spec.name.clone(),
                config: configs[c].0.clone(),
                stats: (*stats).clone(),
                trace_stats: entry.stats.clone(),
                error: None,
            });
        }
    }

    /// Evaluates `configs` × `workloads` over traces of `trace_len`.
    ///
    /// Parallelism is cell-granular: each worker steals one
    /// `(workload, config)` cell at a time, so a matrix of any shape —
    /// one workload × many configs, many × one — saturates the machine.
    /// Results come back workload-major in the input orders, independent
    /// of thread count and scheduling.
    ///
    /// A cell that fails terminally (see [`crate::fault`]) still yields
    /// its [`RunResult`] row, carrying the [`CellError`] and default
    /// statistics; the rest of the matrix is unaffected. Use
    /// [`MatrixResults::try_cell`] / [`MatrixResults::failures`] to
    /// observe failures.
    pub fn run_matrix(
        &self,
        workloads: &[WorkloadSpec],
        trace_len: usize,
        configs: &[(String, FrontendConfig)],
    ) -> MatrixResults {
        let total = workloads.len() * configs.len();
        let threads = self
            .threads
            .unwrap_or_else(|| {
                // Out of process, one dispatching thread per worker seat
                // saturates the executor; more would only queue on it.
                self.executor
                    .get()
                    .map_or_else(exec::local_parallelism, |executor| executor.workers())
            })
            .min(total.max(1));

        // Generate every trace up front, one task per workload, before any
        // cell runs. Cell workers then only ever *hit* the finished store,
        // which pins the hit/shared telemetry split — without the barrier a
        // worker could catch a sibling workload's generation still in
        // flight and count `traces_shared` instead of `trace_hits`, making
        // `stats()` scheduling-dependent (tests/determinism.rs pins it).
        let next_trace = std::sync::atomic::AtomicUsize::new(0);
        let generate = |harness: &Harness| loop {
            let w = next_trace.fetch_add(1, Ordering::Relaxed);
            if w >= workloads.len() {
                return;
            }
            harness.trace(&workloads[w], trace_len);
        };
        if threads <= 1 {
            generate(self);
        } else {
            std::thread::scope(|scope| {
                for _ in 0..threads.min(workloads.len()) {
                    scope.spawn(|| generate(self));
                }
            });
        }

        // Lockstep batch pass: simulate each workload's idle cells
        // together over one shared BPU walk where their keys allow. The
        // per-cell loop below then only sees cache hits for those slots.
        let prefilled = self.batch_pass(workloads, trace_len, configs, threads);
        let filled: Vec<bool> = prefilled.iter().map(Option::is_some).collect();

        // Hand cells out config-major (cell k ↦ workload k % W) so
        // neighboring steals touch different traces and the work mix per
        // thread stays varied.
        let next = std::sync::atomic::AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, RunResult)>> = Mutex::new(Vec::with_capacity(total));
        for (slot, result) in prefilled.into_iter().enumerate() {
            if let Some(result) = result {
                lock(&collected).push((slot, result));
            }
        }
        let work = |harness: &Harness| loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= total {
                return;
            }
            let (w, c) = (k % workloads.len(), k / workloads.len());
            if filled[w * configs.len() + c] {
                continue;
            }
            let spec = &workloads[w];
            let (label, config) = &configs[c];
            let result = match harness.cell_stats(spec, trace_len, label, config) {
                Ok((entry, stats)) => RunResult {
                    workload: spec.name.clone(),
                    config: label.clone(),
                    stats: (*stats).clone(),
                    trace_stats: entry.stats.clone(),
                    error: None,
                },
                Err(error) => RunResult {
                    workload: spec.name.clone(),
                    config: label.clone(),
                    stats: SimStats::default(),
                    trace_stats: TraceStats::default(),
                    error: Some(error),
                },
            };
            // Slot index is workload-major: the final output order.
            lock(&collected).push((w * configs.len() + c, result));
        };

        if threads <= 1 {
            work(self);
        } else {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| work(self));
                }
            });
        }

        let mut cells = collected
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        cells.sort_by_key(|(slot, _)| *slot);
        debug_assert_eq!(cells.len(), total);
        MatrixResults::new(cells.into_iter().map(|(_, r)| r).collect())
    }
}

/// The content fingerprint of a configuration: its full field-by-field
/// `Debug` rendering (see [`CellKey`]'s docs for why this is sound).
pub fn config_fingerprint(config: &FrontendConfig) -> String {
    format!("{config:?}")
}

/// The results of one matrix run, with an index for O(1) cell lookup.
///
/// Dereferences to the workload-major `[RunResult]` slice for iteration.
#[derive(Clone, Debug)]
pub struct MatrixResults {
    results: Vec<RunResult>,
    index: HashMap<(String, String), usize>,
}

impl MatrixResults {
    /// Builds the index over `results` (later duplicates win, matching the
    /// behavior of re-running the cell).
    pub fn new(results: Vec<RunResult>) -> MatrixResults {
        let index = results
            .iter()
            .enumerate()
            .map(|(i, r)| ((r.workload.clone(), r.config.clone()), i))
            .collect();
        MatrixResults { results, index }
    }

    /// The cell for `(workload, config)`, if it was part of the matrix
    /// (failed cells included — check
    /// [`RunResult::error`](crate::runner::RunResult)).
    pub fn get(&self, workload: &str, config: &str) -> Option<&RunResult> {
        self.index
            .get(&(workload.to_string(), config.to_string()))
            .map(|&i| &self.results[i])
    }

    /// The successfully simulated cell for `(workload, config)`.
    ///
    /// # Errors
    ///
    /// [`CellError::Missing`] when the pair was not part of the matrix;
    /// the cell's own [`CellError`] when it failed. Experiments use this
    /// to degrade gracefully — render the rows they can, mark the rest.
    pub fn try_cell(&self, workload: &str, config: &str) -> Result<&RunResult, CellError> {
        let result = self
            .get(workload, config)
            .ok_or_else(|| CellError::Missing {
                workload: workload.to_string(),
                config: config.to_string(),
            })?;
        match &result.error {
            Some(error) => Err(error.clone()),
            None => Ok(result),
        }
    }

    /// The cell for `(workload, config)`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is missing. Failed cells are returned with
    /// default statistics, which silently corrupts derived numbers —
    /// prefer [`try_cell`](Self::try_cell).
    #[deprecated(note = "use try_cell, which surfaces failed cells as errors")]
    pub fn cell(&self, workload: &str, config: &str) -> &RunResult {
        self.get(workload, config)
            .unwrap_or_else(|| panic!("missing cell ({workload}, {config})"))
    }

    /// The cells that failed, in matrix order.
    pub fn failures(&self) -> impl Iterator<Item = &RunResult> {
        self.results.iter().filter(|r| r.error.is_some())
    }

    /// Consumes the results for persistence.
    pub fn into_cells(self) -> Vec<RunResult> {
        self.results
    }
}

impl Deref for MatrixResults {
    type Target = [RunResult];
    fn deref(&self) -> &[RunResult] {
        &self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{suite, SuiteKind};
    use crate::Scale;
    use fdip::PrefetcherKind;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    const LEN: usize = 8_000;

    fn configs() -> Vec<(String, FrontendConfig)> {
        vec![
            ("base".to_string(), FrontendConfig::default()),
            (
                "fdip".to_string(),
                FrontendConfig::default().with_prefetcher(PrefetcherKind::fdip()),
            ),
        ]
    }

    /// A policy that retries immediately, so fault tests stay fast.
    fn eager_retry(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            backoff: Duration::ZERO,
            cell_budget: None,
        }
    }

    /// A harness retrying under `retry` with the fault plan `spec`.
    fn faulty(retry: RetryPolicy, spec: &str) -> Harness {
        open(RunOptions {
            retry,
            faults: Some(Arc::new(FaultPlan::parse(spec).unwrap())),
            ..RunOptions::default()
        })
    }

    fn open(options: RunOptions) -> Harness {
        Harness::open(options).unwrap().harness
    }

    fn journaled(path: &Path) -> Opened {
        Harness::open(RunOptions {
            journal: Some(path.to_path_buf()),
            ..RunOptions::default()
        })
        .unwrap()
    }

    fn temp_journal(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "fdip-harness-{}-{tag}-{n}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn trace_store_generates_once() {
        let harness = Harness::new();
        let spec = &suite(SuiteKind::Client, Scale::quick())[0];
        let a = harness.trace(spec, LEN);
        let b = harness.trace(spec, LEN);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(harness.stats().traces_generated, 1);
        assert_eq!(harness.stats().trace_hits, 1);
        // A different length is a different trace.
        let c = harness.trace(spec, LEN / 2);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(harness.stats().traces_generated, 2);
    }

    #[test]
    fn cell_cache_is_content_keyed_across_labels() {
        let harness = Harness::new();
        let workloads = suite(SuiteKind::Client, Scale::quick());
        let first = harness.run_matrix(&workloads, LEN, &configs());
        // Same config content under different labels: all hits.
        let relabeled = vec![
            ("no-prefetch".to_string(), FrontendConfig::default()),
            (
                "prefetch".to_string(),
                FrontendConfig::default().with_prefetcher(PrefetcherKind::fdip()),
            ),
        ];
        let second = harness.run_matrix(&workloads, LEN, &relabeled);
        let stats = harness.stats();
        assert_eq!(stats.cells_simulated, 2, "{stats:?}");
        assert_eq!(stats.cell_hits, 2, "{stats:?}");
        assert_eq!(stats.traces_generated, 1, "{stats:?}");
        assert_eq!(
            first.try_cell("client-1", "fdip").unwrap().stats,
            second.try_cell("client-1", "prefetch").unwrap().stats
        );
    }

    #[test]
    fn matrix_order_is_workload_major() {
        let harness = Harness::new();
        let workloads = suite(SuiteKind::All, Scale::quick());
        let results = harness.run_matrix(&workloads, LEN, &configs());
        assert_eq!(results.len(), workloads.len() * 2);
        for (w, spec) in workloads.iter().enumerate() {
            assert_eq!(results[2 * w].workload, spec.name);
            assert_eq!(results[2 * w].config, "base");
            assert_eq!(results[2 * w + 1].config, "fdip");
        }
    }

    #[test]
    fn lookup_is_option_on_the_library_path() {
        let harness = Harness::new();
        let workloads = suite(SuiteKind::Client, Scale::quick());
        let results = harness.run_matrix(&workloads, LEN, &configs());
        assert!(results.get("client-1", "base").is_some());
        assert!(results.get("client-1", "nope").is_none());
        assert!(results.get("ghost", "base").is_none());
        assert!(matches!(
            results.try_cell("ghost", "base"),
            Err(CellError::Missing { .. })
        ));
        assert_eq!(results.failures().count(), 0);
    }

    #[test]
    #[should_panic(expected = "missing cell")]
    fn missing_cell_panics() {
        #[allow(deprecated)]
        MatrixResults::new(Vec::new()).cell("nope", "nada");
    }

    #[test]
    fn shared_counters_account_for_concurrent_requests() {
        let harness = Harness::new();
        let spec = &suite(SuiteKind::Client, Scale::quick())[0];
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _ = harness.trace(spec, LEN);
                });
            }
        });
        // Exactly one generation; the others were hits or coalesced onto
        // the in-flight one, but never duplicated work.
        let st = harness.stats();
        assert_eq!(st.traces_generated, 1, "{st:?}");
        assert_eq!(st.trace_hits + st.traces_shared, 3, "{st:?}");
    }

    #[test]
    fn stats_serialize_and_total() {
        let st = HarnessStats {
            traces_generated: 1,
            cells_simulated: 2,
            cell_hits: 3,
            cells_shared: 4,
            cells_failed: 5,
            ..HarnessStats::default()
        };
        assert_eq!(st.cell_requests(), 14);
        let json = fdip_types::ToJson::to_json(&st).to_string();
        assert!(json.contains(r#""cells_shared":4"#), "{json}");
        assert!(json.contains(r#""traces_shared":0"#), "{json}");
        assert!(json.contains(r#""cells_failed":5"#), "{json}");
        assert!(json.contains(r#""journal_restored":0"#), "{json}");
    }

    #[test]
    fn fingerprints_separate_distinct_configs() {
        let base = config_fingerprint(&FrontendConfig::default());
        let fdip =
            config_fingerprint(&FrontendConfig::default().with_prefetcher(PrefetcherKind::fdip()));
        assert_ne!(base, fdip);
        assert_eq!(base, config_fingerprint(&FrontendConfig::default()));
    }

    #[test]
    fn injected_panic_is_isolated_to_its_cell() {
        let harness = faulty(eager_retry(2), "panic@client-1/fdip");
        let workloads = suite(SuiteKind::Client, Scale::quick());
        let results = harness.run_matrix(&workloads, LEN, &configs());

        // The panicking cell is a typed failure; its neighbor is fine.
        assert!(results.try_cell("client-1", "base").is_ok());
        let err = results.try_cell("client-1", "fdip").unwrap_err();
        assert!(
            matches!(&err, CellError::Panic { attempts: 2, message } if message.contains("injected")),
            "{err:?}"
        );
        assert_eq!(results.failures().count(), 1);
        let st = harness.stats();
        assert_eq!(st.cells_failed, 1, "{st:?}");
        assert_eq!(st.cell_retries, 1, "{st:?}");
        assert_eq!(st.cells_simulated, 1, "{st:?}");
    }

    #[test]
    fn transient_fault_retries_to_the_fault_free_value() {
        let harness = faulty(eager_retry(3), "transient@client-1/base:2");
        let workloads = suite(SuiteKind::Client, Scale::quick());
        let faulty = harness.run_matrix(&workloads, LEN, &configs());
        let st = harness.stats();
        assert_eq!(st.cells_failed, 0, "{st:?}");
        assert_eq!(st.cell_retries, 2, "{st:?}");

        let clean = Harness::new().run_matrix(&workloads, LEN, &configs());
        assert_eq!(
            faulty.try_cell("client-1", "base").unwrap().stats,
            clean.try_cell("client-1", "base").unwrap().stats
        );
    }

    #[test]
    fn slow_cell_times_out_against_its_budget_without_retry() {
        let harness = faulty(
            RetryPolicy {
                max_attempts: 3,
                backoff: Duration::ZERO,
                cell_budget: Some(Duration::from_millis(30)),
            },
            "slow@client-1/base:10000",
        );
        let workloads = suite(SuiteKind::Client, Scale::quick());
        let results = harness.run_matrix(&workloads, LEN, &configs());
        let err = results.try_cell("client-1", "base").unwrap_err();
        assert_eq!(err, CellError::Timeout { budget_ms: 30 });
        let st = harness.stats();
        assert_eq!(st.cell_timeouts, 1, "{st:?}");
        assert_eq!(st.cells_failed, 1, "{st:?}");
        // Timeouts are terminal: no retry was burned on it.
        assert_eq!(st.cell_retries, 0, "{st:?}");
        // The untargeted fdip cell still simulated inside the budget.
        assert!(results.try_cell("client-1", "fdip").is_ok());
    }

    #[test]
    fn failed_cells_are_not_cached_and_recover_on_rerun() {
        let harness = faulty(eager_retry(1), "panic@client-1/base:1");
        let workloads = suite(SuiteKind::Client, Scale::quick());
        let first = harness.run_matrix(&workloads, LEN, &configs());
        assert!(first.try_cell("client-1", "base").is_err());
        assert_eq!(harness.stats().cells_failed, 1);

        // The plan's single shot is spent; the slot went back to idle, so
        // the rerun computes the cell successfully instead of serving a
        // cached failure.
        let second = harness.run_matrix(&workloads, LEN, &configs());
        assert!(second.try_cell("client-1", "base").is_ok());
        assert_eq!(harness.stats().cells_failed, 1);
    }

    #[test]
    fn poisoned_locks_recover_even_on_the_global_harness() {
        // Poison a private lock the way a panicking thread would, then
        // prove the harness still serves requests. Run against the
        // process-wide instance on purpose: this is the regression test
        // for a panic in one experiment bricking the rest of the run.
        let harness = Harness::global();
        let spec = &suite(SuiteKind::Client, Scale::quick())[0];
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = harness.traces.lock().unwrap();
                panic!("poison the trace store");
            })
            .join()
        });
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = harness.cells.lock().unwrap();
                panic!("poison the cell cache");
            })
            .join()
        });
        // Both locks are now poisoned; every path must recover.
        let entry = harness.trace(spec, LEN / 4);
        assert!(!entry.trace.is_empty());
        let workloads = suite(SuiteKind::Client, Scale::quick());
        let results = harness.run_matrix(&workloads, LEN / 4, &configs());
        assert!(results.try_cell("client-1", "base").is_ok());
    }

    #[test]
    fn journal_resume_re_simulates_nothing_and_is_byte_identical() {
        let path = temp_journal("resume");
        let workloads = suite(SuiteKind::Client, Scale::quick());

        let first = journaled(&path);
        assert_eq!(first.journal, Some(JournalSummary::default()));
        let a = first.harness.run_matrix(&workloads, LEN, &configs());
        assert_eq!(first.harness.stats().cells_simulated, 2);

        // A "restarted" harness attaches the same journal: every cell is
        // preloaded, zero cells simulate, output is byte-identical.
        let second = journaled(&path);
        let summary = second.journal.unwrap();
        assert_eq!(summary.restored, 2);
        assert_eq!(summary.skipped, 0);
        let b = second.harness.run_matrix(&workloads, LEN, &configs());
        let st = second.harness.stats();
        assert_eq!(st.cells_simulated, 0, "{st:?}");
        assert_eq!(st.journal_restored, 2, "{st:?}");
        assert_eq!(st.cell_hits, 2, "{st:?}");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(
                fdip_types::ToJson::to_json(x).to_string(),
                fdip_types::ToJson::to_json(y).to_string()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_refuses_faults_its_dispatch_cannot_realise_and_reports_what_it_attached() {
        let attempt = |spec: &str, dispatch: Dispatch| {
            Harness::open(RunOptions {
                faults: Some(Arc::new(FaultPlan::parse(spec).unwrap())),
                dispatch,
                ..RunOptions::default()
            })
        };
        let isolated = || Dispatch::Isolated(SupervisorConfig::default());
        for (spec, dispatch, needle) in [
            ("abort@w/c", Dispatch::InProcess, "rerun with --isolate"),
            ("drop@w/c", Dispatch::InProcess, "rerun with --fleet"),
            ("panic@w/c,truncframe@w/c", isolated(), "rerun with --fleet"),
        ] {
            let err = attempt(spec, dispatch).err().expect(spec);
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{spec}");
            assert!(err.to_string().contains(needle), "{spec}: {err}");
        }
        // Workers spawn on first dispatch, so opening an isolated harness
        // starts no process.
        let opened = attempt("seed=3,hang@w/c", isolated()).unwrap();
        let lines = opened.startup_lines();
        assert!(
            lines.contains("worker process(es), cell budget unbounded"),
            "{lines}"
        );
        assert!(lines.contains("fault plan: 1 site(s), seed 3"), "{lines}");
        assert!(opened.harness.summary().contains("0 worker restart(s)"));

        let path = temp_journal("startup");
        let opened = journaled(&path);
        let lines = opened.startup_lines();
        assert_eq!(
            lines,
            "journal: restored 0 cell(s), skipped 0 line(s), 0 corrupt\n"
        );
        let summary = opened.harness.summary();
        assert!(
            summary.starts_with("harness: 0 traces generated"),
            "{summary}"
        );
        assert_eq!(summary.lines().count(), 1, "{summary}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batched_matrix_is_byte_identical_to_solo() {
        let workloads = suite(SuiteKind::Client, Scale::quick());
        // Mix shared-walk configs with a walk-key singleton so the batch
        // exercises both the shared and private BPU paths.
        let configs = vec![
            ("base".to_string(), FrontendConfig::default()),
            (
                "fdip".to_string(),
                FrontendConfig::default().with_prefetcher(PrefetcherKind::fdip()),
            ),
            (
                "ftb".to_string(),
                FrontendConfig::default()
                    .with_btb(fdip::BtbVariant::basic_block(2048))
                    .with_prefetcher(PrefetcherKind::fdip()),
            ),
        ];

        let batched = Harness::new();
        let a = batched.run_matrix(&workloads, LEN, &configs);
        let bst = batched.stats();
        assert_eq!(bst.cells_batched, 3, "{bst:?}");
        assert_eq!(bst.cells_simulated, 3, "{bst:?}");

        let solo = open(RunOptions {
            batching: false,
            ..RunOptions::default()
        });
        let b = solo.run_matrix(&workloads, LEN, &configs);
        let sst = solo.stats();
        assert_eq!(sst.cells_batched, 0, "{sst:?}");
        assert_eq!(sst.cells_simulated, 3, "{sst:?}");
        // Trace-store telemetry must not reveal which path ran either.
        assert_eq!(
            bst.traces_generated, sst.traces_generated,
            "{bst:?} {sst:?}"
        );
        assert_eq!(bst.trace_hits, sst.trace_hits, "{bst:?} {sst:?}");

        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(
                fdip_types::ToJson::to_json(x).to_string(),
                fdip_types::ToJson::to_json(y).to_string()
            );
        }
    }

    #[test]
    fn fault_plan_suspends_the_batch_pass() {
        let harness = faulty(eager_retry(3), "transient@client-1/base:1");
        let workloads = suite(SuiteKind::Client, Scale::quick());
        let results = harness.run_matrix(&workloads, LEN, &configs());
        // Every cell went through the per-cell path, where the fault hook
        // lives: the fault fired (and retried) instead of being skipped.
        let st = harness.stats();
        assert_eq!(st.cells_batched, 0, "{st:?}");
        assert_eq!(st.cell_retries, 1, "{st:?}");
        assert!(results.try_cell("client-1", "base").is_ok());
    }

    /// An executor that replays a fixed script of outcomes, one per
    /// attempt — standing in for any transport, so the harness's retry,
    /// counter, caching, and journal behaviour is pinned at the seam.
    struct Scripted {
        script: Mutex<Vec<Result<SimStats, CellError>>>,
        attempts: Mutex<Vec<u32>>,
    }

    impl Scripted {
        fn new(script: Vec<Result<SimStats, CellError>>) -> Arc<Scripted> {
            Arc::new(Scripted {
                script: Mutex::new(script),
                attempts: Mutex::new(Vec::new()),
            })
        }
    }

    impl Executor for Scripted {
        fn reach(&self) -> Reach {
            Reach::Fleet
        }

        fn run(
            &self,
            cell: &CellRun<'_>,
            _fault: Option<crate::exec::Injected>,
        ) -> Result<SimStats, CellError> {
            lock(&self.attempts).push(cell.attempt);
            lock(&self.script).remove(0)
        }

        fn workers(&self) -> usize {
            1
        }
    }

    fn canned() -> SimStats {
        SimStats {
            cycles: 77,
            instructions: 99,
            ..SimStats::default()
        }
    }

    fn crashed(attempts: u32) -> CellError {
        CellError::Crashed {
            signal: Some(9),
            code: None,
            attempts,
        }
    }

    #[test]
    fn retries_through_any_executor_count_back_off_and_journal_once() {
        let path = temp_journal("scripted");
        let harness = open(RunOptions {
            retry: RetryPolicy {
                max_attempts: 3,
                backoff: Duration::from_millis(10),
                cell_budget: None,
            },
            journal: Some(path.clone()),
            ..RunOptions::default()
        });
        let script = Scripted::new(vec![
            Err(crashed(1)),
            Err(CellError::Transient {
                message: "lost".to_string(),
                attempts: 2,
            }),
            Ok(canned()),
        ]);
        harness.attach(script.clone());
        let workloads = &suite(SuiteKind::Client, Scale::quick())[..1];
        let base = &configs()[..1];

        let started = std::time::Instant::now();
        let results = harness.run_matrix(workloads, LEN, base);
        // Backoff before attempts 2 and 3 is at least 1x and 2x the base.
        assert!(started.elapsed() >= Duration::from_millis(30));
        assert_eq!(results[0].stats, canned());
        assert_eq!(*lock(&script.attempts), vec![1, 2, 3]);
        let st = harness.stats();
        assert_eq!(
            (st.cells_simulated, st.cell_retries, st.cells_failed),
            (1, 2, 0),
            "{st:?}"
        );
        // The characterization comes from the local trace store.
        assert!(results[0].trace_stats.len > 0);

        // The success was cached: a rerun never reaches the executor.
        harness.run_matrix(workloads, LEN, base);
        assert_eq!(harness.stats().cell_hits, 1);
        assert_eq!(lock(&script.attempts).len(), 3);
        drop(harness);
        assert_eq!(journal::read_entries(&path).unwrap().entries.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn terminal_and_exhausted_failures_are_counted_never_cached_or_journaled() {
        let path = temp_journal("scripted-fail");
        let harness = open(RunOptions {
            retry: eager_retry(2),
            journal: Some(path.clone()),
            ..RunOptions::default()
        });
        let script = Scripted::new(vec![
            Err(CellError::Timeout { budget_ms: 5 }),
            Err(crashed(1)),
            Err(crashed(2)),
            Ok(canned()),
        ]);
        harness.attach(script.clone());
        let workloads = &suite(SuiteKind::Client, Scale::quick())[..1];
        let base = &configs()[..1];

        // A timeout is terminal: one attempt, no retry.
        let first = harness.run_matrix(workloads, LEN, base);
        assert_eq!(first[0].error, Some(CellError::Timeout { budget_ms: 5 }));
        let st = harness.stats();
        assert_eq!(
            (st.cell_timeouts, st.cells_failed, st.cell_retries),
            (1, 1, 0),
            "{st:?}"
        );

        // Not cached: the next request computes again, and exhausts its
        // two attempts on crashes.
        let second = harness.run_matrix(workloads, LEN, base);
        assert_eq!(second[0].error, Some(crashed(2)));
        let st = harness.stats();
        assert_eq!(
            (st.cell_timeouts, st.cells_failed, st.cell_retries),
            (1, 2, 1),
            "{st:?}"
        );
        assert_eq!(*lock(&script.attempts), vec![1, 1, 2]);
        assert!(journal::read_entries(&path).unwrap().entries.is_empty());

        // Still not cached: the third request succeeds and is journaled.
        let third = harness.run_matrix(workloads, LEN, base);
        assert_eq!(third[0].stats, canned());
        assert_eq!(harness.stats().cells_simulated, 1);
        drop(harness);
        assert_eq!(journal::read_entries(&path).unwrap().entries.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_labels_batch_once_and_hit_for_the_rest() {
        let harness = Harness::new();
        let workloads = suite(SuiteKind::Client, Scale::quick());
        let dup = vec![
            ("a".to_string(), FrontendConfig::default()),
            (
                "b".to_string(),
                FrontendConfig::default().with_prefetcher(PrefetcherKind::fdip()),
            ),
            ("a-again".to_string(), FrontendConfig::default()),
        ];
        let results = harness.run_matrix(&workloads, LEN, &dup);
        let st = harness.stats();
        // Two distinct fingerprints batch; the relabeled duplicate is an
        // ordinary cache hit, exactly as it is on the solo path.
        assert_eq!(st.cells_batched, 2, "{st:?}");
        assert_eq!(st.cells_simulated, 2, "{st:?}");
        assert_eq!(st.cell_hits, 1, "{st:?}");
        assert_eq!(
            results.try_cell("client-1", "a").unwrap().stats,
            results.try_cell("client-1", "a-again").unwrap().stats
        );
    }
}
