//! The harness's fault model: the cell error taxonomy, the retry policy,
//! and deterministic fault injection.
//!
//! A long `exp_all` run evaluates thousands of cells; one panicking or
//! hanging cell must degrade that run, not destroy it. This module defines
//! what a degraded cell looks like ([`CellError`]), how hard the harness
//! tries before giving up ([`RetryPolicy`]), and how every one of those
//! paths is exercised deterministically in tests and CI ([`FaultPlan`]).
//!
//! Injection is coordinate-addressed: a fault fires when the harness
//! *computes* the cell whose `(workload, config-label)` pair matches a
//! site in the plan. Because the cell cache is content-keyed, a cell that
//! is already cached never computes and therefore never faults — same
//! property as the cache itself, so a plan is reproducible run to run.

use std::sync::Mutex;
use std::time::Duration;

use fdip_types::{Json, ToJson};

use crate::exec::{Injected, Reach};
use crate::ipc::WorkerFault;
use crate::net::NetFault;

/// Why one cell of a matrix failed to produce statistics.
///
/// Carried in [`RunResult`](crate::runner::RunResult) and surfaced as
/// `FAILED(...)` table markers, structured JSON error bodies in
/// `fdip-serve`, and [`MatrixResults::try_cell`]
/// (crate::harness::MatrixResults::try_cell) errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellError {
    /// The `(workload, config)` pair was not part of the matrix at all.
    Missing {
        /// Requested workload name.
        workload: String,
        /// Requested config label.
        config: String,
    },
    /// The cell's worker panicked on every attempt.
    Panic {
        /// The panic payload (or a placeholder for non-string payloads).
        message: String,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The cell exceeded its wall-clock budget and was cancelled.
    /// Deliberately not retried: a timed-out cell would almost certainly
    /// time out again and double the damage.
    Timeout {
        /// The configured per-cell budget, in milliseconds.
        budget_ms: u64,
    },
    /// A transient failure (injected, or a recoverable decode error)
    /// persisted through every retry.
    Transient {
        /// Failure description.
        message: String,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The worker *process* computing the cell died — abort, stack
    /// overflow, OOM kill, or an unresponsive worker the supervisor had
    /// to SIGKILL. Only produced under `--isolate`; in-process execution
    /// cannot survive these to report them.
    Crashed {
        /// The signal that terminated the worker (`Some(6)` for SIGABRT,
        /// `Some(9)` for SIGKILL, …), when it died to one.
        signal: Option<i32>,
        /// The worker's exit code, when it exited on its own.
        code: Option<i32>,
        /// Attempts made before giving up.
        attempts: u32,
    },
}

impl CellError {
    /// Short machine-readable discriminant (the JSON `kind` field).
    pub fn kind(&self) -> &'static str {
        match self {
            CellError::Missing { .. } => "missing",
            CellError::Panic { .. } => "panic",
            CellError::Timeout { .. } => "timeout",
            CellError::Transient { .. } => "transient",
            CellError::Crashed { .. } => "crashed",
        }
    }

    /// Whether the harness retries this failure class. Panics, transient
    /// errors, and worker crashes may be one-off (a crash can be an OOM
    /// kill under momentary pressure, or collateral from a recycled
    /// worker); timeouts and missing cells are structural and retrying
    /// them only burns the budget again.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            CellError::Panic { .. } | CellError::Transient { .. } | CellError::Crashed { .. }
        )
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Missing { workload, config } => {
                write!(f, "missing cell ({workload}, {config})")
            }
            CellError::Panic { message, attempts } => {
                write!(f, "panicked after {attempts} attempt(s): {message}")
            }
            CellError::Timeout { budget_ms } => {
                write!(f, "exceeded the {budget_ms}ms cell budget")
            }
            CellError::Transient { message, attempts } => {
                write!(f, "failed after {attempts} attempt(s): {message}")
            }
            CellError::Crashed {
                signal,
                code,
                attempts,
            } => match (signal, code) {
                (Some(sig), _) => {
                    write!(
                        f,
                        "worker killed by signal {sig} after {attempts} attempt(s)"
                    )
                }
                (None, Some(code)) => {
                    write!(
                        f,
                        "worker exited with code {code} after {attempts} attempt(s)"
                    )
                }
                (None, None) => write!(
                    f,
                    "worker stopped responding and was killed after {attempts} attempt(s)"
                ),
            },
        }
    }
}

impl std::error::Error for CellError {}

impl ToJson for CellError {
    fn to_json(&self) -> Json {
        let mut pairs = vec![("kind", Json::str(self.kind()))];
        match self {
            CellError::Missing { workload, config } => {
                pairs.push(("workload", Json::str(workload)));
                pairs.push(("config", Json::str(config)));
            }
            CellError::Panic { message, attempts } | CellError::Transient { message, attempts } => {
                pairs.push(("message", Json::str(message)));
                pairs.push(("attempts", Json::uint(u64::from(*attempts))));
            }
            CellError::Timeout { budget_ms } => {
                pairs.push(("budget_ms", Json::uint(*budget_ms)));
            }
            CellError::Crashed {
                signal,
                code,
                attempts,
            } => {
                if let Some(sig) = signal {
                    pairs.push(("signal", Json::uint(u64::from(sig.unsigned_abs()))));
                }
                if let Some(code) = code {
                    pairs.push(("code", Json::uint(u64::from(code.unsigned_abs()))));
                }
                pairs.push(("attempts", Json::uint(u64::from(*attempts))));
            }
        }
        Json::obj(pairs)
    }
}

/// How hard the harness works on one cell before declaring it failed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per cell request (first try included). At least 1.
    pub max_attempts: u32,
    /// Base backoff before a retry; attempt `n` waits roughly
    /// `backoff * 2^(n-2)` plus deterministic jitter, capped at 2 seconds.
    pub backoff: Duration,
    /// Wall-clock budget per attempt; an attempt past it is cancelled
    /// cooperatively and reported as [`CellError::Timeout`]. `None`
    /// disables the watchdog.
    pub cell_budget: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(25),
            cell_budget: None,
        }
    }
}

impl RetryPolicy {
    /// The delay to sleep before attempt `attempt` (2-based: the first
    /// retry). Exponential in the attempt number with deterministic jitter
    /// derived from `jitter_key` (the cell's content hash plus the plan
    /// seed), so two harnesses replaying the same faults back off
    /// identically without thundering in lockstep across cells.
    pub fn backoff_before(&self, attempt: u32, jitter_key: u64) -> Duration {
        const CAP: Duration = Duration::from_secs(2);
        let doublings = attempt.saturating_sub(2).min(6);
        let base = self.backoff.saturating_mul(1 << doublings);
        let jitter_range = self.backoff.as_nanos().clamp(1, u64::MAX as u128) as u64;
        let jitter = splitmix64(jitter_key ^ u64::from(attempt)) % jitter_range;
        (base + Duration::from_nanos(jitter)).min(CAP)
    }
}

/// SplitMix64: the workspace's standard seed scrambler (the in-tree `rand`
/// shim uses it the same way). Deterministic, stateless, good avalanche.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over a string, for content-keyed jitter.
pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// What an armed fault site does to the attempt that trips it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic inside the worker (exercises `catch_unwind` isolation).
    Panic,
    /// Fail the attempt with a transient, retryable error.
    Transient,
    /// Fail the attempt as a trace-decode error (also retryable).
    TraceDecode,
    /// Sleep this long before simulating (exercises the watchdog).
    Slow(Duration),
    /// `std::process::abort()` in the worker process — uncatchable by
    /// `catch_unwind`, so only meaningful under `--isolate`.
    Abort,
    /// Busy-loop forever without ever polling the `CancelToken` — the
    /// runaway cell cooperative cancellation cannot preempt. Only the
    /// supervisor's hard wall-clock SIGKILL ends it.
    Hang,
    /// Attempt an allocation larger than the address space, driving the
    /// allocator into `handle_alloc_error` → abort (a deterministic
    /// stand-in for an OOM kill). Isolation-only.
    BigAlloc,
    /// Sever the fleet connection instead of dispatching — a node dying
    /// the instant it was picked. Fleet-only.
    NetDrop,
    /// Dispatch over the fleet, then go deaf: heartbeats and the reply
    /// never arrive, exercising the heartbeat-loss recovery path.
    /// Fleet-only.
    NetPartition,
    /// Delay the fleet dispatch by this long — a congested link.
    /// Fleet-only.
    NetSlowlink(Duration),
    /// Replace the fleet request with a truncated garbage frame, so the
    /// remote end must reject it and the dialer must re-dispatch.
    /// Fleet-only.
    NetTruncFrame,
}

/// Classifies a fired fault, once per attempt, into the three kinds the
/// harness realises differently:
///
/// * **logical** (`transient`, `trace`) — returned as the `Err` that
///   fails the attempt before anything is dispatched;
/// * **worker** (`panic`, `slow`, `abort`, `hang`, `bigalloc`) — realised
///   inside whatever process simulates the cell;
/// * **network** (`drop`, `partition`, `slowlink`, `truncframe`) —
///   realised at the fleet transport.
///
/// # Errors
///
/// The logical fault's [`CellError::Transient`], naming the cell site.
pub(crate) fn classify(
    action: FaultAction,
    workload: &str,
    label: &str,
    attempt: u32,
) -> Result<Injected, CellError> {
    let millis = |d: Duration| u64::try_from(d.as_millis()).unwrap_or(u64::MAX);
    Ok(match action {
        FaultAction::Transient => {
            return Err(CellError::Transient {
                message: format!("injected fault: transient failure at ({workload}, {label})"),
                attempts: attempt,
            })
        }
        FaultAction::TraceDecode => {
            return Err(CellError::Transient {
                message: format!("injected fault: trace decode failed for {workload}"),
                attempts: attempt,
            })
        }
        FaultAction::Panic => Injected::Worker(WorkerFault::Panic),
        FaultAction::Slow(delay) => Injected::Worker(WorkerFault::Slow(millis(delay))),
        FaultAction::Abort => Injected::Worker(WorkerFault::Abort),
        FaultAction::Hang => Injected::Worker(WorkerFault::Hang),
        FaultAction::BigAlloc => Injected::Worker(WorkerFault::BigAlloc),
        FaultAction::NetDrop => Injected::Net(NetFault::Drop),
        FaultAction::NetPartition => Injected::Net(NetFault::Partition),
        FaultAction::NetSlowlink(delay) => Injected::Net(NetFault::Slowlink(delay)),
        FaultAction::NetTruncFrame => Injected::Net(NetFault::TruncFrame),
    })
}

/// What kind of fault a site injects, and how many times.
#[derive(Clone, Debug, PartialEq, Eq)]
enum FaultKind {
    /// Panic; `times: None` panics on every attempt (a permanent failure).
    Panic { times: Option<u32> },
    /// Fail the first `times` attempts, then succeed.
    Transient { times: u32 },
    /// Trace-decode failure for the first `times` attempts.
    TraceDecode { times: u32 },
    /// Sleep `ms` before simulating, every attempt.
    Slow { ms: u64 },
    /// Abort the worker process; `times: None` aborts every attempt.
    Abort { times: Option<u32> },
    /// Spin forever (never polls cancellation), every attempt.
    Hang,
    /// Abort via an impossible allocation; `times: None` = every attempt.
    BigAlloc { times: Option<u32> },
    /// Sever the fleet connection for the first `times` attempts.
    Drop { times: u32 },
    /// Partition (dispatch then silence) for the first `times` attempts.
    Partition { times: u32 },
    /// Delay every fleet dispatch by `ms`.
    Slowlink { ms: u64 },
    /// Corrupt the request frame for the first `times` attempts.
    TruncFrame { times: u32 },
}

impl FaultKind {
    /// The nearest execution reach that can realise this kind.
    fn needs(&self) -> Reach {
        match self {
            FaultKind::Abort { .. } | FaultKind::Hang | FaultKind::BigAlloc { .. } => {
                Reach::Process
            }
            FaultKind::Drop { .. }
            | FaultKind::Partition { .. }
            | FaultKind::Slowlink { .. }
            | FaultKind::TruncFrame { .. } => Reach::Fleet,
            _ => Reach::InProcess,
        }
    }
}

/// One coordinate-addressed injection site.
#[derive(Clone, Debug, PartialEq, Eq)]
struct FaultSite {
    /// Workload name to match, or `*` for any.
    workload: String,
    /// Config label to match, or `*` for any.
    config: String,
    kind: FaultKind,
}

impl FaultSite {
    fn matches(&self, workload: &str, config: &str) -> bool {
        (self.workload == "*" || self.workload == workload)
            && (self.config == "*" || self.config == config)
    }
}

/// A deterministic set of faults to inject at chosen
/// `(workload, config-label)` coordinates.
///
/// Built from a compact spec (CLI `--faults`, env `FDIP_FAULTS`):
///
/// ```text
/// spec  := item (',' item)*
/// item  := 'seed=' N
///        | 'panic@' W '/' C [':' TIMES]     TIMES omitted = every attempt
///        | 'transient@' W '/' C [':' TIMES] default 1
///        | 'trace@' W '/' C [':' TIMES]     default 1
///        | 'slow@' W '/' C ':' MILLIS
///        | 'abort@' W '/' C [':' TIMES]     isolation-only; default every
///        | 'hang@' W '/' C                  isolation-only
///        | 'bigalloc@' W '/' C [':' TIMES]  isolation-only; default every
///        | 'drop@' W '/' C [':' TIMES]      fleet-only; default 1
///        | 'partition@' W '/' C [':' TIMES] fleet-only; default 1
///        | 'slowlink@' W '/' C ':' MILLIS   fleet-only
///        | 'truncframe@' W '/' C [':' TIMES] fleet-only; default 1
/// W, C  := workload name / config label, or '*'
/// ```
///
/// The `abort`/`hang`/`bigalloc` kinds crash or wedge the *process*
/// computing the cell, so they are accepted only when cells execute in
/// supervised worker processes (`--isolate`).
///
/// The `drop`/`partition`/`slowlink`/`truncframe` kinds inject at the
/// fleet transport (severed connections, silent peers, slow links,
/// corrupt frames) and are accepted only under `--fleet`. They default to firing
/// *once* so a drilled run converges: the re-dispatch must succeed and
/// the output must match a fault-free run.
///
/// `panic@server-1/fdip,transient@client-1/base:2,slow@*/nlp:500` panics
/// the `(server-1, fdip)` cell permanently, fails `(client-1, base)`
/// twice before letting it succeed, and delays every `nlp` cell by half a
/// second. Each site counts its own firings under a lock, so a plan is
/// deterministic regardless of worker-thread interleaving.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    sites: Vec<FaultSite>,
    fired: Mutex<Vec<u32>>,
}

impl FaultPlan {
    /// Parses a fault spec (grammar in the type docs).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first malformed item.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            if let Some(seed) = item.strip_prefix("seed=") {
                plan.seed = seed
                    .parse()
                    .map_err(|_| format!("bad fault seed {seed:?}"))?;
                continue;
            }
            let (kind, coords) = item
                .split_once('@')
                .ok_or_else(|| format!("fault item {item:?} is missing '@'"))?;
            let (coords, arg) = match coords.split_once(':') {
                Some((c, a)) => (c, Some(a)),
                None => (coords, None),
            };
            let (workload, config) = coords
                .split_once('/')
                .ok_or_else(|| format!("fault coordinates {coords:?} must be workload/config"))?;
            if workload.is_empty() || config.is_empty() {
                return Err(format!("empty coordinate in {item:?}"));
            }
            let parse_times = |what: &str| -> Result<Option<u32>, String> {
                match arg {
                    None => Ok(None),
                    Some(raw) => raw
                        .parse::<u32>()
                        .map(Some)
                        .map_err(|_| format!("bad {what} count {raw:?} in {item:?}")),
                }
            };
            let kind = match kind {
                "panic" => FaultKind::Panic {
                    times: parse_times("panic")?,
                },
                "transient" => FaultKind::Transient {
                    times: parse_times("transient")?.unwrap_or(1),
                },
                "trace" => FaultKind::TraceDecode {
                    times: parse_times("trace")?.unwrap_or(1),
                },
                "slow" => FaultKind::Slow {
                    ms: arg
                        .ok_or_else(|| format!("slow fault {item:?} needs ':MILLIS'"))?
                        .parse()
                        .map_err(|_| format!("bad slow millis in {item:?}"))?,
                },
                "abort" => FaultKind::Abort {
                    times: parse_times("abort")?,
                },
                "hang" => {
                    if arg.is_some() {
                        return Err(format!("hang fault {item:?} takes no ':ARG'"));
                    }
                    FaultKind::Hang
                }
                "bigalloc" => FaultKind::BigAlloc {
                    times: parse_times("bigalloc")?,
                },
                "drop" => FaultKind::Drop {
                    times: parse_times("drop")?.unwrap_or(1),
                },
                "partition" => FaultKind::Partition {
                    times: parse_times("partition")?.unwrap_or(1),
                },
                "slowlink" => FaultKind::Slowlink {
                    ms: arg
                        .ok_or_else(|| format!("slowlink fault {item:?} needs ':MILLIS'"))?
                        .parse()
                        .map_err(|_| format!("bad slowlink millis in {item:?}"))?,
                },
                "truncframe" => FaultKind::TruncFrame {
                    times: parse_times("truncframe")?.unwrap_or(1),
                },
                other => {
                    return Err(format!(
                        "unknown fault kind {other:?} \
                         (panic|transient|trace|slow|abort|hang|bigalloc\
                         |drop|partition|slowlink|truncframe)"
                    ))
                }
            };
            plan.sites.push(FaultSite {
                workload: workload.to_string(),
                config: config.to_string(),
                kind,
            });
        }
        plan.fired = Mutex::new(vec![0; plan.sites.len()]);
        Ok(plan)
    }

    /// Reads a plan from the `FDIP_FAULTS` environment variable.
    ///
    /// # Errors
    ///
    /// As [`parse`](Self::parse); an unset variable is `Ok(None)`.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var("FDIP_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => FaultPlan::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }

    /// The plan's jitter seed (`seed=` item; 0 by default).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Number of injection sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// The nearest execution reach that can realise every site: a
    /// process-lethal fault (`abort`, `hang`, `bigalloc`) needs worker
    /// isolation, a network fault (`drop`, `partition`, `slowlink`,
    /// `truncframe`) needs fleet dispatch.
    pub(crate) fn needs(&self) -> Reach {
        self.sites
            .iter()
            .map(|s| s.kind.needs())
            .max()
            .unwrap_or(Reach::InProcess)
    }

    /// Arms the next fault for one compute attempt at
    /// `(workload, config)`, consuming a shot from the first matching site
    /// that still has any. At most one action fires per attempt.
    pub fn fire(&self, workload: &str, config: &str) -> Option<FaultAction> {
        let mut fired = self
            .fired
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (i, site) in self.sites.iter().enumerate() {
            if !site.matches(workload, config) {
                continue;
            }
            let (limit, action) = match &site.kind {
                FaultKind::Panic { times } => (*times, FaultAction::Panic),
                FaultKind::Transient { times } => (Some(*times), FaultAction::Transient),
                FaultKind::TraceDecode { times } => (Some(*times), FaultAction::TraceDecode),
                FaultKind::Slow { ms } => (None, FaultAction::Slow(Duration::from_millis(*ms))),
                FaultKind::Abort { times } => (*times, FaultAction::Abort),
                FaultKind::Hang => (None, FaultAction::Hang),
                FaultKind::BigAlloc { times } => (*times, FaultAction::BigAlloc),
                FaultKind::Drop { times } => (Some(*times), FaultAction::NetDrop),
                FaultKind::Partition { times } => (Some(*times), FaultAction::NetPartition),
                FaultKind::Slowlink { ms } => {
                    (None, FaultAction::NetSlowlink(Duration::from_millis(*ms)))
                }
                FaultKind::TruncFrame { times } => (Some(*times), FaultAction::NetTruncFrame),
            };
            if limit.is_some_and(|n| fired[i] >= n) {
                continue;
            }
            fired[i] += 1;
            return Some(action);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reach an executor needs to realise `action`; `None` for the
    /// logical kinds, which never leave the harness.
    fn needs(action: FaultAction) -> Option<Reach> {
        classify(action, "w", "c", 1)
            .ok()
            .map(|fault| fault.needs())
    }

    #[test]
    fn parse_full_grammar() {
        let plan = FaultPlan::parse(
            "seed=7, panic@server-1/fdip, transient@client-1/base:2, trace@*/base, slow@w/c:500",
        )
        .unwrap();
        assert_eq!(plan.seed(), 7);
        assert_eq!(plan.site_count(), 4);
        assert!(!plan.is_empty());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_malformed_items() {
        for bad in [
            "panic",
            "panic@w",
            "panic@/c",
            "panic@w/",
            "warp@w/c",
            "slow@w/c",
            "slow@w/c:fast",
            "transient@w/c:-1",
            "seed=abc",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn sites_consume_shots_in_order() {
        let plan = FaultPlan::parse("transient@w/c:2").unwrap();
        assert_eq!(plan.fire("w", "c"), Some(FaultAction::Transient));
        assert_eq!(plan.fire("w", "c"), Some(FaultAction::Transient));
        assert_eq!(plan.fire("w", "c"), None);
        assert_eq!(plan.fire("other", "c"), None);
    }

    #[test]
    fn bare_panic_fires_forever_and_wildcards_match() {
        let plan = FaultPlan::parse("panic@*/fdip").unwrap();
        for _ in 0..10 {
            assert_eq!(plan.fire("anything", "fdip"), Some(FaultAction::Panic));
        }
        assert_eq!(plan.fire("anything", "base"), None);
    }

    #[test]
    fn bounded_panic_recovers() {
        let plan = FaultPlan::parse("panic@w/c:1").unwrap();
        assert_eq!(plan.fire("w", "c"), Some(FaultAction::Panic));
        assert_eq!(plan.fire("w", "c"), None);
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let p = RetryPolicy::default();
        let a = p.backoff_before(2, 42);
        let b = p.backoff_before(2, 42);
        assert_eq!(a, b);
        // Exponential envelope: attempt 4 waits at least twice attempt 2's
        // base component.
        assert!(p.backoff_before(4, 42) >= p.backoff, "{:?}", p.backoff);
        // Never beyond the cap even for absurd attempt numbers.
        assert!(p.backoff_before(40, 42) <= Duration::from_secs(2));
        // Jitter varies with the key.
        assert_ne!(p.backoff_before(2, 1), p.backoff_before(2, 2));
    }

    #[test]
    fn cell_error_display_kind_and_json() {
        let e = CellError::Transient {
            message: "flaky".into(),
            attempts: 3,
        };
        assert!(e.retryable());
        assert_eq!(e.kind(), "transient");
        assert!(e.to_string().contains("3 attempt(s)"));
        let json = e.to_json().to_string();
        assert!(json.contains(r#""kind":"transient""#), "{json}");
        assert!(json.contains(r#""attempts":3"#), "{json}");

        let t = CellError::Timeout { budget_ms: 500 };
        assert!(!t.retryable());
        assert!(t.to_json().to_string().contains(r#""budget_ms":500"#));

        let m = CellError::Missing {
            workload: "w".into(),
            config: "c".into(),
        };
        assert!(!m.retryable());
        assert!(m.to_string().contains("missing cell (w, c)"));
    }

    #[test]
    fn isolation_only_kinds_parse_and_are_flagged() {
        let plan = FaultPlan::parse("abort@w/c,hang@*/c,bigalloc@w/*:2").unwrap();
        assert_eq!(plan.site_count(), 3);
        assert_eq!(plan.needs(), Reach::Process);
        assert_eq!(plan.fire("w", "c"), Some(FaultAction::Abort));
        assert_eq!(plan.fire("x", "c"), Some(FaultAction::Hang));
        assert_eq!(plan.fire("w", "z"), Some(FaultAction::BigAlloc));
        assert_eq!(plan.fire("w", "z"), Some(FaultAction::BigAlloc));
        assert_eq!(plan.fire("w", "z"), None);
        for action in [FaultAction::Abort, FaultAction::Hang, FaultAction::BigAlloc] {
            assert_eq!(needs(action), Some(Reach::Process));
        }
        assert_eq!(needs(FaultAction::Panic), Some(Reach::InProcess));

        let tame = FaultPlan::parse("panic@w/c,slow@w/c:5").unwrap();
        assert_eq!(tame.needs(), Reach::InProcess);

        assert!(FaultPlan::parse("hang@w/c:3").is_err());
        assert!(FaultPlan::parse("abort@w/c:soon").is_err());
    }

    #[test]
    fn fleet_only_kinds_parse_and_are_flagged() {
        let plan =
            FaultPlan::parse("drop@w/c,partition@*/c:2,slowlink@w/c:50,truncframe@w/*").unwrap();
        assert_eq!(plan.site_count(), 4);
        assert_eq!(plan.needs(), Reach::Fleet);
        // Network shots default to once (drills must converge on retry).
        assert_eq!(plan.fire("w", "c"), Some(FaultAction::NetDrop));
        assert_eq!(plan.fire("x", "c"), Some(FaultAction::NetPartition));
        assert_eq!(plan.fire("x", "c"), Some(FaultAction::NetPartition));
        assert_eq!(plan.fire("x", "c"), None);
        assert_eq!(
            plan.fire("w", "z"),
            Some(FaultAction::NetTruncFrame),
            "truncframe wildcard"
        );
        assert_eq!(plan.fire("w", "z"), None);
        // Slowlink fires every attempt, like slow.
        let slow = FaultPlan::parse("slowlink@w/c:50").unwrap();
        for _ in 0..3 {
            assert_eq!(
                slow.fire("w", "c"),
                Some(FaultAction::NetSlowlink(Duration::from_millis(50)))
            );
        }
        for action in [
            FaultAction::NetDrop,
            FaultAction::NetPartition,
            FaultAction::NetSlowlink(Duration::from_millis(1)),
            FaultAction::NetTruncFrame,
        ] {
            assert_eq!(needs(action), Some(Reach::Fleet));
        }
        assert_eq!(
            FaultPlan::parse("abort@w/c,panic@w/c").unwrap().needs(),
            Reach::Process
        );

        assert!(FaultPlan::parse("slowlink@w/c").is_err());
        assert!(FaultPlan::parse("slowlink@w/c:fast").is_err());
        assert!(FaultPlan::parse("drop@w/c:many").is_err());
    }

    #[test]
    fn crashed_error_display_kind_and_json() {
        let sig = CellError::Crashed {
            signal: Some(9),
            code: None,
            attempts: 1,
        };
        assert_eq!(sig.kind(), "crashed");
        assert!(sig.retryable());
        assert!(sig.to_string().contains("signal 9"), "{sig}");
        let json = sig.to_json().to_string();
        assert!(json.contains(r#""kind":"crashed""#), "{json}");
        assert!(json.contains(r#""signal":9"#), "{json}");
        assert!(!json.contains(r#""code""#), "{json}");

        let exited = CellError::Crashed {
            signal: None,
            code: Some(2),
            attempts: 3,
        };
        assert!(exited.to_string().contains("code 2"), "{exited}");
        assert!(exited.to_json().to_string().contains(r#""code":2"#));

        let lost = CellError::Crashed {
            signal: None,
            code: None,
            attempts: 1,
        };
        assert!(lost.to_string().contains("stopped responding"), "{lost}");
    }

    #[test]
    fn from_env_roundtrip() {
        // Avoid mutating the process environment (other tests run in
        // parallel); just cover the unset branch plus parse directly.
        if std::env::var("FDIP_FAULTS").is_err() {
            assert!(FaultPlan::from_env().unwrap().is_none());
        }
    }
}
