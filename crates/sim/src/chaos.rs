//! The deterministic chaos soak: sustained-failure drills for the
//! self-healing fleet.
//!
//! A soak runs N seeded rounds of real experiments against a live
//! two-daemon fleet with the shared result cache attached, while a
//! schedule derived from the seed kills and restarts a daemon mid-round,
//! injects network faults (`partition`/`slowlink`/`truncframe`/`drop`),
//! and rots cache entries between rounds. The invariants it checks are
//! the repo's core robustness story:
//!
//! * **Byte identity** — every round's rendered output must equal the
//!   fault-free baseline, byte for byte. The simulator is deterministic
//!   and cells are content-addressed, so no amount of node loss,
//!   re-dispatch, or cache corruption may change a digit.
//! * **Bounded re-simulation** — once round 0 has populated the cache,
//!   later rounds may simulate at most the entries the schedule
//!   corrupted; everything else must be served from the cache.
//! * **Convergence** — across the soak, the fleet must actually lose a
//!   node (the schedule guarantees in-flight cells on the victim) and
//!   readmit it through the backoff reprobe, booking MTTR.
//!
//! Daemons are this same binary, self-exec'd via
//! [`crate::worker::WORKERD_LISTEN_ENV`], so the soak is a single
//! process tree with no CLI dependency — `fdip chaos` and `chaos_bench`
//! are thin frontends over [`run_chaos`].

use std::io::{self, BufRead};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fdip_types::Json;

use crate::fault::{splitmix64, FaultPlan, RetryPolicy};
use crate::fleet::FleetConfig;
use crate::harness::{Harness, HarnessStats, Opened};
use crate::options::{Dispatch, RunOptions};
use crate::{experiments, Scale};

/// Version of the persisted `results/BENCH_chaos.json` layout.
pub const CHAOS_SCHEMA_VERSION: u64 = 2;

/// How a soak is shaped. All randomness is derived from `seed` via
/// splitmix64, so two soaks with the same config are the same soak.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Rounds to run (each: fresh harness, live fleet, shared cache).
    pub rounds: usize,
    /// Master seed for the kill/fault/corruption schedule.
    pub seed: u64,
    /// Experiment ids each round runs, in order (quick scale).
    pub experiments: Vec<String>,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            rounds: 5,
            seed: 1999,
            experiments: vec!["e01".to_string()],
        }
    }
}

/// What one round did and saw.
#[derive(Clone, Debug)]
pub struct ChaosRound {
    /// Round number (0-based; round 0 populates the cache cold).
    pub round: usize,
    /// The fault plan injected this round.
    pub fault_plan: String,
    /// Distinct cache entries rotted before the round (0 for round 0).
    pub corrupted: usize,
    /// Corrupt entries the attach-time scan found (and quarantined).
    pub scan_corrupt: usize,
    /// Whether the rendered output matched the fault-free baseline.
    pub byte_identical: bool,
    /// Wall-clock time for the round.
    pub wall_ms: u64,
    /// Full harness counters at round end.
    pub stats: HarnessStats,
    /// Milliseconds of node downtime recovered this round (MTTR input).
    pub downtime_ms: u64,
}

impl ChaosRound {
    fn to_json(&self) -> Json {
        Json::obj([
            ("round", Json::uint(self.round as u64)),
            ("fault_plan", Json::str(self.fault_plan.as_str())),
            ("corrupted", Json::uint(self.corrupted as u64)),
            ("scan_corrupt", Json::uint(self.scan_corrupt as u64)),
            ("byte_identical", Json::Bool(self.byte_identical)),
            ("wall_ms", Json::uint(self.wall_ms)),
            ("cells_simulated", Json::uint(self.stats.cells_simulated)),
            ("cells_failed", Json::uint(self.stats.cells_failed)),
            (
                "remote_cache_hits",
                Json::uint(self.stats.remote_cache_hits),
            ),
            ("node_losses", Json::uint(self.stats.node_losses)),
            (
                "node_readmissions",
                Json::uint(self.stats.node_readmissions),
            ),
            (
                "cells_redispatched",
                Json::uint(self.stats.cells_redispatched),
            ),
            ("downtime_ms", Json::uint(self.downtime_ms)),
        ])
    }
}

/// The whole soak: per-round records plus the gate verdict.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The master seed the schedule was derived from.
    pub seed: u64,
    /// Per-round records, in order.
    pub rounds: Vec<ChaosRound>,
    /// Gate violations, empty when the soak passed.
    pub failures: Vec<String>,
}

impl ChaosReport {
    /// Whether every gate held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Sum of a per-round counter.
    fn total(&self, field: impl Fn(&ChaosRound) -> u64) -> u64 {
        self.rounds.iter().map(field).sum()
    }

    /// Mean time to recovery across all readmissions, in milliseconds.
    pub fn mttr_ms(&self) -> f64 {
        let readmissions = self.total(|r| r.stats.node_readmissions);
        if readmissions == 0 {
            return 0.0;
        }
        self.total(|r| r.downtime_ms) as f64 / readmissions as f64
    }

    /// The versioned `results/BENCH_chaos.json` document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::uint(CHAOS_SCHEMA_VERSION)),
            ("bench", Json::str("chaos")),
            ("seed", Json::uint(self.seed)),
            (
                "rounds",
                Json::arr(self.rounds.iter().map(ChaosRound::to_json)),
            ),
            (
                "aggregate",
                Json::obj([
                    ("rounds", Json::uint(self.rounds.len() as u64)),
                    (
                        "byte_identical_rounds",
                        Json::uint(self.rounds.iter().filter(|r| r.byte_identical).count() as u64),
                    ),
                    (
                        "node_losses",
                        Json::uint(self.total(|r| r.stats.node_losses)),
                    ),
                    (
                        "node_readmissions",
                        Json::uint(self.total(|r| r.stats.node_readmissions)),
                    ),
                    (
                        "cells_redispatched",
                        Json::uint(self.total(|r| r.stats.cells_redispatched)),
                    ),
                    ("mttr_ms", Json::num(self.mttr_ms())),
                ]),
            ),
            ("passed", Json::Bool(self.passed())),
            (
                "failures",
                Json::arr(self.failures.iter().map(|f| Json::str(f.as_str()))),
            ),
        ])
    }

    /// Human-readable soak summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "chaos soak: seed {} · {} round(s)\n",
            self.seed,
            self.rounds.len()
        ));
        out.push_str("round  identical  sim  hit  loss  readmit  redisp  wall_ms  faults\n");
        for r in &self.rounds {
            out.push_str(&format!(
                "{:>5}  {:>9}  {:>3}  {:>3}  {:>4}  {:>7}  {:>6}  {:>7}  {}\n",
                r.round,
                if r.byte_identical { "yes" } else { "NO" },
                r.stats.cells_simulated,
                r.stats.remote_cache_hits,
                r.stats.node_losses,
                r.stats.node_readmissions,
                r.stats.cells_redispatched,
                r.wall_ms,
                r.fault_plan,
            ));
        }
        out.push_str(&format!(
            "aggregate: {} loss(es), {} readmission(s), mean MTTR {:.0}ms\n",
            self.total(|r| r.stats.node_losses),
            self.total(|r| r.stats.node_readmissions),
            self.mttr_ms(),
        ));
        if self.passed() {
            out.push_str("chaos soak PASSED: every gate held\n");
        } else {
            for f in &self.failures {
                out.push_str(&format!("CHECK FAILED: {f}\n"));
            }
        }
        out
    }
}

/// One self-exec'd worker daemon under soak management.
struct ChaosDaemon {
    child: Child,
    addr: String,
}

impl ChaosDaemon {
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Self-execs the current binary as a workerd listening on `listen`
/// (`127.0.0.1:0` for an ephemeral port; a concrete `host:port` to
/// restart a killed daemon in place) and parses the banner for the bound
/// address.
fn spawn_daemon(listen: &str, slots: usize) -> io::Result<ChaosDaemon> {
    let exe = std::env::current_exe()?;
    let mut child = Command::new(exe)
        .env(crate::worker::WORKERD_LISTEN_ENV, listen)
        .env(crate::worker::WORKERD_SLOTS_ENV, slots.to_string())
        .env_remove(crate::worker::WORKER_ENV)
        .env_remove("FDIP_FAULTS")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut reader = io::BufReader::new(stdout);
    let mut banner = String::new();
    reader.read_line(&mut banner)?;
    let addr = banner
        .strip_prefix("fdip-workerd listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .map(str::to_string);
    let Some(addr) = addr else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected workerd banner: {banner:?}"),
        ));
    };
    // Keep the daemon's stdout drained so it can never block on the pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        loop {
            sink.clear();
            match reader.read_line(&mut sink) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
        }
    });
    Ok(ChaosDaemon { child, addr })
}

/// Restart with patience: the port was just vacated by a SIGKILL and the
/// OS may briefly refuse the rebind.
fn respawn_daemon(addr: &str, slots: usize) -> io::Result<ChaosDaemon> {
    let mut last = None;
    for _ in 0..40 {
        match spawn_daemon(addr, slots) {
            Ok(daemon) => return Ok(daemon),
            Err(err) => {
                last = Some(err);
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("respawn failed")))
}

/// Rots up to `max` distinct cache entries (one flipped payload byte
/// each), seeded. Returns how many were actually corrupted.
fn corrupt_cache_entries(dir: &Path, seed: u64, max: usize) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut files: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("cell"))
        .collect();
    files.sort();
    if files.is_empty() {
        return 0;
    }
    let wanted = 1 + (splitmix64(seed) as usize % max.max(1));
    let mut picked = std::collections::BTreeSet::new();
    for k in 0..wanted {
        picked.insert(splitmix64(seed ^ (k as u64 + 1)) as usize % files.len());
    }
    let mut corrupted = 0;
    for index in picked {
        let path = &files[index];
        let Ok(mut bytes) = std::fs::read(path) else {
            continue;
        };
        if bytes.is_empty() {
            continue;
        }
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        if std::fs::write(path, &bytes).is_ok() {
            corrupted += 1;
        }
    }
    corrupted
}

/// Renders the fault-free, fleet-free reference output for `experiments`.
fn baseline_text(experiments_ids: &[String]) -> Result<String, String> {
    let harness = Harness::with_threads(4);
    let mut out = String::new();
    for id in experiments_ids {
        let exp = experiments::find(id).ok_or_else(|| format!("unknown experiment {id:?}"))?;
        out.push_str(&exp.run(&harness, Scale::quick()).to_text());
    }
    Ok(out)
}

/// Runs the soak. See the module docs for the invariants; the returned
/// report carries every violation in `failures` (an empty list is a
/// pass). Infrastructure failures — a daemon that cannot spawn, an
/// unknown experiment id — are errors; *chaos* failures are report
/// entries, because a soak that dies mid-drill has not measured anything.
///
/// # Errors
///
/// Only for infrastructure that never came up (daemon spawn, cache dir).
pub fn run_chaos(config: &ChaosConfig) -> io::Result<ChaosReport> {
    let baseline = baseline_text(&config.experiments)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;

    let cache_dir =
        std::env::temp_dir().join(format!("fdip-chaos-{}-{}", std::process::id(), config.seed));
    let _ = std::fs::remove_dir_all(&cache_dir);
    std::fs::create_dir_all(&cache_dir)?;

    const SLOTS: usize = 2;
    let daemons = Arc::new(Mutex::new(vec![
        spawn_daemon("127.0.0.1:0", SLOTS)?,
        spawn_daemon("127.0.0.1:0", SLOTS)?,
    ]));
    let addrs: Vec<String> = daemons
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|d| d.addr.clone())
        .collect();

    let mut rounds = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for round in 0..config.rounds {
        let round_seed = splitmix64(config.seed.wrapping_add(round as u64));

        // Between-rounds sabotage: rot cache entries so the round must
        // re-simulate exactly those cells (and no more).
        let corrupted = if round == 0 {
            0
        } else {
            corrupt_cache_entries(&cache_dir, round_seed, 2)
        };

        // Round 0 runs every cell slow (guaranteeing in-flight work on
        // both nodes when the kill lands); later rounds add one seeded
        // fleet fault on top.
        let fault_plan = if round == 0 {
            "slow@*/*:1200".to_string()
        } else {
            let kinds = [
                "partition@*/*",
                "slowlink@*/*:80",
                "truncframe@*/*",
                "drop@*/*",
            ];
            let pick = kinds[(splitmix64(round_seed ^ 0xFA) as usize) % kinds.len()];
            format!("slow@*/*:800,{pick}")
        };

        let plan = FaultPlan::parse(&fault_plan)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let Opened {
            harness,
            fleet,
            cache,
            ..
        } = Harness::open(RunOptions {
            threads: Some(4),
            retry: RetryPolicy {
                max_attempts: 4,
                backoff: Duration::from_millis(25),
                cell_budget: Some(Duration::from_secs(30)),
            },
            faults: Some(Arc::new(plan)),
            cache: Some(cache_dir.clone()),
            dispatch: Dispatch::Fleet(FleetConfig {
                addrs: addrs.clone(),
                connect_timeout: Duration::from_secs(3),
                heartbeat_timeout: Duration::from_millis(700),
                reprobe_base: Duration::from_millis(150),
            }),
            ..RunOptions::default()
        })?;
        let fleet = fleet.expect("fleet dispatch attaches a fleet");
        let scan = cache.unwrap_or_default();

        // The kill/restart schedule, deterministic per round: SIGKILL a
        // seeded victim mid-round, hold it down, restart it in place.
        let victim = (splitmix64(round_seed ^ 0x5EED) as usize) % addrs.len();
        let (kill_at, down_for) = if round == 0 {
            (Duration::from_millis(600), Duration::from_millis(450))
        } else {
            (Duration::from_millis(200), Duration::from_millis(300))
        };
        let killer = {
            let daemons = Arc::clone(&daemons);
            std::thread::spawn(move || -> Result<(), String> {
                std::thread::sleep(kill_at);
                let (addr, slots) = {
                    let mut guard = daemons
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    guard[victim].kill();
                    (guard[victim].addr.clone(), SLOTS)
                };
                std::thread::sleep(down_for);
                let restarted = respawn_daemon(&addr, slots)
                    .map_err(|e| format!("round restart of {addr} failed: {e}"))?;
                daemons
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)[victim] = restarted;
                Ok(())
            })
        };

        let started = Instant::now();
        let mut text = String::new();
        let mut run_err = None;
        for id in &config.experiments {
            match experiments::find(id) {
                Some(exp) => text.push_str(&exp.run(&harness, Scale::quick()).to_text()),
                None => run_err = Some(format!("unknown experiment {id:?}")),
            }
        }
        let wall_ms = started.elapsed().as_millis() as u64;
        if let Some(err) = run_err {
            failures.push(err);
        }
        match killer.join() {
            Ok(Ok(())) => {}
            Ok(Err(err)) => failures.push(format!("round {round}: {err}")),
            Err(_) => failures.push(format!("round {round}: kill/restart thread panicked")),
        }

        let stats = harness.stats();
        let downtime_ms = fleet.stats().readmission_downtime_ms;
        let byte_identical = text == baseline;
        if !byte_identical {
            failures.push(format!(
                "round {round}: output diverged from the fault-free baseline"
            ));
        }
        if stats.cells_failed > 0 {
            failures.push(format!(
                "round {round}: {} cell(s) failed terminally",
                stats.cells_failed
            ));
        }
        if round > 0 && stats.cells_simulated > corrupted as u64 {
            failures.push(format!(
                "round {round}: simulated {} cell(s) but only {corrupted} were corrupted — \
                 re-simulation is not bounded by the cache",
                stats.cells_simulated
            ));
        }
        rounds.push(ChaosRound {
            round,
            fault_plan,
            corrupted,
            scan_corrupt: scan.corrupt,
            byte_identical,
            wall_ms,
            stats,
            downtime_ms,
        });
        // Dropping the harness drops the fleet (joining its reprobe
        // thread) so the next round starts with fresh health state.
        drop(harness);
    }

    let total = |field: fn(&ChaosRound) -> u64| rounds.iter().map(field).sum::<u64>();
    if total(|r| r.stats.node_losses) == 0 {
        failures.push("the soak never lost a node — the schedule did not bite".to_string());
    }
    if total(|r| r.stats.node_readmissions) == 0 {
        failures.push("the soak never readmitted a node — recovery was not exercised".to_string());
    }

    for daemon in daemons
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter_mut()
    {
        daemon.kill();
    }
    let _ = std::fs::remove_dir_all(&cache_dir);

    Ok(ChaosReport {
        seed: config.seed,
        rounds,
        failures,
    })
}
