//! Runs the whole experiment catalogue in order, printing every table and
//! figure and persisting CSV + JSON under `results/`. Accepts `--quick` /
//! `--medium` / `--full`, a `--faults SPEC` fault-injection plan (also read
//! from `$FDIP_FAULTS`), `--journal PATH` to override the default cell
//! journal at `results/journal.jsonl`, `--isolate[=N]` to run every
//! cell in supervised worker processes (a crash or hang costs one worker
//! and one FAILED row, never the run), `--fleet ADDR,ADDR,...` to dispatch
//! isolated cells to remote `fdip workerd` daemons (a killed or partitioned
//! node costs a re-dispatch, never the run), `--fleet-heartbeat-ms N` to
//! tune fleet liveness detection, `--cache DIR` to share a
//! persistent on-disk result cache across runs and machines, and
//! `--batch[=on|off]` to control the lockstep multi-config batch pass (on
//! by default; output is byte-identical either way).
//!
//! All experiments share the process-wide harness, so each suite trace is
//! generated once and each distinct (workload, config, trace length) cell
//! is simulated once across the entire catalogue; the cache counters are
//! reported at the end.
//!
//! Every finished cell is appended to the journal, so a run that is killed
//! part-way (OOM, SIGKILL, power loss) resumes from where it stopped: on
//! restart the journaled cells are preloaded into the cell cache and only
//! the remainder is simulated. The journal is deleted after a run in which
//! every cell succeeded; it is kept when any cell failed so the failures
//! can be retried cheaply.

use std::path::PathBuf;

use fdip_sim::experiments;
use fdip_sim::fault::FaultPlan;
use fdip_sim::harness::Harness;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Argv with `flag` and its value argument removed (for flags that
/// `Scale::from_args` does not know about).
fn strip_valued_flag(args: &[String], flag: &str) -> Vec<String> {
    let mut out = Vec::with_capacity(args.len());
    let mut skip_value = false;
    for a in args {
        if skip_value {
            skip_value = false;
            continue;
        }
        if a == flag {
            skip_value = true;
            continue;
        }
        out.push(a.clone());
    }
    out
}

fn main() {
    // Supervisor-spawned worker processes (FDIP_WORKER=1) exit here.
    fdip_sim::worker::maybe_worker_entry();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut isolate: Option<usize> = None;
    let mut batch: Option<bool> = None;
    let mut scale_args = Vec::with_capacity(args.len());
    let stripped = [
        "--faults",
        "--journal",
        "--fleet",
        "--cache",
        "--fleet-heartbeat-ms",
    ]
    .iter()
    .fold(args.clone(), |acc, flag| strip_valued_flag(&acc, flag));
    for a in stripped {
        if a == "--isolate" {
            isolate = Some(fdip_sim::supervisor::default_worker_count());
        } else if let Some(n) = a.strip_prefix("--isolate=") {
            isolate = match n.parse::<usize>() {
                Ok(w) if w > 0 => Some(w),
                _ => {
                    eprintln!("bad --isolate={n:?} (want a positive worker count)");
                    std::process::exit(2);
                }
            };
        } else if a == "--batch" {
            batch = Some(true);
        } else if let Some(v) = a.strip_prefix("--batch=") {
            batch = match v {
                "on" => Some(true),
                "off" => Some(false),
                _ => {
                    eprintln!(
                        "unrecognized --batch value {v:?} \
                         (accepted forms: --batch, --batch=on, --batch=off)"
                    );
                    std::process::exit(2);
                }
            };
        } else {
            scale_args.push(a);
        }
    }
    let scale = fdip_sim::Scale::from_args(scale_args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let harness = Harness::global();
    if let Some(on) = batch {
        harness.set_batching(on);
    }
    // The fleet heartbeat is validated before anything dials: a zero or
    // garbage value is a usage error, never a half-configured fleet.
    let fleet_heartbeat_ms =
        flag_value(&args, "--fleet-heartbeat-ms").map(|raw| match raw.parse::<u64>() {
            Ok(ms) if ms > 0 => ms,
            _ => {
                eprintln!("bad --fleet-heartbeat-ms {raw:?} (want a positive millisecond count)");
                std::process::exit(2);
            }
        });
    let fleet_addrs = flag_value(&args, "--fleet");
    if let Some(addrs) = &fleet_addrs {
        if isolate.is_none() {
            eprintln!("--fleet requires --isolate (cells run in remote worker daemons)");
            std::process::exit(2);
        }
        let list: Vec<String> = addrs
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if list.is_empty() {
            eprintln!("--fleet needs at least one HOST:PORT address");
            std::process::exit(2);
        }
        let mut fleet_config = fdip_sim::fleet::FleetConfig::new(list);
        if let Some(ms) = fleet_heartbeat_ms {
            fleet_config.heartbeat_timeout = std::time::Duration::from_millis(ms);
        }
        let fleet = harness.enable_fleet(fleet_config).unwrap_or_else(|e| {
            eprintln!("fleet: {e}");
            std::process::exit(2);
        });
        let nodes: Vec<String> = fleet
            .nodes()
            .iter()
            .map(|(addr, seats)| format!("{addr} x{seats}"))
            .collect();
        eprintln!(
            "fleet: {} node(s), {} worker seat(s): {}",
            fleet.nodes().len(),
            fleet.workers(),
            nodes.join(", ")
        );
    } else if let Some(workers) = isolate {
        let supervisor = harness.enable_isolation(fdip_sim::supervisor::SupervisorConfig {
            workers,
            ..fdip_sim::supervisor::SupervisorConfig::default()
        });
        eprintln!("isolation: {} worker process(es)", supervisor.workers());
    }
    if let Some(dir) = flag_value(&args, "--cache").map(PathBuf::from) {
        match harness.attach_cache(&dir) {
            Ok(summary) => eprintln!(
                "cell cache {}: {} entr{} restored, {} corrupt",
                dir.display(),
                summary.entries,
                if summary.entries == 1 { "y" } else { "ies" },
                summary.corrupt
            ),
            Err(e) => eprintln!(
                "warning: cell cache {} unavailable ({e}); running without it",
                dir.display()
            ),
        }
    }

    let plan = match flag_value(&args, "--faults") {
        Some(spec) => Some(FaultPlan::parse(&spec).unwrap_or_else(|e| {
            eprintln!("bad --faults spec: {e}");
            std::process::exit(2);
        })),
        None => FaultPlan::from_env().unwrap_or_else(|e| {
            eprintln!("bad FDIP_FAULTS spec: {e}");
            std::process::exit(2);
        }),
    };
    if let Some(plan) = &plan {
        if plan.requires_fleet() && fleet_addrs.is_none() {
            eprintln!(
                "fault plan injects network faults (drop/partition/slowlink/truncframe), \
                 which only make sense against remote workers; rerun with \
                 --fleet ADDR,... (plus --isolate)"
            );
            std::process::exit(2);
        }
        if plan.requires_isolation() && isolate.is_none() {
            eprintln!(
                "fault plan injects abort/hang/bigalloc faults, which take the whole \
                 process down; rerun with --isolate[=N] to contain them in worker processes"
            );
            std::process::exit(2);
        }
        eprintln!(
            "fault plan: {} site(s), seed {}",
            plan.site_count(),
            plan.seed()
        );
    }
    harness.set_fault_plan(plan);

    let journal_path = flag_value(&args, "--journal")
        .map(PathBuf::from)
        .unwrap_or_else(|| fdip_bench::results_dir().join("journal.jsonl"));
    if let Some(parent) = journal_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match harness.attach_journal(&journal_path) {
        Ok(summary) => eprintln!(
            "journal {}: restored {} cell(s), skipped {} line(s), {} corrupt",
            journal_path.display(),
            summary.restored,
            summary.skipped,
            summary.corrupt
        ),
        Err(e) => eprintln!(
            "warning: journal {} unavailable ({e}); running without resume",
            journal_path.display()
        ),
    }

    let start = std::time::Instant::now();
    for exp in experiments::all() {
        let id = exp.id();
        eprintln!("[{id}] {} ...", exp.title());
        let t = std::time::Instant::now();
        let result = exp.run(harness, scale);
        println!("{}", "=".repeat(72));
        print!("{}", result.to_text());
        eprintln!("[{id}] {:.1}s", t.elapsed().as_secs_f64());
        if let Err(e) = fdip_bench::persist(exp, &result) {
            eprintln!("[{id}] warning: could not write results/: {e}");
        }
    }
    let stats = harness.stats();
    eprintln!(
        "harness: {} traces generated ({} shared), {} cells simulated \
         ({} batched, {} hits, {} restored from journal), {} retries, {} timeouts, {} failed",
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
    if harness.isolation_enabled() {
        eprintln!(
            "isolation: {} worker restart(s), {} kill(s), {} crash-loop pause(s)",
            stats.worker_restarts, stats.worker_kills, stats.worker_crash_loops,
        );
    }
    if harness.fleet_enabled() {
        eprintln!(
            "fleet: {} worker seat(s), {} node loss(es), {} cell(s) re-dispatched, \
             {} remote cache hit(s), {} readmission(s)",
            stats.fleet_workers,
            stats.node_losses,
            stats.cells_redispatched,
            stats.remote_cache_hits,
            stats.node_readmissions,
        );
    }
    eprintln!("total {:.1}s", start.elapsed().as_secs_f64());

    harness.detach_journal();
    if stats.cells_failed == 0 {
        let _ = std::fs::remove_file(&journal_path);
    } else {
        eprintln!(
            "warning: {} cell(s) FAILED; journal kept at {} for resume",
            stats.cells_failed,
            journal_path.display()
        );
    }
}
