//! Runs the whole experiment catalogue in order, printing every table and
//! figure and persisting CSV + JSON under `results/`. Takes the same run
//! flags as `fdip exp` (one shared parser, [`RunOptions::from_args`]:
//! scale, batching, isolation, fleet, cache, faults, journal, retries),
//! except that the journal defaults to `results/journal.jsonl`.
//!
//! All experiments share one harness, so each suite trace is generated
//! once and each distinct (workload, config, trace length) cell is
//! simulated once across the entire catalogue; the cache counters are
//! reported at the end.
//!
//! Every finished cell is appended to the journal, so a run that is killed
//! part-way (OOM, SIGKILL, power loss) resumes from where it stopped: on
//! restart the journaled cells are preloaded into the cell cache and only
//! the remainder is simulated. The journal is deleted after a run in which
//! every cell succeeded; it is kept when any cell failed so the failures
//! can be retried cheaply.

use fdip_sim::experiments;
use fdip_sim::harness::Harness;
use fdip_sim::options::{RunArgs, RunOptions};

/// A usage or start-up error: nothing ran.
fn exit(message: String) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

fn main() {
    // Pool-spawned worker processes (FDIP_WORKER=1) exit here.
    fdip_sim::worker::maybe_worker_entry();
    let RunArgs {
        mut options, scale, ..
    } = RunOptions::from_args(std::env::args().skip(1)).unwrap_or_else(|e| exit(e));
    let journal = options
        .journal
        .get_or_insert_with(|| fdip_bench::results_dir().join("journal.jsonl"))
        .clone();
    if let Some(parent) = journal.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let opened = Harness::open(options).unwrap_or_else(|e| exit(e.to_string()));
    eprint!("{}", opened.startup_lines());
    let harness = &opened.harness;

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
    eprint!("{}", harness.summary());
    eprintln!("total {:.1}s", start.elapsed().as_secs_f64());

    let failed = harness.stats().cells_failed;
    // Closes the journal (and stops any worker processes) first.
    drop(opened);
    if failed == 0 {
        let _ = std::fs::remove_file(&journal);
    } else {
        eprintln!(
            "warning: {failed} cell(s) FAILED; journal kept at {} for resume",
            journal.display()
        );
    }
}
