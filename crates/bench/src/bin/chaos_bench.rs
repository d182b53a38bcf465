//! Chaos soak benchmark: drives [`fdip_sim::chaos::run_chaos`] and
//! persists the recovery metrics (MTTR, readmissions, re-dispatches,
//! byte-identity per round) as `results/BENCH_chaos.json`.
//!
//! `--quick` runs 3 rounds (CI smoke); the default is 5. `--check` turns
//! the soak's gates into an exit status: any violated gate prints a
//! `CHECK FAILED:` line and exits 1.

use fdip_sim::chaos::{run_chaos, ChaosConfig};

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    // The soak self-execs this binary as its worker daemons
    // (FDIP_WORKERD_LISTEN in the environment); those invocations never
    // reach the benchmark driver.
    fdip_sim::worker::maybe_worker_entry();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let defaults = ChaosConfig::default();
    let rounds = match flag_value(&args, "--rounds") {
        None => {
            if quick {
                3
            } else {
                defaults.rounds
            }
        }
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("bad --rounds {raw:?} (want a positive round count)");
                std::process::exit(2);
            }
        },
    };
    let seed = match flag_value(&args, "--seed") {
        None => defaults.seed,
        Some(raw) => match raw.parse::<u64>() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("bad --seed {raw:?} (want an integer)");
                std::process::exit(2);
            }
        },
    };

    let config = ChaosConfig {
        rounds,
        seed,
        ..defaults
    };
    eprintln!(
        "[chaos] {} round(s), seed {}, experiments {}",
        config.rounds,
        config.seed,
        config.experiments.join(",")
    );
    let report = run_chaos(&config).unwrap_or_else(|e| {
        eprintln!("[chaos] soak infrastructure failed: {e}");
        std::process::exit(2);
    });
    eprint!("{}", report.to_text());

    let dir = fdip_bench::results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("BENCH_chaos.json");
    fdip_sim::persist::write_atomic_str(&path, &report.to_json().to_string_pretty())
        .expect("write BENCH_chaos.json");
    eprintln!("[chaos] wrote {}", path.display());

    if check && !report.passed() {
        for f in &report.failures {
            eprintln!("[chaos] CHECK FAILED: {f}");
        }
        std::process::exit(1);
    }
    if check {
        eprintln!("[chaos] all checks passed");
    }
}
