//! `fdip-benchmark`: the repository benchmark.
//!
//! One command runs one workload for a fixed time, checks that every
//! output is correct, and prints every metric with its unit:
//!
//! ```text
//! fdip-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Each metric is printed to stderr as one line (`workload metric value
//! unit n=N`). The last line on stdout is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run also records
//! spans around every call into a layer, makes the decomposition calls
//! (BPU walk, front-end replay, solo and batched runs), and reports the
//! per-layer metrics. The exit code is 0 only when every check passed.
//!
//! The workloads, the metric-to-layer map and the measured baselines are
//! described in `README.md` beside this package.

mod catalogue;
mod http;
mod report;
mod serve;
mod sim;
mod spans;

use std::time::Duration;

use report::Outcome;
use spans::Tracer;

/// The workloads, in the order `BENCHMARK.json` declares them.
const WORKLOADS: [&str; 5] = [
    "sweep_server",
    "solo_client",
    "catalogue",
    "catalogue_isolated",
    "serve_mix",
];

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

impl Args {
    fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut argv = argv.into_iter();
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
                "--workload" => {
                    return Err(format!(
                        "unknown workload {value:?} (one of {})",
                        WORKLOADS.join(", ")
                    ))
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(bad());
                    }
                    seconds = Some(Duration::from_secs_f64(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Everything a workload needs: its inputs' seed, how long to measure,
/// the span recorder, and the outcome it fills in.
pub struct Bench {
    /// Seed the workload derives all of its inputs from.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: Duration,
    /// Records spans when the run is traced.
    pub tracer: Tracer,
    /// Metrics, operation counts and failed checks.
    pub out: Outcome,
}

impl Bench {
    fn new(seed: u64, seconds: Duration, traced: bool) -> Bench {
        Bench {
            seed,
            seconds,
            tracer: Tracer::new(traced),
            out: Outcome::default(),
        }
    }

    /// Whether this is the traced run (spans, decomposition, per-layer
    /// metrics).
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }
}

/// Runs one workload at the given size.
fn run_workload(name: &str, bench: &mut Bench, size: &Size) {
    match name {
        "sweep_server" => sim::sweep_server(bench, &size.sim),
        "solo_client" => sim::solo_client(bench, &size.sim),
        "catalogue" => catalogue::run(bench, size.catalogue, false),
        "catalogue_isolated" => catalogue::run(bench, size.catalogue, true),
        "serve_mix" => serve::run(bench, &size.serve),
        other => unreachable!("workload {other} passed argument parsing"),
    }
    bench.tracer.finish();
    report::peak_rss(bench);
}

/// Input sizes of every workload. The command line always runs
/// [`Size::full`]; the smoke tests run [`Size::tiny`].
struct Size {
    sim: sim::SimSize,
    catalogue: fdip_sim::Scale,
    serve: serve::ServeSize,
}

impl Size {
    fn full() -> Size {
        Size {
            sim: sim::SimSize::full(),
            catalogue: fdip_sim::Scale::medium(),
            serve: serve::ServeSize::full(),
        }
    }

    #[cfg(test)]
    fn tiny() -> Size {
        Size {
            sim: sim::SimSize::tiny(),
            catalogue: fdip_sim::Scale {
                trace_len: 4_000,
                workloads_per_suite: 1,
            },
            serve: serve::ServeSize::tiny(),
        }
    }
}

fn main() {
    // Process isolation re-executes this binary as a worker; it must
    // become one before parsing arguments.
    fdip_sim::worker::maybe_worker_entry();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!(
                "usage: fdip-benchmark --workload {} --seed N --seconds S --trace 0|1\n{err}",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut bench = Bench::new(args.seed, args.seconds, args.trace);
    run_workload(&args.workload, &mut bench, &Size::full());

    let Bench { tracer, out, .. } = bench;
    if args.trace {
        spans::write_out(&tracer, &args.workload, args.seed);
    }
    out.print_lines(&args.workload);
    println!("{}", out.to_json(args.trace));
    std::process::exit(if out.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let args =
            Args::parse(argv("--workload serve_mix --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            args,
            Args {
                workload: "serve_mix".into(),
                seed: 7,
                seconds: Duration::from_secs(10),
                trace: true,
            }
        );
        assert!(Args::parse(argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(Args::parse(argv("--workload catalogue --seconds 1")).is_err());
        assert!(Args::parse(argv("--workload catalogue --seed 1 --seconds 0")).is_err());
        assert!(Args::parse(argv("--workload catalogue --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(Args::parse(argv("--workload catalogue --seed 1 --seconds 1 --bogus 1")).is_err());
    }

    /// The declared metric names of one kind, read from `BENCHMARK.json`.
    fn declared(kind: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = fdip_types::Json::parse(&text).expect("BENCHMARK.json parses");
        let mut names: Vec<String> = doc
            .get(kind)
            .and_then(fdip_types::Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(fdip_types::Json::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        names.sort();
        names
    }

    /// A tiny run of every workload that can run under the test harness
    /// (`catalogue_isolated` needs to re-execute the real binary as a
    /// worker, which the libtest runner cannot be): both the untraced and
    /// the traced run pass every check and emit exactly the declared
    /// metrics, each named `[A-Za-z0-9_.-]+` with a finite value.
    #[test]
    fn smoke_runs_emit_exactly_the_declared_metrics() {
        let size = Size::tiny();
        for workload in WORKLOADS.iter().filter(|w| **w != "catalogue_isolated") {
            for traced in [false, true] {
                let mut bench = Bench::new(3, Duration::from_millis(300), traced);
                run_workload(workload, &mut bench, &size);
                let out = &bench.out;
                assert!(out.correct(), "{workload}: {:?}", out.problems());
                assert!(out.attempted() > 0, "{workload}");
                let emitted = out.names(traced);
                let kind = if traced { "per_layer" } else { "end_to_end" };
                assert_eq!(emitted, declared(kind), "{workload} traced={traced}");
                for m in out.metrics(traced) {
                    assert!(report::valid_name(&m.name), "{}", m.name);
                    assert!(m.value.is_finite(), "{workload} {}", m.name);
                }
                if traced {
                    let (self_sum, wall) = bench.tracer.root_self_time_and_wall();
                    assert!(
                        self_sum.abs_diff(wall) <= wall / 20,
                        "{workload}: span self-times {self_sum:?} vs wall {wall:?}"
                    );
                }
            }
        }
    }
}
