//! The `catalogue` and `catalogue_isolated` workloads: every registry
//! experiment, as users run them to reproduce the paper.
//!
//! The registry fixes the inputs (suite seeds, programs, scenarios), so
//! these workloads ignore `--seed`; the golden digest therefore applies
//! to every run.

use fdip_sim::experiments::{self, r1_real_programs::SCENARIO_SEED};
use fdip_sim::harness::Harness;
use fdip_sim::supervisor::SupervisorConfig;
use fdip_sim::workload::{program_suite, scenario_suite, suite, SuiteKind, WorkloadSpec};
use fdip_sim::Scale;

use crate::report::fnv1a;
use crate::{sim, Bench};

/// FNV-1a of every experiment's id and `to_text` at `Scale::medium()`,
/// in registry order.
const GOLDEN_MEDIUM: u64 = 0xd53c_cc08_9813_c2e7;

/// Every trace the catalogue reads, at the scale's length.
fn trace_set(scale: Scale) -> Vec<WorkloadSpec> {
    let mut specs = suite(SuiteKind::All, scale);
    specs.extend(program_suite());
    specs.extend(scenario_suite(SCENARIO_SEED));
    specs
}

/// Runs the catalogue repeatedly until the measured time is up. Each rep
/// sets up a fresh harness (isolated: with one worker process) and
/// generates the trace set into it, then runs all experiments without
/// persisting anything.
///
/// The harness runs one thread. With two on a shared two-core host, a
/// rep took 2.7 s at one time and 5.3 s at another as other load on the
/// host varied, while the single-threaded simulator workloads moved 10%.
/// One thread measures the work, not the host's spare core.
pub fn run(bench: &mut Bench, scale: Scale, isolated: bool) {
    let root = bench.tracer.root();
    let mut setup_s = Vec::new();
    let mut rep_ms = Vec::new();
    let mut digests = Vec::new();
    let mut last_stats = None;
    let start = std::time::Instant::now();
    while rep_ms.is_empty() || start.elapsed() < bench.seconds {
        let rep = bench.tracer.open(root, format!("rep {}", rep_ms.len()));
        let r = rep.span();
        let (harness, d) = bench.tracer.time(r, "setup", || {
            let harness = Harness::with_threads(1);
            if isolated {
                harness.enable_isolation(SupervisorConfig {
                    workers: 1,
                    ..SupervisorConfig::default()
                });
            }
            for spec in trace_set(scale) {
                harness.trace(&spec, scale.trace_len);
            }
            harness
        });
        setup_s.push(d.as_secs_f64());

        let op = bench.tracer.open(r, "op.catalogue");
        let mut text = String::new();
        for exp in experiments::all() {
            let (result, _) = bench
                .tracer
                .time(op.span(), format!("exp {}", exp.id()), || {
                    exp.run(&harness, scale)
                });
            text.push_str(exp.id());
            text.push('\n');
            text.push_str(&result.to_text());
        }
        rep_ms.push(bench.tracer.close(op).as_secs_f64() * 1e3);
        let stats = harness.stats();
        bench.out.check(stats.cells_failed == 0, || {
            format!("{} catalogue cells failed", stats.cells_failed)
        });
        last_stats = Some(stats);
        // Dropping the harness stops its worker processes.
        drop(harness);
        bench.tracer.close(rep);
        digests.push(fnv1a(text.as_bytes()));
    }

    bench.out.setup_times(&setup_s);
    bench.out.op_timings(&rep_ms);
    eprintln!("[fdip-benchmark] catalogue digest {:#018x}", digests[0]);
    for (i, d) in digests.iter().enumerate().skip(1) {
        bench.out.check(*d == digests[0], || {
            format!("catalogue rep {i} output differs from rep 0")
        });
    }
    if scale == Scale::medium() {
        bench.out.check(digests[0] == GOLDEN_MEDIUM, || {
            format!(
                "catalogue digest {:#018x} is not the golden {GOLDEN_MEDIUM:#018x}",
                digests[0]
            )
        });
    }
    if bench.traced() {
        // server-1: the suite member most experiments run.
        let representative = suite(SuiteKind::Server, scale).remove(0);
        let trace = representative.generate(scale.trace_len);
        sim::decompose(bench, &(representative, trace), scale.trace_len);
        sim::layer_counters(bench, last_stats, None);
    }
}
