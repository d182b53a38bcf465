//! The simulator workloads (`sweep_server`, `solo_client`) and the
//! decomposition every traced run makes of its representative trace.

use std::time::Duration;

use fdip::{
    run_batch, walk_key, BtbVariant, CpfMode, FrontendConfig, PrefetcherKind, SharedWalk, SimStats,
    Simulator,
};
use fdip_sim::harness::{Harness, HarnessStats};
use fdip_sim::workload::{WorkloadSource, WorkloadSpec};
use fdip_trace::gen::Profile;
use fdip_trace::Trace;
use fdip_types::ToJson;

use crate::report::{fnv1a, median};
use crate::spans::SpanRef;
use crate::Bench;

/// The seed whose outputs the golden digests pin.
pub const GOLDEN_SEED: u64 = 1;

/// FNV-1a of the `SimStats` JSON of every (trace, config) cell at
/// [`GOLDEN_SEED`] and full size.
const GOLDEN_SWEEP_SERVER: u64 = 0x45e0_223b_36da_6040;
const GOLDEN_SOLO_CLIENT: u64 = 0xca65_5e26_ce6d_707e;

/// Trace length and trace count of the simulator workloads.
pub struct SimSize {
    pub trace_len: usize,
    pub traces: u64,
    /// Whether the golden digests apply (they pin the full size only).
    pub golden: bool,
}

impl SimSize {
    pub fn full() -> SimSize {
        SimSize {
            trace_len: 2_000_000,
            traces: 3,
            golden: true,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> SimSize {
        SimSize {
            trace_len: 20_000,
            traces: 2,
            golden: false,
        }
    }
}

/// The seven front-end configurations `core_bench` tracks.
pub fn configs() -> Vec<(&'static str, FrontendConfig)> {
    let base = FrontendConfig::default;
    vec![
        ("baseline", base()),
        ("fdip", base().with_prefetcher(PrefetcherKind::fdip())),
        (
            "fdip_cpf",
            base().with_prefetcher(PrefetcherKind::fdip_with_cpf(CpfMode::Both)),
        ),
        (
            "fdip_x",
            base()
                .with_btb(BtbVariant::partitioned(2048))
                .with_prefetcher(PrefetcherKind::fdip()),
        ),
        (
            "ftb_fdip",
            base()
                .with_btb(BtbVariant::basic_block(2048))
                .with_prefetcher(PrefetcherKind::fdip()),
        ),
        (
            "stream",
            base().with_prefetcher(PrefetcherKind::StreamBuffers(Default::default())),
        ),
        (
            "pif",
            base().with_prefetcher(PrefetcherKind::Pif(Default::default())),
        ),
    ]
}

/// A generator workload named the way `fdip-serve` names it, so the
/// harness keys of a direct computation match the server's.
pub fn profile_spec(profile: Profile, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("{}~s{seed}", profile.name()),
        source: WorkloadSource::Profile(profile),
        seed,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn digest(cells: &[Vec<SimStats>]) -> u64 {
    let text: String = cells
        .iter()
        .flatten()
        .map(|s| s.to_json().to_string())
        .collect();
    fnv1a(text.as_bytes())
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Generates the workload's traces (seeds `seed..seed+traces`). The set
/// is generated [`SETUPS`] times, each a timed set-up; the last is kept.
fn setup_traces(bench: &mut Bench, profile: Profile, size: &SimSize) -> Vec<(WorkloadSpec, Trace)> {
    let root = bench.tracer.root();
    let mut samples = Vec::new();
    let mut traces = Vec::new();
    for _ in 0..SETUPS {
        drop(std::mem::take(&mut traces));
        let open = bench.tracer.open(root, "setup");
        for i in 0..size.traces {
            let spec = profile_spec(profile, bench.seed.wrapping_add(i));
            let (trace, _) =
                bench
                    .tracer
                    .time(open.span(), format!("trace.gen {}", spec.name), || {
                        spec.generate(size.trace_len)
                    });
            traces.push((spec, trace));
        }
        samples.push(bench.tracer.close(open).as_secs_f64());
    }
    bench.out.setup_times(&samples);
    traces
}

/// Runs `op` over every trace, cycling, until the measured time is up;
/// the first pass is an untimed warm-up whose results every later pass
/// must reproduce. Returns the warm-up results and the op times in ms.
fn measure<F>(
    bench: &mut Bench,
    traces: &[(WorkloadSpec, Trace)],
    name: &str,
    mut op: F,
) -> (Vec<Vec<SimStats>>, Vec<f64>)
where
    F: FnMut(&mut Bench, SpanRef, &Trace) -> (Vec<SimStats>, f64),
{
    let root = bench.tracer.root();
    let warm = bench.tracer.open(root, "warmup");
    let reference: Vec<Vec<SimStats>> = traces
        .iter()
        .map(|(_, t)| op(bench, warm.span(), t).0)
        .collect();
    bench.tracer.close(warm);

    let mut samples = Vec::new();
    let start = std::time::Instant::now();
    'reps: loop {
        for ((spec, trace), expected) in traces.iter().zip(&reference) {
            if start.elapsed() >= bench.seconds {
                break 'reps;
            }
            let (stats, time) = op(bench, root, trace);
            let ok = stats == *expected;
            bench.out.check(ok, || {
                format!("{name} on {} differs from its warm-up run", spec.name)
            });
            samples.push(time);
        }
    }
    (reference, samples)
}

/// `sweep_server`: `run_batch` over the seven configs on three Server
/// traces — the equal-budget sweep this repository spends most of its
/// time on.
pub fn sweep_server(bench: &mut Bench, size: &SimSize) {
    let traces = setup_traces(bench, Profile::Server, size);
    let plain: Vec<FrontendConfig> = configs().into_iter().map(|(_, c)| c).collect();
    let (reference, samples) = measure(bench, &traces, "run_batch", |bench, parent, trace| {
        let (stats, d) = bench
            .tracer
            .time(parent, "op.batch", || run_batch(&plain, trace));
        (stats, ms(d))
    });
    bench.out.op_timings(&samples);

    // Batched results must equal solo runs.
    let (_, first) = &traces[0];
    let check = bench
        .tracer
        .open(bench.tracer.root(), "check.batch_equals_solo");
    for ((name, config), batched) in configs().iter().zip(&reference[0]) {
        let solo = Simulator::run_trace(config, first);
        bench.out.check(&solo == batched, || {
            format!("batch differs from solo for {name}")
        });
    }
    bench.tracer.close(check);
    golden(
        bench,
        size,
        "sweep_server",
        digest(&reference),
        GOLDEN_SWEEP_SERVER,
    );
    if bench.traced() {
        decompose(bench, &traces[0], size.trace_len);
        layer_counters(bench, None, None);
    }
}

/// `solo_client`: each config alone through `Simulator::run_trace` on
/// three Client traces — the single-cell path of `/v1/run`, `fdip
/// run-prog` and cells that cannot be batched. One operation runs all
/// seven configs on one trace, so every config counts in every sample.
pub fn solo_client(bench: &mut Bench, size: &SimSize) {
    let traces = setup_traces(bench, Profile::Client, size);
    let configs = configs();
    let (reference, samples) = measure(bench, &traces, "run_trace", |bench, parent, trace| {
        let op = bench.tracer.open(parent, "op.solo_all");
        let stats = configs
            .iter()
            .map(|(name, config)| {
                bench
                    .tracer
                    .time(op.span(), format!("op.solo {name}"), || {
                        Simulator::run_trace(config, trace)
                    })
                    .0
            })
            .collect();
        (stats, ms(bench.tracer.close(op)))
    });
    bench.out.op_timings(&samples);

    let (_, first) = &traces[0];
    let plain: Vec<FrontendConfig> = configs.iter().map(|(_, c)| c.clone()).collect();
    let (batched, _) = bench
        .tracer
        .time(bench.tracer.root(), "check.batch_equals_solo", || {
            run_batch(&plain, first)
        });
    bench.out.check(batched == reference[0], || {
        "batch differs from solo".to_string()
    });
    golden(
        bench,
        size,
        "solo_client",
        digest(&reference),
        GOLDEN_SOLO_CLIENT,
    );
    if bench.traced() {
        decompose(bench, &traces[0], size.trace_len);
        layer_counters(bench, None, None);
    }
}

fn golden(bench: &mut Bench, size: &SimSize, workload: &str, got: u64, want: u64) {
    eprintln!(
        "[fdip-benchmark] {workload} digest {got:#018x} (seed {})",
        bench.seed
    );
    if size.golden && bench.seed == GOLDEN_SEED {
        bench.out.check(got == want, || {
            format!("{workload} digest {got:#018x} is not the golden {want:#018x}")
        });
    }
}

/// Decomposition repetitions; each layer metric is their median.
const DECOMPOSE_REPS: usize = 3;

/// The traced run's layer-by-layer calls on one representative trace:
/// the BPU walk, the front-end replay of every config sharing the walk,
/// every config solo, one batch, and a cell-cache hit. Replay and batch
/// results must equal the solo runs.
pub fn decompose(bench: &mut Bench, (spec, trace): &(WorkloadSpec, Trace), trace_len: usize) {
    let configs = configs();
    let fdip = &configs[1].1;
    let shared: Vec<usize> = (0..configs.len())
        .filter(|&i| {
            let key = walk_key(&configs[i].1);
            configs.iter().filter(|(_, c)| walk_key(c) == key).count() >= 2
        })
        .collect();
    let parent = bench
        .tracer
        .open(bench.tracer.root(), format!("decompose {}", spec.name));
    let p = parent.span();

    let mut gen_ms = Vec::new();
    let mut walk_ms = Vec::new();
    let mut replay_ms = vec![Vec::new(); configs.len()];
    let mut solo_ms = vec![Vec::new(); configs.len()];
    let mut batch_ms = Vec::new();
    let mut solo_stats = Vec::new();
    for _ in 0..DECOMPOSE_REPS {
        let (again, d) = bench
            .tracer
            .time(p, "trace.gen", || spec.generate(trace_len));
        gen_ms.push(ms(d));
        bench.out.check(again == *trace, || {
            format!("regenerating {} gave another trace", spec.name)
        });
        solo_stats.clear();
        for (i, (name, config)) in configs.iter().enumerate() {
            let (stats, d) = bench.tracer.time(p, format!("core.solo {name}"), || {
                Simulator::run_trace(config, trace)
            });
            solo_ms[i].push(ms(d));
            solo_stats.push(stats);
        }
        let (walk, d) = bench
            .tracer
            .time(p, "bpu.walk", || SharedWalk::capture(fdip, trace));
        walk_ms.push(ms(d));
        for &i in &shared {
            let (name, config) = &configs[i];
            let (stats, d) = bench.tracer.time(p, format!("frontend.replay {name}"), || {
                Simulator::with_walk(config, trace, &walk).run()
            });
            replay_ms[i].push(ms(d));
            bench.out.check(stats == solo_stats[i], || {
                format!(
                    "walk + replay differs from solo for {name} on {}",
                    spec.name
                )
            });
        }
        let plain: Vec<FrontendConfig> = configs.iter().map(|(_, c)| c.clone()).collect();
        let (batched, d) = bench
            .tracer
            .time(p, "batch.run", || run_batch(&plain, trace));
        batch_ms.push(ms(d));
        bench.out.check(batched == solo_stats, || {
            format!("batch differs from solo on {}", spec.name)
        });
    }

    let out = &mut bench.out;
    let n = DECOMPOSE_REPS;
    out.layer("trace.gen_ms", median(&gen_ms), "ms", n);
    let walk = median(&walk_ms);
    out.layer("bpu.walk_ms", walk, "ms", n);
    out.layer("bpu.walk_share", walk / median(&solo_ms[1]), "ratio", n);
    let base_replay = median(&replay_ms[0]);
    for &i in &shared {
        let name = configs[i].0;
        let replay = median(&replay_ms[i]);
        out.layer(format!("frontend.replay_ms.{name}"), replay, "ms", n);
        if i != 0 {
            out.layer(
                format!("prefetch.cost_ms.{name}"),
                replay - base_replay,
                "ms",
                n,
            );
        }
    }
    for (i, (name, _)) in configs.iter().enumerate() {
        let solo = median(&solo_ms[i]);
        out.layer(format!("core.solo_ms.{name}"), solo, "ms", n);
        let ns_per_cycle = solo * 1e6 / solo_stats[i].cycles as f64;
        out.layer(
            format!("core.ns_per_sim_cycle.{name}"),
            ns_per_cycle,
            "ns",
            n,
        );
    }
    let batch = median(&batch_ms);
    out.layer("batch.run_ms", batch, "ms", n);
    let solo_sum: f64 = solo_ms.iter().map(|s| median(s)).sum();
    out.layer("batch.multiple", solo_sum / batch, "ratio", n);
    out.layer("batch.replayed_members", shared.len() as f64, "count", 1);
    out.layer(
        "batch.live_members",
        (configs.len() - shared.len()) as f64,
        "count",
        1,
    );
    model_metrics(out, &configs, &solo_stats);

    // A cell-cache hit: the path every warm request and repeated
    // catalogue cell takes.
    let harness = Harness::with_threads(1);
    let cell = vec![("fdip".to_string(), fdip.clone())];
    let workloads = std::slice::from_ref(spec);
    harness.run_matrix(workloads, trace_len, &cell);
    let hits: Vec<f64> = (0..200)
        .map(|_| {
            let (_, d) = bench.tracer.time(p, "harness.hit", || {
                harness.run_matrix(workloads, trace_len, &cell)
            });
            d.as_secs_f64() * 1e6
        })
        .collect();
    bench
        .out
        .layer("harness.hit_us", median(&hits), "us", hits.len());
    bench.tracer.close(parent);
}

/// Simulated (exact) model statistics of the first configs.
fn model_metrics(
    out: &mut crate::report::Outcome,
    configs: &[(&str, FrontendConfig)],
    stats: &[SimStats],
) {
    let per_kilo = |count: u64, s: &SimStats| count as f64 * 1000.0 / s.instructions as f64;
    for ((name, _), s) in configs.iter().zip(stats).take(3) {
        out.layer(format!("model.ipc.{name}"), s.ipc(), "instr/cycle", 1);
        out.layer(
            format!("model.l1i_mpki.{name}"),
            s.l1i_mpki(),
            "1/kinstr",
            1,
        );
        if *name != "baseline" {
            out.layer(
                format!("model.prefetch_accuracy.{name}"),
                s.mem.prefetch_accuracy(),
                "ratio",
                1,
            );
        }
        out.layer(
            format!("model.bus_util.{name}"),
            s.bus_utilization(),
            "ratio",
            1,
        );
        out.layer(
            format!("model.icache_stall_cpki.{name}"),
            per_kilo(s.icache_stall_cycles, s),
            "cycles/kinstr",
            1,
        );
        out.layer(
            format!("model.ftq_empty_cpki.{name}"),
            per_kilo(s.ftq_empty_cycles, s),
            "cycles/kinstr",
            1,
        );
    }
    let cpf = &stats[2].fdip;
    let filtered = (cpf.filtered_cpf_enqueue + cpf.filtered_cpf_remove) as f64;
    out.layer(
        "model.cpf_filtered_ratio",
        filtered / cpf.candidates.max(1) as f64,
        "ratio",
        1,
    );
    let base = &stats[0];
    out.layer(
        "model.btb_hit_ratio",
        base.branches.btb_hit_ratio(),
        "ratio",
        1,
    );
    out.layer(
        "model.exec_mpki",
        base.branches.mpki(base.instructions),
        "1/kinstr",
        1,
    );
}

/// The harness, supervisor and server counters of the run, zero for the
/// layers the workload does not use.
pub fn layer_counters(bench: &mut Bench, harness: Option<HarnessStats>, serve: Option<(u64, u64)>) {
    let h = harness.unwrap_or_default();
    let out = &mut bench.out;
    out.layer(
        "harness.traces_generated",
        h.traces_generated as f64,
        "count",
        1,
    );
    out.layer(
        "harness.cells_simulated",
        h.cells_simulated as f64,
        "count",
        1,
    );
    out.layer("harness.cells_batched", h.cells_batched as f64, "count", 1);
    out.layer("harness.cell_hits", h.cell_hits as f64, "count", 1);
    let requests = h.cell_requests().max(1) as f64;
    out.layer(
        "harness.cell_hit_ratio",
        h.cell_hits as f64 / requests,
        "ratio",
        1,
    );
    let simulated = h.cells_simulated.max(1) as f64;
    out.layer(
        "harness.batched_share",
        h.cells_batched as f64 / simulated,
        "ratio",
        1,
    );
    out.layer(
        "supervisor.worker_restarts",
        h.worker_restarts as f64,
        "count",
        1,
    );
    out.layer("supervisor.worker_kills", h.worker_kills as f64, "count", 1);
    let (shed, coalesced) = serve.unwrap_or_default();
    out.layer("serve.shed", shed as f64, "count", 1);
    out.layer("serve.coalesced", coalesced as f64, "count", 1);
}
