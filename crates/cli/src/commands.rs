//! The `fdip` subcommands.

use std::error::Error;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use fdip::{spec, CpfMode, FrontendConfig, PrefetcherKind, Simulator};
use fdip_trace::gen::{GeneratorConfig, Profile};
use fdip_trace::{read_binary, read_text, write_binary_compact, write_text, Trace, TraceStats};

use crate::args::Args;

/// Every subcommand, paired with its one-line summary. The dispatch
/// table, the usage text, and the unknown-command error all derive from
/// this list so they cannot drift apart.
pub const COMMANDS: [(&str, &str); 14] = [
    ("gen", "generate a workload trace"),
    ("asm", "assemble a FISA source file and report the program"),
    (
        "run-prog",
        "execute a library program or FISA source file (trace out or simulate)",
    ),
    ("stats", "characterize a trace"),
    ("run", "simulate a trace"),
    ("compare", "run every prefetcher on a trace"),
    ("slice", "cut a window out of a trace"),
    ("convert", "convert between binary (.fdt) and text (.txt)"),
    (
        "tables",
        "print the BTB storage tables or any registry experiment",
    ),
    (
        "exp",
        "run registry experiments with fault injection and journaled resume",
    ),
    ("serve", "run the HTTP simulation service"),
    (
        "workerd",
        "run a TCP worker daemon serving fleet cell dispatch",
    ),
    (
        "chaos",
        "run the seeded chaos soak against a self-healing local fleet",
    ),
    ("help", "print this usage text"),
];

/// Usage text shown on errors and by `fdip help`.
pub const USAGE: &str = "\
usage: fdip <command> [options]

commands:
  gen      --profile client|server|microloop|jumpy [--seed N] [--len N]
           --out FILE [--format binary|text]     generate a workload trace
  asm      FILE                                  assemble a FISA source file and
                                                 report the program (instruction and
                                                 data sizes, entry, symbol table)
  run-prog NAME|FILE [--len N] [--out FILE] [--seed N] [run flags]
                                                 execute a library program, scenario,
                                                 or FISA source file; with --out the
                                                 emitted trace is written, otherwise
                                                 it is simulated like `run` (same
                                                 config flags); list names with
                                                 `run-prog list`
  stats    FILE                                  characterize a trace
  run      FILE [--prefetcher none|nlp|stream|fdip|shotgun|pif] [--cpf none|enqueue|remove|both]
           [--btb conventional:N|bb:N|fdipx:N|ideal] [--predictor bimodal|gshare|hybrid|local|tage|perfect]
           [--ftq N] [--l1-kb N] [--l2-latency N] [--mem-latency N] [--warmup N]
                                                 simulate a trace
  compare  FILE                                  run every prefetcher on a trace
  slice    IN OUT --start N --len N              cut a window out of a trace
  convert  IN OUT                                convert between binary (.fdt) and text (.txt)
  tables   [EXPERIMENT]                          print the BTB storage tables (Tables I & II),
                                                 or any experiment from the registry by id
                                                 (e.g. e01, x4) at quick scale
  exp      [ID|all] [--quick|--medium|--full] [--batch[=on|off]] [--isolate[=N]]
           [--fleet ADDR,ADDR,...] [--fleet-heartbeat-ms N]
           [--cache DIR] [--faults SPEC] [--journal FILE]
           [--max-attempts N] [--cell-budget-ms N]
                                                 run one experiment (or the whole
                                                 catalogue) under the fault-tolerant
                                                 harness: --fleet-heartbeat-ms sets
                                                 how long a silent node stays routable
                                                 (also $FDIP_FLEET_HEARTBEAT_MS),
                                                 --batch=off disables the
                                                 lockstep multi-config batch pass
                                                 (on by default; results identical
                                                 either way), --isolate runs cells in N
                                                 supervised worker processes (crashes
                                                 and hangs cost one worker, not the
                                                 run), --fleet dispatches cells to
                                                 remote `fdip workerd` daemons instead
                                                 (killed nodes cost a re-dispatch,
                                                 never the run; needs --isolate),
                                                 --cache persists finished cells to a
                                                 shared content-addressed directory
                                                 consulted before any dispatch,
                                                 --faults injects deterministic
                                                 failures (kind@workload/config[:arg],
                                                 kinds panic|transient|trace|slow, plus
                                                 abort|hang|bigalloc under --isolate
                                                 and drop|partition|slowlink|truncframe
                                                 under --fleet; also read from
                                                 $FDIP_FAULTS), --journal records
                                                 finished cells so a killed run
                                                 resumes without re-simulating them
  serve    [--addr HOST:PORT] [--threads N] [--queue-depth N] [--timeout-ms N]
           [--max-conns N] [--tenant-rps N]
           [--results-dir DIR] [--max-trace-len N] [--max-configs N] [--isolate N]
           [--fleet ADDR,...] [--fleet-heartbeat-ms N]
                                                 run the HTTP simulation service
                                                 (healthz, metrics, v1/run, v1/compare,
                                                 v1/experiments/{id}); --max-conns caps
                                                 open connections (extra accepts are
                                                 shed 503), --tenant-rps rate-limits
                                                 each x-fdip-tenant to N requests/sec
                                                 (429 beyond; 0 = unlimited);
                                                 identical concurrent simulations
                                                 coalesce into one run; --isolate keeps
                                                 crashing cells in worker processes
                                                 (structured 502, server stays up);
                                                 --fleet dispatches cells to remote
                                                 `fdip workerd` daemons, --cache
                                                 persists finished cells to DIR
                                                 (default RESULTS/cellcache; `none`
                                                 disables) so a restarted server is
                                                 warm from request one
  workerd  --listen HOST:PORT [--slots N]        run a TCP worker daemon: fleet
                                                 clients dispatch cells here, each
                                                 simulated in a supervised child
                                                 process (a crash costs the child,
                                                 not the daemon); ctrl-c or SIGTERM
                                                 finishes in-flight cells, then exits
  chaos    [--rounds N] [--seed N] [--exp ID,ID,...]
                                                 run the seeded chaos soak: N rounds
                                                 of real experiments against a live
                                                 two-daemon fleet with a shared cell
                                                 cache, while the schedule SIGKILLs
                                                 and restarts daemons, injects
                                                 network faults, and rots cache
                                                 entries; every round must stay
                                                 byte-identical to the fault-free
                                                 baseline and re-simulation must be
                                                 bounded by the corrupted entries;
                                                 exits nonzero when any gate fails
  help                                           print this usage text

trace format is inferred from the file extension: `.txt` is text,
anything else is the binary format.";

type CliResult = Result<(), Box<dyn Error>>;

/// Dispatches `argv` to a subcommand.
///
/// # Errors
///
/// Returns a human-readable error for unknown commands, bad flags, bad
/// files, or malformed traces.
pub fn dispatch(argv: &[String]) -> CliResult {
    let Some((command, rest)) = argv.split_first() else {
        return Err(unknown_command_error("no command given"));
    };
    // `exp` takes bare flags (`--quick`, `--isolate[=N]`, ...), which the
    // `--key value` parser would misread; `RunOptions::from_args` parses it.
    if command == "exp" {
        return cmd_exp(rest);
    }
    // Hidden: the supervisor self-execs `fdip worker` (with FDIP_WORKER=1
    // set) to get a disposable single-cell worker. Normally the env check
    // in main() catches it first; this arm covers a manual invocation. It
    // is not listed in COMMANDS because it speaks the framed IPC protocol
    // on stdin/stdout, not the CLI.
    if command == "worker" {
        std::process::exit(fdip_sim::worker::worker_main());
    }
    let args = Args::parse(rest)?;
    match command.as_str() {
        "gen" => cmd_gen(&args),
        "asm" => cmd_asm(&args),
        "run-prog" => cmd_run_prog(&args),
        "stats" => cmd_stats(&args),
        "run" => cmd_run(&args),
        "compare" => cmd_compare(&args),
        "slice" => cmd_slice(&args),
        "convert" => cmd_convert(&args),
        "tables" => cmd_tables(&args),
        "serve" => cmd_serve(&args),
        "workerd" => cmd_workerd(&args),
        "chaos" => cmd_chaos(&args),
        "help" | "--help" | "-h" => cmd_help(&args),
        other => Err(unknown_command_error(&format!("unknown command {other:?}"))),
    }
}

/// Builds the error for a missing or unrecognized command, listing every
/// subcommand so the user never has to guess.
fn unknown_command_error(lead: &str) -> Box<dyn Error> {
    let list = COMMANDS
        .iter()
        .map(|(name, summary)| format!("  {name:<8} {summary}"))
        .collect::<Vec<_>>()
        .join("\n");
    format!("{lead}; commands are:\n{list}").into()
}

fn parse_profile(raw: &str) -> Result<Profile, Box<dyn Error>> {
    Profile::ALL
        .into_iter()
        .find(|p| p.name() == raw)
        .ok_or_else(|| format!("unknown profile {raw:?} (client|server|microloop|jumpy)").into())
}

fn load_trace(path: &str) -> Result<Trace, Box<dyn Error>> {
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let reader = BufReader::new(file);
    let trace = if Path::new(path).extension().is_some_and(|e| e == "txt") {
        read_text(reader)?
    } else {
        read_binary(reader)?
    };
    trace.validate()?;
    Ok(trace)
}

fn save_trace(path: &str, trace: &Trace, force_text: bool) -> Result<(), Box<dyn Error>> {
    let file = File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let writer = BufWriter::new(file);
    if force_text || Path::new(path).extension().is_some_and(|e| e == "txt") {
        write_text(writer, trace)?;
    } else {
        write_binary_compact(writer, trace)?;
    }
    Ok(())
}

fn cmd_gen(args: &Args) -> CliResult {
    let profile = parse_profile(args.require("profile")?)?;
    let seed = args.get_or("seed", 0u64, "an integer seed")?;
    let len = args.get_or("len", 1_000_000usize, "an instruction count")?;
    let out = args.require("out")?.to_string();
    let format = args.get("format").unwrap_or("binary").to_string();
    args.expect_positional(0, "gen takes no positional arguments")?;
    args.reject_unknown()?;

    let trace = GeneratorConfig::profile(profile)
        .seed(seed)
        .target_len(len)
        .generate();
    save_trace(&out, &trace, format == "text")?;
    let stats = TraceStats::measure(&trace);
    println!(
        "wrote {} ({} instructions, {:.0} KB footprint, {} static taken branches)",
        out,
        trace.len(),
        stats.footprint_bytes as f64 / 1024.0,
        stats.static_taken_branches,
    );
    Ok(())
}

/// Assembles `path` (program name = file stem) or explains why it can't.
fn assemble_file(path: &str) -> Result<fdip_isa::Program, Box<dyn Error>> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let name = Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("program")
        .to_string();
    fdip_isa::assemble(&name, &src).map_err(|e| format!("{path}:{e}").into())
}

fn cmd_asm(args: &Args) -> CliResult {
    let files = args.expect_positional(1, "asm takes exactly one FISA source file")?;
    args.reject_unknown()?;
    let program = assemble_file(&files[0])?;
    let control = program.insts.iter().filter(|i| i.is_control()).count();
    println!("program:       {}", program.name);
    println!(
        "instructions:  {} ({} control-flow)",
        program.insts.len(),
        control
    );
    println!("data words:    {}", program.data.len());
    println!("entry:         inst {}", program.entry);
    println!("symbols:");
    for s in &program.symbols {
        println!("  {:<5} {:>8}  {}", s.kind.tag(), s.value, s.name);
    }
    Ok(())
}

fn cmd_run_prog(args: &Args) -> CliResult {
    let files = args.expect_positional(
        1,
        "run-prog takes a program name, scenario name, or source file",
    )?;
    let target = files[0].as_str();
    if target == "list" {
        args.reject_unknown()?;
        println!("library programs:");
        for name in fdip_isa::library::names() {
            let p = fdip_isa::library::load(name).expect("library name");
            println!("  {:<8} {} instructions", name, p.insts.len());
        }
        println!("scenarios (take --seed):");
        for def in fdip_isa::scenario::SCENARIOS {
            println!("  {:<10} {}", def.name, def.describe);
        }
        return Ok(());
    }
    let len = args.get_or("len", 200_000usize, "an instruction count")?;
    let seed = args.get_or("seed", 0u64, "an integer seed")?;
    let out = args.get("out").map(str::to_string);

    // Resolution order: library program, scenario, then a source file —
    // catalogue names are reserved words, paths can always disambiguate
    // with `./`.
    let trace = if let Some(t) = fdip_isa::library::trace(target, target, len) {
        t
    } else if let Some(t) = fdip_isa::scenario::trace(target, seed, target, len) {
        t
    } else {
        let program = assemble_file(target)?;
        let name = program.name.clone();
        fdip_isa::program_trace(&program, &name, len)
            .map_err(|e| format!("{target}: execution failed: {e}"))?
    };

    if let Some(out) = out {
        args.reject_unknown()?;
        save_trace(&out, &trace, false)?;
        let stats = TraceStats::measure(&trace);
        println!(
            "wrote {} ({} instructions, {:.1} KB footprint, {:.1} branches/KI)",
            out,
            trace.len(),
            stats.footprint_bytes as f64 / 1024.0,
            stats.branch_pki(),
        );
        return Ok(());
    }
    let config = config_from_args(args)?;
    args.reject_unknown()?;
    let stats = Simulator::run_trace(&config, &trace);
    println!("workload:      {}", trace.name());
    println!("prefetcher:    {}", config.prefetcher.name());
    println!("instructions:  {}", stats.instructions);
    println!("cycles:        {}", stats.cycles);
    println!("IPC:           {:.3}", stats.ipc());
    println!("L1-I MPKI:     {:.2}", stats.l1i_mpki());
    Ok(())
}

fn cmd_stats(args: &Args) -> CliResult {
    let files = args.expect_positional(1, "stats takes exactly one trace file")?;
    args.reject_unknown()?;
    let trace = load_trace(&files[0])?;
    let s = TraceStats::measure(&trace);
    println!("trace:                {}", trace.name());
    println!("instructions:         {}", s.len);
    println!(
        "instruction footprint: {:.1} KB ({} x 64B blocks)",
        s.footprint_bytes as f64 / 1024.0,
        s.footprint_blocks_64b
    );
    println!(
        "static branches:      {} ({} taken at least once)",
        s.static_branches, s.static_taken_branches
    );
    println!("branches per KI:      {:.1}", s.branch_pki());
    println!("cond taken ratio:     {:.3}", s.mix.cond_taken_ratio());
    println!("dynamic branch mix:");
    for class in fdip_types::BranchClass::ALL {
        let count = s.mix.count(class);
        if count > 0 {
            println!(
                "  {class:<6} {:>9}  ({:.1}%)",
                count,
                count as f64 * 100.0 / s.mix.total() as f64
            );
        }
    }
    println!(
        "taken-branch offsets: <=8b {:.1}%  9-13b {:.1}%  14-23b {:.1}%  >23b {:.1}%",
        s.offsets.cumulative_fraction(8) * 100.0,
        (s.offsets.cumulative_fraction(13) - s.offsets.cumulative_fraction(8)) * 100.0,
        (s.offsets.cumulative_fraction(23) - s.offsets.cumulative_fraction(13)) * 100.0,
        (1.0 - s.offsets.cumulative_fraction(23)) * 100.0,
    );
    Ok(())
}

fn config_from_args(args: &Args) -> Result<FrontendConfig, Box<dyn Error>> {
    let cpf = spec::parse_cpf(args.get("cpf").unwrap_or("none"))?;
    let mut config = FrontendConfig {
        prefetcher: spec::parse_prefetcher(args.get("prefetcher").unwrap_or("none"), cpf)?,
        ..FrontendConfig::default()
    };
    if let Some(raw) = args.get("btb") {
        config.btb = spec::parse_btb(raw)?;
    }
    if let Some(raw) = args.get("predictor") {
        config.predictor = spec::parse_predictor(raw)?;
    }
    config.ftq_entries = args.get_or("ftq", config.ftq_entries, "a queue depth")?;
    spec::set_l1_kb(&mut config, args.get_or("l1-kb", 16, "a size in KB")?)?;
    config.mem.l2_latency = args.get_or("l2-latency", config.mem.l2_latency, "cycles")?;
    config.mem.mem_latency = args.get_or("mem-latency", config.mem.mem_latency, "cycles")?;
    config.check()?;
    Ok(config)
}

fn cmd_run(args: &Args) -> CliResult {
    let files = args.expect_positional(1, "run takes exactly one trace file")?;
    let config = config_from_args(args)?;
    let warmup = args.get_or("warmup", 0u64, "an instruction count")?;
    args.reject_unknown()?;
    let trace = load_trace(&files[0])?;
    let storage = Simulator::new(&config, &trace).storage_report();
    let stats = if warmup > 0 {
        Simulator::new(&config, &trace).run_with_warmup(warmup)
    } else {
        Simulator::run_trace(&config, &trace)
    };
    println!(
        "front-end storage:  {:.2} KB (btb {:.2} + predictor {:.2} + ras {:.2} + pbuf {:.2})",
        storage.total_kb(),
        storage.btb_bits as f64 / 8192.0,
        storage.predictor_bits as f64 / 8192.0,
        storage.ras_bits as f64 / 8192.0,
        storage.prefetch_buffer_bits as f64 / 8192.0,
    );
    println!("prefetcher:         {}", config.prefetcher.name());
    println!("instructions:       {}", stats.instructions);
    println!("cycles:             {}", stats.cycles);
    println!("IPC:                {:.3}", stats.ipc());
    println!("L1-I MPKI:          {:.2}", stats.l1i_mpki());
    println!(
        "exec redirects/KI:  {:.2}",
        stats.branches.mpki(stats.instructions)
    );
    println!("BTB hit ratio:      {:.3}", stats.branches.btb_hit_ratio());
    println!(
        "bus utilization:    {:.1}%",
        stats.bus_utilization() * 100.0
    );
    if stats.mem.prefetches_issued > 0 {
        println!(
            "prefetches:         {} issued, {} useful ({:.1}%), {} late",
            stats.mem.prefetches_issued,
            stats.mem.useful_prefetches,
            stats.mem.prefetch_accuracy() * 100.0,
            stats.mem.late_prefetches,
        );
    }
    Ok(())
}

fn cmd_compare(args: &Args) -> CliResult {
    let files = args.expect_positional(1, "compare takes exactly one trace file")?;
    args.reject_unknown()?;
    let trace = load_trace(&files[0])?;
    let base = Simulator::run_trace(&FrontendConfig::default(), &trace);
    println!(
        "baseline: IPC {:.3}, L1-I MPKI {:.2}\n",
        base.ipc(),
        base.l1i_mpki()
    );
    println!(
        "{:<12} {:>8} {:>10} {:>10}",
        "prefetcher", "speedup", "coverage", "bus"
    );
    let kinds = [
        ("nlp", PrefetcherKind::NextLine),
        ("stream", PrefetcherKind::StreamBuffers(Default::default())),
        ("fdip", PrefetcherKind::fdip()),
        ("fdip+cpf", PrefetcherKind::fdip_with_cpf(CpfMode::Remove)),
        ("pif", PrefetcherKind::Pif(Default::default())),
    ];
    for (name, kind) in kinds {
        let stats = Simulator::run_trace(&FrontendConfig::default().with_prefetcher(kind), &trace);
        println!(
            "{:<12} {:>7.3}x {:>9.1}% {:>9.1}%",
            name,
            stats.speedup_over(&base),
            stats.miss_coverage_vs(&base) * 100.0,
            stats.bus_utilization() * 100.0,
        );
    }
    Ok(())
}

fn cmd_slice(args: &Args) -> CliResult {
    let files = args.expect_positional(2, "slice takes IN and OUT files")?;
    let start = args.get_or("start", 0usize, "an instruction index")?;
    let len = args
        .require("len")?
        .parse::<usize>()
        .map_err(|_| "bad --len")?;
    args.reject_unknown()?;
    let trace = load_trace(&files[0])?;
    if start > trace.len() {
        return Err(format!("--start {start} past trace end ({})", trace.len()).into());
    }
    let window = trace.window(start, len);
    save_trace(&files[1], &window, false)?;
    println!("wrote {} ({} instructions)", files[1], window.len());
    Ok(())
}

fn cmd_convert(args: &Args) -> CliResult {
    let files = args.expect_positional(2, "convert takes IN and OUT files")?;
    args.reject_unknown()?;
    let trace = load_trace(&files[0])?;
    save_trace(&files[1], &trace, false)?;
    println!("wrote {} ({} instructions)", files[1], trace.len());
    Ok(())
}

fn cmd_tables(args: &Args) -> CliResult {
    args.reject_unknown()?;
    use fdip_sim::experiments;
    use fdip_sim::harness::Harness;
    use fdip_sim::Scale;
    let harness = Harness::global();
    if let Some(id) = args.positional().first() {
        let exp = experiments::find(id).ok_or_else(|| {
            let ids: Vec<&str> = experiments::all().iter().map(|e| e.id()).collect();
            format!("unknown experiment {id:?} (one of: {})", ids.join(", "))
        })?;
        print!("{}", exp.run(harness, Scale::quick()).to_text());
        return Ok(());
    }
    for id in ["x2", "x3"] {
        let exp = experiments::find(id).expect("storage tables are registered");
        print!("{}", exp.run(harness, Scale::quick()).to_text());
    }
    Ok(())
}

fn cmd_chaos(args: &Args) -> CliResult {
    use fdip_sim::chaos::{run_chaos, ChaosConfig};
    let defaults = ChaosConfig::default();
    let rounds = args.get_or("rounds", defaults.rounds, "a round count")?;
    let seed = args.get_or("seed", defaults.seed, "an integer seed")?;
    let experiments = match args.get("exp") {
        None => defaults.experiments,
        Some(list) => {
            let ids: Vec<String> = list
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if ids.is_empty() {
                return Err("--exp needs at least one experiment id".into());
            }
            ids
        }
    };
    args.expect_positional(0, "chaos takes no positional arguments")?;
    args.reject_unknown()?;
    if rounds == 0 {
        return Err("--rounds must be positive".into());
    }

    let config = ChaosConfig {
        rounds,
        seed,
        experiments,
    };
    eprintln!(
        "chaos: {} round(s), seed {}, experiments {}",
        config.rounds,
        config.seed,
        config.experiments.join(","),
    );
    let report = run_chaos(&config)?;
    print!("{}", report.to_text());
    if report.passed() {
        Ok(())
    } else {
        Err(format!("chaos soak failed {} gate(s)", report.failures.len()).into())
    }
}

fn cmd_exp(raw: &[String]) -> CliResult {
    use fdip_sim::experiments;
    use fdip_sim::harness::Harness;
    use fdip_sim::options::{RunArgs, RunOptions};

    let RunArgs {
        options,
        scale,
        positional,
    } = RunOptions::from_args(raw.iter().cloned())?;
    if positional.len() > 1 {
        return Err("exp takes at most one experiment id (or \"all\")".into());
    }
    let selected: Vec<&'static dyn experiments::Experiment> =
        match positional.first().map(String::as_str) {
            None | Some("all") => experiments::all(),
            Some(id) => {
                let exp = experiments::find(id).ok_or_else(|| {
                    let ids: Vec<&str> = experiments::all().iter().map(|e| e.id()).collect();
                    format!(
                        "unknown experiment {id:?} (one of: {}, all)",
                        ids.join(", ")
                    )
                })?;
                vec![exp]
            }
        };

    let opened = Harness::open(options)?;
    eprint!("{}", opened.startup_lines());
    let harness = &opened.harness;
    let start = std::time::Instant::now();
    for exp in selected {
        let id = exp.id();
        eprintln!("[{id}] {} ...", exp.title());
        let t = std::time::Instant::now();
        let result = exp.run(harness, scale);
        print!("{}", result.to_text());
        eprintln!("[{id}] {:.1}s", t.elapsed().as_secs_f64());
    }
    eprint!("{}", harness.summary());
    eprintln!("total {:.1}s", start.elapsed().as_secs_f64());
    let failed = harness.stats().cells_failed;
    if failed > 0 {
        eprintln!("warning: {failed} cell(s) FAILED; affected rows are marked in the tables above");
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> CliResult {
    use fdip_serve::{ServeConfig, Server};
    let defaults = ServeConfig::default();
    // Validated here, before any connection is dialed.
    let fleet_heartbeat_ms = args
        .get("fleet-heartbeat-ms")
        .map(|raw| fdip_sim::options::parse_positive_ms("--fleet-heartbeat-ms", raw))
        .transpose()?;
    let config = ServeConfig {
        addr: args.get("addr").unwrap_or(&defaults.addr).to_string(),
        threads: args.get_or("threads", defaults.threads, "a worker count (0 = auto)")?,
        queue_depth: args.get_or("queue-depth", defaults.queue_depth, "a queue capacity")?,
        timeout_ms: args.get_or("timeout-ms", defaults.timeout_ms, "milliseconds")?,
        max_conns: args.get_or("max-conns", defaults.max_conns, "a connection cap")?,
        tenant_rps: args.get_or(
            "tenant-rps",
            defaults.tenant_rps,
            "requests/second per tenant (0 = unlimited)",
        )?,
        results_dir: args
            .get("results-dir")
            .map(std::path::PathBuf::from)
            .unwrap_or(defaults.results_dir),
        max_trace_len: args.get_or(
            "max-trace-len",
            defaults.max_trace_len,
            "an instruction count",
        )?,
        max_configs: args.get_or("max-configs", defaults.max_configs, "a config count")?,
        isolate_workers: args.get_or(
            "isolate",
            defaults.isolate_workers,
            "a worker-process count (0 = in-process)",
        )?,
        fleet: args.get("fleet").map(str::to_string),
        fleet_heartbeat_ms,
        cache_dir: None,
        // Honor $FDIP_FAULTS so fault drills work against the live
        // service: matching cells fail into structured 502s instead of
        // panicking a worker (see DESIGN.md §6.5).
        faults: fdip_sim::fault::FaultPlan::from_env()?.map(std::sync::Arc::new),
    };
    // The serve-side cell cache is on by default (warm restarts); opt out
    // with `--cache none`.
    let config = fdip_serve::ServeConfig {
        cache_dir: match args.get("cache") {
            Some("none") => None,
            Some(dir) => Some(std::path::PathBuf::from(dir)),
            None => Some(config.results_dir.join("cellcache")),
        },
        ..config
    };
    args.expect_positional(0, "serve takes no positional arguments")?;
    args.reject_unknown()?;

    let server = Server::bind(config.clone()).map_err(|e| format!("serve {}: {e}", config.addr))?;
    let addr = server.local_addr()?;
    println!("fdip-serve listening on http://{addr}");
    println!(
        "  {} workers, queue depth {}, timeout {}ms, max {} connections",
        if config.threads == 0 {
            "auto".to_string()
        } else {
            config.threads.to_string()
        },
        config.queue_depth,
        config.timeout_ms,
        config.max_conns,
    );
    if config.tenant_rps > 0 {
        println!(
            "  rate limit: {} request(s)/second per x-fdip-tenant (429 beyond)",
            config.tenant_rps
        );
    }
    println!("  endpoints: /healthz /metrics /v1/run /v1/compare /v1/experiments/{{id}}");
    println!("  stop with ctrl-c or SIGTERM (drains in-flight work)");
    server.run()?;
    println!("fdip-serve drained and stopped");
    Ok(())
}

fn cmd_workerd(args: &Args) -> CliResult {
    use fdip_sim::{fleet, supervisor};
    let listen = args.require("listen")?.to_string();
    let slots = args.get_or("slots", supervisor::default_worker_count(), "a seat count")?;
    args.expect_positional(0, "workerd takes no positional arguments")?;
    args.reject_unknown()?;
    if slots == 0 {
        return Err("--slots must be positive".into());
    }

    let listener =
        std::net::TcpListener::bind(&listen).map_err(|e| format!("bind {listen}: {e}"))?;
    let addr = listener.local_addr()?;
    fdip_serve::signal::install();
    println!("fdip-workerd listening on {addr} ({slots} seat(s))");
    println!("  stop with ctrl-c or SIGTERM (finishes in-flight cells, then exits)");
    fleet::serve_workerd(listener, slots, &fdip_serve::signal::shutdown_requested)?;
    println!("fdip-workerd drained and stopped");
    Ok(())
}

fn cmd_help(args: &Args) -> CliResult {
    args.reject_unknown()?;
    println!("{USAGE}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn unknown_command_error_lists_every_subcommand() {
        let err = dispatch(&argv("frobnicate")).unwrap_err().to_string();
        assert!(err.contains("unknown command \"frobnicate\""), "{err}");
        for (name, _) in COMMANDS {
            assert!(err.contains(name), "{name} missing from:\n{err}");
        }
        let none = dispatch(&[]).unwrap_err().to_string();
        assert!(none.contains("no command given"), "{none}");
        assert!(none.contains("serve"), "{none}");
    }

    #[test]
    fn every_listed_command_is_routed() {
        // One probe per command that fails (or succeeds) inside the
        // command itself — if a COMMANDS entry were missing from the
        // dispatch match, its probe would surface "unknown command".
        for (name, _) in COMMANDS {
            let probe = match name {
                "help" => {
                    dispatch(&argv("help")).unwrap();
                    continue;
                }
                "gen" => argv("gen"),               // --profile is required
                "tables" => argv("tables zz"),      // unknown experiment
                "serve" => argv("serve stray-arg"), // takes no positionals
                other => argv(&format!("{other} --bogus-flag x")),
            };
            let err = dispatch(&probe).unwrap_err().to_string();
            assert!(!err.contains("unknown command"), "{name}: {err}");
        }
    }

    #[test]
    fn serve_rejects_bad_flags_before_binding() {
        let err = dispatch(&argv("serve --queue-depth many")).unwrap_err();
        assert!(err.to_string().contains("queue-depth"), "{err}");
        let err = dispatch(&argv("serve --tenant-rps lots")).unwrap_err();
        assert!(err.to_string().contains("tenant-rps"), "{err}");
        let err = dispatch(&argv("serve --max-conns -3")).unwrap_err();
        assert!(err.to_string().contains("max-conns"), "{err}");
        let err = dispatch(&argv("serve --bogus 1")).unwrap_err();
        assert!(err.to_string().contains("--bogus"), "{err}");
    }

    #[test]
    fn usage_mentions_every_command() {
        for (name, _) in COMMANDS {
            assert!(USAGE.contains(name), "{name} missing from USAGE");
        }
    }

    #[test]
    fn bad_specs_are_errors_not_panics() {
        // The spec parsers themselves are tested in `fdip::spec`; here we
        // check the CLI surfaces their failures as errors.
        for bad in [
            "--btb conventional:1001",
            "--btb bogus:8",
            "--prefetcher warp",
            "--predictor oracle9000",
            "--cpf sometimes",
            "--l1-kb 3",
        ] {
            let args = Args::parse(&argv(bad)).unwrap();
            assert!(config_from_args(&args).is_err(), "{bad}");
        }
    }

    #[test]
    fn config_from_args_applies_overrides() {
        use fdip::BtbVariant;
        let args = Args::parse(&argv(
            "--prefetcher fdip --cpf remove --btb fdipx:1024 --ftq 8 --l1-kb 32 --mem-latency 200",
        ))
        .unwrap();
        let config = config_from_args(&args).unwrap();
        assert_eq!(config.prefetcher.name(), "fdip+rcpf");
        assert!(matches!(config.btb, BtbVariant::Partitioned(_)));
        assert_eq!(config.ftq_entries, 8);
        assert_eq!(config.mem.l1.capacity_bytes(), 32 * 1024);
        assert_eq!(config.mem.mem_latency, 200);
    }

    #[test]
    fn gen_stats_run_convert_roundtrip() {
        let dir = std::env::temp_dir().join("fdip-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bin = dir.join("t.fdt");
        let txt = dir.join("t.txt");
        let bin_s = bin.to_str().unwrap().to_string();
        let txt_s = txt.to_str().unwrap().to_string();

        dispatch(&[
            "gen".into(),
            "--profile".into(),
            "microloop".into(),
            "--seed".into(),
            "3".into(),
            "--len".into(),
            "5000".into(),
            "--out".into(),
            bin_s.clone(),
        ])
        .unwrap();
        dispatch(&["stats".into(), bin_s.clone()]).unwrap();
        dispatch(&["convert".into(), bin_s.clone(), txt_s.clone()]).unwrap();
        dispatch(&[
            "run".into(),
            txt_s.clone(),
            "--prefetcher".into(),
            "fdip".into(),
        ])
        .unwrap();
        // Binary and text round-trips agree.
        let a = load_trace(&bin_s).unwrap();
        let b = load_trace(&txt_s).unwrap();
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slice_extracts_a_window() {
        let dir = std::env::temp_dir().join("fdip-cli-slice-test");
        std::fs::create_dir_all(&dir).unwrap();
        let full = dir.join("full.fdt");
        let cut = dir.join("cut.fdt");
        dispatch(&[
            "gen".into(),
            "--profile".into(),
            "microloop".into(),
            "--len".into(),
            "4000".into(),
            "--out".into(),
            full.to_str().unwrap().into(),
        ])
        .unwrap();
        dispatch(&[
            "slice".into(),
            full.to_str().unwrap().into(),
            cut.to_str().unwrap().into(),
            "--start".into(),
            "1000".into(),
            "--len".into(),
            "500".into(),
        ])
        .unwrap();
        let window = load_trace(cut.to_str().unwrap()).unwrap();
        assert_eq!(window.len(), 500);
        window.validate().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn asm_and_run_prog_round_trip() {
        let dir = std::env::temp_dir().join("fdip-cli-asm-test");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("count.fasm");
        let out = dir.join("count.fdt");
        std::fs::write(
            &src,
            "main: li r1, 50\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt\n",
        )
        .unwrap();
        let src_s = src.to_str().unwrap().to_string();

        dispatch(&["asm".into(), src_s.clone()]).unwrap();
        dispatch(&[
            "run-prog".into(),
            src_s.clone(),
            "--len".into(),
            "2000".into(),
            "--out".into(),
            out.to_str().unwrap().into(),
        ])
        .unwrap();
        let trace = load_trace(out.to_str().unwrap()).unwrap();
        assert!(trace.len() >= 2000);
        assert_eq!(trace.name(), "count");

        // Library programs and scenarios resolve by name and simulate.
        dispatch(&argv("run-prog fib --len 2000 --prefetcher fdip")).unwrap();
        dispatch(&argv("run-prog irq-vm --len 2000 --seed 3")).unwrap();
        dispatch(&argv("run-prog list")).unwrap();

        // Assembly errors surface as typed errors with the source path.
        std::fs::write(&src, "main: frob r1\nhalt\n").unwrap();
        let err = dispatch(&["asm".into(), src_s.clone()])
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown mnemonic"), "{err}");
        assert!(err.contains("count.fasm"), "{err}");
        let err = dispatch(&argv("run-prog no-such-thing"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("no-such-thing"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tables_prints() {
        dispatch(&["tables".into()]).unwrap();
        // Registry-resolved form: x3 is pure arithmetic, so it is cheap.
        dispatch(&["tables".into(), "x3".into()]).unwrap();
    }

    #[test]
    fn exp_runs_a_cheap_experiment_and_rejects_bad_input() {
        // x3 is pure arithmetic, so the full path (scale-flag stripping,
        // registry lookup, harness summary) is exercised cheaply.
        dispatch(&argv("exp x3 --quick")).unwrap();
        let err = dispatch(&argv("exp zz --quick")).unwrap_err().to_string();
        assert!(err.contains("unknown experiment \"zz\""), "{err}");
        let err = dispatch(&argv("exp --faults nonsense"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("missing '@'"), "{err}");
        let err = dispatch(&argv("exp e01 e02 --quick"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("at most one"), "{err}");
        let err = dispatch(&argv("exp --bogus 1")).unwrap_err().to_string();
        assert!(err.contains("--bogus"), "{err}");
    }

    #[test]
    fn tables_rejects_unknown_experiment() {
        let err = dispatch(&["tables".into(), "zz".into()]).unwrap_err();
        assert!(err.to_string().contains("unknown experiment"));
        assert!(err.to_string().contains("e01"));
    }
}
