//! End-to-end guarantees for real-program workloads: every library
//! program and scenario flows through the binary codec, the harness
//! trace store, the cell cache, and the journal with byte-identical
//! results across runs — the same guarantees the synthetic suites have.

use fdip::{FrontendConfig, PrefetcherKind};
use fdip_sim::harness::{Harness, Opened};
use fdip_sim::options::RunOptions;
use fdip_sim::workload::{program_suite, scenario_suite, WorkloadSpec};
use fdip_sim::Scale;
use fdip_trace::{read_binary, write_binary};
use fdip_types::ToJson;

const TRACE_LEN: usize = 20_000;

fn configs() -> Vec<(String, FrontendConfig)> {
    vec![
        ("base".to_string(), FrontendConfig::default()),
        (
            "fdip".to_string(),
            FrontendConfig::default().with_prefetcher(PrefetcherKind::fdip()),
        ),
    ]
}

fn real_workloads() -> Vec<WorkloadSpec> {
    let mut w = program_suite();
    w.extend(scenario_suite(7));
    w
}

#[test]
fn library_traces_round_trip_the_binary_codec() {
    for spec in real_workloads() {
        let trace = spec.generate(TRACE_LEN);
        trace
            .validate()
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let mut buf = Vec::new();
        write_binary(&mut buf, &trace).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(trace, back, "{}", spec.name);

        // Regeneration is byte-identical through the codec too.
        let mut again = Vec::new();
        write_binary(&mut again, &spec.generate(TRACE_LEN)).unwrap();
        assert_eq!(buf, again, "{}", spec.name);
    }
}

#[test]
fn real_program_matrix_is_deterministic_across_harnesses() {
    let workloads = real_workloads();
    let a = Harness::with_threads(2).run_matrix(&workloads, TRACE_LEN, &configs());
    let b = Harness::with_threads(1).run_matrix(&workloads, TRACE_LEN, &configs());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.to_json().to_string(), y.to_json().to_string());
    }
}

#[test]
fn r1_experiment_runs_end_to_end_and_repeats_byte_identically() {
    let exp = fdip_sim::experiments::find("r1").unwrap();
    let a = exp.run(&Harness::with_threads(2), Scale::quick());
    let b = exp.run(&Harness::with_threads(2), Scale::quick());
    assert_eq!(
        a.to_json("r1", exp.title()).to_string(),
        b.to_json("r1", exp.title()).to_string()
    );
    // Every cell simulated — no FAILED rows on the committed library.
    assert!(!a.to_text().contains("FAILED"), "{}", a.to_text());
}

#[test]
fn real_program_cells_resume_from_journal_byte_identically() {
    let workloads = real_workloads();
    let journal = std::env::temp_dir().join(format!(
        "fdip-real-programs-journal-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal);

    let reference = Harness::with_threads(2);
    let want = reference.run_matrix(&workloads, TRACE_LEN, &configs());

    // First run "dies" with only the base column journaled.
    let journaled = || {
        Harness::open(RunOptions {
            threads: Some(2),
            journal: Some(journal.clone()),
            ..RunOptions::default()
        })
        .unwrap()
    };
    let first = journaled().harness;
    first.run_matrix(&workloads, TRACE_LEN, &[configs()[0].clone()]);
    drop(first);

    // The resumed run restores every journaled cell — program and
    // scenario workloads serialize through the journal like synthetic
    // ones — and finishes the rest byte-identically.
    let Opened {
        harness: resumed,
        journal: summary,
        ..
    } = journaled();
    let summary = summary.unwrap();
    assert_eq!(summary.restored, workloads.len());
    assert_eq!(summary.corrupt, 0);
    let got = resumed.run_matrix(&workloads, TRACE_LEN, &configs());
    assert_eq!(resumed.stats().cells_simulated, workloads.len() as u64);

    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want.iter()) {
        assert_eq!(g.to_json().to_string(), w.to_json().to_string());
    }
    let _ = std::fs::remove_file(&journal);
}
