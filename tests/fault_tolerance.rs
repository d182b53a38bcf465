//! Fault-tolerance acceptance tests: a mixed fault plan degrades exactly
//! the non-retryable cells, transient faults retry to the fault-free
//! values, experiments render partial tables with `FAILED` markers, and a
//! run killed part-way resumes from its journal without re-simulating
//! anything — byte-for-byte identical results.

use std::sync::Arc;
use std::time::Duration;

use fdip::{FrontendConfig, PrefetcherKind};
use fdip_sim::fault::{CellError, FaultPlan, RetryPolicy};
use fdip_sim::harness::{Harness, Opened};
use fdip_sim::options::RunOptions;
use fdip_sim::workload::{suite, SuiteKind};
use fdip_sim::Scale;
use fdip_types::ToJson;

const TRACE_LEN: usize = 25_000;

fn configs() -> Vec<(String, FrontendConfig)> {
    vec![
        ("base".to_string(), FrontendConfig::default()),
        (
            "fdip".to_string(),
            FrontendConfig::default().with_prefetcher(PrefetcherKind::fdip()),
        ),
    ]
}

fn eager(max_attempts: u32, cell_budget: Option<Duration>) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        backoff: Duration::ZERO,
        cell_budget,
    }
}

/// A two-thread harness running `options`.
fn open(options: RunOptions) -> Opened {
    Harness::open(RunOptions {
        threads: Some(2),
        ..options
    })
    .unwrap()
}

/// A two-thread harness retrying under `retry` with the fault plan `plan`.
fn faulty(retry: RetryPolicy, plan: FaultPlan) -> Harness {
    open(RunOptions {
        retry,
        faults: Some(Arc::new(plan)),
        ..RunOptions::default()
    })
    .harness
}

fn journaled(journal: &std::path::Path) -> Opened {
    open(RunOptions {
        journal: Some(journal.to_path_buf()),
        ..RunOptions::default()
    })
}

fn temp_journal(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("fdip-fault-tol-{}-{tag}.jsonl", std::process::id()))
}

#[test]
fn mixed_plan_fails_exactly_the_non_retryable_cells() {
    let workloads = suite(SuiteKind::All, Scale::quick());
    assert!(workloads.len() >= 2);
    let (w0, w1) = (workloads[0].name.clone(), workloads[1].name.clone());

    let reference = Harness::with_threads(2);
    let want = reference.run_matrix(&workloads, TRACE_LEN, &configs());

    // One permanent panic, one wall-clock timeout, two transients that
    // clear within the retry budget.
    let plan = FaultPlan::parse(&format!(
        "panic@{w0}/fdip, slow@{w1}/base:10000, transient@{w0}/base:1, transient@{w1}/fdip:1, seed=7"
    ))
    .unwrap();
    let faulty = faulty(eager(3, Some(Duration::from_millis(1500))), plan);
    let got = faulty.run_matrix(&workloads, TRACE_LEN, &configs());

    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want.iter()) {
        assert_eq!((&g.workload, &g.config), (&w.workload, &w.config));
        match (g.workload.as_str(), g.config.as_str()) {
            (a, "fdip") if a == w0 => match &g.error {
                Some(CellError::Panic { attempts, .. }) => assert_eq!(*attempts, 3),
                other => panic!("expected panic for ({a}, fdip), got {other:?}"),
            },
            (b, "base") if b == w1 => match &g.error {
                Some(CellError::Timeout { budget_ms }) => assert_eq!(*budget_ms, 1500),
                other => panic!("expected timeout for ({b}, base), got {other:?}"),
            },
            _ => {
                // Every other cell — including the two transient-fault
                // sites — must match the fault-free run exactly.
                assert!(
                    g.error.is_none(),
                    "({}, {}): {:?}",
                    g.workload,
                    g.config,
                    g.error
                );
                assert_eq!(g.stats, w.stats, "({}, {})", g.workload, g.config);
                assert_eq!(g.to_json().to_string(), w.to_json().to_string());
            }
        }
    }

    let stats = faulty.stats();
    assert_eq!(stats.cells_failed, 2);
    assert_eq!(stats.cell_timeouts, 1);
    // Panic: 2 retries before giving up; each transient: 1 retry to clear.
    assert_eq!(stats.cell_retries, 4);
    assert_eq!(
        got.failures().count(),
        2,
        "exactly the panic and timeout cells fail"
    );
}

#[test]
fn experiments_render_partial_tables_with_failed_markers() {
    let harness = faulty(
        eager(1, None),
        FaultPlan::parse("panic@client-1/fdip").unwrap(),
    );
    let exp = fdip_sim::experiments::find("e01").unwrap();
    let result = exp.run(&harness, Scale::quick());
    let text = result.to_text();
    assert!(text.contains("FAILED"), "{text}");
    assert!(text.contains("failed cells"), "{text}");
    // The untouched workloads still produced real rows.
    assert!(text.contains("server-1"), "{text}");
}

#[test]
fn killed_run_resumes_from_journal_with_byte_identical_results() {
    let workloads = suite(SuiteKind::All, Scale::quick());
    let journal = temp_journal("resume");
    let _ = std::fs::remove_file(&journal);

    let reference = Harness::with_threads(2);
    let want = reference.run_matrix(&workloads, TRACE_LEN, &configs());

    // A first run that "dies" after finishing only the base column: the
    // journal is all that survives (the in-memory caches are dropped).
    let first = journaled(&journal).harness;
    let base_only = vec![configs()[0].clone()];
    first.run_matrix(&workloads, TRACE_LEN, &base_only);
    drop(first);

    let Opened {
        harness: resumed,
        journal: summary,
        ..
    } = journaled(&journal);
    let summary = summary.unwrap();
    assert_eq!(summary.restored, workloads.len());
    assert_eq!(summary.skipped, 0);
    let got = resumed.run_matrix(&workloads, TRACE_LEN, &configs());

    let stats = resumed.stats();
    assert_eq!(stats.journal_restored, workloads.len() as u64);
    // Only the fdip column was actually simulated; every journaled base
    // cell was served from the restored cache.
    assert_eq!(stats.cells_simulated, workloads.len() as u64);
    assert_eq!(stats.cells_failed, 0);

    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want.iter()) {
        assert_eq!(g.to_json().to_string(), w.to_json().to_string());
    }
    let _ = std::fs::remove_file(&journal);
}
