//! Property tests for the fault-injection machinery (behind the
//! `proptest-tests` feature): any plan built solely of *retryable* fault
//! kinds, given enough retry attempts to absorb every shot, must leave the
//! matrix byte-identical to a fault-free run — fault injection may cost
//! retries, never correctness.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use fdip::{FrontendConfig, PrefetcherKind};
use fdip_sim::fault::{FaultPlan, RetryPolicy};
use fdip_sim::harness::Harness;
use fdip_sim::options::RunOptions;
use fdip_sim::workload::{suite, SuiteKind};
use fdip_sim::Scale;
use fdip_types::ToJson;
use proptest::prelude::*;

const TRACE_LEN: usize = 8_000;

fn configs() -> Vec<(String, FrontendConfig)> {
    vec![
        ("base".to_string(), FrontendConfig::default()),
        (
            "fdip".to_string(),
            FrontendConfig::default().with_prefetcher(PrefetcherKind::fdip()),
        ),
    ]
}

/// The fault-free rendering of every cell, computed once per process.
fn reference() -> &'static Vec<String> {
    static REF: OnceLock<Vec<String>> = OnceLock::new();
    REF.get_or_init(|| {
        let workloads = suite(SuiteKind::Client, Scale::quick());
        Harness::with_threads(2)
            .run_matrix(&workloads, TRACE_LEN, &configs())
            .iter()
            .map(|r| r.to_json().to_string())
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn retryable_plans_converge_to_the_fault_free_values(
        sites in proptest::collection::vec((0usize..2, 0usize..2, 0usize..3, 1u32..3), 0..4),
        seed in 0u64..1000,
    ) {
        let kinds = ["transient", "trace"];
        let workload_coords = ["client-1", "*"];
        let config_coords = ["base", "fdip", "*"];
        let mut items: Vec<String> = sites
            .iter()
            .map(|(k, w, c, t)| {
                format!("{}@{}/{}:{}", kinds[*k], workload_coords[*w], config_coords[*c], t)
            })
            .collect();
        items.push(format!("seed={seed}"));
        let plan = FaultPlan::parse(&items.join(",")).unwrap();
        // Worst case every shot of every site lands on one cell, so this
        // attempt budget always suffices for retries to clear the plan.
        let shots: u32 = sites.iter().map(|(_, _, _, t)| *t).sum();

        let workloads = suite(SuiteKind::Client, Scale::quick());
        let harness = Harness::open(RunOptions {
            threads: Some(2),
            retry: RetryPolicy {
                max_attempts: shots + 1,
                backoff: Duration::ZERO,
                cell_budget: None,
            },
            faults: Some(Arc::new(plan)),
            ..RunOptions::default()
        })
        .unwrap()
        .harness;
        let got = harness.run_matrix(&workloads, TRACE_LEN, &configs());

        let want = reference();
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            prop_assert!(
                g.error.is_none(),
                "({}, {}) failed: {:?}",
                g.workload,
                g.config,
                g.error
            );
            prop_assert_eq!(&g.to_json().to_string(), w);
        }
        let stats = harness.stats();
        prop_assert!(stats.cell_retries <= u64::from(shots));
        prop_assert_eq!(stats.cells_failed, 0);
    }
}
