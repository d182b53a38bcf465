//! Metrics, the percentile rule, correctness bookkeeping and the output
//! format.

use fdip_types::Json;

use crate::Bench;

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or a count).
    pub n: usize,
    /// Per-layer (traced run) rather than end-to-end.
    pub layer: bool,
}

/// What a run measured and whether its outputs were correct.
#[derive(Default)]
pub struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn end_to_end(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.push(name, value, unit, n, false);
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.push(name, value, unit, n, true);
    }

    fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        n: usize,
        layer: bool,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            n,
            layer,
        });
    }

    /// Records `setup_s`, the median of the run's set-ups.
    pub fn setup_times(&mut self, samples_s: &[f64]) {
        self.end_to_end("setup_s", median(samples_s), "s", samples_s.len());
        eprintln!("[fdip-benchmark] set-ups (s): {samples_s:.4?}");
    }

    /// Records `op_ms`, the median time of the workload's operations,
    /// and reports their tail on stderr.
    pub fn op_timings(&mut self, samples_ms: &[f64]) {
        let s = summarize(samples_ms);
        self.end_to_end("op_ms", s.median, "ms", s.n);
        eprintln!("[fdip-benchmark] {} operations: {}", s.n, s.describe());
        if s.n <= 10 {
            eprintln!("[fdip-benchmark] operation times (ms): {samples_ms:.1?}");
        }
    }

    /// Counts one operation, failed or not.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts one correctness check; a failed one is recorded with the
    /// description `what` builds.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(ok);
        if !ok {
            let what = what();
            eprintln!("[fdip-benchmark] CHECK FAILED: {what}");
            self.problems.push(what);
        }
    }

    /// Whether every operation and check succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    #[cfg(test)]
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    #[cfg(test)]
    pub fn problems(&self) -> &[String] {
        &self.problems
    }

    /// The metrics of one kind.
    pub fn metrics(&self, layer: bool) -> impl Iterator<Item = &Metric> {
        self.metrics.iter().filter(move |m| m.layer == layer)
    }

    /// The sorted names of the metrics of one kind.
    #[cfg(test)]
    pub fn names(&self, layer: bool) -> Vec<String> {
        let mut names: Vec<String> = self.metrics(layer).map(|m| m.name.clone()).collect();
        names.sort();
        names
    }

    /// One stderr line per metric: workload, name, value, unit, samples.
    pub fn print_lines(&self, workload: &str) {
        for m in &self.metrics {
            let kind = if m.layer { "layer" } else { "end_to_end" };
            eprintln!(
                "{workload} {} {} {} n={} ({kind})",
                m.name, m.value, m.unit, m.n
            );
        }
        eprintln!(
            "{workload} attempted={} failed={} correct={}",
            self.attempted,
            self.failed,
            self.correct()
        );
    }

    /// The result line: end-to-end metrics, or per-layer ones for the
    /// traced run.
    pub fn to_json(&self, layer: bool) -> String {
        let metrics = self.metrics(layer).map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::num(m.value)), ("unit", Json::str(m.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::uint(self.attempted)),
            ("failed", Json::uint(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_string()
    }
}

/// A timing distribution reduced by the percentile rule: the median and
/// the highest percentile that has at least ten samples beyond it, with
/// the sample count. p90 and p99 are included where they have ten
/// samples beyond them.
///
/// Only the median is gated. On a shared two-core host, the p90 of
/// `serve_mix` moved by up to 29% (interquartile range over median)
/// across ten runs of the same code, as other load on the host came and
/// went; that is wider than the largest bound a metric may carry, so
/// tails are reported, not gated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub p90: Option<f64>,
    pub p99: Option<f64>,
    /// (value, percentile) of the highest resolvable percentile.
    pub highest: Option<(f64, f64)>,
}

impl Summary {
    /// `median …ms, p90 …ms, p99 …ms, p99.83 …ms` for the stderr report.
    pub fn describe(&self) -> String {
        let mut text = format!("median {:.3}ms", self.median);
        for (name, value) in [("p90", self.p90), ("p99", self.p99)] {
            if let Some(v) = value {
                text += &format!(", {name} {v:.3}ms");
            }
        }
        if let Some((value, pct)) = self.highest {
            text += &format!(", p{pct:.2} {value:.3}ms");
        }
        text
    }
}

/// Percentile `p` by nearest rank (the ceil(p*n/100)-th smallest sample)
/// when at least ten samples lie beyond it.
fn resolved(sorted: &[f64], p: usize) -> Option<f64> {
    let n = sorted.len();
    let rank = (p * n).div_ceil(100);
    (rank >= 1 && n - rank >= 10).then(|| sorted[rank - 1])
}

/// Applies the percentile rule to `samples`.
///
/// # Panics
///
/// Panics on an empty sample set: every workload runs at least one
/// operation before it reports.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no samples to summarize");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    // The sample at rank n-10 has exactly ten beyond it.
    let highest = (n > 10).then(|| (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64));
    Summary {
        n,
        median,
        p90: resolved(&sorted, 90),
        p99: resolved(&sorted, 99),
        highest,
    }
}

/// The median of a non-empty sample set.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Percentile `p` of a non-empty sample set by nearest rank: the
/// ceil(p*n/100)-th smallest sample.
pub fn percentile(samples: &[f64], p: usize) -> f64 {
    assert!(!samples.is_empty(), "no samples for a percentile");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(p * sorted.len()).div_ceil(100).max(1) - 1]
}

/// Metric names are `[A-Za-z0-9_.-]+`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// 64-bit FNV-1a, the digest the golden checks compare.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Records `peak_rss_mb`: the process's high-water resident set size.
pub fn peak_rss(bench: &mut Bench) {
    let hwm_kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        });
    bench.out.check(hwm_kb.is_some(), || {
        "VmHWM missing from /proc/self/status".to_string()
    });
    bench
        .out
        .end_to_end("peak_rss_mb", hwm_kb.unwrap_or(0.0) / 1024.0, "MiB", 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upto(n: u32) -> Vec<f64> {
        // Shuffled order: the rule must not depend on input order.
        (1..=n).rev().map(f64::from).collect()
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond_the_tail() {
        let samples = upto(100);
        let s = summarize(&samples);
        assert_eq!((s.n, s.median), (100, 50.5));
        // p90 has exactly ten samples (91..=100) beyond it; p99 has one.
        assert_eq!((s.p90, s.p99), (Some(90.0), None));
        assert_eq!(s.highest, Some((90.0, 90.0)));
        assert_eq!(samples.iter().filter(|v| **v > 90.0).count(), 10);

        let samples = upto(5000);
        let s = summarize(&samples);
        assert_eq!((s.p90, s.p99), (Some(4500.0), Some(4950.0)));
        // The highest resolvable percentile is p99.8: ten samples beyond.
        assert_eq!(s.highest, Some((4990.0, 99.8)));
        assert_eq!(samples.iter().filter(|v| **v > 4990.0).count(), 10);
        assert_eq!(
            s.describe(),
            "median 2500.500ms, p90 4500.000ms, p99 4950.000ms, p99.80 4990.000ms"
        );
    }

    #[test]
    fn percentile_rule_reports_the_median_alone_on_few_samples() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!(
            s,
            Summary {
                n: 3,
                median: 2.0,
                p90: None,
                p99: None,
                highest: None
            }
        );
        assert_eq!(s.describe(), "median 2.000ms");
        assert_eq!(summarize(&[4.0, 1.0]).median, 2.5);
        let s = summarize(&upto(99));
        assert_eq!(s.p90, None);
        assert_eq!(s.highest, Some((89.0, 100.0 * 89.0 / 99.0)));
    }

    #[test]
    fn percentile_takes_the_nearest_rank() {
        assert_eq!(percentile(&upto(100), 75), 75.0);
        assert_eq!(percentile(&upto(101), 75), 76.0);
        assert_eq!(percentile(&upto(4), 75), 3.0);
        assert_eq!(percentile(&[7.0], 75), 7.0);
        assert_eq!(percentile(&upto(10), 0), 1.0);
        assert_eq!(percentile(&upto(10), 100), 10.0);
    }

    #[test]
    fn names_and_digests() {
        assert!(valid_name("frontend.replay_ms.fdip_cpf"));
        assert!(valid_name("peak_rss_mb"));
        assert!(!valid_name(""));
        assert!(!valid_name("serve p99"));
        assert!(!valid_name("a/b"));
        // FNV-1a reference vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn result_line_carries_only_the_requested_kind() {
        let mut out = Outcome::default();
        out.end_to_end("op_ms", 1.5, "ms", 3);
        out.layer("bpu.walk_ms", 2.0, "ms", 1);
        out.op(true);
        let line = out.to_json(false);
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(1));
        let metrics = doc.get("metrics").unwrap();
        assert!(metrics.get("op_ms").is_some());
        assert!(metrics.get("bpu.walk_ms").is_none());
        out.check(false, || "broken".into());
        assert!(!out.correct());
        assert!(Json::parse(&out.to_json(true))
            .unwrap()
            .get("metrics")
            .unwrap()
            .get("bpu.walk_ms")
            .is_some());
    }
}
