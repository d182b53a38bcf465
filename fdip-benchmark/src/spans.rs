//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a trace id, a name, a start, an end and a parent. Spans of
//! one operation share a trace id: the run itself is trace 0, and each
//! served request gets its own. A span's *self time* is its duration
//! minus the part of its interval that its children cover, so within one
//! trace whose children do not overlap, self times sum to the root's
//! duration. Spans are kept in memory and written out when the run ends.
//!
//! A traced run reserves its span storage up front and keeps names in one
//! buffer, so recording a span leaves no allocation behind among the
//! measured code's own: the traced run's heap stays as close as it can to
//! the untraced run's.

use std::io::Write;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Spans reserved up front: enough for a served load of 30 000
/// requests (two spans each).
const RESERVED_SPANS: usize = 1 << 16;

/// A handle to a recorded span, usable as a parent. Disabled tracers hand
/// out handles that record nothing.
#[derive(Clone, Copy, Debug)]
pub struct SpanRef {
    id: Option<usize>,
    trace: u64,
}

/// A span that has started and not yet ended.
pub struct Open {
    span: SpanRef,
    start: Instant,
}

impl Open {
    /// The handle children of this span use as their parent.
    pub fn span(&self) -> SpanRef {
        self.span
    }
}

#[derive(Clone, Debug)]
struct Span {
    trace: u64,
    parent: Option<usize>,
    /// The name's bytes in [`Tracer::names`].
    name: Range<usize>,
    start: Duration,
    end: Duration,
}

/// Records spans when enabled; always measures durations.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    names: String,
}

impl Tracer {
    /// A tracer whose root span (`run`, trace 0) starts now.
    pub fn new(enabled: bool) -> Tracer {
        let reserve = if enabled { RESERVED_SPANS } else { 0 };
        let mut tracer = Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(reserve),
            names: String::with_capacity(reserve * 24),
        };
        let now = tracer.origin;
        tracer.push(0, None, "run", now, now);
        tracer
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The root span of the run.
    pub fn root(&self) -> SpanRef {
        SpanRef {
            id: self.enabled.then_some(0),
            trace: 0,
        }
    }

    /// Starts a span under `parent`, in the parent's trace.
    pub fn open(&mut self, parent: SpanRef, name: impl AsRef<str>) -> Open {
        let start = Instant::now();
        let id = self.push(parent.trace, parent.id, name, start, start);
        Open {
            span: SpanRef {
                id,
                trace: parent.trace,
            },
            start,
        }
    }

    /// Ends a span and returns its duration.
    pub fn close(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(id) = open.span.id {
            self.spans[id].end = end - self.origin;
        }
        end - open.start
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<T>(
        &mut self,
        parent: SpanRef,
        name: impl AsRef<str>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.open(parent, name);
        let value = f();
        (value, self.close(open))
    }

    /// Records a finished span in trace `trace`; `parent` must belong to
    /// that trace.
    pub fn record(
        &mut self,
        trace: u64,
        parent: Option<SpanRef>,
        name: impl AsRef<str>,
        start: Instant,
        end: Instant,
    ) -> SpanRef {
        let id = self.push(trace, parent.and_then(|p| p.id), name, start, end);
        SpanRef { id, trace }
    }

    fn push(
        &mut self,
        trace: u64,
        parent: Option<usize>,
        name: impl AsRef<str>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let from = self.names.len();
        self.names.push_str(name.as_ref());
        self.spans.push(Span {
            trace,
            parent,
            name: from..self.names.len(),
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
        Some(self.spans.len() - 1)
    }

    /// Ends the root span.
    pub fn finish(&mut self) {
        if self.enabled {
            self.spans[0].end = self.origin.elapsed();
        }
    }

    /// Each span's duration minus the union of its children's intervals
    /// (clipped to the span).
    fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(span, kids)| {
                let mut covered: Vec<(Duration, Duration)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start.max(span.start), c.end.min(span.end))
                    })
                    .filter(|(s, e)| s < e)
                    .collect();
                covered.sort();
                let mut union = Duration::ZERO;
                let mut reach = span.start;
                for (s, e) in covered {
                    let s = s.max(reach);
                    if e > s {
                        union += e - s;
                        reach = e;
                    }
                }
                (span.end - span.start).saturating_sub(union)
            })
            .collect()
    }

    /// The sum of self times over the run's own trace, and the root's
    /// duration. They agree when the run's spans nest cleanly.
    pub fn root_self_time_and_wall(&self) -> (Duration, Duration) {
        let Some(root) = self.spans.first() else {
            return (Duration::ZERO, Duration::ZERO);
        };
        let self_sum = self
            .self_times()
            .iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.trace == 0)
            .map(|(d, _)| *d)
            .sum();
        (self_sum, root.end - root.start)
    }

    /// Per span name: count, total duration and total self time, in
    /// first-seen order.
    pub fn summary(&self) -> Vec<(String, usize, Duration, Duration)> {
        let mut rows: Vec<(String, usize, Duration, Duration)> = Vec::new();
        for (span, self_time) in self.spans.iter().zip(self.self_times()) {
            let name = span_kind(&self.names[span.name.clone()]);
            let row = match rows.iter_mut().find(|r| r.0 == name) {
                Some(row) => row,
                None => {
                    rows.push((name.to_string(), 0, Duration::ZERO, Duration::ZERO));
                    rows.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += span.end - span.start;
            row.3 += self_time;
        }
        rows
    }
}

/// Span names may carry a detail after a space (`trace.gen server~s1`);
/// summaries group by the part before it.
fn span_kind(name: &str) -> &str {
    name.split(' ').next().unwrap_or(name)
}

/// Writes every span as one JSON line to `bench-out/spans-<workload>-s<seed>.jsonl`
/// under the working directory and prints the per-name summary to stderr.
pub fn write_out(tracer: &Tracer, workload: &str, seed: u64) {
    use fdip_types::Json;
    let (self_sum, wall) = tracer.root_self_time_and_wall();
    eprintln!(
        "[fdip-benchmark] spans: self times of the run's trace sum to {:.3}s of {:.3}s wall",
        self_sum.as_secs_f64(),
        wall.as_secs_f64()
    );
    for (name, count, total, self_time) in tracer.summary() {
        eprintln!(
            "[fdip-benchmark] span {name:<28} n={count:<6} total {:>10.3}ms self {:>10.3}ms",
            total.as_secs_f64() * 1e3,
            self_time.as_secs_f64() * 1e3
        );
    }
    let mut text = String::new();
    for (i, (span, self_time)) in tracer.spans.iter().zip(tracer.self_times()).enumerate() {
        let parent = span.parent.map_or(Json::Null, |p| Json::uint(p as u64));
        let line = Json::obj([
            ("id", Json::uint(i as u64)),
            ("trace", Json::uint(span.trace)),
            ("parent", parent),
            ("name", Json::str(&tracer.names[span.name.clone()])),
            ("start_us", Json::num(span.start.as_secs_f64() * 1e6)),
            ("end_us", Json::num(span.end.as_secs_f64() * 1e6)),
            ("self_us", Json::num(self_time.as_secs_f64() * 1e6)),
        ]);
        text.push_str(&line.to_string());
        text.push('\n');
    }
    let dir = std::path::Path::new("bench-out");
    let path = dir.join(format!("spans-{workload}-s{seed}.jsonl"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|mut f| f.write_all(text.as_bytes()).and_then(|()| f.sync_all()));
    match written {
        Ok(()) => eprintln!(
            "[fdip-benchmark] wrote {} spans to {}",
            tracer.spans.len(),
            path.display()
        ),
        Err(err) => eprintln!("[fdip-benchmark] could not write {}: {err}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(origin: Instant, ms: u64) -> Instant {
        origin + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let o = t.origin;
        let a = t.record(0, Some(t.root()), "a", at(o, 0), at(o, 100));
        // Two overlapping children cover 10..50 (40ms) of `a`.
        t.record(0, Some(a), "b", at(o, 10), at(o, 40));
        t.record(0, Some(a), "c", at(o, 30), at(o, 50));
        // A child sticking out of its parent only counts inside it.
        t.record(0, Some(a), "d", at(o, 90), at(o, 120));
        let selfs = t.self_times();
        assert_eq!(selfs[1], Duration::from_millis(100 - 40 - 10));
        assert_eq!(selfs[2], Duration::from_millis(30));
        assert_eq!(selfs[4], Duration::from_millis(30));
    }

    #[test]
    fn nested_self_times_sum_to_the_root_wall_time() {
        let mut t = Tracer::new(true);
        let root = t.root();
        let outer = t.open(root, "outer");
        let inner = t.open(outer.span(), "inner");
        std::thread::sleep(Duration::from_millis(5));
        t.close(inner);
        t.close(outer);
        // Spans of another trace (a request) do not count toward the run.
        let now = Instant::now();
        t.record(9, None, "request", now, now + Duration::from_secs(5));
        t.finish();
        let (self_sum, wall) = t.root_self_time_and_wall();
        assert_eq!(self_sum, wall);
        assert!(wall >= Duration::from_millis(5));
        let names: Vec<String> = t.summary().into_iter().map(|r| r.0).collect();
        assert_eq!(names, ["run", "outer", "inner", "request"]);
    }

    #[test]
    fn disabled_tracer_still_measures_but_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.root();
        let ((), d) = t.time(root, "work", || {
            std::thread::sleep(Duration::from_millis(2))
        });
        assert!(d >= Duration::from_millis(2));
        t.finish();
        assert!(t.spans.is_empty());
        assert_eq!(
            t.root_self_time_and_wall(),
            (Duration::ZERO, Duration::ZERO)
        );
    }
}
