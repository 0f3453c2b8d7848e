//! In-memory spans recorded by the traced run around the benchmark's
//! own calls into each crate, written out when the run ends.
//!
//! A span's layer is the part of its name before the first `.`
//! (`core.run_job` belongs to `core`). Its self time is its duration
//! minus the part of that interval its child spans cover; children of
//! one parent may overlap when they ran on different workers, so the
//! covered part is the union of their intervals.

use condspec_stats::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One finished (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `store.load`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The job this span belongs to (index into the submitted job list).
    pub job: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer this span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A thread-safe span recorder for one traced round.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's
    /// id so it can parent spans of its own.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        job: Option<u64>,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = {
            let mut spans = self.spans.lock().expect("no span holder panics");
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                job,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now_ns();
        self.spans.lock().expect("no span holder panics")[id].end_ns = end;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span holder panics").clone()
    }
}

/// Aggregates over one round's spans.
#[derive(Debug)]
pub struct SpanStats {
    spans: Vec<Span>,
}

impl SpanStats {
    /// Wraps a finished round's spans.
    pub fn new(spans: Vec<Span>) -> SpanStats {
        SpanStats { spans }
    }

    /// The spans themselves.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Total nanoseconds spent in spans named `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Mean nanoseconds per span named `name` (0 when there is none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        }
    }

    /// Self time per layer in nanoseconds: each span's duration minus
    /// the union of its children's intervals.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            *out.entry(span.layer()).or_insert(0.0) += span.ns().saturating_sub(covered) as f64;
        }
        out
    }

    /// Worker utilization of the pools: busy job time over
    /// `workers × pool time`, and the mean wait (ms) from a pool's start
    /// to each of its jobs being claimed.
    pub fn pool_figures(&self, workers: usize) -> (f64, f64) {
        let (mut busy, mut pool_ns, mut wait_ns, mut jobs) = (0.0, 0.0, 0.0, 0usize);
        for s in self.spans.iter().filter(|s| s.name == "engine.pool") {
            pool_ns += s.ns() as f64;
        }
        for s in self.spans.iter().filter(|s| s.name == "engine.job") {
            busy += s.ns() as f64;
            if let Some(p) = s.parent {
                wait_ns += s.start_ns.saturating_sub(self.spans[p].start_ns) as f64;
            }
            jobs += 1;
        }
        let utilization = if pool_ns > 0.0 {
            busy / (pool_ns * workers as f64)
        } else {
            0.0
        };
        let wait_ms = if jobs > 0 {
            wait_ns / jobs as f64 / 1e6
        } else {
            0.0
        };
        (utilization, wait_ms)
    }
}

/// Renders spans of several rounds as one JSON document.
pub fn spans_json(rounds: &[SpanStats]) -> Json {
    let mut rows = Vec::new();
    for (round, stats) in rounds.iter().enumerate() {
        for (id, s) in stats.spans().iter().enumerate() {
            let mut row = vec![
                ("round", Json::from(round as u64)),
                ("id", Json::from(id as u64)),
                ("name", Json::from(s.name)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
            ];
            if let Some(p) = s.parent {
                row.push(("parent", Json::from(p as u64)));
            }
            if let Some(j) = s.job {
                row.push(("job", Json::from(j)));
            }
            rows.push(Json::object(row));
        }
    }
    Json::object(vec![
        ("schema", Json::from("condspec-perfbench-spans-v1")),
        ("spans", Json::Array(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            job: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let stats = SpanStats::new(vec![
            span("engine.pool", 0, 100, None),
            span("core.run_job", 10, 60, Some(0)),
            span("core.run_job", 40, 80, Some(0)),
            span("store.insert", 60, 70, Some(2)),
        ]);
        let by_layer = stats.self_ns_by_layer();
        assert_eq!(by_layer["engine"], 30.0, "children cover 10..80");
        assert_eq!(by_layer["core"], 50.0 + 30.0);
        assert_eq!(by_layer["store"], 10.0);
    }
}
