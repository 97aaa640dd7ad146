//! In-memory spans around the benchmark's calls into the program.
//!
//! A span has a name, a start, an end and the span that caused it. Its
//! layer is the name up to the first `.`: the crate whose public function
//! the span wraps, or `bench` for the benchmark's own glue. Spans are kept
//! in memory and written out once, when the run ends. A layer's self time
//! is its spans' durations minus the part of each interval that the span's
//! children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Numbers the forked tracers of the process, so span ids never collide.
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(1);

/// Identifies a span across the tracers of one run: `(thread, index)`.
pub type SpanId = (usize, usize);

#[derive(Clone, Debug)]
struct Span {
    id: SpanId,
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<SpanId>,
}

/// One thread's span recorder. A disabled tracer records nothing, so the
/// same code runs traced and untraced.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: usize,
    next: usize,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
}

impl Tracer {
    /// A tracer for the run's main thread.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            thread: 0,
            next: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer for a worker thread whose top-level spans are children of
    /// this tracer's innermost open span.
    pub fn fork(&self) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            next: 0,
            spans: Vec::new(),
            stack: self.stack.last().copied().into_iter().collect(),
        }
    }

    /// Takes over the spans a forked tracer recorded.
    pub fn join(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = (self.thread, self.next);
        self.next += 1;
        let slot = self.spans.len();
        self.spans.push(Span {
            id,
            name,
            start_us: self.now_us(),
            end_us: 0.0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[slot].end_us = self.now_us();
        out
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Total duration in ms of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us - s.start_us)
            .sum::<f64>()
            / 1e3
    }

    /// Self time in ms per layer.
    pub fn layer_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let index: BTreeMap<SpanId, usize> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(&p) = s.parent.as_ref().and_then(|p| index.get(p)) {
                children[p].push((s.start_us, s.end_us));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let own = (s.end_us - s.start_us - covered(kids, s.start_us, s.end_us)).max(0.0);
            *out.entry(layer(s.name)).or_insert(0.0) += own / 1e3;
        }
        out
    }

    /// The spans as a JSON document.
    pub fn to_json(&self) -> String {
        let id = |(t, i): SpanId| format!("\"{t}.{i}\"");
        let mut out = String::from("{\"schema\":\"perfbench-trace/v1\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or_else(|| "null".to_owned(), id);
            let _ = write!(
                out,
                "\n{{\"id\":{},\"name\":\"{}\",\"layer\":\"{}\",\
                 \"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent}}}",
                id(s.id),
                s.name,
                layer(s.name),
                s.start_us,
                s.end_us
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The layer a span name belongs to.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_are_counted_once() {
        let mut iv = vec![(2.0, 5.0), (1.0, 3.0), (7.0, 12.0)];
        assert_eq!(covered(&mut iv, 0.0, 10.0), 4.0 + 3.0);
    }

    #[test]
    fn self_time_excludes_children_and_spans_join_across_threads() {
        let mut root = Tracer::new(true);
        root.span("bench.pass", |t| {
            t.span("vm.run", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            let mut worker = t.fork();
            worker.span("agg.send", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.join(worker);
        });
        let layers = root.layer_self_ms();
        assert!(layers["vm"] >= 5.0 && layers["agg"] >= 5.0);
        assert!(
            layers["bench"] < layers["vm"],
            "children leave the root little self time"
        );
        assert!(root.to_json().contains("\"layer\":\"agg\""));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("vm.run", |_| 7), 7);
        assert!(t.layer_self_ms().is_empty());
    }
}
