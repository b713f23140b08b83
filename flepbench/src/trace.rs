//! In-memory span recorder for the traced runs.
//!
//! Every call the benchmark makes into a layer of the system can be wrapped
//! in a span: name, start, end, parent span, the workload unit it belongs
//! to (a pair, a load point, a cell) and counts taken at the same boundary.
//! Spans stay in memory and are written out once, when the run ends. With
//! tracing off, [`Tracer::span`] only calls the closure.
//!
//! The calls a pass is made of — each co-run, serve run and cluster run —
//! go through [`Tracer::call`] instead, which also times them with tracing
//! off: the host-time metrics are built from those per-call times.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// Name of the spans around probe samples, which are the benchmark's own
/// time rather than a call into the system.
pub const PROBE_SPAN: &str = "bench.probe";

/// Counts recorded at a span boundary.
pub type Counts = Vec<(&'static str, f64)>;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: SpanId,
    pub name: &'static str,
    pub unit: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Counts,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn count(&self, key: &str) -> f64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// Records spans from any thread; cheap no-op when disabled.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicUsize,
    spans: Mutex<Vec<Span>>,
    /// Host seconds of every [`Tracer::call`], by workload unit.
    calls: Mutex<Vec<(String, f64)>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
            calls: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`. `f` receives the
    /// new span's id (to parent nested calls) and returns its result plus
    /// the counts to attach.
    pub fn span<R>(
        &self,
        parent: SpanId,
        name: &'static str,
        unit: impl FnOnce() -> String,
        f: impl FnOnce(SpanId) -> (R, Counts),
    ) -> R {
        if !self.on {
            return f(None).0;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let (result, counts) = f(Some(id));
        let end_ns = self.now_ns();
        let span = Span {
            id,
            parent,
            name,
            unit: unit(),
            start_ns,
            end_ns,
            counts,
        };
        self.spans
            .lock()
            .expect("a span recorder thread panicked")
            .push(span);
        result
    }

    /// [`Tracer::span`] for one of the calls a pass is made of, timed
    /// whether or not tracing is on. `unit` must name the call uniquely
    /// within a pass, and calls must not nest: a pass's host time is
    /// the sum over its calls.
    pub fn call<R>(
        &self,
        parent: SpanId,
        name: &'static str,
        unit: impl FnOnce() -> String,
        f: impl FnOnce(SpanId) -> (R, Counts),
    ) -> R {
        let unit = unit();
        if crate::probe::due() {
            self.span(
                parent,
                PROBE_SPAN,
                || "probe".into(),
                |_| (crate::probe::sample(), Vec::new()),
            );
        }
        let t0 = Instant::now();
        let r = self.span(parent, name, || unit.clone(), f);
        let secs = t0.elapsed().as_secs_f64();
        self.calls
            .lock()
            .expect("a span recorder thread panicked")
            .push((unit, secs));
        r
    }

    /// Takes the host time of every [`Tracer::call`] so far.
    pub fn take_calls(&self) -> Vec<(String, f64)> {
        std::mem::take(&mut *self.calls.lock().expect("a span recorder thread panicked"))
    }

    /// Takes every recorded span, ordered by id.
    pub fn take(&self) -> Vec<Span> {
        let mut spans =
            std::mem::take(&mut *self.spans.lock().expect("a span recorder thread panicked"));
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
pub fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children may run in parallel, so their union counts).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .map(|s| {
            let children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| (c.start_ns, c.end_ns))
                .collect();
            s.dur_ns() - covered_ns(children, s.start_ns, s.end_ns)
        })
        .collect()
}

/// Renders spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = String::from("[\n");
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let counts: Vec<String> = s
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        out.push_str(&format!(
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"unit\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"counts\": {{{}}}}}{}\n",
            s.id,
            s.name,
            s.unit,
            s.start_ns,
            s.end_ns,
            counts.join(", "),
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered_ns(vec![(0, 10), (5, 15), (20, 30)], 0, 25), 20);
        assert_eq!(covered_ns(vec![], 0, 25), 0);
    }
}
