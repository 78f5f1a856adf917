//! In-memory spans around the public calls the benchmark makes.
//!
//! A traced run records `{name, start_ns, end_ns, parent, request_id}` for
//! every layer boundary it crosses, keeps them in memory, and writes them
//! out once at exit. With tracing off [`Tracer::begin`] returns `None`
//! without reading the clock, so the untraced run pays one branch.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent` indexes the same span list.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one request (one sim point, one sweep, one serve request)
    /// share an identifier.
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open (or closed) span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// Span recorder shared by every thread of a run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` (and no clock read) when tracing is off.
    pub fn begin(&self, name: &str, parent: Option<SpanId>, request_id: u64) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let mut spans = self.spans.lock().expect("tracer mutex poisoned");
        spans.push(Span {
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: parent.map(|p| p.0),
            request_id,
        });
        let id = spans.len() - 1;
        // Stamp last, so the bookkeeping above is outside the span.
        spans[id].start_ns = self.now_ns();
        Some(SpanId(id))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            let now = self.now_ns();
            self.spans.lock().expect("tracer mutex poisoned")[i].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        request_id: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let id = self.begin(name, parent, request_id);
        let out = f(id);
        self.end(id);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer mutex poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Durations, in seconds, of every span called `name`.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .collect()
}

/// Share of each span called `name` that its children cover.
pub fn child_coverage(spans: &[Span], name: &str) -> Vec<f64> {
    let selfs = self_times_ns(spans);
    spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == name && s.duration_ns() > 0)
        .map(|(s, &own)| 1.0 - own as f64 / s.duration_ns() as f64)
        .collect()
}

/// The trace file written at the end of a traced run.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let mut out =
        format!("{{\"schema\":\"noc-benchmark-trace/v1\",\"workload\":\"{workload}\",\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request_id\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request_id
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            request_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("point", 0, 100, None),
            span("construct", 0, 10, Some(0)),
            span("run", 10, 90, Some(0)),
            // Overlaps `run` (another thread) and sticks out of the parent.
            span("store", 80, 120, Some(0)),
            span("step", 20, 30, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 10, 70, 40, 10]);
        assert_eq!(child_coverage(&spans, "point"), vec![1.0]);
        assert_eq!(child_coverage(&spans, "run"), vec![0.125]);
        assert_eq!(durations_s(&spans, "run"), vec![80e-9]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.begin("x", None, 0);
        assert_eq!(id, None);
        t.end(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_and_serializes() {
        let t = Tracer::new(true);
        t.scope("outer", None, 7, |outer| {
            t.scope("inner", outer, 7, |_| std::hint::black_box(1));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        noc_obs::validate_json(&to_json("w", &spans)).expect("trace file is valid JSON");
    }
}
