//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent)` around one public call. When
//! tracing is off, [`Tracer::span`] returns an inert guard that reads
//! no clock, so the untraced run pays nothing. Spans are kept in memory
//! and written out once, after the measured window.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Names of spans that only give the workload its shape (iteration,
/// phase, request). Every other span wraps one public call.
pub fn is_structural(name: &str) -> bool {
    name.starts_with("workload.")
}

thread_local! {
    /// Open spans of the current thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        if !self.enabled {
            return Span {
                tracer: self,
                open: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        Span {
            tracer: self,
            open: Some((id, parent, name, Instant::now())),
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// Record an already-measured interval as a span under the current
    /// thread's innermost open span (used where the interval ends on a
    /// socket event rather than a scope exit).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| open.borrow().last().copied());
        self.push(SpanRecord {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, record: SpanRecord) {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(record);
    }

    /// Drop every span recorded so far (the warm-up's), so the view
    /// holds only the measured window.
    pub fn clear(&self) {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    pub fn records(&self) -> Vec<SpanRecord> {
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

pub struct Span<'a> {
    tracer: &'a Tracer,
    open: Option<(u32, Option<u32>, &'static str, Instant)>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((id, parent, name, start)) = self.open.take() {
            let end = Instant::now();
            OPEN.with(|open| {
                let mut open = open.borrow_mut();
                if let Some(pos) = open.iter().rposition(|&o| o == id) {
                    open.truncate(pos);
                }
            });
            self.tracer.push(SpanRecord {
                id,
                parent,
                name,
                start_ns: self.tracer.ns(start),
                end_ns: self.tracer.ns(end),
            });
        }
    }
}

/// Read-side view over a finished trace.
pub struct TraceView {
    spans: Vec<SpanRecord>,
    parent_of: std::collections::HashMap<u32, Option<u32>>,
    name_of: std::collections::HashMap<u32, &'static str>,
}

impl TraceView {
    pub fn new(spans: Vec<SpanRecord>) -> Self {
        let parent_of = spans.iter().map(|s| (s.id, s.parent)).collect();
        let name_of = spans.iter().map(|s| (s.id, s.name)).collect();
        TraceView {
            spans,
            parent_of,
            name_of,
        }
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRecord::secs)
            .collect()
    }

    fn ancestor_is(&self, mut id: u32, ancestor: u32) -> bool {
        while let Some(Some(p)) = self.parent_of.get(&id) {
            if *p == ancestor {
                return true;
            }
            id = *p;
        }
        false
    }

    /// For each span named `outer`, the summed seconds of its
    /// descendants named `name` (0 when it has none).
    pub fn per_outer_sums(&self, outer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|o| o.name == outer)
            .map(|o| {
                self.spans
                    .iter()
                    .filter(|s| s.name == name && self.ancestor_is(s.id, o.id))
                    .map(SpanRecord::secs)
                    .sum()
            })
            .collect()
    }

    /// For each span named `outer`: the share of its wall time covered
    /// by its top-level call spans (non-structural spans whose parent is
    /// `outer` itself or a structural span below it).
    pub fn coverage(&self, outer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|o| o.name == outer)
            .map(|o| {
                let covered: f64 = self
                    .spans
                    .iter()
                    .filter(|s| {
                        !is_structural(s.name)
                            && s.parent.is_some_and(|p| {
                                (p == o.id || self.ancestor_is(p, o.id))
                                    && self.name_of.get(&p).is_some_and(|n| is_structural(n))
                            })
                    })
                    .map(SpanRecord::secs)
                    .sum();
                covered / o.secs().max(1e-12)
            })
            .collect()
    }

    /// The spans as a JSON array (times in microseconds).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                s.id,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            ));
        }
        out.push_str("\n]\n");
        out
    }
}
