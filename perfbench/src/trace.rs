//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Spans nest: a span opened while another is open is its child.
//! A span's *self time* is its duration minus the time its direct children
//! cover. Nothing is written until the benchmark prints its report.

use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    /// The layer call, e.g. `mgc-runtime::Executor::run`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    /// Seconds since the tracer was created.
    pub end_s: f64,
}

/// Self time of every span with one name, summed.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// The span name.
    pub name: &'static str,
    /// How many spans had the name.
    pub count: usize,
    /// Summed self time, in seconds.
    pub self_s: f64,
}

/// A span recorder. A disabled tracer records nothing, so the untraced
/// runs pay one branch per span call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts or stops recording (spans already open still close).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Seconds since the tracer was created.
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        let start_s = self.now_s();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes a span opened by [`Tracer::begin`], and any span opened
    /// inside it that a panic left open.
    pub fn end(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let end_s = self.now_s();
        while let Some(open) = self.open.pop() {
            self.spans[open].end_s = end_s;
            if open == index {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Self time per span name, for spans that started at or after
    /// `since_s`, in first-seen order.
    pub fn self_times(&self, since_s: f64) -> Vec<SelfTime> {
        let mut child_s = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_s[parent] += span.end_s - span.start_s;
            }
        }
        let mut out: Vec<SelfTime> = Vec::new();
        for (span, children) in self.spans.iter().zip(&child_s) {
            if span.start_s < since_s {
                continue;
            }
            let self_s = span.end_s - span.start_s - children;
            match out.iter_mut().find(|t| t.name == span.name) {
                Some(total) => {
                    total.count += 1;
                    total.self_s += self_s;
                }
                None => out.push(SelfTime {
                    name: span.name,
                    count: 1,
                    self_s,
                }),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_to_the_root() {
        let mut tracer = Tracer::new(true);
        let root = tracer.begin("root");
        tracer.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.span("child", || ());
        tracer.end(root);
        let times = tracer.self_times(0.0);
        assert_eq!(times.len(), 2);
        assert_eq!(times[1].count, 2);
        let root_span = &tracer.spans[0];
        let total: f64 = times.iter().map(|t| t.self_s).sum();
        assert!((total - (root_span.end_s - root_span.start_s)).abs() < 1e-9);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        tracer.span("x", || ());
        assert!(tracer.spans.is_empty());
    }
}
