//! In-memory spans recorded by the benchmark around calls into each
//! layer's public functions (the program itself is not instrumented).
//!
//! A span has a name, a start, an end and the span that was open when it
//! started (its parent). A layer's *self time* is its spans' durations
//! minus the parts covered by their children, so self times of all spans
//! add up to the duration of the roots — the identity the traced run's
//! reconciliation check rests on.

use std::collections::BTreeMap;
use std::time::Instant;

/// Share of a traced per-op total that the layers' self times may leave
/// unaccounted (the benchmark's own routing between spans) before the
/// traced run fails its reconciliation check.
pub const RECONCILE_TOLERANCE: f64 = 0.10;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Layer-qualified name, e.g. `core.peer_message`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span in the record list.
    pub parent: Option<usize>,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans in memory; nothing is written until the caller
/// asks for the totals at the end.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    enabled: bool,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A tracer that records only when `enabled` (a disabled tracer lets
    /// the same code run untraced, for the tracing-overhead pair).
    pub fn with_enabled(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.enter(name);
        let result = f(self);
        self.exit();
        result
    }

    /// The closed spans.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }
}

/// Per-name totals of a span list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// Name → (span count, total duration ns, total self time ns).
    pub by_name: BTreeMap<&'static str, (u64, u64, u64)>,
    /// Total duration of root spans, ns.
    pub root_ns: u64,
}

impl LayerTotals {
    /// Self time of `name` in ns (0 when never recorded).
    pub fn self_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |t| t.2)
    }

    /// Total duration of `name` in ns (0 when never recorded).
    pub fn total_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |t| t.1)
    }

    /// Number of `name` spans.
    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |t| t.0)
    }
}

/// Aggregates self times: each span's duration minus the durations of
/// its direct children.
pub fn layer_totals(spans: &[SpanRecord]) -> LayerTotals {
    let mut child_ns = vec![0u64; spans.len()];
    let mut totals = LayerTotals::default();
    for span in spans {
        match span.parent {
            Some(parent) => child_ns[parent] += span.duration_ns(),
            None => totals.root_ns += span.duration_ns(),
        }
    }
    for (span, children) in spans.iter().zip(child_ns) {
        let entry = totals.by_name.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.duration_ns();
        entry.2 += span.duration_ns().saturating_sub(children);
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRecord {
        SpanRecord {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    fn self_sum_ns(t: &LayerTotals) -> u64 {
        t.by_name.values().map(|v| v.2).sum()
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100] ⊃ a [10,60] ⊃ b [20,30]; root ⊃ c [70,90].
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 70, 90, Some(0)),
        ];
        let t = layer_totals(&spans);
        assert_eq!(t.self_ns("root"), 100 - 50 - 20);
        assert_eq!(t.self_ns("a"), 50 - 10);
        assert_eq!(t.self_ns("b"), 10);
        assert_eq!(t.self_ns("c"), 20);
        assert_eq!(t.total_ns("a"), 50);
        // Self times partition the root interval exactly.
        assert_eq!(self_sum_ns(&t), t.root_ns);
        assert_eq!(t.root_ns, 100);
    }

    #[test]
    fn repeated_names_aggregate() {
        let spans = vec![
            span("core", 0, 40, None),
            span("disk", 5, 15, Some(0)),
            span("core", 50, 80, None),
            span("disk", 60, 65, Some(2)),
        ];
        let t = layer_totals(&spans);
        assert_eq!(t.count("core"), 2);
        assert_eq!(t.self_ns("core"), 30 + 25);
        assert_eq!(t.self_ns("disk"), 15);
        assert_eq!(t.self_ns("absent"), 0);
        assert_eq!(t.root_ns, 70);
    }

    #[test]
    fn tracer_nests_and_closes_in_order() {
        let mut tracer = Tracer::new();
        tracer.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(1 + 1));
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let t = layer_totals(spans);
        assert_eq!(self_sum_ns(&t), t.root_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::with_enabled(false);
        tracer.span("x", |t| t.span("y", |_| ()));
        assert!(tracer.spans().is_empty());
    }
}
