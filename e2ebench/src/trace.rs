//! Benchmark-side tracing: spans recorded around the calls the
//! benchmark makes into each layer, kept in memory, folded into self
//! time per layer and written out as JSON lines when the run ends.
//!
//! A span has a name (the layer), a start, an end and the span that
//! caused it. All spans of one run share the run id. A layer's *self
//! time* is its duration minus the time its children cover; summed
//! over the tree, self times add up to the root spans exactly, so the
//! part of a parent no child explains (the residual) is always shown
//! rather than lost.
//!
//! Fit and acquisition happen inside `BatchStepper::propose`, where the
//! benchmark cannot place a span. Their spans are rebuilt from the
//! engine's own `FitCompleted`/`AcquisitionCompleted` events: the
//! observer stamps each event with the time it arrived, and the event's
//! `wall_ns` gives the start.

use pbo::core::observe::{CollectingObserver, Event, Observer};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index in the tracer's span list.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Layer name.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder for one run.
pub struct Tracer {
    run: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// Empty tracer; `run` is the id every span of this run carries.
    pub fn new(run: u64) -> Tracer {
        Tracer {
            run,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the origin for an instant.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close in the order they opened");
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Record an already-finished span under `parent` (a root span
    /// when `None`). Spans timed on other threads enter this way.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Rebuild fit/acquisition child spans of `parent` from stamped
    /// engine events.
    pub fn adopt_events(&mut self, parent: usize, events: &[(Instant, Event)]) {
        for (at, ev) in events {
            let (name, wall_ns) = match ev {
                Event::FitCompleted { wall_ns, .. } => ("fit", *wall_ns),
                Event::AcquisitionCompleted { wall_ns, .. } => ("acq", *wall_ns),
                _ => continue,
            };
            let end = self.ns(*at);
            self.record(name, Some(parent), end.saturating_sub(wall_ns), end);
        }
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run, s.id, parent, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time per span: its duration minus the time covered by its
/// children (the union of their intervals, clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push(s.id);
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children[s.id]
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_ns.max(s.start_ns),
                        spans[c].end_ns.min(s.end_ns),
                    )
                })
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Self time summed per layer name, in seconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += t as f64 * 1e-9;
    }
    out
}

/// Total duration per layer name, in seconds.
pub fn total_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.dur_ns() as f64 * 1e-9;
    }
    out
}

/// One parent layer checked against the children that explain it.
#[derive(Debug, Clone, PartialEq)]
pub struct Reconciliation {
    /// Parent layer.
    pub parent: &'static str,
    /// Child layers, in print order.
    pub children: Vec<&'static str>,
    /// Total parent time, seconds.
    pub total_s: f64,
    /// Total time of the named children as recorded (not clipped to
    /// the parent), seconds.
    pub children_s: f64,
    /// Parent time no child covers (the parent's self time), seconds.
    pub residual_s: f64,
}

impl Reconciliation {
    /// Children + residual reproduce the parent within `tol_s`. The
    /// children are summed as recorded and the residual is what their
    /// clipped union leaves uncovered, so a child that starts or ends
    /// outside its parent, two children that overlap, or a child with
    /// a name not listed breaks the sum.
    pub fn holds(&self, tol_s: f64) -> bool {
        (self.children_s + self.residual_s - self.total_s).abs() <= tol_s
    }
}

/// Reconcile every span named `parent` with its children named in
/// `children`: Σ parent = Σ children + residual.
pub fn reconcile(
    spans: &[Span],
    parent: &'static str,
    children: &[&'static str],
) -> Reconciliation {
    let selfs = self_times(spans);
    let mut total = 0u64;
    let mut kids = 0u64;
    let mut residual = 0u64;
    for s in spans.iter().filter(|s| s.name == parent) {
        total += s.dur_ns();
        residual += selfs[s.id];
        kids += spans
            .iter()
            .filter(|c| c.parent == Some(s.id) && children.contains(&c.name))
            .map(Span::dur_ns)
            .sum::<u64>();
    }
    Reconciliation {
        parent,
        children: children.to_vec(),
        total_s: total as f64 * 1e-9,
        children_s: kids as f64 * 1e-9,
        residual_s: residual as f64 * 1e-9,
    }
}

/// Observer that keeps every engine event, as `CollectingObserver`
/// does, and stamps each with the instant it arrived.
#[derive(Default)]
pub struct StampedObserver {
    /// The collected events.
    pub inner: CollectingObserver,
    /// Arrival instant of each event, aligned with `inner.events`.
    pub at: Vec<Instant>,
}

impl StampedObserver {
    /// Drain the stamped events collected so far.
    pub fn take(&mut self) -> Vec<(Instant, Event)> {
        let events = std::mem::take(&mut self.inner.events);
        self.at.drain(..).zip(events).collect()
    }
}

impl Observer for StampedObserver {
    fn on_event(&mut self, event: &Event) {
        self.at.push(Instant::now());
        self.inner.on_event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: a,
            end_ns: b,
        }
    }

    /// cycle [0,100] ⊃ propose [0,80] ⊃ {fit [5,45], acq [50,70]};
    /// cycle ⊃ commit [80,98].
    fn tree() -> Vec<Span> {
        vec![
            span(0, None, "cycle", 0, 100),
            span(1, Some(0), "engine.propose", 0, 80),
            span(2, Some(1), "fit", 5, 45),
            span(3, Some(1), "acq", 50, 70),
            span(4, Some(0), "engine.commit", 80, 98),
        ]
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let t = self_times(&tree());
        assert_eq!(t, vec![2, 20, 40, 20, 18]);
        // Self times partition the root.
        assert_eq!(t.iter().sum::<u64>(), 100);
        let by = self_time_by_layer(&tree());
        assert!((by["engine.propose"] - 20e-9).abs() < 1e-18);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let spans = vec![
            span(0, None, "p", 0, 100),
            span(1, Some(0), "a", 10, 60),
            span(2, Some(0), "b", 40, 90),
            span(3, Some(0), "c", 95, 130), // clipped to the parent
        ];
        assert_eq!(self_times(&spans)[0], 100 - 80 - 5);
    }

    #[test]
    fn reconciliation_reports_a_nonzero_residual() {
        let spans = tree();
        let r = reconcile(&spans, "engine.propose", &["fit", "acq"]);
        assert!((r.total_s - 80e-9).abs() < 1e-18);
        assert!((r.children_s - 60e-9).abs() < 1e-18);
        assert!((r.residual_s - 20e-9).abs() < 1e-18);
        assert!(r.holds(1e-12));
        let r = reconcile(&spans, "cycle", &["engine.propose", "engine.commit"]);
        assert!((r.residual_s - 2e-9).abs() < 1e-18);
        assert!(r.holds(1e-12));
        // A parent that is not fully explained still reconciles: the
        // gap is the residual, never silently dropped.
        let r = reconcile(&spans, "cycle", &["engine.commit"]);
        assert!((r.children_s - 18e-9).abs() < 1e-18);
        assert!((r.residual_s - 2e-9).abs() < 1e-18);
        assert!(!r.holds(1e-12), "an unnamed child must show as a mismatch");
    }

    #[test]
    fn reconciliation_fails_on_escaped_or_overlapping_children() {
        // A fit span rebuilt from an event that started before its
        // propose span: the clipped union hides 5 ns the sum does not.
        let mut spans = tree();
        spans[2].start_ns = 0;
        spans[1].start_ns = 5;
        let r = reconcile(&spans, "engine.propose", &["fit", "acq"]);
        assert!(!r.holds(1e-12));
        // Fit and acquisition spans that overlap.
        let mut spans = tree();
        spans[3].start_ns = 40;
        let r = reconcile(&spans, "engine.propose", &["fit", "acq"]);
        assert!(!r.holds(1e-12));
    }

    #[test]
    fn tracer_nests_spans_and_adopts_event_spans() {
        let mut t = Tracer::new(7);
        let cycle = t.begin("cycle");
        let propose = t.begin("engine.propose");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let now = Instant::now();
        t.adopt_events(
            propose,
            &[(
                now,
                Event::FitCompleted {
                    cycle: 0,
                    n: 4,
                    full: true,
                    restarts: 0,
                    evals: 1,
                    mll: 0.0,
                    fallback: false,
                    wall_ns: 1_000_000,
                    virtual_s: 1.0,
                },
            )],
        );
        t.end(propose);
        t.end(cycle);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(cycle));
        assert_eq!(s[2].name, "fit");
        assert_eq!(s[2].parent, Some(propose));
        assert_eq!(s[2].dur_ns(), 1_000_000);
        let r = reconcile(s, "engine.propose", &["fit", "acq"]);
        assert!(r.holds(1e-9) && r.residual_s > 0.0);
        assert_eq!(t.to_jsonl().lines().count(), 3);
        assert!(t
            .to_jsonl()
            .starts_with("{\"run\":7,\"id\":0,\"parent\":null,\"name\":\"cycle\""));
    }
}
