//! In-memory spans around calls into the product's layers.
//!
//! The product carries no spans of its own yet, so every span here is
//! recorded by the benchmark, from outside, around one call into one
//! layer. Spans of one request share its id; they stay in memory until
//! the traced run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.module.call`, as in the per-layer metric names.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The request both belong to.
    pub request: u32,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u32) -> SpanId {
        let id = self.spans.len() as SpanId;
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, request });
        id
    }

    /// Closes a span opened by [`open`](Self::open).
    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records a span around `f`.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if lo < hi {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Totals for every span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Count, total and self time per span name, in name order.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Durations of the spans called `name`, in recording order.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<u64> {
    spans.iter().filter(|s| s.name == name).map(Span::duration_ns).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, request: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = vec![
            span("request", 0, 100, None),     // 0
            span("parse", 10, 30, Some(0)),    // 1: covers 20
            span("search", 40, 90, Some(0)),   // 2: covers 50
            span("expand", 50, 60, Some(2)),   // 3: grandchild, not request's
            span("expand", 55, 80, Some(2)),   // 4: overlaps 3 — union 50..80
            span("late", 95, 120, Some(0)),    // 5: clipped to the parent: 5
            span("elsewhere", 200, 210, None), // 6: no parent, no children
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 20 - 50 - 5);
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 50 - 30);
        assert_eq!((selfs[3], selfs[4], selfs[5], selfs[6]), (10, 25, 25, 10));

        let totals = totals_by_name(&spans);
        assert_eq!(totals["expand"], NameTotals { count: 2, total_ns: 35, self_ns: 35 });
        assert_eq!(totals["request"], NameTotals { count: 1, total_ns: 100, self_ns: 25 });
        assert_eq!(durations_of(&spans, "expand"), vec![10, 25]);
    }

    #[test]
    fn tracer_nests_calls() {
        let mut t = Tracer::new();
        let root = t.open("request", None, 7);
        let x = t.call("parse", Some(root), 7, || 41 + 1);
        t.close(root);
        assert_eq!(x, 42);
        let s = t.spans();
        assert_eq!((s[1].parent, s[1].request, s[1].name), (Some(0), 7, "parse"));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
