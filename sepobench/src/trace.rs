//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, an optional index (iteration or batch number), start
//! and end times, and the id of the span that caused it. All spans of one
//! traced run share the trace's run id. Spans stay in memory until the run
//! ends and are then written out with their self times.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span within its [`Trace`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub index: Option<u32>,
    pub parent: Option<SpanId>,
    /// Nanoseconds since the trace origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Trace {
    pub run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(run_id: u64) -> Trace {
        Trace {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the trace origin to `t` (0 for instants before it).
    pub fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.offset(Instant::now());
        self.push(name, None, parent, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.offset(Instant::now());
    }

    /// Record a finished span from instants taken elsewhere (epoch hooks).
    pub fn record(
        &mut self,
        name: &'static str,
        index: Option<u32>,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (s, e) = (self.offset(start), self.offset(end));
        self.push(name, index, parent, s, e)
    }

    fn push(
        &mut self,
        name: &'static str,
        index: Option<u32>,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            index,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in span order.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| self_time_ns((s.start_ns, s.end_ns), kids))
            .collect()
    }

    /// Summed self time per span name, in seconds.
    pub fn self_seconds_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
        }
        out
    }

    /// The trace as JSON: one object per span with its self time.
    pub fn to_json(&self) -> serde_json::Value {
        let spans: Vec<serde_json::Value> = self
            .spans
            .iter()
            .zip(self.self_times_ns())
            .enumerate()
            .map(|(id, (s, self_ns))| {
                serde_json::json!({
                    "id": id,
                    "parent": s.parent,
                    "name": s.name,
                    "index": s.index,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "self_ns": self_ns,
                })
            })
            .collect();
        serde_json::json!({ "run_id": self.run_id, "spans": spans })
    }
}

/// A span's duration minus the part of it its children cover. Children may
/// overlap each other (parallel shards) and may stick out of the parent;
/// only the union of their intersections with the parent is subtracted.
pub fn self_time_ns(span: (u64, u64), mut children: Vec<(u64, u64)>) -> u64 {
    let (start, end) = span;
    if end <= start {
        return 0;
    }
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in children {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_children_are_subtracted() {
        assert_eq!(self_time_ns((0, 100), vec![(10, 20), (50, 70)]), 70);
        assert_eq!(self_time_ns((0, 100), vec![]), 100);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two shards' iterations overlapping in wall-clock time.
        assert_eq!(self_time_ns((0, 100), vec![(10, 60), (40, 80)]), 30);
        // Nested and identical intervals.
        assert_eq!(
            self_time_ns((0, 100), vec![(10, 90), (20, 30), (10, 90)]),
            20
        );
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time_ns((50, 100), vec![(0, 60), (90, 200)]), 30);
        assert_eq!(self_time_ns((50, 100), vec![(0, 40), (120, 200)]), 50);
        assert_eq!(self_time_ns((50, 50), vec![(0, 100)]), 0);
    }

    #[test]
    fn trace_self_times_follow_parent_links() {
        let mut t = Trace::new(7);
        let root = t.push("workload", None, None, 0, 1000);
        let run = t.push("apps.run_app", None, Some(root), 100, 900);
        t.push("core.sepo.iteration", Some(1), Some(run), 100, 500);
        t.push("core.sepo.iteration", Some(1), Some(run), 300, 700);
        t.push("core.serve.batch", Some(0), Some(run), 650, 800);
        assert_eq!(t.self_times_ns(), vec![200, 100, 400, 400, 150]);
        let by_name = t.self_seconds_by_name();
        assert_eq!(by_name["core.sepo.iteration"], 800e-9);
        let json = serde_json::to_string(&t.to_json()).expect("serializes");
        assert!(json.starts_with(r#"{"run_id":7,"spans":[{"id":0,"parent":null"#));
    }
}
