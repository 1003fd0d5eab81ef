//! Spans recorded from outside the program, around the calls into each
//! layer. Kept in memory during the run and written out at its end.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One timed call. `unit` groups the spans of one op (0, 1, ...) or of
/// one set-up (-1, -2, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub unit: i64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans when armed; when disarmed `span` only runs its closure,
/// so traced and untraced runs execute the same harness code.
pub struct Tracer {
    armed: bool,
    epoch: Instant,
    unit: i64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(armed: bool) -> Tracer {
        Tracer { armed, epoch: Instant::now(), unit: 0, open: Vec::new(), spans: Vec::new() }
    }

    /// Spans recorded from now on belong to `unit`.
    pub fn set_unit(&mut self, unit: i64) {
        self.unit = unit;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, a child of the span open now.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.armed {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            unit: self.unit,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover. Children may overlap each other or stick out of
/// their parent; covered time counts once and only inside the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut intervals = children.remove(&span.id).unwrap_or_default();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// Per unit and span name, the summed self time in seconds.
pub fn unit_self_seconds(spans: &[Span]) -> Vec<(i64, &'static str, f64)> {
    let mut sums: BTreeMap<(i64, &'static str), u64> = BTreeMap::new();
    for (span, ns) in spans.iter().zip(self_times_ns(spans)) {
        *sums.entry((span.unit, span.name)).or_default() += ns;
    }
    sums.into_iter().map(|((unit, name), ns)| (unit, name, ns as f64 / 1e9)).collect()
}

pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("op", Json::Num(s.unit as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: usize,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span { id, parent, unit: 0, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        let spans = [
            span(0, None, "op", 0, 100),
            span(1, Some(0), "a", 10, 60),
            span(2, Some(1), "a.inner", 20, 30),
            span(3, Some(0), "b", 70, 90),
        ];
        // op: 100 - (50 + 20); a: 50 - 10; the grandchild is a's business.
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span(0, None, "op", 0, 100),
            span(1, Some(0), "a", 10, 50),
            span(2, Some(0), "b", 30, 70),  // overlaps a by 20
            span(3, Some(0), "c", 40, 45),  // inside both
            span(4, Some(0), "d", 90, 120), // sticks out of the parent
        ];
        // Covered: [10, 70) and [90, 100) = 70.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_spans_and_disarmed_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_unit(3);
        let out = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(out, 7);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent, spans[0].unit), ("outer", None, 3));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 7)), 7);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn unit_self_seconds_sums_same_named_spans_of_a_unit() {
        let mut spans = vec![
            span(0, None, "x", 0, 1_000_000_000),
            span(1, None, "x", 0, 500_000_000),
            span(2, Some(1), "y", 0, 250_000_000),
            span(3, None, "x", 0, 250_000_000),
        ];
        spans[0].unit = -1;
        assert_eq!(unit_self_seconds(&spans), vec![(-1, "x", 1.0), (0, "x", 0.5), (0, "y", 0.25)]);
    }
}
