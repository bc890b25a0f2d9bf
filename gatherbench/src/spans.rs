//! In-memory span recording for the traced run.
//!
//! A span brackets one call into a layer's public function: name, start,
//! end, the span that was open around it, and the pass it belongs to.
//! Spans stay in memory while the run measures and are written out once
//! it ends, so recording costs two clock reads and a push.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call. Times are seconds since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which measured pass the span belongs to (0 = set-up).
    pub pass: u32,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans. Nesting follows the closure structure of
/// [`Tracer::span`]: a span opened inside another's closure is its child.
/// A tracer that is off records nothing: `span` only calls its closure.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(true)
    }
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    pub fn off() -> Self {
        Tracer::new(false)
    }

    /// Tags every span recorded from now on with `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Runs `f` inside a span called `name` and returns its result.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: 0.0,
            end: 0.0,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        let start = self.origin.elapsed().as_secs_f64();
        let out = f(self);
        let end = self.origin.elapsed().as_secs_f64();
        self.open.pop();
        self.spans[id].start = start;
        self.spans[id].end = end;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus its direct children's.
/// Children nest inside their parent and never overlap each other,
/// because [`Tracer::span`] records them by closure nesting.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut selfs: Vec<f64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            selfs[parent] -= span.duration();
        }
    }
    selfs
}

/// Total duration of the spans called `name` in `pass`.
pub fn total(spans: &[Span], pass: u32, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.pass == pass && s.name == name)
        .map(Span::duration)
        .sum()
}

/// Durations of the spans called `name` in `pass`, in recording order.
pub fn durations(spans: &[Span], pass: u32, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.pass == pass && s.name == name)
        .map(Span::duration)
        .collect()
}

/// The self-time table: per span name, the number of spans, their total
/// time and their total self time, over every pass.
pub fn table(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut rows: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    for (span, self_s) in spans.iter().zip(selfs) {
        let row = rows.entry(span.name).or_default();
        row.0 += 1;
        row.1 += span.duration();
        row.2 += self_s;
    }
    let mut out = format!(
        "{:<28} {:>8} {:>12} {:>12}\n",
        "span", "count", "total_s", "self_s"
    );
    for (name, (count, total, self_s)) in rows {
        let _ = writeln!(out, "{name:<28} {count:>8} {total:>12.6} {self_s:>12.6}");
    }
    out
}

/// Every span as a tab-separated line: id, pass, parent (or -1), name,
/// start and end in seconds.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tpass\tparent\tname\tstart_s\tend_s\n");
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = writeln!(
            out,
            "{id}\t{}\t{parent}\t{}\t{:.9}\t{:.9}",
            s.pass, s.name, s.start, s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            pass: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("a.inner", 2.0, 3.0, Some(1)),
            span("b", 5.0, 9.0, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![3.0, 2.0, 1.0, 4.0]);
    }

    #[test]
    fn tracer_nests_by_closure() {
        let mut t = Tracer::default();
        t.set_pass(2);
        let v = t.span("outer", |t| {
            t.span("inner", |_| 1) + t.span("inner", |t| t.span("leaf", |_| 2))
        });
        assert_eq!(v, 3);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|x| x.pass == 2 && x.end >= x.start));
        assert!(s[0].start <= s[1].start && s[2].end <= s[0].end);
        assert_eq!(durations(s, 2, "inner").len(), 2);
        assert_eq!(total(s, 1, "inner"), 0.0);
        let selfs = self_times(s);
        // Zero up to rounding: children lie inside their parent.
        assert!(selfs.iter().all(|&x| x >= -1e-12));
        assert!(table(s).contains("leaf"));
        assert_eq!(to_tsv(s).lines().count(), 5);

        let mut off = Tracer::off();
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 7)), 7);
        assert!(off.spans().is_empty());
    }
}
