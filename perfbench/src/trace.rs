//! Spans recorded by the benchmark's own code around calls into the
//! crates' public functions.
//!
//! A span has a name, a start, an end, a parent and an operation id.
//! Spans are kept in memory while the run executes and written out
//! once it ends. A span's *self time* is its duration minus the time
//! its direct children cover; since spans nest on one thread, the self
//! times of every span under a root add up to the root's duration
//! exactly, and the root's own self time is the run's unattributed
//! remainder.
//!
//! The measured (untraced) run executes the same code with a
//! [`Tracer::off`] tracer, whose [`Tracer::span`] only calls through.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was called, e.g. `knowledge.universe`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The operation this span belongs to (lap, cell, round, section).
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans, or (when off) records nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Tracer {
        Tracer {
            origin: Instant::now(),
            on: true,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer that records nothing: the measured run's.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for operation `op`. Spans
    /// opened inside `f` (through the tracer it is handed) become
    /// children of this one.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds each span's direct children cover, by span index.
    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        child_ns
    }

    /// Self seconds summed per span name.
    pub fn self_secs(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(self.child_ns()) {
            *out.entry(s.name).or_insert(0.0) += s.ns().saturating_sub(c) as f64 * 1e-9;
        }
        out
    }

    /// Share of the traced wall time — the root spans' total — that no
    /// layer span covers: the roots' own self time over their duration.
    pub fn unattributed_share(&self) -> f64 {
        let (mut own, mut total) = (0u64, 0u64);
        for (s, c) in self.spans.iter().zip(self.child_ns()) {
            if s.parent.is_none() {
                own += s.ns().saturating_sub(c);
                total += s.ns();
            }
        }
        own as f64 / total.max(1) as f64
    }

    /// Total seconds of the spans named `name` (self time plus children).
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 * 1e-9)
            .sum()
    }

    /// Every recorded span's duration in seconds, for the spans named
    /// `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 * 1e-9)
            .collect()
    }

    /// The spans as JSON lines, each carrying `run` — the provenance
    /// record's id — so a line can be traced back on its own.
    pub fn to_jsonl(&self, run: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{run}\",\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(micros) {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn self_times_partition_the_root() {
        let mut t = Tracer::on();
        t.span("root", 0, |t| {
            spin(200);
            t.span("a", 1, |t| {
                spin(300);
                t.span("b", 1, |_| spin(100));
            });
            t.span("b", 2, |_| spin(100));
        });
        let root = t.total_secs("root");
        let sum: f64 = t.self_secs().values().sum();
        assert!((sum - root).abs() < 1e-9, "{sum} vs {root}");
        let share = t.self_secs()["root"] / root;
        assert!((t.unattributed_share() - share).abs() < 1e-9);
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.durations("b").len(), 2);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span("x", 0, |t| t.span("y", 0, |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
