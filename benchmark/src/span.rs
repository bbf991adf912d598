//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `(name, start, end, parent, op)`: `op` is the index of the
//! operation (trial, spec run or session) that caused it, so the spans of
//! one operation share an identifier. Spans stay in memory while the
//! benchmark runs and are written out once, at exit. A layer's *self*
//! time is its span's duration minus the part its child spans cover.
//!
//! These are spans taken from outside the program; timers inside the
//! executors are a later change (ROADMAP item 1).

use crate::json::Json;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// The in-memory span store of one benchmark run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    /// An empty recorder whose clock starts now.
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span from two clock readings (the form threads
    /// other than the recorder's owner hand their timings back in).
    pub fn add(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        SpanId(self.spans.len() - 1)
    }

    /// Runs `work` inside a span and returns its result, the span and the
    /// span's duration in seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        work: impl FnOnce() -> R,
    ) -> (R, SpanId, f64) {
        let start = Instant::now();
        let result = work();
        let end = Instant::now();
        let id = self.add(name, op, parent, start, end);
        (result, id, (end - start).as_secs_f64())
    }

    /// Total *self* seconds of every span called `name`: duration minus
    /// the duration of direct children.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut total = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            let children: u64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(SpanId(i)))
                .map(|c| c.end_ns - c.start_ns)
                .sum();
            total += (s.end_ns - s.start_ns).saturating_sub(children) as f64 / 1e9;
        }
        total
    }

    /// Writes one JSON object per span, in recording order, and returns
    /// how many there were.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj()
                .with("span", i)
                .with("name", s.name)
                .with("op", s.op)
                .with(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p.0 as f64)),
                )
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()?;
        Ok(self.spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut rec = Recorder::default();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let parent = rec.add("trial", 7, None, at(0), at(100));
        rec.add("tree", 7, Some(parent), at(10), at(30));
        let child = rec.add("tournament", 7, Some(parent), at(30), at(90));
        // A grandchild is charged to its own parent only.
        rec.add("tree", 7, Some(child), at(40), at(50));
        assert!((rec.self_s("trial") - 0.020).abs() < 1e-9);
        assert!((rec.self_s("tournament") - 0.050).abs() < 1e-9);
        assert!((rec.self_s("tree") - 0.030).abs() < 1e-9);
    }
}
