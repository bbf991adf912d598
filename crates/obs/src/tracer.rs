//! The cloneable [`Trace`] handle and the JSON rendering behind it.

use crate::profile::{ProfileAcc, ProfileTimer};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A typed field value carried by a trace event.
///
/// Rendering is deterministic: integers print exactly, floats use
/// Rust's shortest round-trip `Display`, strings are JSON-escaped.
#[derive(Clone, Debug, PartialEq)]
pub enum Field {
    /// An unsigned counter (rounds, bits, messages, seeds).
    U64(u64),
    /// A ratio or mean. Only record values derived deterministically
    /// from the run — never wall-clock times (those belong in the
    /// profile section).
    F64(f64),
    /// A label (phase names, protocol names, oracle verdicts).
    Str(String),
}

impl From<u64> for Field {
    fn from(v: u64) -> Self {
        Field::U64(v)
    }
}

impl From<usize> for Field {
    fn from(v: usize) -> Self {
        Field::U64(v as u64)
    }
}

impl From<f64> for Field {
    fn from(v: f64) -> Self {
        Field::F64(v)
    }
}

impl From<&str> for Field {
    fn from(v: &str) -> Self {
        Field::Str(v.to_string())
    }
}

impl From<String> for Field {
    fn from(v: String) -> Self {
        Field::Str(v)
    }
}

/// `s` as the body of a JSON string (RFC 8259 §7): `"` and `\` are
/// backslash-escaped and so is every control character U+0000–U+001F
/// (`\b`, `\t`, `\n`, `\f`, `\r`, otherwise `\u00XX`). Everything else,
/// non-ASCII included, is copied as is.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{8}' => out.push_str("\\b"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\u{c}' => out.push_str("\\f"),
            '\r' => out.push_str("\\r"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders one event as a JSONL line: `kind` first, then the sim-time
/// `round`, the `phase` label (omitted when empty), then `fields` in
/// argument order. Key order is fixed so traces are byte-comparable.
fn render_event(kind: &str, round: u64, phase: &str, fields: &[(&str, Field)]) -> String {
    let mut line = format!(
        "{{\"kind\": \"{}\", \"round\": {}",
        json_escape(kind),
        round
    );
    if !phase.is_empty() {
        line.push_str(&format!(", \"phase\": \"{}\"", json_escape(phase)));
    }
    for (key, value) in fields {
        match value {
            Field::U64(v) => line.push_str(&format!(", \"{}\": {}", json_escape(key), v)),
            Field::F64(v) => {
                if v.is_finite() {
                    line.push_str(&format!(", \"{}\": {}", json_escape(key), v));
                } else {
                    line.push_str(&format!(", \"{}\": null", json_escape(key)));
                }
            }
            Field::Str(v) => line.push_str(&format!(
                ", \"{}\": \"{}\"",
                json_escape(key),
                json_escape(v)
            )),
        }
    }
    line.push('}');
    line
}

/// Where a live handle's lines go. The harness gives each trial its own
/// memory sink and replays the buffers in trial order, which is what
/// makes merged traces deterministic at any thread count.
enum Sink {
    Memory(Vec<String>),
    File(BufWriter<File>),
}

impl Sink {
    fn record(&mut self, line: String) {
        match self {
            Sink::Memory(lines) => lines.push(line),
            // Trace output is best-effort: a full disk should not alter
            // the run it is observing.
            Sink::File(out) => {
                let _ = writeln!(out, "{line}");
            }
        }
    }
}

struct Shared {
    sink: Sink,
    profile: ProfileAcc,
}

/// The cloneable handle threaded through the engine, transport, and
/// harness. [`Trace::off`] (the `Default`) is a `None` inside — every
/// instrumentation site guards on [`Trace::is_on`], so the disabled
/// path is one branch and zero allocation.
#[derive(Clone, Default)]
pub struct Trace {
    inner: Option<Arc<Mutex<Shared>>>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace").field("on", &self.is_on()).finish()
    }
}

impl Trace {
    /// The disabled handle: records nothing, costs one branch per site.
    pub fn off() -> Self {
        Trace { inner: None }
    }

    fn over(sink: Sink) -> Self {
        Trace {
            inner: Some(Arc::new(Mutex::new(Shared {
                sink,
                profile: ProfileAcc::default(),
            }))),
        }
    }

    /// A handle over a fresh in-memory buffer.
    pub fn memory() -> Self {
        Trace::over(Sink::Memory(Vec::new()))
    }

    /// A handle writing JSONL to `path` (created or truncated).
    pub fn to_file(path: &Path) -> io::Result<Self> {
        Ok(Trace::over(Sink::File(BufWriter::new(File::create(path)?))))
    }

    /// Whether events are being kept.
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    fn with<R>(&self, f: impl FnOnce(&mut Shared) -> R) -> Option<R> {
        self.inner
            .as_ref()
            .map(|m| f(&mut m.lock().expect("trace lock poisoned")))
    }

    /// Renders and records an event (no-op when off).
    pub fn event(&self, kind: &str, round: u64, phase: &str, fields: &[(&str, Field)]) {
        if self.is_on() {
            self.raw(render_event(kind, round, phase, fields));
        }
    }

    /// Appends a pre-rendered line (the deterministic-merge path: the
    /// harness replays per-trial memory buffers into the master sink in
    /// trial order).
    pub fn raw(&self, line: String) {
        self.with(|s| s.sink.record(line));
    }

    /// Takes buffered lines from a memory-backed handle (empty for file
    /// sinks or when off).
    pub fn take_lines(&self) -> Vec<String> {
        self.with(|s| match &mut s.sink {
            Sink::Memory(lines) => std::mem::take(lines),
            Sink::File(_) => Vec::new(),
        })
        .unwrap_or_default()
    }

    /// Adds one sample to the quarantined wall-clock profile.
    pub(crate) fn profile_add(&self, name: &str, seconds: f64) {
        self.with(|s| s.profile.add(name, seconds));
    }

    /// Starts a scoped wall-clock timer that charges its elapsed time
    /// to `name` on drop. A no-op guard when tracing is off, so the
    /// instrumented code takes no `Instant` samples either.
    pub fn timer(&self, name: &'static str) -> ProfileTimer {
        ProfileTimer::start(self.clone(), name, self.is_on())
    }

    /// Folds another handle's profile into this one (used when merging
    /// per-trial traces; entries are keyed by name, so the merge is
    /// order-insensitive).
    pub fn merge_profile_from(&self, other: &Trace) {
        if let Some(acc) = other.with(|s| std::mem::take(&mut s.profile)) {
            self.with(|s| s.profile.merge(&acc));
        }
    }

    /// A snapshot of the accumulated profile.
    pub fn profile_snapshot(&self) -> ProfileAcc {
        self.with(|s| s.profile.clone()).unwrap_or_default()
    }

    /// Emits the quarantined `"profile"` section (one line per entry,
    /// sorted by name) and flushes file sinks. Call once, at the end of
    /// a run; pinning tests strip these lines before comparing.
    pub fn finish(&self) {
        self.with(|s| {
            for line in s.profile.render_lines() {
                s.sink.record(line);
            }
            if let Sink::File(out) = &mut s.sink {
                let _ = out.flush();
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_fixed_key_order_and_escapes() {
        let line = render_event(
            "net:send",
            7,
            "L0:expose",
            &[
                ("sent", Field::U64(64)),
                ("ratio", Field::F64(0.5)),
                ("who", Field::Str("a\"b".into())),
            ],
        );
        assert_eq!(
            line,
            "{\"kind\": \"net:send\", \"round\": 7, \"phase\": \"L0:expose\", \
             \"sent\": 64, \"ratio\": 0.5, \"who\": \"a\\\"b\"}"
        );
    }

    #[test]
    fn escapes_every_control_character() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("a\tb\nc\rd"), "a\\tb\\nc\\rd");
        assert_eq!(json_escape("\u{0}\u{8}\u{c}\u{1f}"), "\\u0000\\b\\f\\u001f");
        assert_eq!(json_escape("ε:3 \u{7f}"), "ε:3 \u{7f}");
        let escaped: String = (0u8..0x20)
            .map(|b| json_escape(&char::from(b).to_string()))
            .collect();
        assert!(escaped.bytes().all(|b| b >= b' '), "{escaped}");
    }

    #[test]
    fn omits_empty_phase_and_handles_non_finite() {
        let line = render_event("x", 0, "", &[("v", Field::F64(f64::NAN))]);
        assert_eq!(line, "{\"kind\": \"x\", \"round\": 0, \"v\": null}");
    }

    #[test]
    fn off_handle_records_nothing() {
        let t = Trace::off();
        assert!(!t.is_on());
        t.event("x", 1, "p", &[("a", 1u64.into())]);
        assert!(t.take_lines().is_empty());
    }

    #[test]
    fn memory_handle_buffers_in_order() {
        let t = Trace::memory();
        t.event("a", 1, "", &[]);
        t.event("b", 2, "p", &[("bits", 64u64.into())]);
        let lines = t.take_lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"kind\": \"a\""));
        assert!(lines[1].contains("\"bits\": 64"));
        assert!(t.take_lines().is_empty(), "take drains");
    }

    #[test]
    fn clones_share_one_sink() {
        let t = Trace::memory();
        let u = t.clone();
        u.event("a", 0, "", &[]);
        assert_eq!(t.take_lines().len(), 1);
    }

    #[test]
    fn finish_appends_profile_section() {
        let t = Trace::memory();
        t.event("a", 0, "", &[]);
        t.profile_add("sim:step", 0.5);
        t.finish();
        let lines = t.take_lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"section\": \"profile\""));
        assert!(lines[1].contains("\"name\": \"sim:step\""));
    }

    #[test]
    fn file_sink_round_trips() {
        let dir = std::env::temp_dir().join("ba-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-{}.jsonl", std::process::id()));
        let t = Trace::to_file(&path).unwrap();
        t.event("a", 1, "", &[("bits", 7u64.into())]);
        t.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"kind\": \"a\", \"round\": 1, \"bits\": 7}\n");
        std::fs::remove_file(&path).ok();
    }
}
