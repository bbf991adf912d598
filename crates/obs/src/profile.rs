//! Wall-clock profiling, quarantined from the deterministic trace.
//!
//! Timers accumulate `(calls, seconds)` per site name. The accumulator
//! renders as a separate `"profile"` section (see [`crate::Trace::finish`])
//! so wall times never contaminate event payloads: pinning tests strip
//! profile lines and compare the rest byte-for-byte.

use std::collections::BTreeMap;
use std::time::Instant;

/// One profiled site: call count and total wall seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProfileEntry {
    /// Number of timed scopes.
    pub calls: u64,
    /// Total wall-clock seconds across those scopes.
    pub secs: f64,
}

/// Accumulated wall-clock profile, keyed by site name. `BTreeMap` keys
/// give the rendered section a deterministic *order* even though the
/// timings themselves are not deterministic.
#[derive(Clone, Debug, Default)]
pub struct ProfileAcc {
    entries: BTreeMap<String, ProfileEntry>,
}

impl ProfileAcc {
    /// Charges `seconds` of wall time to `name`.
    pub(crate) fn add(&mut self, name: &str, seconds: f64) {
        let e = self.entries.entry(name.to_string()).or_default();
        e.calls += 1;
        e.secs += seconds;
    }

    /// Folds another accumulator into this one.
    pub fn merge(&mut self, other: &ProfileAcc) {
        for (name, o) in &other.entries {
            let e = self.entries.entry(name.clone()).or_default();
            e.calls += o.calls;
            e.secs += o.secs;
        }
    }

    /// Whether nothing was profiled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries in name order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &ProfileEntry)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The `"profile"` section lines, one JSONL line per site in name
    /// order. These are the only trace lines carrying wall time.
    pub(crate) fn render_lines(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|(name, e)| {
                format!(
                    "{{\"section\": \"profile\", \"name\": \"{}\", \"calls\": {}, \"secs\": {:.6}}}",
                    crate::json_escape(name),
                    e.calls,
                    e.secs
                )
            })
            .collect()
    }
}

/// A scoped timer: charges elapsed wall time to its site name when
/// dropped. Obtained from [`crate::Trace::timer`]; inert (no `Instant`
/// sampled) when tracing is off.
pub struct ProfileTimer {
    trace: crate::Trace,
    name: &'static str,
    start: Option<Instant>,
}

impl ProfileTimer {
    pub(crate) fn start(trace: crate::Trace, name: &'static str, armed: bool) -> Self {
        ProfileTimer {
            trace,
            name,
            start: armed.then(Instant::now),
        }
    }
}

impl Drop for ProfileTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.trace
                .profile_add(self.name, start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_merges_by_name() {
        let mut a = ProfileAcc::default();
        a.add("x", 1.0);
        a.add("x", 2.0);
        a.add("y", 0.5);
        let mut b = ProfileAcc::default();
        b.add("x", 1.0);
        a.merge(&b);
        let x = a.entries().find(|(n, _)| *n == "x").unwrap().1;
        assert_eq!(x.calls, 3);
        assert!((x.secs - 4.0).abs() < 1e-12);
    }

    #[test]
    fn renders_in_name_order() {
        let mut a = ProfileAcc::default();
        a.add("zeta", 1.0);
        a.add("alpha", 2.0);
        let lines = a.render_lines();
        assert!(lines[0].contains("\"name\": \"alpha\""));
        assert!(lines[1].contains("\"name\": \"zeta\""));
        assert!(lines.iter().all(|l| l.contains("\"section\": \"profile\"")));
    }

    #[test]
    fn scoped_timer_charges_on_drop_only_when_on() {
        let t = crate::Trace::memory();
        {
            let _g = t.timer("scope");
        }
        let prof = t.profile_snapshot();
        assert_eq!(prof.entries().count(), 1);
        assert_eq!(prof.entries().next().unwrap().1.calls, 1);

        let off = crate::Trace::off();
        {
            let _g = off.timer("scope");
        }
        assert!(off.profile_snapshot().is_empty());
    }
}
