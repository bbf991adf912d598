//! The `.scn` keys a [`NetConfig`] owns: plain `key = value` text, no
//! external parser dependencies (the build environment is offline).
//!
//! `ba_exp::scenario` parses and renders whole `.scn` files. It owns
//! every key, hands the network's ([`NET_KEYS`]) to
//! [`NetConfig::parse_key`] and writes them back with
//! [`NetConfig::render_keys`]:
//!
//! ```text
//! delta     = 1000                 # ticks per round
//! latency   = uniform 0 800        # constant D | uniform LO HI | heavytail FLOOR SCALE ALPHA CAP
//! drop      = 0.05                 # iid message loss probability
//! partition = 48 10 20             # boundary start heal (repeatable)
//! crash     = 3 12                 # proc round (repeatable)
//! churn     = 16 4 1               # period down stagger
//! phases    = elect:12,converge:36 # stats breakdown timetable
//! net.ordering = lifo              # fifo|lifo|shuffle
//! ```
//!
//! Whether a crash or a partition fits the population is
//! `RunSpec::validate`'s call: only the run knows `n`.

use crate::event::DeliveryPolicy;
use crate::fault::{Churn, Crash, Partition};
use crate::latency::LatencyModel;
use crate::transport::NetConfig;
use ba_sim::Schedule;
use std::fmt::Write as _;

/// Every `.scn` key a [`NetConfig`] owns.
pub const NET_KEYS: [&str; 8] = [
    "delta",
    "latency",
    "drop",
    "partition",
    "crash",
    "churn",
    "phases",
    "net.ordering",
];

impl NetConfig {
    /// Applies one `.scn` line whose key is in [`NET_KEYS`]: `partition`,
    /// `crash` and `phases` add to what earlier lines set, the rest
    /// replace it. The error names the value; the caller adds the line.
    pub fn parse_key(&mut self, key: &str, value: &str) -> Result<(), String> {
        let words: Vec<&str> = value.split_whitespace().collect();
        match key {
            "delta" => self.delta = parse_num(value)?,
            "latency" => self.latency = parse_latency(&words)?,
            "drop" => self.faults.drop_prob = parse_prob(value)?,
            "partition" => {
                let [boundary, from_round, heal_round] = parse_args::<usize, 3>(&words)?;
                if heal_round <= from_round {
                    return Err("partition must heal after it starts".to_owned());
                }
                self.faults.partitions.push(Partition {
                    boundary,
                    from_round,
                    heal_round,
                });
            }
            "crash" => {
                let [proc, round] = parse_args::<usize, 2>(&words)?;
                self.faults.crashes.push(Crash { proc, round });
            }
            "churn" => {
                let [period, down, stagger] = parse_args::<usize, 3>(&words)?;
                if down >= period {
                    return Err("churn down-time must be shorter than the period".to_owned());
                }
                self.faults.churn = Some(Churn {
                    period,
                    down,
                    stagger,
                });
            }
            "phases" => {
                let schedule = self.schedule.get_or_insert_with(Schedule::new);
                for part in value.split(',') {
                    let (name, len) = part
                        .trim()
                        .split_once(':')
                        .ok_or("phases entries are `name:rounds`")?;
                    let len = parse_num(len.trim())?;
                    if schedule.total_rounds().checked_add(len).is_none() {
                        return Err(format!("phases run past {} rounds", usize::MAX));
                    }
                    schedule.push(name.trim(), len);
                }
            }
            "net.ordering" => {
                self.ordering = (DeliveryPolicy::ALL.into_iter())
                    .find(|p| p.name() == value)
                    .ok_or_else(|| {
                        format!("unknown delivery ordering `{value}` (fifo|lifo|shuffle)")
                    })?
            }
            other => return Err(format!("`{other}` is not a network key")),
        }
        Ok(())
    }

    /// Writes this config as `.scn` lines of its [`NET_KEYS`], which
    /// [`NetConfig::parse_key`] reads back to the same config. The seed
    /// is the run's, not a key.
    pub fn render_keys(&self, out: &mut String) {
        let _ = writeln!(out, "delta = {}", self.delta);
        let _ = match &self.latency {
            LatencyModel::Constant(d) => writeln!(out, "latency = constant {d}"),
            LatencyModel::Uniform { lo, hi } => writeln!(out, "latency = uniform {lo} {hi}"),
            LatencyModel::HeavyTail {
                floor,
                scale,
                alpha,
                cap,
            } => writeln!(out, "latency = heavytail {floor} {scale} {alpha} {cap}"),
        };
        let _ = writeln!(out, "drop = {}", self.faults.drop_prob);
        for p in &self.faults.partitions {
            let _ = writeln!(
                out,
                "partition = {} {} {}",
                p.boundary, p.from_round, p.heal_round
            );
        }
        for c in &self.faults.crashes {
            let _ = writeln!(out, "crash = {} {}", c.proc, c.round);
        }
        if let Some(c) = &self.faults.churn {
            let _ = writeln!(out, "churn = {} {} {}", c.period, c.down, c.stagger);
        }
        if let Some(schedule) = &self.schedule {
            let parts: Vec<String> = schedule
                .iter()
                .map(|p| format!("{}:{}", p.name, p.len))
                .collect();
            let _ = writeln!(out, "phases = {}", parts.join(","));
        }
        let _ = writeln!(out, "net.ordering = {}", self.ordering.name());
    }
}

/// `.scn` text held whole for `ba_exp::scenario::lower`, which parses
/// it with the one parser, `ba_exp::scenario::parse`. Only the
/// `serve-loopback-64` benchmark workload still calls this pair; it
/// goes when ROADMAP 6(d) moves that workload onto `parse`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// The `.scn` text, unparsed.
    pub text: String,
}

impl ScenarioSpec {
    /// Holds `text`; parsing it is `ba_exp::scenario::lower`'s job.
    pub fn parse(text: &str) -> Result<ScenarioSpec, String> {
        Ok(ScenarioSpec {
            text: text.to_owned(),
        })
    }
}

/// Parses a `.scn` number.
pub fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse::<T>()
        .map_err(|_| format!("cannot parse `{s}` as a number"))
}

/// Parses a `.scn` probability: a number in `[0, 1]`.
pub fn parse_prob(s: &str) -> Result<f64, String> {
    let p = s
        .parse::<f64>()
        .map_err(|_| format!("cannot parse `{s}` as a probability"))?;
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(format!("probability `{s}` outside [0, 1]"))
    }
}

fn parse_args<T: std::str::FromStr + Copy + Default, const K: usize>(
    words: &[&str],
) -> Result<[T; K], String> {
    if words.len() != K {
        return Err(format!("expected {K} values, got {}", words.len()));
    }
    let mut out = [T::default(); K];
    for (slot, w) in out.iter_mut().zip(words) {
        *slot = parse_num(w)?;
    }
    Ok(out)
}

fn parse_latency(words: &[&str]) -> Result<LatencyModel, String> {
    match words {
        ["constant", d] => Ok(LatencyModel::Constant(parse_num(d)?)),
        ["uniform", lo, hi] => {
            let (lo, hi) = (parse_num(lo)?, parse_num(hi)?);
            if lo > hi {
                return Err("uniform latency needs lo <= hi".to_owned());
            }
            Ok(LatencyModel::Uniform { lo, hi })
        }
        ["heavytail", floor, scale, alpha, cap] => Ok(LatencyModel::HeavyTail {
            floor: parse_num(floor)?,
            scale: parse_num(scale)?,
            alpha: parse_num(alpha)?,
            cap: parse_num(cap)?,
        }),
        _ => Err(
            "latency is `constant D`, `uniform LO HI`, or `heavytail FLOOR SCALE ALPHA CAP`"
                .to_owned(),
        ),
    }
}
