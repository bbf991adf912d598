//! Declarative scenario specs: plain `key = value` text, no external
//! parser dependencies (the build environment is offline).
//!
//! A spec describes one named experiment: which protocol to run, at what
//! scale, over what network (latency model, fault schedule), against
//! which adversary, and for how many trials. The spec format is
//! protocol-agnostic — this crate validates and carries the fields; the
//! `scenario` runner binary in `ba-bench` maps protocol and adversary
//! names onto concrete implementations.
//!
//! ```text
//! # comment lines and blank lines are ignored
//! name      = lossy-gossip
//! protocol  = aeba                 # aeba|phase_king|ben_or|rabin|flood|ae_to_e
//! n         = 96
//! trials    = 8
//! seed      = 1
//! input     = split                # unanimous-true|unanimous-false|split|lopsided
//! rounds    = 48                   # optional round-cap override
//! delta     = 1000                 # ticks per round
//! latency   = uniform 0 800       # constant D | uniform LO HI | heavytail FLOOR SCALE ALPHA CAP
//! drop      = 0.05                 # iid message loss probability
//! partition = 48 10 20             # boundary start heal (repeatable)
//! crash     = 3 12                 # proc round (repeatable)
//! churn     = 16 4 1               # period down stagger
//! corrupt   = 8                    # adversary corruption count
//! adversary = crash                # none|crash|split (message level)
//! phases    = elect:12,converge:36 # stats breakdown timetable
//! coin_success = 0.8               # aeba coin schedule knobs
//! coin_blind   = 0.02
//! adversary.tree = custody-buster  # none|static-third|winner-hunter|custody-buster
//! adversary.tree.aggressiveness = 0.6   # custody-buster budget fraction
//! adversary.tree.attack = oppose   # passive|oppose|split|fixed-0|fixed-1
//! ```
//!
//! The `adversary.tree.*` section names a *tree-level* adversary for the
//! tournament/everywhere protocols. It composes with everything else: a
//! spec may set a tree adversary, a message-level adversary, **and** a
//! fault schedule in one run — the composition the unified `Experiment`
//! API executes. Unknown keys are rejected with a did-you-mean
//! suggestion.

use crate::event::DeliveryPolicy;
use crate::fault::{Churn, Crash, FaultPlan, Partition};
use crate::latency::LatencyModel;
use crate::transport::NetConfig;
use ba_sim::Schedule;

/// How processor inputs are assigned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputPattern {
    /// Every processor starts with `true`.
    UnanimousTrue,
    /// Every processor starts with `false`.
    UnanimousFalse,
    /// Alternating inputs (worst-case split).
    Split,
    /// 90% `true`, 10% `false`.
    Lopsided,
}

impl InputPattern {
    /// Processor `i`'s input bit under this pattern.
    pub fn bit(self, i: usize) -> bool {
        match self {
            InputPattern::UnanimousTrue => true,
            InputPattern::UnanimousFalse => false,
            InputPattern::Split => i.is_multiple_of(2),
            InputPattern::Lopsided => !i.is_multiple_of(10),
        }
    }
}

/// A parsed scenario spec.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (used in reports).
    pub name: String,
    /// Protocol selector (interpreted by the runner).
    pub protocol: String,
    /// Number of processors (the first value of the `n` key).
    pub n: usize,
    /// Additional population sizes: `n = 64,128,256` parses the first
    /// size into [`ScenarioSpec::n`] and the rest here;
    /// [`ScenarioSpec::expand_n`] turns the spec into one row per size.
    pub sweep_n: Vec<usize>,
    /// Independent trials (seeds `seed..seed+trials`).
    pub trials: u64,
    /// Base seed.
    pub seed: u64,
    /// Input assignment.
    pub input: InputPattern,
    /// Round-cap override (protocol default + slack when `None`).
    pub rounds: Option<usize>,
    /// Ticks per round.
    pub delta: u64,
    /// Wire latency model.
    pub latency: LatencyModel,
    /// Fault schedule.
    pub faults: FaultPlan,
    /// Corruption count handed to the adversary.
    pub corrupt: usize,
    /// Message-level adversary selector (interpreted by the runner).
    pub adversary: String,
    /// Tree-level adversary selector (`adversary.tree`), for the
    /// tournament/everywhere protocols; composes with the message-level
    /// adversary and the fault schedule.
    pub tree_adversary: String,
    /// `adversary.tree.aggressiveness`: the custody-buster's per-level
    /// budget fraction.
    pub tree_aggressiveness: f64,
    /// `adversary.tree.attack`: how corrupt committee members behave
    /// (`passive|oppose|split|fixed-0|fixed-1`).
    pub tree_attack: String,
    /// Stats-breakdown timetable: `(name, rounds)` pairs.
    pub phases: Vec<(String, usize)>,
    /// AEBA coin-round success probability.
    pub coin_success: f64,
    /// AEBA fraction of processors mis-seeing successful coins.
    pub coin_blind: f64,
    /// Same-instant delivery ordering (`net.ordering`).
    pub ordering: DeliveryPolicy,
}

impl ScenarioSpec {
    /// Parses a spec from `key = value` text. Unknown keys, malformed
    /// values, and missing required keys (`name`, `protocol`, `n`) are
    /// errors carrying the offending line number.
    pub fn parse(text: &str) -> Result<ScenarioSpec, String> {
        let mut name = None;
        let mut protocol = None;
        let mut n = None;
        let mut spec = ScenarioSpec {
            name: String::new(),
            protocol: String::new(),
            n: 0,
            sweep_n: Vec::new(),
            trials: 4,
            seed: 1,
            input: InputPattern::Split,
            rounds: None,
            delta: 1_000,
            latency: LatencyModel::Constant(0),
            faults: FaultPlan::default(),
            corrupt: 0,
            adversary: "none".to_owned(),
            tree_adversary: "none".to_owned(),
            tree_aggressiveness: 1.0,
            tree_attack: "oppose".to_owned(),
            phases: Vec::new(),
            coin_success: 0.8,
            coin_blind: 0.02,
            ordering: DeliveryPolicy::Fifo,
        };
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let at = |msg: &str| format!("line {}: {msg}", lineno + 1);
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| at("expected `key = value`"))?;
            let (key, value) = (key.trim(), value.trim());
            let words: Vec<&str> = value.split_whitespace().collect();
            match key {
                "name" => name = Some(value.to_owned()),
                "protocol" => protocol = Some(value.to_owned()),
                "n" => {
                    // Sweep axis: `n = 64,128,256` expands to one row
                    // per size via `expand_n`.
                    let mut sizes = Vec::new();
                    for part in value.split(',') {
                        sizes.push(parse_num::<usize>(part.trim()).map_err(|e| at(&e))?);
                    }
                    n = Some(sizes[0]);
                    spec.sweep_n = sizes.split_off(1);
                }
                "trials" => spec.trials = parse_num(value).map_err(|e| at(&e))?,
                "seed" => spec.seed = parse_num(value).map_err(|e| at(&e))?,
                "rounds" => spec.rounds = Some(parse_num(value).map_err(|e| at(&e))?),
                "delta" => spec.delta = parse_num(value).map_err(|e| at(&e))?,
                "corrupt" => spec.corrupt = parse_num(value).map_err(|e| at(&e))?,
                "adversary" => spec.adversary = value.to_owned(),
                "adversary.tree" => spec.tree_adversary = value.to_owned(),
                "adversary.tree.aggressiveness" => {
                    spec.tree_aggressiveness = parse_prob(value).map_err(|e| at(&e))?
                }
                "adversary.tree.attack" => spec.tree_attack = value.to_owned(),
                "net.ordering" => {
                    spec.ordering = DeliveryPolicy::parse(value).ok_or_else(|| {
                        at(&format!(
                            "unknown delivery ordering `{value}` (fifo|lifo|shuffle)"
                        ))
                    })?
                }
                "drop" => spec.faults.drop_prob = parse_prob(value).map_err(|e| at(&e))?,
                "coin_success" => spec.coin_success = parse_prob(value).map_err(|e| at(&e))?,
                "coin_blind" => spec.coin_blind = parse_prob(value).map_err(|e| at(&e))?,
                "input" => {
                    spec.input = match value {
                        "unanimous-true" => InputPattern::UnanimousTrue,
                        "unanimous-false" => InputPattern::UnanimousFalse,
                        "split" => InputPattern::Split,
                        "lopsided" => InputPattern::Lopsided,
                        other => return Err(at(&format!("unknown input pattern `{other}`"))),
                    }
                }
                "latency" => spec.latency = parse_latency(&words).map_err(|e| at(&e))?,
                "partition" => {
                    let [boundary, from_round, heal_round] =
                        parse_args::<usize, 3>(&words).map_err(|e| at(&e))?;
                    if heal_round <= from_round {
                        return Err(at("partition must heal after it starts"));
                    }
                    spec.faults.partitions.push(Partition {
                        boundary,
                        from_round,
                        heal_round,
                    });
                }
                "crash" => {
                    let [proc, round] = parse_args::<usize, 2>(&words).map_err(|e| at(&e))?;
                    spec.faults.crashes.push(Crash { proc, round });
                }
                "churn" => {
                    let [period, down, stagger] =
                        parse_args::<usize, 3>(&words).map_err(|e| at(&e))?;
                    if down >= period {
                        return Err(at("churn down-time must be shorter than the period"));
                    }
                    spec.faults.churn = Some(Churn {
                        period,
                        down,
                        stagger,
                    });
                }
                "phases" => {
                    for part in value.split(',') {
                        let (pname, len) = part
                            .trim()
                            .split_once(':')
                            .ok_or_else(|| at("phases entries are `name:rounds`"))?;
                        spec.phases.push((
                            pname.trim().to_owned(),
                            parse_num(len.trim()).map_err(|e| at(&e))?,
                        ));
                    }
                }
                other => {
                    let mut msg = format!("unknown key `{other}`");
                    if let Some(best) = did_you_mean(other) {
                        msg.push_str(&format!(" (did you mean `{best}`?)"));
                    }
                    return Err(at(&msg));
                }
            }
        }
        spec.name = name.ok_or("missing required key `name`")?;
        spec.protocol = protocol.ok_or("missing required key `protocol`")?;
        spec.n = n.ok_or("missing required key `n`")?;
        // Faults are validated against every size of the sweep — each
        // expanded row must be runnable on its own.
        let min_n = spec.sweep_n.iter().copied().chain([spec.n]).min().unwrap();
        if min_n == 0 {
            return Err("n must be positive".to_owned());
        }
        if spec.trials == 0 {
            return Err("trials must be positive".to_owned());
        }
        if spec.delta == 0 {
            return Err("delta must be positive".to_owned());
        }
        for c in &spec.faults.crashes {
            if c.proc >= min_n {
                return Err(format!(
                    "crash processor {} out of range (n = {min_n})",
                    c.proc
                ));
            }
        }
        for p in &spec.faults.partitions {
            // A boundary outside (0, n) puts everyone on one side: the
            // "partition" would silently never fire.
            if p.boundary == 0 || p.boundary >= min_n {
                return Err(format!(
                    "partition boundary {} leaves a side empty (n = {min_n})",
                    p.boundary
                ));
            }
        }
        Ok(spec)
    }

    /// Expands the `n` sweep into one single-size spec per row. A spec
    /// without extra sizes expands to itself; swept rows get a `-n<size>`
    /// name suffix so reports stay distinguishable.
    pub fn expand_n(&self) -> Vec<ScenarioSpec> {
        if self.sweep_n.is_empty() {
            return vec![self.clone()];
        }
        std::iter::once(self.n)
            .chain(self.sweep_n.iter().copied())
            .map(|size| {
                let mut row = self.clone();
                row.n = size;
                row.sweep_n = Vec::new();
                row.name = format!("{}-n{size}", self.name);
                row
            })
            .collect()
    }

    /// The network configuration for one trial (trial seeds are
    /// `seed + trial`, matching the protocol-side seeding).
    pub fn net_config(&self, trial: u64) -> NetConfig {
        let mut cfg = NetConfig {
            delta: self.delta,
            latency: self.latency.clone(),
            faults: self.faults.clone(),
            seed: self.seed.wrapping_add(trial),
            schedule: None,
            ordering: self.ordering,
        };
        if !self.phases.is_empty() {
            let mut schedule = Schedule::new();
            for (name, len) in &self.phases {
                schedule.push(name, *len);
            }
            cfg.schedule = Some(schedule);
        }
        cfg
    }

    /// Renders the spec back to canonical `key = value` text.
    /// [`ScenarioSpec::parse`] of the result reproduces the spec exactly
    /// (pinned by the grammar round-trip proptests).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "name = {}", self.name);
        let _ = writeln!(out, "protocol = {}", self.protocol);
        if self.sweep_n.is_empty() {
            let _ = writeln!(out, "n = {}", self.n);
        } else {
            let sizes: Vec<String> = std::iter::once(self.n)
                .chain(self.sweep_n.iter().copied())
                .map(|s| s.to_string())
                .collect();
            let _ = writeln!(out, "n = {}", sizes.join(","));
        }
        let _ = writeln!(out, "trials = {}", self.trials);
        let _ = writeln!(out, "seed = {}", self.seed);
        let input = match self.input {
            InputPattern::UnanimousTrue => "unanimous-true",
            InputPattern::UnanimousFalse => "unanimous-false",
            InputPattern::Split => "split",
            InputPattern::Lopsided => "lopsided",
        };
        let _ = writeln!(out, "input = {input}");
        if let Some(r) = self.rounds {
            let _ = writeln!(out, "rounds = {r}");
        }
        let _ = writeln!(out, "delta = {}", self.delta);
        match &self.latency {
            LatencyModel::Constant(d) => {
                let _ = writeln!(out, "latency = constant {d}");
            }
            LatencyModel::Uniform { lo, hi } => {
                let _ = writeln!(out, "latency = uniform {lo} {hi}");
            }
            LatencyModel::HeavyTail {
                floor,
                scale,
                alpha,
                cap,
            } => {
                let _ = writeln!(out, "latency = heavytail {floor} {scale} {alpha} {cap}");
            }
        }
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
        let _ = writeln!(out, "corrupt = {}", self.corrupt);
        let _ = writeln!(out, "adversary = {}", self.adversary);
        let _ = writeln!(out, "adversary.tree = {}", self.tree_adversary);
        let _ = writeln!(
            out,
            "adversary.tree.aggressiveness = {}",
            self.tree_aggressiveness
        );
        let _ = writeln!(out, "adversary.tree.attack = {}", self.tree_attack);
        if !self.phases.is_empty() {
            let parts: Vec<String> = self
                .phases
                .iter()
                .map(|(n, l)| format!("{n}:{l}"))
                .collect();
            let _ = writeln!(out, "phases = {}", parts.join(","));
        }
        let _ = writeln!(out, "coin_success = {}", self.coin_success);
        let _ = writeln!(out, "coin_blind = {}", self.coin_blind);
        let _ = writeln!(out, "net.ordering = {}", self.ordering.name());
        out
    }
}

/// Every key the grammar accepts, for the did-you-mean suggestion.
const KNOWN_KEYS: &[&str] = &[
    "name",
    "protocol",
    "n",
    "trials",
    "seed",
    "input",
    "rounds",
    "delta",
    "latency",
    "drop",
    "partition",
    "crash",
    "churn",
    "corrupt",
    "adversary",
    "adversary.tree",
    "adversary.tree.aggressiveness",
    "adversary.tree.attack",
    "phases",
    "coin_success",
    "coin_blind",
    "net.ordering",
];

/// The closest known key within an edit distance of 3, if any.
fn did_you_mean(key: &str) -> Option<&'static str> {
    KNOWN_KEYS
        .iter()
        .map(|&k| (edit_distance(key, k), k))
        .min()
        .filter(|&(d, _)| d <= 3)
        .map(|(_, k)| k)
}

/// Plain Levenshtein distance (the key space is tiny).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse::<T>()
        .map_err(|_| format!("cannot parse `{s}` as a number"))
}

fn parse_prob(s: &str) -> Result<f64, String> {
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

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = "\
# a full-featured spec
name      = kitchen-sink
protocol  = aeba
n         = 96
trials    = 8
seed      = 42
input     = lopsided
rounds    = 50
delta     = 500
latency   = heavytail 10 100 1.5 4000
drop      = 0.05
partition = 48 10 20
partition = 24 30 35
crash     = 3 12
crash     = 7 1
churn     = 16 4 1
corrupt   = 8
adversary = crash
phases    = elect:12, converge:38
coin_success = 0.7
coin_blind   = 0.05
";

    #[test]
    fn parses_every_field() {
        let s = ScenarioSpec::parse(FULL).expect("parse");
        assert_eq!(s.name, "kitchen-sink");
        assert_eq!(s.protocol, "aeba");
        assert_eq!(s.n, 96);
        assert_eq!(s.trials, 8);
        assert_eq!(s.seed, 42);
        assert_eq!(s.input, InputPattern::Lopsided);
        assert_eq!(s.rounds, Some(50));
        assert_eq!(s.delta, 500);
        assert!(matches!(
            s.latency,
            LatencyModel::HeavyTail { floor: 10, .. }
        ));
        assert!((s.faults.drop_prob - 0.05).abs() < 1e-12);
        assert_eq!(s.faults.partitions.len(), 2);
        assert_eq!(s.faults.crashes.len(), 2);
        assert_eq!(
            s.faults.churn,
            Some(Churn {
                period: 16,
                down: 4,
                stagger: 1
            })
        );
        assert_eq!(s.corrupt, 8);
        assert_eq!(s.adversary, "crash");
        assert_eq!(
            s.phases,
            vec![("elect".to_owned(), 12), ("converge".to_owned(), 38)]
        );
        assert!((s.coin_success - 0.7).abs() < 1e-12);
    }

    #[test]
    fn minimal_spec_gets_defaults() {
        let s = ScenarioSpec::parse("name=x\nprotocol=flood\nn=16\n").expect("parse");
        assert_eq!(s.trials, 4);
        assert_eq!(s.delta, 1_000);
        assert_eq!(s.latency, LatencyModel::Constant(0));
        assert!(s.faults.is_trivial());
        assert_eq!(s.adversary, "none");
        assert!(s.net_config(0).schedule.is_none());
    }

    #[test]
    fn net_config_derives_trial_seed_and_schedule() {
        let s = ScenarioSpec::parse("name=x\nprotocol=flood\nn=16\nseed=10\nphases=a:2,b:3\n")
            .expect("parse");
        let cfg = s.net_config(5);
        assert_eq!(cfg.seed, 15);
        let sched = cfg.schedule.expect("schedule");
        assert_eq!(sched.total_rounds(), 5);
        assert_eq!(sched.phase(1).name, "b");
    }

    #[test]
    fn input_patterns_assign_bits() {
        assert!(InputPattern::UnanimousTrue.bit(3));
        assert!(!InputPattern::UnanimousFalse.bit(3));
        assert!(InputPattern::Split.bit(0) && !InputPattern::Split.bit(1));
        let trues = (0..100).filter(|&i| InputPattern::Lopsided.bit(i)).count();
        assert_eq!(trues, 90);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = ScenarioSpec::parse("name=x\nbogus-line\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = ScenarioSpec::parse("name=x\nwat = 1\n").unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
        let err = ScenarioSpec::parse("name=x\nprotocol=p\nn=4\ncrash = 9 0\n").unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = ScenarioSpec::parse("name=x\nprotocol=p\nn=4\npartition = 9 0 5\n").unwrap_err();
        assert!(err.contains("side empty"), "{err}");
        let err = ScenarioSpec::parse("name=x\nprotocol=p\nn=4\npartition = 0 0 5\n").unwrap_err();
        assert!(err.contains("side empty"), "{err}");
        let err = ScenarioSpec::parse("protocol=p\nn=4\n").unwrap_err();
        assert!(err.contains("name"), "{err}");
        let err = ScenarioSpec::parse("name=x\nprotocol=p\nn=4\nlatency = warp 9\n").unwrap_err();
        assert!(err.contains("latency"), "{err}");
        let err = ScenarioSpec::parse("name=x\nprotocol=p\nn=4\ndrop = 1.5\n").unwrap_err();
        assert!(err.contains("probability"), "{err}");
        let err = ScenarioSpec::parse("name=x\nprotocol=p\nn=4\nchurn = 4 4 0\n").unwrap_err();
        assert!(err.contains("churn"), "{err}");
        let err = ScenarioSpec::parse("name=x\nprotocol=p\nn=4\npartition = 2 5 5\n").unwrap_err();
        assert!(err.contains("heal"), "{err}");
    }

    #[test]
    fn tree_adversary_section_parses() {
        let s = ScenarioSpec::parse(
            "name=x\nprotocol=everywhere\nn=64\n\
             adversary.tree = custody-buster\n\
             adversary.tree.aggressiveness = 0.6\n\
             adversary.tree.attack = split\n\
             partition = 32 0 40\n",
        )
        .expect("parse");
        assert_eq!(s.tree_adversary, "custody-buster");
        assert!((s.tree_aggressiveness - 0.6).abs() < 1e-12);
        assert_eq!(s.tree_attack, "split");
        // Composition: the tree adversary coexists with a fault schedule.
        assert_eq!(s.faults.partitions.len(), 1);
    }

    #[test]
    fn tree_defaults_are_benign() {
        let s = ScenarioSpec::parse("name=x\nprotocol=flood\nn=16\n").expect("parse");
        assert_eq!(s.tree_adversary, "none");
        assert!((s.tree_aggressiveness - 1.0).abs() < 1e-12);
        assert_eq!(s.tree_attack, "oppose");
    }

    #[test]
    fn unknown_keys_get_a_suggestion() {
        let err = ScenarioSpec::parse("name=x\nadverssary = crash\n").unwrap_err();
        assert!(err.contains("did you mean `adversary`"), "{err}");
        let err = ScenarioSpec::parse("name=x\nadversary.tre = none\n").unwrap_err();
        assert!(err.contains("did you mean `adversary.tree`"), "{err}");
        let err = ScenarioSpec::parse("name=x\nlatencyy = constant 0\n").unwrap_err();
        assert!(err.contains("did you mean `latency`"), "{err}");
        // Nothing close: no suggestion at all.
        let err = ScenarioSpec::parse("name=x\nzzzzzzzzzzzz = 1\n").unwrap_err();
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn n_sweep_parses_and_expands() {
        let s = ScenarioSpec::parse("name=sweep\nprotocol=flood\nn=64, 128,256\n").expect("parse");
        assert_eq!(s.n, 64);
        assert_eq!(s.sweep_n, vec![128, 256]);
        let rows = s.expand_n();
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows.iter().map(|r| r.n).collect::<Vec<_>>(),
            vec![64, 128, 256]
        );
        assert_eq!(rows[1].name, "sweep-n128");
        assert!(rows.iter().all(|r| r.sweep_n.is_empty()));
        // Everything but name/n is carried over verbatim.
        assert_eq!(rows[2].protocol, "flood");
        assert_eq!(rows[2].trials, s.trials);
    }

    #[test]
    fn single_n_expands_to_itself() {
        let s = ScenarioSpec::parse("name=x\nprotocol=flood\nn=16\n").expect("parse");
        assert_eq!(s.expand_n(), vec![s.clone()]);
    }

    #[test]
    fn sweep_faults_validate_against_the_smallest_size() {
        // crash proc 40 is fine for n=64 but out of range for the swept 32.
        let err = ScenarioSpec::parse("name=x\nprotocol=p\nn=64,32\ncrash = 40 0\n").unwrap_err();
        assert!(err.contains("out of range (n = 32)"), "{err}");
        let err =
            ScenarioSpec::parse("name=x\nprotocol=p\nn=64,32\npartition = 40 0 5\n").unwrap_err();
        assert!(err.contains("side empty"), "{err}");
        let err = ScenarioSpec::parse("name=x\nprotocol=p\nn=64,0\n").unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn sweep_renders_as_a_comma_list() {
        let s = ScenarioSpec::parse("name=sweep\nprotocol=flood\nn=64,128,256\n").expect("parse");
        assert!(s.render().contains("n = 64,128,256"), "{}", s.render());
        let back = ScenarioSpec::parse(&s.render()).expect("reparse");
        assert_eq!(s, back);
    }

    #[test]
    fn ordering_parses_renders_and_reaches_the_net_config() {
        let s = ScenarioSpec::parse("name=x\nprotocol=flood\nn=16\nnet.ordering = lifo\n")
            .expect("parse");
        assert_eq!(s.ordering, DeliveryPolicy::AdversarialLifo);
        assert_eq!(s.net_config(0).ordering, DeliveryPolicy::AdversarialLifo);
        assert!(s.render().contains("net.ordering = lifo"));
        let back = ScenarioSpec::parse(&s.render()).expect("reparse");
        assert_eq!(s, back);
        // Default is fifo, and junk values are line-numbered errors.
        let d = ScenarioSpec::parse("name=x\nprotocol=flood\nn=16\n").expect("parse");
        assert_eq!(d.ordering, DeliveryPolicy::Fifo);
        let err =
            ScenarioSpec::parse("name=x\nprotocol=p\nn=4\nnet.ordering = chaos\n").unwrap_err();
        assert!(err.contains("unknown delivery ordering"), "{err}");
        assert!(err.contains("line 4"), "{err}");
    }

    #[test]
    fn render_round_trips_the_kitchen_sink() {
        let spec = ScenarioSpec::parse(FULL).expect("parse");
        let rendered = spec.render();
        let back = ScenarioSpec::parse(&rendered).expect("reparse");
        assert_eq!(spec, back, "render→parse must be the identity");
    }
}
