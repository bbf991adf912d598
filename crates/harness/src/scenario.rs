//! Lowers declarative `scenarios/*.scn` specs onto [`RunSpec`] and
//! aggregates scenario reports — the glue that makes the scenario
//! runner a thin preset over the same API as every other entry point.

use crate::runner::{run_traced, RunReport};
use crate::spec::{
    AdversarySpec, AeToESpec, AebaSpec, MessageAdversary, Protocol, RunSpec, TournamentTuning,
    TreeAttack,
};
use ba_core::aeba::CommitteeAttack;
use ba_net::{NetStats, ScenarioSpec};
use ba_obs::Trace;
use std::time::Instant;

/// What `adversary = forge` answers requests with: neither the default
/// Algorithm-3 message nor a bit the everywhere stack can agree on, so
/// every good processor that decides it counts as `wrong`.
const FORGED_VALUE: u64 = 666;

/// Parses a committee-attack name from the `adversary.tree.attack` key.
fn parse_attack(name: &str) -> Result<CommitteeAttack, String> {
    match name {
        "passive" => Ok(CommitteeAttack::Passive),
        "oppose" => Ok(CommitteeAttack::Oppose),
        "split" => Ok(CommitteeAttack::Split),
        "fixed-0" => Ok(CommitteeAttack::Fixed(false)),
        "fixed-1" => Ok(CommitteeAttack::Fixed(true)),
        other => Err(format!(
            "unknown committee attack `{other}` (passive|oppose|split|fixed-0|fixed-1)"
        )),
    }
}

/// Lowers a parsed scenario spec onto the typed [`RunSpec`] surface.
/// Rejects combinations the runner cannot execute (unknown protocol or
/// adversary names, tree adversaries on message-level protocols).
pub fn lower(spec: &ScenarioSpec) -> Result<RunSpec, String> {
    let at = |msg: String| format!("scenario `{}`: {msg}", spec.name);
    // A swept spec describes several runs; callers expand before lowering
    // (`expand_n`), so reaching here with extra sizes would silently run
    // only the first one.
    if !spec.sweep_n.is_empty() {
        return Err(at(format!(
            "spec sweeps n over {:?}; expand with `expand_n()` before lowering",
            spec.sweep_n
        )));
    }
    let protocol = match spec.protocol.as_str() {
        "aeba" => Protocol::Aeba(AebaSpec {
            rounds: spec.rounds.unwrap_or_else(|| AebaSpec::default().rounds),
            coin_success: spec.coin_success,
            coin_blind: spec.coin_blind,
            ..AebaSpec::default()
        }),
        "ae_to_e" => Protocol::AeToE(AeToESpec::default()),
        "tournament" => Protocol::Tournament(TournamentTuning::default()),
        "everywhere" => Protocol::Everywhere,
        "flood" => Protocol::Flood,
        "phase_king" => Protocol::PhaseKing,
        "ben_or" => Protocol::BenOr,
        "rabin" => Protocol::Rabin,
        other => return Err(at(format!("unknown protocol `{other}`"))),
    };
    let tree_level = matches!(protocol, Protocol::Tournament(_) | Protocol::Everywhere);

    let message = match spec.adversary.as_str() {
        "none" => MessageAdversary::None,
        "crash" => MessageAdversary::Crash {
            count: spec.corrupt,
        },
        "split" => MessageAdversary::SplitVotes {
            count: spec.corrupt,
        },
        "equivocate" => MessageAdversary::Equivocate {
            count: spec.corrupt,
        },
        "forge" => MessageAdversary::Forge {
            count: spec.corrupt,
            fake: FORGED_VALUE,
        },
        other => return Err(at(format!("unknown adversary `{other}`"))),
    };
    let attack = parse_attack(&spec.tree_attack).map_err(at)?;
    let tree = match spec.tree_adversary.as_str() {
        "none" => TreeAttack::None,
        "static-third" => TreeAttack::StaticThird { attack },
        "winner-hunter" => TreeAttack::WinnerHunter,
        "custody-buster" => TreeAttack::CustodyBuster {
            aggressiveness: spec.tree_aggressiveness,
        },
        other => return Err(at(format!("unknown tree adversary `{other}`"))),
    };
    // Only `static-third` takes a committee-attack knob; the adaptive
    // adversaries hard-code their committee behaviour. A non-default
    // value elsewhere would be a silently dead knob, so reject it.
    if attack != CommitteeAttack::Oppose && !matches!(tree, TreeAttack::StaticThird { .. }) {
        return Err(at(format!(
            "`adversary.tree.attack = {}` is only consumed by `adversary.tree = static-third` \
             (`{}` fixes its own committee behaviour)",
            spec.tree_attack, spec.tree_adversary
        )));
    }
    if tree != TreeAttack::None && !tree_level {
        return Err(at(format!(
            "tree adversary `{}` needs a tree-level protocol (tournament|everywhere), got `{}`",
            spec.tree_adversary, spec.protocol
        )));
    }
    if tree_level
        && message != MessageAdversary::None
        && matches!(protocol, Protocol::Tournament(_))
    {
        return Err(at(format!(
            "protocol `tournament` takes only tree adversaries, not `{}`",
            spec.adversary
        )));
    }
    // `corrupt` feeds the *message-level* adversary's count; tree
    // adversaries draw from the params corruption budget instead, so a
    // corrupt count they would silently ignore is rejected.
    if spec.corrupt > 0 && message == MessageAdversary::None && tree_level {
        return Err(at(format!(
            "`corrupt = {}` has no effect on protocol `{}` without a message-level adversary \
             (tree adversaries draw from the params corruption budget)",
            spec.corrupt, spec.protocol
        )));
    }

    let mut run_spec = RunSpec::new(protocol, spec.n)
        .trials(spec.trials)
        .seeds(spec.seed)
        .input(spec.input)
        .adversary(AdversarySpec {
            budget: Some(spec.corrupt),
            message,
            tree,
        })
        .net(spec.net_config(0)); // the runner derives each trial's seed
    match run_spec.protocol {
        // For AEBA `rounds` is the protocol length, folded into the
        // AebaSpec above.
        Protocol::Aeba(_) => {}
        // The structured executors have parameter-determined lengths; a
        // silently-dropped cap would mislabel results.
        Protocol::Tournament(_) | Protocol::Everywhere => {
            if spec.rounds.is_some() {
                return Err(at(format!(
                    "`rounds` has no effect on protocol `{}` (its length is parameter-determined)",
                    spec.protocol
                )));
            }
        }
        _ => {
            if let Some(cap) = spec.rounds {
                run_spec = run_spec.rounds_cap(cap);
            }
        }
    }
    Ok(run_spec)
}

/// Per-scenario aggregate over all trials.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// The scenario's spec.
    pub spec: ScenarioSpec,
    /// Mean plurality agreement.
    pub agree_mean: f64,
    /// Worst-trial plurality agreement.
    pub agree_min: f64,
    /// Mean decided fraction.
    pub decided_mean: f64,
    /// Mean rounds.
    pub rounds_mean: f64,
    /// Mean total bits.
    pub bits_mean: f64,
    /// Network statistics summed over trials.
    pub net: NetStats,
    /// Wall-clock seconds for the whole scenario.
    pub wall_seconds: f64,
}

/// Table header shared by the scenario runner.
pub const SCENARIO_COLUMNS: &[&str] = &[
    "scenario", "protocol", "n", "trials", "agree", "min", "decided", "rounds", "loss%", "late%",
    "wall_s",
];

impl ScenarioReport {
    /// The table row matching [`SCENARIO_COLUMNS`].
    pub fn table_cells(&self) -> Vec<String> {
        vec![
            self.spec.name.clone(),
            self.spec.protocol.clone(),
            self.spec.n.to_string(),
            self.spec.trials.to_string(),
            format!("{:.3}", self.agree_mean),
            format!("{:.3}", self.agree_min),
            format!("{:.3}", self.decided_mean),
            format!("{:.1}", self.rounds_mean),
            format!("{:.1}", 100.0 * self.net.loss_rate()),
            format!("{:.1}", 100.0 * self.net.late_rate()),
            format!("{:.2}", self.wall_seconds),
        ]
    }

    /// The machine-readable row `scripts/bench.sh` folds into
    /// `BENCH_<n>.json`.
    pub fn json_row(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut phases = String::new();
        for (i, p) in self.net.per_phase.iter().enumerate() {
            if i > 0 {
                phases.push_str(", ");
            }
            phases.push_str(&format!(
                "{{\"name\": \"{}\", \"sent\": {}, \"sent_bits\": {}, \"delivered\": {}, \
                 \"late\": {}, \
                 \"late_rounds\": {}, \"dropped_random\": {}, \"dropped_partition\": {}, \
                 \"dead_letters\": {}}}",
                esc(&p.name),
                p.sent,
                p.sent_bits,
                p.delivered,
                p.late,
                p.late_rounds,
                p.dropped_random,
                p.dropped_partition,
                p.dead_letters,
            ));
        }
        format!(
            "{{\"scenario\": \"{}\", \"protocol\": \"{}\", \"n\": {}, \"trials\": {}, \
             \"agree_mean\": {:.4}, \"agree_min\": {:.4}, \"decided_mean\": {:.4}, \
             \"rounds_mean\": {:.1}, \"total_bits_mean\": {:.0}, \"wall_seconds\": {:.3}, \
             \"net\": {{\"sent\": {}, \"delivered\": {}, \"late\": {}, \"late_rounds\": {}, \
             \"dropped_random\": {}, \"dropped_partition\": {}, \"dead_letters\": {}, \
             \"in_flight_at_end\": {}}}, \
             \"phases\": [{}]}}",
            esc(&self.spec.name),
            esc(&self.spec.protocol),
            self.spec.n,
            self.spec.trials,
            self.agree_mean,
            self.agree_min,
            self.decided_mean,
            self.rounds_mean,
            self.bits_mean,
            self.wall_seconds,
            self.net.sent,
            self.net.delivered,
            self.net.late,
            self.net.late_rounds,
            self.net.dropped_random,
            self.net.dropped_partition,
            self.net.dead_letters,
            self.net.in_flight_at_end,
            phases,
        )
    }
}

/// Lowers and executes one scenario.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<ScenarioReport, String> {
    run_scenario_traced(spec, &Trace::off())
}

/// [`run_scenario`], with trace events fanned into `trace` (see
/// [`run_traced`] for the deterministic-merge contract).
pub fn run_scenario_traced(spec: &ScenarioSpec, trace: &Trace) -> Result<ScenarioReport, String> {
    let start = Instant::now();
    let run_spec = lower(spec)?;
    let report: RunReport = run_traced(&run_spec, trace)?;
    Ok(ScenarioReport {
        spec: spec.clone(),
        agree_mean: report.mean_of(|t| t.agreement),
        agree_min: report.min_of(|t| t.agreement),
        decided_mean: report.mean_of(|t| t.decided),
        rounds_mean: report.mean_of(|t| t.rounds as f64),
        bits_mean: report.mean_of(|t| t.total_bits as f64),
        net: report.net_sum(),
        wall_seconds: start.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GossipDegree;

    #[test]
    fn lowers_an_aeba_scenario() {
        let scn = ScenarioSpec::parse(
            "name=x\nprotocol=aeba\nn=48\ntrials=2\nseed=7\nrounds=20\n\
             adversary=split\ncorrupt=9\ncoin_success=0.7\n",
        )
        .expect("parse");
        let spec = lower(&scn).expect("lower");
        assert_eq!(spec.n, 48);
        assert_eq!(spec.trials, 2);
        assert_eq!(spec.seeds.base, 7);
        match &spec.protocol {
            Protocol::Aeba(a) => {
                assert_eq!(a.rounds, 20);
                assert!((a.coin_success - 0.7).abs() < 1e-12);
                assert_eq!(a.degree, GossipDegree::SqrtTimes(6.0));
            }
            other => panic!("wrong protocol: {other:?}"),
        }
        assert_eq!(
            spec.adversary.message,
            MessageAdversary::SplitVotes { count: 9 }
        );
    }

    #[test]
    fn lowers_a_composed_tree_scenario() {
        let scn = ScenarioSpec::parse(
            "name=x\nprotocol=everywhere\nn=64\n\
             adversary.tree=custody-buster\nadversary.tree.aggressiveness=0.5\n\
             partition = 32 0 6\n",
        )
        .expect("parse");
        let spec = lower(&scn).expect("lower");
        assert_eq!(spec.protocol, Protocol::Everywhere);
        assert_eq!(
            spec.adversary.tree,
            TreeAttack::CustodyBuster {
                aggressiveness: 0.5
            }
        );
        assert_eq!(spec.net.faults.partitions.len(), 1);
    }

    #[test]
    fn rejects_bad_combinations() {
        let scn =
            ScenarioSpec::parse("name=x\nprotocol=flood\nn=16\nadversary.tree=winner-hunter\n")
                .expect("parse");
        assert!(lower(&scn).unwrap_err().contains("tree-level protocol"));
        let scn = ScenarioSpec::parse("name=x\nprotocol=warp\nn=16\n").expect("parse");
        assert!(lower(&scn).unwrap_err().contains("unknown protocol"));
        let scn =
            ScenarioSpec::parse("name=x\nprotocol=everywhere\nn=16\nadversary.tree.attack=mean\n")
                .expect("parse");
        assert!(lower(&scn).unwrap_err().contains("committee attack"));
        // `rounds` would be silently dropped by the structured
        // executors, so lowering rejects it outright.
        let scn =
            ScenarioSpec::parse("name=x\nprotocol=tournament\nn=16\nrounds=20\n").expect("parse");
        assert!(lower(&scn).unwrap_err().contains("no effect"));
        let scn =
            ScenarioSpec::parse("name=x\nprotocol=everywhere\nn=16\nrounds=20\n").expect("parse");
        assert!(lower(&scn).unwrap_err().contains("no effect"));
        // The committee-attack knob is only consumed by static-third.
        let scn = ScenarioSpec::parse(
            "name=x\nprotocol=everywhere\nn=16\n\
             adversary.tree=custody-buster\nadversary.tree.attack=split\n",
        )
        .expect("parse");
        assert!(lower(&scn).unwrap_err().contains("only consumed by"));
        // A corrupt count no adversary consumes is rejected, not dropped.
        let scn = ScenarioSpec::parse(
            "name=x\nprotocol=tournament\nn=16\nadversary.tree=static-third\ncorrupt=8\n",
        )
        .expect("parse");
        assert!(lower(&scn).unwrap_err().contains("corruption budget"));
    }

    #[test]
    fn runs_a_small_scenario_end_to_end() {
        let scn = ScenarioSpec::parse("name=s\nprotocol=flood\nn=16\ntrials=2\ndrop=0.1\n")
            .expect("parse");
        let report = run_scenario(&scn).expect("run");
        assert!(report.net.sent > 0);
        assert!(report.net.dropped_random > 0, "drops must fire");
        let row = report.json_row();
        assert!(row.contains("\"scenario\": \"s\""));
        assert!(row.contains("\"net\": {"));
    }
}
