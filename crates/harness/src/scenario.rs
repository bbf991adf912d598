//! Lowers declarative `scenarios/*.scn` specs onto [`RunSpec`] — the
//! glue that makes `exp run` a thin preset over the same API as every
//! other entry point.

use crate::spec::{
    AdversarySpec, AeToESpec, AebaSpec, MessageAdversary, Protocol, RunSpec, TournamentTuning,
    TreeAttack,
};
use ba_core::aeba::CommitteeAttack;
use ba_net::ScenarioSpec;

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
/// Rejects unknown names and keys the grammar would silently drop here;
/// whether the lowered combination runs is [`RunSpec::validate`]'s call.
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
    // `corrupt` feeds the *message-level* adversary's count; tree
    // adversaries draw from the params corruption budget instead, so a
    // corrupt count they would silently ignore is rejected.
    let tree_level = matches!(protocol, Protocol::Tournament(_) | Protocol::Everywhere);
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

    // For AEBA `rounds` is the protocol length, folded into the AebaSpec
    // above; for every other protocol it is the run's cap.
    if !matches!(run_spec.protocol, Protocol::Aeba(_)) {
        run_spec.output.rounds_cap = spec.rounds;
    }
    run_spec.validate().map_err(at)?;
    Ok(run_spec)
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
        let report = crate::runner::run(&lower(&scn).expect("lower")).expect("run");
        assert_eq!(report.trials.len(), 2);
        let net = report.net_sum();
        assert!(net.sent > 0);
        assert!(net.dropped_random > 0, "drops must fire");
        assert!(
            report.trials.iter().all(|t| t.net.is_some()),
            "every trial carries its net stats"
        );
    }
}
