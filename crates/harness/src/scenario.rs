//! `.scn` text parsed straight to [`RunSpec`], and rendered back from it.
//!
//! A `.scn` file is `key = value` lines (the grammar is in
//! `scenarios/README.md`). [`parse`] owns every key — the network's
//! through [`NetConfig::parse_key`] — and yields one named [`Scenario`]
//! per size of an `n = a,b,c` sweep, each one [`RunSpec::validate`]
//! accepts. [`render`] writes a row back as the keys its protocol reads,
//! and `parse` of that text gives the row again. Every enum the grammar
//! names has one name table, which `parse`, `render` and the hunt's
//! report share: `Protocol::name`, `MessageAdversary::name`,
//! `TreeAttack::name`, `InputPattern::name`, `DeliveryPolicy::name` and,
//! for the committee attacks, `ATTACKS`.

use crate::spec::{
    AdversarySpec, AeToESpec, AebaSpec, InputPattern, MessageAdversary, Protocol, RunSpec,
    TournamentTuning, TreeAttack,
};
use ba_core::aeba::CommitteeAttack;
use ba_net::{parse_num, parse_prob, NetConfig, ScenarioSpec, NET_KEYS};
use std::fmt::Write as _;

/// One run a `.scn` file describes: its report name and its spec.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// The row's name: the file's `name`, suffixed `-n<size>` in a sweep.
    pub name: String,
    /// The run.
    pub spec: RunSpec,
}

/// What `adversary = forge` answers requests with: neither the default
/// Algorithm-3 message nor a bit the everywhere stack can agree on, so
/// every good processor that decides it counts as `wrong`.
pub(crate) const FORGED_VALUE: u64 = 666;

/// The keys this module reads itself; the network's are [`NET_KEYS`].
const RUN_KEYS: &str = "name protocol n trials seed input rounds corrupt adversary \
    adversary.tree adversary.tree.aggressiveness adversary.tree.attack coin_success coin_blind";

/// `adversary.tree.attack`: how `static-third`'s corrupt committee
/// members behave.
const ATTACKS: [(&str, CommitteeAttack); 5] = [
    ("passive", CommitteeAttack::Passive),
    ("oppose", CommitteeAttack::Oppose),
    ("split", CommitteeAttack::Split),
    ("fixed-0", CommitteeAttack::Fixed(false)),
    ("fixed-1", CommitteeAttack::Fixed(true)),
];

/// `custody-buster`'s aggressiveness when the text names none.
const AGGRESSIVENESS: f64 = 1.0;

/// Every protocol the grammar names, at the defaults a file starts from.
fn protocols() -> [Protocol; 8] {
    [
        Protocol::Aeba(AebaSpec::default()),
        Protocol::AeToE(AeToESpec::default()),
        Protocol::Tournament(TournamentTuning::default()),
        Protocol::Everywhere,
        Protocol::Flood,
        Protocol::PhaseKing,
        Protocol::BenOr,
        Protocol::Rabin,
    ]
}

/// Every message adversary the grammar names, before `corrupt` sets its
/// count.
fn message_adversaries() -> [MessageAdversary; 5] {
    [
        MessageAdversary::None,
        MessageAdversary::Crash { count: 0 },
        MessageAdversary::SplitVotes { count: 0 },
        MessageAdversary::Equivocate { count: 0 },
        MessageAdversary::Forge {
            count: 0,
            fake: FORGED_VALUE,
        },
    ]
}

/// Every tree adversary the grammar names, before its own keys set its
/// knobs.
fn tree_attacks() -> [TreeAttack; 4] {
    [
        TreeAttack::None,
        TreeAttack::StaticThird {
            attack: CommitteeAttack::Oppose,
        },
        TreeAttack::WinnerHunter,
        TreeAttack::CustodyBuster {
            aggressiveness: AGGRESSIVENESS,
        },
    ]
}

/// The entry of a name table called `value`, or an error that lists
/// every name.
fn lookup<T>(
    what: &str,
    value: &str,
    table: impl IntoIterator<Item = (&'static str, T)>,
) -> Result<T, String> {
    let mut names = Vec::new();
    for (name, item) in table {
        if name == value {
            return Ok(item);
        }
        names.push(name);
    }
    Err(format!("unknown {what} `{value}` ({})", names.join("|")))
}

/// Parses `.scn` text into one [`Scenario`] per size of its `n` sweep,
/// each named `<name>-n<size>` when there are several. Unknown keys,
/// malformed values, missing required keys (`name`, `protocol`, `n`), a
/// knob the run would not read and a row [`RunSpec::validate`] refuses
/// are errors; a line's error carries its number.
pub fn parse(text: &str) -> Result<Vec<Scenario>, String> {
    let aeba = AebaSpec::default();
    let (mut name, mut protocol, mut sizes) = (None, None, Vec::<usize>::new());
    let (mut trials, mut seed, mut input) = (4u64, 1u64, InputPattern::Split);
    let (mut rounds, mut corrupt) = (None::<usize>, 0usize);
    let (mut message, mut tree) = (MessageAdversary::None, TreeAttack::None);
    let (mut aggressiveness, mut attack) = (AGGRESSIVENESS, CommitteeAttack::Oppose);
    let (mut coin_success, mut coin_blind) = (aeba.coin_success, aeba.coin_blind);
    let mut net = NetConfig::synchronous();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: String| format!("line {}: {msg}", lineno + 1);
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| at("expected `key = value`".to_owned()))?;
        let (key, value) = (key.trim(), value.trim());
        let mut apply = || -> Result<(), String> {
            match key {
                "name" => name = Some(value.to_owned()),
                "protocol" => {
                    let table = protocols().map(|p| (p.name(), p));
                    protocol = Some(lookup("protocol", value, table)?);
                }
                "n" => {
                    sizes = value
                        .split(',')
                        .map(|size| parse_num(size.trim()))
                        .collect::<Result<_, _>>()?
                }
                "trials" => trials = parse_num(value)?,
                "seed" => seed = parse_num(value)?,
                "input" => {
                    let table = InputPattern::ALL.map(|i| (i.name(), i));
                    input = lookup("input pattern", value, table)?;
                }
                "rounds" => rounds = Some(parse_num(value)?),
                "corrupt" => corrupt = parse_num(value)?,
                "adversary" => {
                    let table = message_adversaries().map(|m| (m.name(), m));
                    message = lookup("adversary", value, table)?;
                }
                "adversary.tree" => {
                    let table = tree_attacks().map(|t| (t.name(), t));
                    tree = lookup("tree adversary", value, table)?;
                }
                "adversary.tree.aggressiveness" => aggressiveness = parse_prob(value)?,
                "adversary.tree.attack" => attack = lookup("committee attack", value, ATTACKS)?,
                "coin_success" => coin_success = parse_prob(value)?,
                "coin_blind" => coin_blind = parse_prob(value)?,
                key if NET_KEYS.contains(&key) => net.parse_key(key, value)?,
                other => {
                    let mut msg = format!("unknown key `{other}`");
                    if let Some(best) = did_you_mean(other) {
                        msg.push_str(&format!(" (did you mean `{best}`?)"));
                    }
                    return Err(msg);
                }
            }
            Ok(())
        };
        apply().map_err(at)?;
    }
    let name = name.ok_or("missing required key `name`")?;
    let protocol = protocol.ok_or("missing required key `protocol`")?;
    if sizes.is_empty() {
        return Err("missing required key `n`".to_owned());
    }
    if trials == 0 {
        return Err("trials must be positive".to_owned());
    }
    // A knob the run would not read is refused, not silently dropped.
    // `corrupt` is the message adversary's count: tree adversaries draw
    // from the params corruption budget.
    let coins = (coin_success, coin_blind) != (aeba.coin_success, aeba.coin_blind);
    let dead = [
        (
            attack != CommitteeAttack::Oppose && !matches!(tree, TreeAttack::StaticThird { .. }),
            "`adversary.tree.attack` is only consumed by `adversary.tree = static-third`",
        ),
        (
            aggressiveness != AGGRESSIVENESS && !matches!(tree, TreeAttack::CustodyBuster { .. }),
            "`adversary.tree.aggressiveness` is only consumed by `adversary.tree = custody-buster`",
        ),
        (
            coins && !matches!(protocol, Protocol::Aeba(_)),
            "`coin_success` and `coin_blind` are only consumed by protocol `aeba`",
        ),
        (
            corrupt > 0 && message == MessageAdversary::None,
            "`corrupt` has no effect without a message-level adversary \
             (tree adversaries draw from the params corruption budget)",
        ),
    ];
    if let Some((_, knob)) = dead.iter().find(|(dead, _)| *dead) {
        return Err(format!(
            "scenario `{name}`: {knob} (here: protocol `{}`, adversary `{}`, tree `{}`)",
            protocol.name(),
            message.name(),
            tree.name()
        ));
    }
    // For AEBA `rounds` is the protocol's length; for every other
    // protocol it is the run's cap.
    let protocol = match protocol {
        Protocol::Aeba(a) => Protocol::Aeba(AebaSpec {
            rounds: rounds.take().unwrap_or(a.rounds),
            coin_success,
            coin_blind,
            ..a
        }),
        p => p,
    };
    let tree = match tree {
        TreeAttack::StaticThird { .. } => TreeAttack::StaticThird { attack },
        TreeAttack::CustodyBuster { .. } => TreeAttack::CustodyBuster { aggressiveness },
        t => t,
    };
    let mut spec = RunSpec::new(protocol, 0)
        .trials(trials)
        .seeds(seed)
        .input(input)
        .adversary(
            AdversarySpec::none()
                .with_message(message.with_count(corrupt))
                .with_tree(tree),
        )
        .net(net);
    spec.output.rounds_cap = rounds;
    let swept = sizes.len() > 1;
    spec.sweep_n(&sizes)
        .into_iter()
        .map(|spec| {
            let name = if swept {
                format!("{name}-n{}", spec.n)
            } else {
                name.clone()
            };
            match spec.validate() {
                Ok(()) => Ok(Scenario { name, spec }),
                Err(e) => Err(format!("scenario `{name}`: {e}")),
            }
        })
        .collect()
}

/// [`parse`] of text that describes one run; a sweep is an error.
pub fn parse_one(text: &str) -> Result<Scenario, String> {
    let mut rows = parse(text)?;
    if rows.len() > 1 {
        return Err(format!(
            "`n` sweeps {} sizes where one run is wanted",
            rows.len()
        ));
    }
    Ok(rows.pop().expect("parse yields a row per size"))
}

/// Renders `row` as `.scn` text: the keys its protocol and adversaries
/// read, which [`parse`] reads back to `row`. A spec built in code may
/// set a knob the grammar cannot say (a gossip degree, a tournament
/// tuning, `overload`): that is an error, not text that would parse to
/// another run.
pub fn render(row: &Scenario) -> Result<String, String> {
    let spec = &row.spec;
    let mut out = String::new();
    let _ = writeln!(out, "name = {}", row.name);
    let _ = writeln!(out, "protocol = {}", spec.protocol.name());
    let _ = writeln!(out, "n = {}", spec.n);
    let _ = writeln!(out, "trials = {}", spec.trials);
    let _ = writeln!(out, "seed = {}", spec.seeds.base);
    let _ = writeln!(out, "input = {}", spec.input.name());
    match &spec.protocol {
        Protocol::Aeba(a) => {
            let _ = writeln!(out, "rounds = {}", a.rounds);
            let _ = writeln!(out, "coin_success = {}", a.coin_success);
            let _ = writeln!(out, "coin_blind = {}", a.coin_blind);
        }
        _ => {
            if let Some(cap) = spec.output.rounds_cap {
                let _ = writeln!(out, "rounds = {cap}");
            }
        }
    }
    let message = spec.adversary.message;
    if message != MessageAdversary::None {
        let _ = writeln!(out, "corrupt = {}", message.count());
        let _ = writeln!(out, "adversary = {}", message.name());
    }
    let tree = spec.adversary.tree;
    if tree != TreeAttack::None {
        let _ = writeln!(out, "adversary.tree = {}", tree.name());
    }
    match tree {
        TreeAttack::StaticThird { attack } => {
            let name = ATTACKS.iter().find(|(_, a)| *a == attack).map(|(n, _)| n);
            let _ = writeln!(out, "adversary.tree.attack = {}", name.unwrap_or(&"?"));
        }
        TreeAttack::CustodyBuster { aggressiveness } => {
            let _ = writeln!(out, "adversary.tree.aggressiveness = {aggressiveness}");
        }
        _ => {}
    }
    spec.net.render_keys(&mut out);
    match parse(&out) {
        Ok(rows) if rows == [row.clone()] => Ok(out),
        Ok(_) => Err(format!(
            "scenario `{}` sets a knob `.scn` text cannot say",
            row.name
        )),
        Err(e) => Err(format!("scenario `{}` does not render: {e}", row.name)),
    }
}

/// The pass-through `benchmark/`'s `serve-loopback-64` workload calls:
/// [`parse_one`] of the text a [`ScenarioSpec`] holds. Nothing else
/// calls it; it goes with ROADMAP 6(d).
pub fn lower(spec: &ScenarioSpec) -> Result<RunSpec, String> {
    parse_one(&spec.text).map(|row| row.spec)
}

/// The closest known key within an edit distance of 3, if any.
fn did_you_mean(key: &str) -> Option<&'static str> {
    RUN_KEYS
        .split_whitespace()
        .chain(NET_KEYS)
        .map(|k| (edit_distance(key, k), k))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GossipDegree;
    use ba_net::{Churn, Crash, DeliveryPolicy, FaultPlan, LatencyModel, Partition};
    use ba_sim::Schedule;

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

    fn one(text: &str) -> RunSpec {
        parse_one(text)
            .unwrap_or_else(|e| panic!("{text}: {e}"))
            .spec
    }

    /// A flood run at n = 16, for the refusal tables to add a line to.
    const FLOOD: &str = "name=x\nprotocol=flood\nn=16\n";

    fn cut(boundary: usize, from_round: usize, heal_round: usize) -> Partition {
        Partition {
            boundary,
            from_round,
            heal_round,
        }
    }

    /// Each `(text, says)`: the text is refused with an error that says it.
    fn refused(cases: &[(&str, &str)]) {
        for &(text, says) in cases {
            let err = parse(text).expect_err(text);
            assert!(err.contains(says), "{text}: {err}");
        }
    }

    #[test]
    fn parses_every_field() {
        let mut timetable = Schedule::new();
        timetable.push("elect", 12);
        timetable.push("converge", 38);
        let net = NetConfig {
            delta: 500,
            latency: LatencyModel::HeavyTail {
                floor: 10,
                scale: 100.0,
                alpha: 1.5,
                cap: 4000,
            },
            faults: FaultPlan {
                drop_prob: 0.05,
                partitions: vec![cut(48, 10, 20), cut(24, 30, 35)],
                crashes: vec![Crash { proc: 3, round: 12 }, Crash { proc: 7, round: 1 }],
                churn: Some(Churn {
                    period: 16,
                    down: 4,
                    stagger: 1,
                }),
            },
            schedule: Some(timetable),
            ..NetConfig::synchronous()
        };
        let aeba = AebaSpec {
            rounds: 50,
            coin_success: 0.7,
            coin_blind: 0.05,
            ..AebaSpec::default()
        };
        let spec = RunSpec::new(Protocol::Aeba(aeba), 96)
            .trials(8)
            .seeds(42)
            .input(InputPattern::Lopsided)
            .adversary(AdversarySpec::crash(8))
            .net(net);
        let name = "kitchen-sink".to_owned();
        assert_eq!(parse(FULL), Ok(vec![Scenario { name, spec }]));
    }

    #[test]
    fn minimal_spec_gets_defaults() {
        assert_eq!(
            one("name=x\nprotocol=flood\nn=16\n"),
            RunSpec::flood(16).seeds(1)
        );
    }

    #[test]
    fn net_config_derives_trial_seed_and_schedule() {
        let cfg = one("name=x\nprotocol=flood\nn=16\nseed=10\nphases=a:2,b:3\n").trial_net(5);
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
        refused(&[
            ("name=x\nbogus-line\n", "line 2: expected `key = value`"),
            ("name=x\nwat = 1\n", "line 2: unknown key"),
            ("protocol=flood\nn=4\n", "missing required key `name`"),
            (&format!("{FLOOD}latency = warp 9\n"), "line 4: latency is"),
            (&format!("{FLOOD}drop = 1.5\n"), "line 4: probability"),
            (&format!("{FLOOD}churn = 4 4 0\n"), "line 4: churn"),
            (
                &format!("{FLOOD}partition = 2 5 5\n"),
                "line 4: partition must heal",
            ),
            (&format!("{FLOOD}trials = 0\n"), "trials must be positive"),
            // Faults outside the population are `RunSpec::validate`'s call.
            (&format!("{FLOOD}crash = 16 0\n"), "out of range"),
            (&format!("{FLOOD}partition = 16 0 5\n"), "side empty"),
            (&format!("{FLOOD}partition = 0 0 5\n"), "side empty"),
            (&format!("{FLOOD}delta = 0\n"), "delta must be positive"),
        ]);
    }

    #[test]
    fn tree_adversary_section_parses() {
        let s = one(
            "name=x\nprotocol=everywhere\nn=64\nadversary.tree = static-third\n\
             adversary.tree.attack = split\npartition = 32 0 40\n",
        );
        let attack = CommitteeAttack::Split;
        assert_eq!(s.adversary.tree, TreeAttack::StaticThird { attack });
        // Composition: the tree adversary coexists with a fault schedule.
        assert_eq!(s.net.faults.partitions, [cut(32, 0, 40)]);
    }

    #[test]
    fn tree_defaults_are_benign() {
        let tree = |text: &str| one(&format!("name=x\nprotocol=tournament\nn=16\n{text}\n"));
        assert_eq!(tree("").adversary.tree, TreeAttack::None);
        let attack = CommitteeAttack::Oppose;
        let third = TreeAttack::StaticThird { attack };
        assert_eq!(tree("adversary.tree = static-third").adversary.tree, third);
        let buster = TreeAttack::CustodyBuster {
            aggressiveness: 1.0,
        };
        assert_eq!(
            tree("adversary.tree = custody-buster").adversary.tree,
            buster
        );
    }

    #[test]
    fn unknown_keys_get_a_suggestion() {
        refused(&[
            ("name=x\nadverssary = crash\n", "did you mean `adversary`"),
            (
                "name=x\nadversary.tre = none\n",
                "did you mean `adversary.tree`",
            ),
            ("name=x\nlatencyy = constant 0\n", "did you mean `latency`"),
        ]);
        // Nothing close: no suggestion at all.
        let err = parse("name=x\nzzzzzzzzzzzz = 1\n").unwrap_err();
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn n_sweep_parses_and_expands() {
        let rows = parse("name=sweep\nprotocol=flood\nn=64, 128,256\n").expect("parse");
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["sweep-n64", "sweep-n128", "sweep-n256"]);
        // Everything but name/n is carried over verbatim.
        let specs: Vec<RunSpec> = rows.into_iter().map(|r| r.spec).collect();
        assert_eq!(specs, RunSpec::flood(0).seeds(1).sweep_n(&[64, 128, 256]));
        refused(&[("name=sweep\nprotocol=flood\nn=64,0\n", "n must be positive")]);
        let err = parse_one("name=sweep\nprotocol=flood\nn=64,128\n").unwrap_err();
        assert!(err.contains("sweeps 2 sizes"), "{err}");
    }

    #[test]
    fn single_n_expands_to_itself() {
        let row = Scenario {
            name: "x".to_owned(),
            spec: RunSpec::flood(16).seeds(1),
        };
        assert_eq!(parse("name=x\nprotocol=flood\nn=16\n"), Ok(vec![row]));
    }

    #[test]
    fn sweep_faults_validate_against_the_smallest_size() {
        // crash proc 40 is fine for n=64 but out of range for the swept 32.
        let sweep = "name=x\nprotocol=flood\nn=64,32\n";
        refused(&[
            (
                &format!("{sweep}crash = 40 0\n"),
                "`x-n32`: crash processor 40 out of range",
            ),
            (&format!("{sweep}partition = 40 0 5\n"), "side empty"),
        ]);
    }

    #[test]
    fn ordering_parses_renders_and_reaches_the_net_config() {
        let row = parse_one("name=x\nprotocol=flood\nn=16\nnet.ordering = lifo\n").expect("parse");
        assert_eq!(
            row.spec.trial_net(0).ordering,
            DeliveryPolicy::AdversarialLifo
        );
        let text = render(&row).expect("render");
        assert!(text.contains("net.ordering = lifo"), "{text}");
        // Junk values are line-numbered errors.
        let chaos = format!("{FLOOD}net.ordering = chaos\n");
        refused(&[(&chaos, "line 4: unknown delivery ordering")]);
    }

    #[test]
    fn render_round_trips_the_kitchen_sink() {
        let row = parse_one(FULL).expect("parse");
        let text = render(&row).expect("render");
        assert_eq!(
            parse_one(&text),
            Ok(row),
            "render→parse must be the identity"
        );
        // Only what aeba reads: no tree section.
        assert!(!text.contains("adversary.tree"), "{text}");
        // A knob the grammar cannot say is refused, not dropped.
        let mut coded = parse_one("name=x\nprotocol=aeba\nn=16\n").expect("parse");
        coded.spec.protocol = Protocol::Aeba(AebaSpec {
            degree: GossipDegree::LogTimes(5.0),
            ..AebaSpec::default()
        });
        assert!(render(&coded).unwrap_err().contains("cannot say"));
    }

    #[test]
    fn lowers_an_aeba_scenario() {
        let aeba = AebaSpec {
            rounds: 20,
            coin_success: 0.7,
            ..AebaSpec::default()
        };
        assert_eq!(
            one("name=x\nprotocol=aeba\nn=48\ntrials=2\nseed=7\nrounds=20\n\
                 adversary=split\ncorrupt=9\ncoin_success=0.7\n"),
            RunSpec::new(Protocol::Aeba(aeba), 48)
                .trials(2)
                .seeds(7)
                .adversary(AdversarySpec::split(9))
        );
    }

    #[test]
    fn lowers_a_composed_tree_scenario() {
        let buster = TreeAttack::CustodyBuster {
            aggressiveness: 0.5,
        };
        let net = NetConfig::synchronous().with_faults(FaultPlan {
            partitions: vec![cut(32, 0, 6)],
            ..FaultPlan::default()
        });
        assert_eq!(
            one(
                "name=x\nprotocol=everywhere\nn=64\nadversary.tree=custody-buster\n\
                 adversary.tree.aggressiveness=0.5\npartition = 32 0 6\n"
            ),
            RunSpec::everywhere(64)
                .seeds(1)
                .adversary(AdversarySpec::none().with_tree(buster))
                .net(net)
        );
    }

    #[test]
    fn rejects_bad_combinations() {
        let tree = "name=x\nprotocol=everywhere\nn=16\nadversary.tree";
        refused(&[
            (
                &format!("{FLOOD}adversary.tree=winner-hunter\n"),
                "tree-level protocol",
            ),
            (
                "name=x\nprotocol=warp\nn=16\n",
                "unknown protocol `warp` (aeba|ae_to_e|",
            ),
            (&format!("{tree}.attack=mean\n"), "committee attack"),
            // `rounds` would be silently dropped by the structured
            // executors, so it is refused outright.
            (
                "name=x\nprotocol=tournament\nn=16\nrounds=20\n",
                "no effect",
            ),
            (
                "name=x\nprotocol=everywhere\nn=16\nrounds=20\n",
                "no effect",
            ),
            // The committee-attack knob is only consumed by static-third.
            (
                &format!("{tree}=custody-buster\n{tree}.attack=split\n"),
                "only consumed by",
            ),
            // A corrupt count no adversary consumes is refused, not dropped.
            (
                &format!("{tree}=static-third\ncorrupt=8\n"),
                "corruption budget",
            ),
            (&format!("{FLOOD}corrupt=3\n"), "corruption budget"),
        ]);
    }

    /// Every other knob a run would drop is refused too: the coin knobs
    /// off `aeba`, the aggressiveness off `custody-buster`. Defaults
    /// stay accepted anywhere, so files that spell them out still run.
    #[test]
    fn dead_knobs_are_refused() {
        let tree = "name=x\nprotocol=everywhere\nn=16\nadversary.tree";
        refused(&[
            (
                &format!("{FLOOD}coin_success=0.5\n"),
                "only consumed by protocol `aeba`",
            ),
            (
                "name=x\nprotocol=everywhere\nn=16\ncoin_blind=0.1\n",
                "protocol `aeba`",
            ),
            (
                &format!("{tree}=static-third\n{tree}.aggressiveness=0.5\n"),
                "custody-buster",
            ),
            (&format!("{tree}.aggressiveness=0.5\n"), "custody-buster"),
        ]);
        one(
            "name=x\nprotocol=ben_or\nn=16\ncoin_success=0.8\ncoin_blind=0.02\n\
             adversary.tree=none\nadversary.tree.aggressiveness=1\nadversary.tree.attack=oppose\n",
        );
    }

    #[test]
    fn runs_a_small_scenario_end_to_end() {
        let spec = one("name=s\nprotocol=flood\nn=16\ntrials=2\ndrop=0.1\n");
        let report = crate::runner::run(&spec).expect("run");
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
