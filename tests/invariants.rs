//! Cross-crate randomized invariant tests: safety properties that must
//! hold for *every* seed, checked over many.

use king_saia::core::aeba::CommitteeAttack;
use king_saia::core::attacks::StaticThird;
use king_saia::core::tournament::{self, NoTreeAdversary, TournamentConfig};
use king_saia::crypto::{shamir, Gf16};
use king_saia::sim::derive_rng;
use rand::Rng;

/// Validity is an every-seed safety property, not a w.h.p. one, when all
/// good processors are unanimous (Lemma 12 chains through the stack).
#[test]
fn unanimous_validity_over_many_seeds() {
    let n = 64;
    for seed in 0..12u64 {
        let config = TournamentConfig::for_n(n).with_seed(1000 + seed);
        let out = tournament::run(&config, &vec![true; n], &mut NoTreeAdversary);
        assert!(out.valid, "seed {seed}: clean unanimous run lost validity");
        assert!(out.decided, "seed {seed}: decided wrong bit");
    }
}

/// Under the budget adversary, the decided bit is always some good
/// processor's input (agreement may degrade; validity must not).
#[test]
fn adversarial_validity_over_many_seeds() {
    let n = 64;
    for seed in 0..8u64 {
        let config = TournamentConfig::for_n(n).with_seed(2000 + seed);
        let inputs: Vec<bool> = (0..n)
            .map(|i| (i as u64 + seed).is_multiple_of(2))
            .collect();
        let out = tournament::run(
            &config,
            &inputs,
            &mut StaticThird {
                attack: CommitteeAttack::Oppose,
            },
        );
        assert!(
            out.valid,
            "seed {seed}: adversarial run decided a non-input"
        );
    }
}

/// Corruption never exceeds the budget, whatever the adversary asks for.
#[test]
fn corruption_budget_is_a_hard_cap() {
    let n = 96;
    for seed in 0..6u64 {
        let config = TournamentConfig::for_n(n).with_seed(3000 + seed);
        let out = tournament::run(&config, &vec![false; n], &mut StaticThird::default());
        let corrupted = out.corrupt.iter().filter(|&&c| c).count();
        assert!(
            corrupted <= config.params.corruption_budget(),
            "seed {seed}: {corrupted} corrupted vs budget {}",
            config.params.corruption_budget()
        );
    }
}

/// Shamir reconstruction is exact for every (n, t, secret) drawn at
/// random — the cross-crate version of the in-crate property test, run
/// through the public facade.
#[test]
fn shamir_roundtrip_random_parameters() {
    let mut rng = derive_rng(4, 4);
    for _ in 0..200 {
        let n = rng.gen_range(2..40);
        let t = rng.gen_range(0..n);
        let secret = Gf16::new(rng.gen());
        let shares = shamir::share(secret, n, t, &mut rng).expect("valid parameters");
        let got = shamir::reconstruct(&shares[..t + 1]).expect("enough shares");
        assert_eq!(got, secret);
    }
}

/// The coin subsequence never reports more good words than words, and
/// bits-per-processor accounting is internally consistent.
#[test]
fn outcome_accounting_sane_over_seeds() {
    let n = 64;
    for seed in 0..6u64 {
        let config = TournamentConfig::for_n(n).with_seed(4000 + seed);
        let inputs: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
        let out = tournament::run(&config, &inputs, &mut NoTreeAdversary);
        assert!(out.coin_words.iter().filter(|w| w.good).count() <= out.coin_words.len());
        assert_eq!(out.bits_per_proc.len(), n);
        let per_level: u64 = out
            .level_stats
            .iter()
            .map(|s| s.expose_bits + s.agree_bits + s.winner_bits)
            .sum();
        let total: u64 = out.bits_per_proc.iter().sum();
        assert!(
            per_level <= total,
            "per-level phase bits {per_level} exceed total {total}"
        );
        assert!((0.0..=1.0).contains(&out.agreement_fraction));
    }
}

// ---------------------------------------------------------------------------
// Determinism properties of the network layer and the round timetable
// ---------------------------------------------------------------------------

use king_saia::net::EventQueue;
use king_saia::sim::Schedule;
use proptest::prelude::*;

proptest! {
    /// The `ba-net` delivery-order contract: the pop order of an event
    /// queue is a pure function of the `(time, tie)` key set — any
    /// interleaving of the insertions (rotations, reversal) yields the
    /// identical delivery order, which is the key set sorted.
    #[test]
    fn event_queue_pop_order_is_insertion_invariant(
        raw in proptest::collection::vec(any::<u64>(), 1..40),
        rot in 0usize..40,
    ) {
        let keys: Vec<(u64, u64)> = raw
            .iter()
            .enumerate()
            .map(|(i, &x)| (x % 50, i as u64)) // clustered times, unique ties
            .collect();
        let drain = |mut q: EventQueue<(u64, u64)>| {
            let mut v = Vec::new();
            while let Some((_, x)) = q.pop_due(u64::MAX) {
                v.push(x);
            }
            v
        };
        let mut forward = EventQueue::new();
        for &(t, tie) in &keys {
            forward.push(t, tie, (t, tie));
        }
        let rot = rot % keys.len();
        let mut rotated = EventQueue::new();
        for &(t, tie) in keys.iter().skip(rot).chain(keys.iter().take(rot)) {
            rotated.push(t, tie, (t, tie));
        }
        let mut reversed = EventQueue::new();
        for &(t, tie) in keys.iter().rev() {
            reversed.push(t, tie, (t, tie));
        }
        let order = drain(forward);
        prop_assert_eq!(&order, &drain(rotated));
        prop_assert_eq!(&order, &drain(reversed));
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        prop_assert_eq!(order, sorted);
    }

    /// `Schedule::locate` round-trips: every round inside the timetable
    /// maps to the unique phase containing it with the exact offset, and
    /// everything past the end maps to `None` — including across
    /// zero-length phases.
    #[test]
    fn schedule_locate_round_trips(
        lens in proptest::collection::vec(0usize..7, 1..12),
        probe in 0usize..100,
    ) {
        let mut s = Schedule::new();
        let ids: Vec<usize> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| s.push(&format!("ph{i}"), l))
            .collect();
        prop_assert_eq!(ids, (0..lens.len()).collect::<Vec<usize>>());
        let total = s.total_rounds();
        prop_assert_eq!(total, lens.iter().sum::<usize>());
        for r in 0..total {
            let located = s.locate(r);
            prop_assert!(located.is_some(), "round {} unlocated", r);
            let (id, off) = located.unwrap();
            let p = s.phase(id);
            prop_assert!(p.contains(r));
            prop_assert_eq!(p.start + off, r);
            prop_assert!(off < p.len, "offset {} in zero-length phase", off);
        }
        prop_assert_eq!(s.locate(total), None);
        prop_assert_eq!(s.locate(total + probe), None);
    }
}

// ---------------------------------------------------------------------------
// Scenario grammar: render/parse round-trips, rejection quality, fuzzing
// ---------------------------------------------------------------------------

use king_saia::exp::scenario::{self, Scenario};
use king_saia::exp::{
    AdversarySpec, AebaSpec, InputPattern, MessageAdversary, NetConfig, Protocol, RunSpec,
    TreeAttack,
};
use king_saia::net::{Churn, Crash, DeliveryPolicy, FaultPlan, LatencyModel, Partition};

proptest! {
    /// `parse` is a left inverse of `render`: every row the grammar can
    /// express that `RunSpec::validate` accepts survives a render→parse
    /// round trip exactly — faults, tree-adversary section, phase
    /// timetable, probabilities and all.
    #[test]
    fn scenario_render_parse_round_trips(
        scale in (4usize..300, 1u64..12, any::<u64>()),
        shape in (1u64..5_000, 0usize..4, 0usize..60),
        lat in (0usize..3, 0u64..2_000, 0u64..2_000),
        drop_m in 0u32..1_001,
        parts in proptest::collection::vec((0usize..500, 0usize..50, 1usize..30), 0..3),
        crash_list in proptest::collection::vec((0usize..4, 0usize..40), 0..3),
        churn_k in 0usize..4,
        advs in (0usize..5, 0usize..4, 0usize..5),
        knobs in (0usize..50, 0u32..1_001, 0usize..8),
        phase_lens in proptest::collection::vec(1usize..30, 0..4),
        coin_m in (0u32..1_001, 0u32..1_001),
        ordering_idx in 0usize..3,
    ) {
        let (n, trials, seed) = scale;
        let (delta, input_idx, rounds) = shape;
        let (adv_idx, tree_idx, attack_idx) = advs;
        let (corrupt, aggr_m, proto_idx) = knobs;
        let corrupt = corrupt.min(n);
        let (lat_kind, a, b) = lat;
        let latency = match lat_kind {
            0 => LatencyModel::Constant(a),
            1 => LatencyModel::Uniform { lo: a.min(b), hi: a.max(b) },
            _ => LatencyModel::HeavyTail {
                floor: a,
                scale: (b.max(1)) as f64,
                alpha: 1.5,
                cap: a + b + 10,
            },
        };
        let rounds = (rounds > 0).then_some(rounds);
        let protocol = match proto_idx {
            0 => Protocol::Aeba(AebaSpec {
                rounds: rounds.unwrap_or(AebaSpec::default().rounds),
                coin_success: f64::from(coin_m.0) / 1_000.0,
                coin_blind: f64::from(coin_m.1) / 1_000.0,
                ..AebaSpec::default()
            }),
            1 => Protocol::Flood,
            2 => RunSpec::tournament(n).protocol,
            3 => Protocol::Everywhere,
            4 => Protocol::PhaseKing,
            5 => Protocol::BenOr,
            6 => Protocol::Rabin,
            _ => RunSpec::ae_to_e(n).protocol,
        };
        let message = match adv_idx {
            0 => MessageAdversary::None,
            1 => MessageAdversary::Crash { count: corrupt },
            2 => MessageAdversary::SplitVotes { count: corrupt },
            3 => MessageAdversary::Equivocate { count: corrupt },
            _ => MessageAdversary::Forge { count: corrupt, fake: 666 },
        };
        let attack = [
            CommitteeAttack::Passive,
            CommitteeAttack::Oppose,
            CommitteeAttack::Split,
            CommitteeAttack::Fixed(false),
            CommitteeAttack::Fixed(true),
        ][attack_idx];
        let tree = match tree_idx {
            0 => TreeAttack::None,
            1 => TreeAttack::StaticThird { attack },
            2 => TreeAttack::WinnerHunter,
            _ => TreeAttack::CustodyBuster { aggressiveness: f64::from(aggr_m) / 1_000.0 },
        };
        let mut schedule = Schedule::new();
        for (i, &len) in phase_lens.iter().enumerate() {
            schedule.push(&format!("ph{i}"), len);
        }
        let net = NetConfig {
            delta,
            latency,
            faults: FaultPlan {
                drop_prob: f64::from(drop_m) / 1_000.0,
                partitions: parts
                    .iter()
                    .map(|&(b, from, dur)| Partition {
                        boundary: 1 + b % (n - 1),
                        from_round: from,
                        heal_round: from + dur,
                    })
                    .collect(),
                crashes: crash_list
                    .iter()
                    .map(|&(p, r)| Crash { proc: p, round: r })
                    .collect(),
                churn: (churn_k > 0).then_some(Churn {
                    period: 4 * churn_k + 2,
                    down: churn_k,
                    stagger: 1,
                }),
            },
            schedule: (!schedule.is_empty()).then_some(schedule),
            ordering: DeliveryPolicy::ALL[ordering_idx],
            ..NetConfig::synchronous()
        };
        // Each knob only where its protocol reads it (validate refuses
        // the rest): tree adversaries on the committee stack, a message
        // adversary anywhere but the tournament, a cap on the engine.
        let tree_level = matches!(protocol, Protocol::Tournament(_) | Protocol::Everywhere);
        let tree = if tree_level { tree } else { TreeAttack::None };
        let message = if matches!(protocol, Protocol::Tournament(_)) {
            MessageAdversary::None
        } else {
            message
        };
        let mut spec = RunSpec::new(protocol, n)
            .trials(trials)
            .seeds(seed)
            .input([
                InputPattern::UnanimousTrue,
                InputPattern::UnanimousFalse,
                InputPattern::Split,
                InputPattern::Lopsided,
            ][input_idx])
            .adversary(AdversarySpec::none().with_message(message).with_tree(tree))
            .net(net);
        if !tree_level && !matches!(spec.protocol, Protocol::Aeba(_)) {
            spec.output.rounds_cap = rounds;
        }
        prop_assume!(spec.validate().is_ok());
        let row = Scenario { name: "roundtrip".to_owned(), spec };
        let rendered = scenario::render(&row)
            .map_err(|e| TestCaseError::Fail(format!("render failed: {e}\n{row:?}")))?;
        let parsed = scenario::parse(&rendered)
            .map_err(|e| TestCaseError::Fail(format!("reparse failed: {e}\n{rendered}")))?;
        prop_assert_eq!(parsed, vec![row]);
    }

    /// Any single-character deletion of a known key is rejected *with a
    /// did-you-mean suggestion* (the damaged key sits at edit distance 1
    /// from a real one).
    #[test]
    fn damaged_keys_get_a_suggestion(key_idx in 0usize..16, del in 0usize..30) {
        let known = [
            "protocol", "trials", "seed", "input", "rounds", "delta", "latency", "drop",
            "partition", "crash", "churn", "corrupt", "adversary", "adversary.tree",
            "coin_success", "coin_blind",
        ];
        let key = known[key_idx];
        let del = del % key.len();
        let damaged: String = key
            .chars()
            .enumerate()
            .filter(|&(i, _)| i != del)
            .map(|(_, c)| c)
            .collect();
        prop_assume!(!known.contains(&damaged.as_str()) && damaged != "n" && damaged != "name");
        let text = format!("name = x\n{damaged} = 1\n");
        let err = scenario::parse(&text).expect_err("damaged key must be rejected");
        prop_assert!(
            err.contains("unknown key") && err.contains("did you mean"),
            "error lacked a suggestion: {}",
            err
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The one parser, fuzzed: known keys with huge, negative, empty and
    /// garbage values, unknown keys and lines without `=`, over a valid
    /// base or none. Every input parses or is refused — none panics —
    /// and every row it yields passes `RunSpec::validate`.
    #[test]
    fn scenario_parser_refuses_or_yields_valid_rows(
        base_idx in 0usize..4,
        lines in proptest::collection::vec((0usize..26, 0usize..24), 0..8),
    ) {
        const KEYS: [&str; 24] = [
            "name", "protocol", "n", "trials", "seed", "input", "rounds", "corrupt",
            "adversary", "adversary.tree", "adversary.tree.aggressiveness",
            "adversary.tree.attack", "coin_success", "coin_blind", "delta", "latency", "drop",
            "partition", "crash", "churn", "phases", "net.ordering", "warp", "adversary.treee",
        ];
        const VALUES: [&str; 26] = [
            "", "0", "1", "-1", "3", "0.5", "1.5", "nan", "inf", "1e309",
            "18446744073709551615", "18446744073709551616", "99999999999999999999999",
            "1,2,1000000", "x", "#", "= =", "aeba", "everywhere", "custody-buster", "split",
            "uniform 900 1", "heavytail 1 1 0 1", "a:18446744073709551615,b:1", "1 2 3",
            "4 0 18446744073709551615",
        ];
        let bases = [
            "",
            "name = f\nprotocol = flood\nn = 16\n",
            "name = a\nprotocol = aeba\nn = 32\nadversary = split\ncorrupt = 3\n",
            "name = e\nprotocol = everywhere\nn = 64\nadversary.tree = custody-buster\n",
        ];
        let mut text = bases[base_idx].to_owned();
        for &(value, key) in &lines {
            match key {
                22 if value % 3 == 0 => text.push_str("no equals sign here\n"),
                _ => text.push_str(&format!("{} = {}\n", KEYS[key], VALUES[value])),
            }
        }
        if let Ok(rows) = scenario::parse(&text) {
            prop_assert!(!rows.is_empty(), "no rows from\n{}", text);
            for row in &rows {
                prop_assert!(
                    row.spec.validate().is_ok(),
                    "{} passed parse but not validate:\n{}",
                    row.name,
                    text
                );
            }
        }
    }
}

/// Every file of the scenario library and of the hunt's regressions
/// parses, renders and parses again to an equal row.
#[test]
fn scenario_library_round_trips_through_render() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = 0;
    for dir in ["scenarios", "scenarios/regressions"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("library exists") {
            let path = entry.expect("readable entry").path();
            if path.extension().is_none_or(|x| x != "scn") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable spec");
            let rows = scenario::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            for row in rows {
                let rendered =
                    scenario::render(&row).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                let again = scenario::parse(&rendered)
                    .unwrap_or_else(|e| panic!("{}: {e}\n{rendered}", path.display()));
                assert_eq!(again, vec![row], "{}", path.display());
            }
            files += 1;
        }
    }
    assert!(files >= 20, "the library shrank to {files} files");
}

// ---------------------------------------------------------------------------
// Delivery-policy and hunt-shrinker contracts
// ---------------------------------------------------------------------------

use king_saia::exp::shrink_spec;

proptest! {
    /// `DeliveryPolicy::Fifo` is byte-identical to the plain
    /// `drain_due`: for any event mix and drain instant, the policy path
    /// yields the same `(time, value)` sequence and consumes **no**
    /// randomness (the ordering stream stays untouched), so switching
    /// the default through the policy enum perturbs nothing.
    #[test]
    fn fifo_policy_is_byte_identical_to_plain_drain(
        raw in proptest::collection::vec(any::<u64>(), 1..40),
        now in 0u64..60,
    ) {
        let mut plain = EventQueue::new();
        let mut policed = EventQueue::new();
        for (i, &x) in raw.iter().enumerate() {
            plain.push(x % 50, x % 7, (i, x));
            policed.push(x % 50, x % 7, (i, x));
        }
        let mut a = Vec::new();
        plain.drain_due(now, &mut |t, v| a.push((t, v)));
        let mut rng = derive_rng(9, 9);
        let mut rng_twin = derive_rng(9, 9);
        let mut b = Vec::new();
        policed.drain_due_policy(now, DeliveryPolicy::Fifo, &mut rng, &mut |t, v| {
            b.push((t, v));
        });
        prop_assert_eq!(a, b);
        prop_assert_eq!(plain.len(), policed.len(), "leftover events diverge");
        // Fifo drew nothing from the ordering stream.
        prop_assert_eq!(rng.gen::<u64>(), rng_twin.gen::<u64>());
    }

    /// The hunt's greedy shrinker is sound and minimal: against any
    /// monotone two-axis threshold oracle it (1) returns a spec that
    /// still violates, (2) strips every irrelevant knob back to the
    /// identity plan, and (3) lands *exactly* on the failure boundary of
    /// both numeric axes.
    #[test]
    fn hunt_shrinking_is_sound_and_minimal(
        c_thresh in 1usize..20,
        c_extra in 0usize..10,
        n_thresh in 8usize..60,
        n_extra in 0usize..30,
        mess in (0usize..3, 0u32..301, 0usize..3),
    ) {
        let (ordering_idx, drop_m, churn_k) = mess;
        // `n` only ever shrinks, so the boundary it can land on must sit
        // below the start and above `corrupt` (specs keep one good proc).
        let n_thresh = n_thresh.max(c_thresh + 1);
        let mut spec = RunSpec::phase_king(n_thresh + n_extra).adversary(
            AdversarySpec::none()
                .with_message(MessageAdversary::Equivocate { count: c_thresh + c_extra }),
        );
        spec.net.ordering = DeliveryPolicy::ALL[ordering_idx];
        spec.net.faults.drop_prob = f64::from(drop_m) / 1_000.0;
        spec.net.faults.churn = (churn_k > 0).then_some(Churn {
            period: 4 * churn_k,
            down: churn_k,
            stagger: 0,
        });
        let corrupted = |s: &RunSpec| match s.adversary.message {
            MessageAdversary::Equivocate { count } => count,
            _ => 0,
        };
        let shrunk = shrink_spec(&spec, &mut |s| corrupted(s) >= c_thresh && s.n >= n_thresh);
        prop_assert!(corrupted(&shrunk) >= c_thresh && shrunk.n >= n_thresh, "shrink lost the bug");
        prop_assert_eq!(corrupted(&shrunk), c_thresh);
        prop_assert_eq!(shrunk.n, n_thresh);
        prop_assert_eq!(shrunk.net.ordering, DeliveryPolicy::Fifo);
        prop_assert_eq!(shrunk.net.faults.drop_prob, 0.0);
        prop_assert!(shrunk.net.faults.churn.is_none());
    }
}
