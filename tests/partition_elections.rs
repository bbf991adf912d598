//! The tentpole acceptance property of the unified `Experiment` API:
//! committee traffic runs over the `Transport` seam, so **network
//! partitions reach tournament elections** — something structurally
//! impossible while `tournament::run` exchanged committee messages
//! in-memory. The synchronous-equivalence side of the contract
//! (zero-latency runs byte-identical to lockstep) lives in
//! `tests/net_equivalence.rs`.

use king_saia::core::tournament::{self, NoTreeAdversary, TourMsg, TournamentConfig};
use king_saia::exp::{self, AdversarySpec, RunSpec, TreeAttack};
use king_saia::net::{FaultPlan, NetConfig, NetTransport, Partition};

fn partition_net(n: usize, seed: u64, from: usize, heal: usize) -> NetConfig {
    NetConfig::synchronous()
        .with_seed(seed)
        .with_faults(FaultPlan {
            partitions: vec![Partition {
                boundary: n / 2,
                from_round: from,
                heal_round: heal,
            }],
            ..FaultPlan::default()
        })
}

/// A half/half partition spanning the committee exchanges changes the
/// tournament's election outcomes: different winners, different coin
/// words, degraded agreement — and the transport proves the cut fired.
#[test]
fn partition_changes_tournament_election_outcomes() {
    let n = 64;
    let seed = 3;
    let config = TournamentConfig::for_n(n).with_seed(seed);
    let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();

    let baseline = tournament::run(&config, &inputs, &mut NoTreeAdversary);

    let mut transport: NetTransport<TourMsg> = NetTransport::new(n, partition_net(n, seed, 0, 200));
    let cut =
        tournament::run_with_transport(&config, &inputs, &mut NoTreeAdversary, &mut transport);
    let stats = transport.into_stats();
    assert!(
        stats.dropped_partition > 0,
        "the partition must actually sever committee traffic"
    );

    // Election outcomes changed. Individually each observable could in
    // principle coincide; all three at once cannot (and do not, on the
    // pinned seed).
    let coin_a: Vec<u16> = baseline.coin_words.iter().map(|w| w.value).collect();
    let coin_b: Vec<u16> = cut.coin_words.iter().map(|w| w.value).collect();
    let winners_a: Vec<usize> = baseline.level_stats.iter().map(|s| s.winners).collect();
    let winners_b: Vec<usize> = cut.level_stats.iter().map(|s| s.winners).collect();
    assert!(
        coin_a != coin_b || winners_a != winners_b || baseline.decisions != cut.decisions,
        "a full-length partition left every election outcome untouched"
    );
    // And the cut degrades (never magically improves past) clean
    // agreement among good processors.
    assert!(cut.agreement_fraction <= baseline.agreement_fraction + 1e-9);

    // Determinism: the same partitioned run replays byte-identically.
    let mut transport2: NetTransport<TourMsg> =
        NetTransport::new(n, partition_net(n, seed, 0, 200));
    let replay =
        tournament::run_with_transport(&config, &inputs, &mut NoTreeAdversary, &mut transport2);
    assert_eq!(replay.decisions, cut.decisions);
    assert_eq!(replay.bits_per_proc, cut.bits_per_proc);
    let replay_coins: Vec<u16> = replay.coin_words.iter().map(|w| w.value).collect();
    assert_eq!(replay_coins, coin_b);
}

/// A partition that opens *after* every committee exchange is over
/// leaves the tournament byte-identical to the clean run: the effect in
/// the test above really flows through the routed exchanges, not some
/// side channel.
#[test]
fn late_partition_leaves_elections_untouched() {
    let n = 64;
    let seed = 4;
    let config = TournamentConfig::for_n(n).with_seed(seed);
    let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();

    let baseline = tournament::run(&config, &inputs, &mut NoTreeAdversary);
    let probe = {
        let mut t: NetTransport<TourMsg> =
            NetTransport::new(n, NetConfig::synchronous().with_seed(seed));
        let out = tournament::run_with_transport(&config, &inputs, &mut NoTreeAdversary, &mut t);
        out.transport_rounds
    };
    let mut transport: NetTransport<TourMsg> =
        NetTransport::new(n, partition_net(n, seed, probe + 1, probe + 50));
    let late =
        tournament::run_with_transport(&config, &inputs, &mut NoTreeAdversary, &mut transport);
    assert_eq!(baseline.decisions, late.decisions);
    assert_eq!(baseline.bits_per_proc, late.bits_per_proc);
    assert_eq!(transport.stats().dropped_partition, 0);
}

/// The composition ROADMAP flagged as missing now parses from the
/// scenario grammar in one spec: a tree adversary **and** a partition
/// against the full everywhere stack, deterministic per seed.
#[test]
fn composed_scenario_tree_adversary_plus_partition_runs() {
    let spec = exp::scenario::parse_one(
        "name = composed\nprotocol = everywhere\nn = 64\ntrials = 1\nseed = 5\n\
         adversary.tree = custody-buster\nadversary.tree.aggressiveness = 0.8\n\
         partition = 32 0 40\n",
    )
    .expect("parse")
    .spec;
    let a = exp::run(&spec).expect("run a");
    let b = exp::run(&spec).expect("run b");
    let (ta, tb) = (&a.trials[0], &b.trials[0]);
    assert_eq!(
        ta.agreement, tb.agreement,
        "composed run must be deterministic"
    );
    assert_eq!(ta.total_bits, tb.total_bits);
    let net = ta.net.as_ref().expect("net stats");
    assert!(
        net.dropped_partition > 0,
        "the partition must cut stack traffic"
    );
    assert!(
        ta.corrupt.iter().any(|&c| c),
        "the custody-buster must corrupt someone"
    );
}

/// The same composition through the typed `RunSpec` surface directly.
#[test]
fn composed_runspec_partition_shifts_everywhere_outcome() {
    let n = 64;
    let clean = exp::run(&RunSpec::everywhere(n).trials(1).seeds(7)).expect("clean");
    let cut = exp::run(
        &RunSpec::everywhere(n)
            .trials(1)
            .seeds(7)
            .adversary(AdversarySpec::none().with_tree(TreeAttack::WinnerHunter))
            .net(partition_net(n, 0, 0, 400)),
    )
    .expect("cut");
    let (tc, tp) = (&clean.trials[0], &cut.trials[0]);
    assert!(tp.net.as_ref().unwrap().dropped_partition > 0);
    // The composed adversary+fault run cannot beat the clean run.
    assert!(tp.agreement <= tc.agreement + 1e-9);
}
