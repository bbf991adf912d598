//! The synchrony-adapter equivalence contract: under `ba-net` with
//! zero-latency links and no faults, every protocol run is
//! **byte-identical** to the same run on the lockstep engine — same
//! outputs, same round counts, same bit accounting, same corruption
//! trace. This is what licenses reading every fault-injection result as
//! a *perturbation* of the paper's model rather than a different model.

use king_saia::baselines::{
    BenOrConfig, BenOrProcess, FloodConfig, FloodProcess, PhaseKingConfig, PhaseKingProcess,
    RabinConfig, RabinProcess,
};
use king_saia::core::ae_to_e::{AeToEConfig, AeToEProcess};
use king_saia::core::aeba::{AebaConfig, AebaProcess, UnreliableCoin};
use king_saia::core::attacks::{ResponseForger, SplitVoter};
use king_saia::core::everywhere::{self, EverywhereConfig};
use king_saia::core::tournament::NoTreeAdversary;
use king_saia::net::{DeliveryPolicy, NetConfig, NetTransport};
use king_saia::sampler::RegularGraph;
use king_saia::sim::{
    Adversary, Envelope, NullAdversary, Payload, ProcId, Process, RunOutcome, SimBuilder,
    StaticAdversary, Transport,
};
use rand::SeedableRng;
use std::fmt::Debug;
use std::sync::Arc;

/// Runs the same configuration on the lockstep engine and on the
/// zero-latency network and asserts byte-identity of everything
/// observable.
fn assert_equivalent<P, F, A, G>(n: usize, seed: u64, max_rounds: usize, mut make: F, mut adv: G)
where
    P: Process,
    P::Output: PartialEq + Debug,
    F: FnMut() -> Box<dyn FnMut(ProcId, usize) -> P>,
    A: Adversary<P>,
    G: FnMut() -> A,
{
    let lockstep: RunOutcome<P::Output> = SimBuilder::new(n)
        .seed(seed)
        .build(make(), adv())
        .run(max_rounds);
    let net: RunOutcome<P::Output> = SimBuilder::new(n)
        .seed(seed)
        .build_with_transport(
            make(),
            adv(),
            NetTransport::new(n, NetConfig::synchronous().with_seed(seed)),
        )
        .run(max_rounds);
    // Spelling out the default delivery policy must change nothing: the
    // `DeliveryPolicy::Fifo` path is byte-identical to the plain drain.
    let fifo: RunOutcome<P::Output> = SimBuilder::new(n)
        .seed(seed)
        .build_with_transport(
            make(),
            adv(),
            NetTransport::new(
                n,
                NetConfig::synchronous()
                    .with_seed(seed)
                    .with_ordering(DeliveryPolicy::Fifo),
            ),
        )
        .run(max_rounds);
    assert_eq!(net.rounds, fifo.rounds, "explicit fifo diverges");
    assert_eq!(net.corrupt, fifo.corrupt, "explicit fifo diverges");
    assert!(net.outputs == fifo.outputs, "explicit fifo diverges");
    assert_eq!(net.metrics.total_bits(), fifo.metrics.total_bits());
    assert_eq!(lockstep.rounds, net.rounds, "round counts diverge");
    assert_eq!(lockstep.corrupt, net.corrupt, "corruption traces diverge");
    assert_eq!(lockstep.faulty, net.faulty, "fault traces diverge");
    assert!(
        net.faulty.iter().all(|&f| !f),
        "fault-free net marked faults"
    );
    assert!(lockstep.outputs == net.outputs, "outputs diverge");
    assert_eq!(
        lockstep.metrics.total_bits(),
        net.metrics.total_bits(),
        "bit accounting diverges"
    );
    assert_eq!(lockstep.metrics.total_msgs(), net.metrics.total_msgs());
    for i in 0..n {
        let p = ProcId::new(i);
        assert_eq!(
            lockstep.metrics.bits_sent_by(p),
            net.metrics.bits_sent_by(p),
            "per-processor bits diverge at {p}"
        );
    }
}

#[test]
fn flood_is_equivalent() {
    for seed in [1u64, 2, 3] {
        let cfg = FloodConfig::for_n(64);
        assert_equivalent(
            64,
            seed,
            cfg.rounds + 2,
            move || Box::new(move |p, _| FloodProcess::new(cfg, p.index() % 2 == 0)),
            || NullAdversary,
        );
    }
}

#[test]
fn phase_king_is_equivalent_under_crashes() {
    for seed in [1u64, 2] {
        let cfg = PhaseKingConfig::for_n(48);
        assert_equivalent(
            48,
            seed,
            cfg.total_rounds() + 2,
            move || Box::new(move |p, _| PhaseKingProcess::new(cfg, p.index() % 3 == 0)),
            || StaticAdversary::first_k(5),
        );
    }
}

#[test]
fn ben_or_is_equivalent() {
    for seed in [1u64, 2] {
        let cfg = BenOrConfig::for_n(40);
        assert_equivalent(
            40,
            seed,
            cfg.total_rounds() + 2,
            move || Box::new(move |p, _| BenOrProcess::new(cfg, p.index() % 2 == 0)),
            || StaticAdversary::first_k(3),
        );
    }
}

#[test]
fn rabin_is_equivalent() {
    for seed in [1u64, 2] {
        let cfg = RabinConfig::for_n(40);
        assert_equivalent(
            40,
            seed,
            cfg.total_rounds() + 2,
            move || Box::new(move |p, _| RabinProcess::new(cfg, p.index() % 2 == 1)),
            || NullAdversary,
        );
    }
}

#[test]
fn aeba_is_equivalent_under_split_voter() {
    let n = 96;
    for seed in [1u64, 2] {
        let mut grng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
        let degree = (6.0 * (n as f64).sqrt()).ceil() as usize;
        let graph = Arc::new(RegularGraph::random_out_degree(n, degree, &mut grng));
        let coin = Arc::new(UnreliableCoin::generate(40, 0.8, 0.02, seed));
        let cfg = AebaConfig {
            rounds: 40,
            ..AebaConfig::default()
        };
        let (g, c, cfg2) = (graph.clone(), coin.clone(), cfg.clone());
        assert_equivalent(
            n,
            seed,
            cfg.rounds + 2,
            move || {
                let (g, c, cfg) = (g.clone(), c.clone(), cfg2.clone());
                Box::new(move |p: ProcId, _| {
                    AebaProcess::new(
                        p,
                        p.index().is_multiple_of(2),
                        g.clone(),
                        c.clone(),
                        cfg.clone(),
                        false,
                    )
                })
            },
            || SplitVoter { count: n / 5 },
        );
    }
}

#[test]
fn ae_to_e_is_equivalent_under_forgery() {
    let n = 100;
    for seed in [1u64, 2] {
        let cfg = AeToEConfig::for_n(n, 0.1);
        let rounds = cfg.total_rounds();
        let cutoff = (n * 2) / 3;
        let cfg2 = cfg.clone();
        assert_equivalent(
            n,
            seed,
            rounds + 1,
            move || {
                let cfg = cfg2.clone();
                Box::new(move |p: ProcId, _| {
                    let k = (p.index() < cutoff).then_some(55u64);
                    AeToEProcess::new(cfg.clone(), k)
                })
            },
            || ResponseForger::new(n / 6, 999),
        );
    }
}

/// The full Algorithm-4 stack — tournament committee traffic **and**
/// Algorithm-3 traffic, both over one shared zero-latency transport:
/// identical decisions, rounds, bits, and coin words to the plain
/// lockstep `run`, on the integration-test seeds.
#[test]
fn everywhere_stack_is_equivalent() {
    let n = 64;
    for seed in [1u64, 2, 3] {
        let config = EverywhereConfig::for_n(n).with_seed(seed);
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let a = everywhere::run(&config, &inputs, &mut NoTreeAdversary, NullAdversary);
        let (b, transport) = everywhere::run_with_transport(
            &config,
            &inputs,
            &mut NoTreeAdversary,
            NullAdversary,
            NetTransport::new(n, NetConfig::synchronous().with_seed(seed)),
        );
        assert_eq!(a.decisions, b.decisions, "seed {seed}");
        assert_eq!(a.rounds, b.rounds, "seed {seed}");
        assert_eq!(a.bits_per_proc, b.bits_per_proc, "seed {seed}");
        assert_eq!(a.corrupt, b.corrupt, "seed {seed}");
        assert_eq!(a.everywhere_agreement, b.everywhere_agreement);
        assert_eq!(a.valid, b.valid);
        let aw: Vec<u16> = a.tournament.coin_words.iter().map(|w| w.value).collect();
        let bw: Vec<u16> = b.tournament.coin_words.iter().map(|w| w.value).collect();
        assert_eq!(aw, bw, "seed {seed}: tournament coin words diverge");
        // The zero-latency wire really carried both phases' traffic and
        // lost none of it.
        let stats = transport.into_stats();
        assert!(stats.sent > 0, "seed {seed}: no routed traffic");
        assert_eq!(stats.dropped(), 0, "seed {seed}");
        assert_eq!(stats.late, 0, "seed {seed}");
    }
}

/// The tournament alone over the zero-latency network: byte-identical
/// outcome (decisions, bits, coin words, per-level stats counters) to
/// the lockstep `run` — the contract that licenses reading partition
/// effects on elections as perturbations.
#[test]
fn tournament_is_equivalent_under_adversaries() {
    use king_saia::core::attacks::StaticThird;
    use king_saia::core::tournament::{self, TourMsg};

    let n = 64;
    for seed in [1u64, 2] {
        let config = king_saia::core::tournament::TournamentConfig::for_n(n).with_seed(seed);
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let a = tournament::run(&config, &inputs, &mut StaticThird::default());
        let mut transport: NetTransport<TourMsg> =
            NetTransport::new(n, NetConfig::synchronous().with_seed(seed));
        let b = tournament::run_with_transport(
            &config,
            &inputs,
            &mut StaticThird::default(),
            &mut transport,
        );
        assert_eq!(a.decisions, b.decisions, "seed {seed}");
        assert_eq!(a.decided, b.decided, "seed {seed}");
        assert_eq!(a.bits_per_proc, b.bits_per_proc, "seed {seed}");
        assert_eq!(a.corrupt, b.corrupt, "seed {seed}");
        assert_eq!(a.rounds, b.rounds, "seed {seed}");
        assert_eq!(a.transport_rounds, b.transport_rounds, "seed {seed}");
        assert_eq!(a.coin_words, b.coin_words, "seed {seed}");
        let stats = transport.into_stats();
        assert!(stats.sent > 0, "committee traffic must be routed");
        assert_eq!(stats.delivered, stats.sent, "zero-latency loses nothing");
    }
}

/// The trace-off pin: runs with `Trace::off()` explicitly attached to
/// both the engine and the transport — and runs with a live
/// `Trace::memory()` attached — are byte-identical to the plain
/// pre-tracing construction. Observability is an observer: it consumes
/// no randomness and perturbs no outcome.
#[test]
fn traced_net_runs_pin_the_untraced_output() {
    use king_saia::obs::Trace;

    let n = 48;
    for seed in [1u64, 2, 3] {
        let cfg = PhaseKingConfig::for_n(n);
        let make = || move |p: ProcId, _| PhaseKingProcess::new(cfg, p.index().is_multiple_of(3));
        let rounds = cfg.total_rounds() + 2;
        let run = |trace: Option<Trace>| -> RunOutcome<_> {
            let mut transport = NetTransport::new(n, NetConfig::synchronous().with_seed(seed));
            let mut builder = SimBuilder::new(n).seed(seed);
            if let Some(t) = trace {
                transport = transport.with_trace(t.clone());
                builder = builder.trace(t);
            }
            builder
                .build_with_transport(make(), StaticAdversary::first_k(5), transport)
                .run(rounds)
        };
        let plain = run(None);
        let off = run(Some(Trace::off()));
        let live_trace = Trace::memory();
        let live = run(Some(live_trace.clone()));
        for (label, traced) in [("Trace::off", &off), ("Trace::memory", &live)] {
            assert_eq!(plain.rounds, traced.rounds, "seed {seed}: {label}");
            assert_eq!(plain.corrupt, traced.corrupt, "seed {seed}: {label}");
            assert_eq!(plain.faulty, traced.faulty, "seed {seed}: {label}");
            assert!(plain.outputs == traced.outputs, "seed {seed}: {label}");
            assert_eq!(
                plain.metrics.total_bits(),
                traced.metrics.total_bits(),
                "seed {seed}: {label}"
            );
            for i in 0..n {
                let p = ProcId::new(i);
                assert_eq!(
                    plain.metrics.bits_sent_by(p),
                    traced.metrics.bits_sent_by(p),
                    "seed {seed}: {label}: {p}"
                );
            }
        }
        // The live tracer actually observed the run.
        let lines = live_trace.take_lines();
        assert!(
            lines.iter().any(|l| l.contains("\"net:send\"")),
            "seed {seed}: live trace saw no sends"
        );
    }
}

/// `NetTransport` with its batched and whole-round calls taken away: it
/// forwards `send` and `collect` (and the availability and phase-mark
/// queries), so `send_many`, `collect_many`, `send_round` and
/// `collect_round` run as the `Transport` trait's defaults — one `send`
/// and one delivered envelope at a time. The oracle every override has
/// to match, kept here instead of shipped.
struct PerEnvelope<M>(NetTransport<M>);

impl<M: Payload> Transport<M> for PerEnvelope<M> {
    fn send(&mut self, round: usize, env: Envelope<M>) {
        self.0.send(round, env);
    }
    fn collect(&mut self, round: usize, deliver: &mut dyn FnMut(Envelope<M>)) {
        self.0.collect(round, deliver);
    }
    fn is_online(&self, round: usize, p: ProcId) -> bool {
        self.0.is_online(round, p)
    }
    fn is_faulty(&self, round: usize, p: ProcId) -> bool {
        self.0.is_faulty(round, p)
    }
    fn mark_phase(&mut self, round: usize, name: &str) {
        self.0.mark_phase(round, name);
    }
}

/// The batching contract: `send_many` is sugar for its per-envelope
/// expansion. Across a matrix of network damage — synchronous, lossy,
/// jittered, partitioned+churning — the batched tournament and
/// everywhere stack are byte-identical to the same runs over
/// [`PerEnvelope`] in every observable: decisions, total and
/// per-processor bits, per-phase attribution, and the complete
/// `NetStats` (compared by `Debug` rendering, so per-phase breakdowns and
/// drop/dead/late counters are all covered). Envelope *counts inside the
/// transport queue* are the only thing allowed to differ, and nothing
/// here observes those.
#[test]
fn batched_envelopes_are_byte_identical_to_unbatched() {
    use king_saia::core::tournament::{self, TourMsg, TournamentConfig};
    use king_saia::net::{Churn, FaultPlan, LatencyModel, Partition};

    let n = 64;
    let damage: Vec<(&str, NetConfig)> = vec![
        ("synchronous", NetConfig::synchronous()),
        (
            "lossy",
            NetConfig::synchronous().with_faults(FaultPlan {
                drop_prob: 0.15,
                ..FaultPlan::default()
            }),
        ),
        (
            "jitter",
            NetConfig::synchronous().with_latency(LatencyModel::Uniform { lo: 0, hi: 1600 }),
        ),
        (
            "partition+churn",
            NetConfig::synchronous().with_faults(FaultPlan {
                partitions: vec![Partition {
                    boundary: n / 2,
                    from_round: 2,
                    heal_round: 6,
                }],
                churn: Some(Churn {
                    period: 9,
                    down: 2,
                    stagger: 1,
                }),
                ..FaultPlan::default()
            }),
        ),
    ];
    let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    fn net<M: Payload>(n: usize, cfg: &NetConfig, seed: u64) -> NetTransport<M> {
        NetTransport::new(n, cfg.clone().with_seed(seed))
    }

    for (label, cfg) in &damage {
        for seed in [1u64, 2] {
            // Tournament alone.
            let config = TournamentConfig::for_n(n).with_seed(seed);
            let run_tournament = |t: &mut dyn Transport<TourMsg>| {
                tournament::run_with_transport(&config, &inputs, &mut NoTreeAdversary, t)
            };
            let (mut batched, mut oracle) = (net(n, cfg, seed), PerEnvelope(net(n, cfg, seed)));
            let a = run_tournament(&mut batched);
            let b = run_tournament(&mut oracle);
            let (sa, sb) = (batched.into_stats(), oracle.0.into_stats());
            let ctx = format!("{label} seed {seed}");
            assert_eq!(a.decisions, b.decisions, "{ctx}: decisions");
            assert_eq!(a.decided, b.decided, "{ctx}: decided");
            assert_eq!(a.bits_per_proc, b.bits_per_proc, "{ctx}: bits");
            assert_eq!(a.phase_bits, b.phase_bits, "{ctx}: phase_bits");
            assert_eq!(a.corrupt, b.corrupt, "{ctx}: corrupt");
            assert_eq!(a.rounds, b.rounds, "{ctx}: rounds");
            assert_eq!(a.coin_words, b.coin_words, "{ctx}: coin words");
            assert_eq!(
                format!("{sa:?}"),
                format!("{sb:?}"),
                "{ctx}: NetStats diverge"
            );

            // Full Algorithm-4 stack over one shared transport.
            let config = EverywhereConfig::for_n(n).with_seed(seed);
            let (a, batched) = everywhere::run_with_transport(
                &config,
                &inputs,
                &mut NoTreeAdversary,
                NullAdversary,
                net(n, cfg, seed),
            );
            let (b, oracle) = everywhere::run_with_transport(
                &config,
                &inputs,
                &mut NoTreeAdversary,
                NullAdversary,
                PerEnvelope(net(n, cfg, seed)),
            );
            let (sa, sb) = (batched.into_stats(), oracle.0.into_stats());
            assert_eq!(a.decisions, b.decisions, "{ctx}: stack decisions");
            assert_eq!(a.bits_per_proc, b.bits_per_proc, "{ctx}: stack bits");
            assert_eq!(a.phase_bits, b.phase_bits, "{ctx}: stack phase_bits");
            assert_eq!(a.rounds, b.rounds, "{ctx}: stack rounds");
            assert_eq!(a.corrupt, b.corrupt, "{ctx}: stack corrupt");
            assert_eq!(
                a.everywhere_agreement, b.everywhere_agreement,
                "{ctx}: stack agreement"
            );
            assert_eq!(
                format!("{sa:?}"),
                format!("{sb:?}"),
                "{ctx}: stack NetStats diverge"
            );
        }
    }
}

/// Every harness trial through [`PerEnvelope`] against the same trial
/// through `NetTransport` itself: fans and whole rounds alike.
mod per_envelope_oracle {
    use super::PerEnvelope;
    use king_saia::exp::{
        run_trial_with_factory, NetFactory, RunSpec, SessionTransport, TransportFactory,
    };
    use king_saia::net::{
        Churn, DeliveryPolicy, FaultPlan, LatencyModel, NetConfig, Partition, PhaseLedger,
    };
    use king_saia::obs::Trace;
    use king_saia::sim::{Payload, Schedule, WireMsg};

    impl<M: Payload> SessionTransport<M> for PerEnvelope<M> {
        fn finish(self) -> PhaseLedger {
            self.0.into_ledger()
        }
    }

    struct PerEnvelopeFactory;

    impl TransportFactory for PerEnvelopeFactory {
        type Transport<M: WireMsg + 'static> = PerEnvelope<M>;

        fn make<M: WireMsg + 'static>(
            &mut self,
            n: usize,
            cfg: NetConfig,
            trace: &Trace,
        ) -> Result<PerEnvelope<M>, String> {
            NetFactory.make(n, cfg, trace).map(PerEnvelope)
        }
    }

    /// The whole `TrialOutcome` through `Debug` (bits, `phase_bits`,
    /// `NetStats` and its per-phase buckets) and the trial's trace, which
    /// keeps wall-clock in a profile section of its own and out of these
    /// lines.
    fn observed(spec: &RunSpec, factory: &mut impl TransportFactory) -> (String, Vec<String>) {
        let trace = Trace::memory();
        let outcome = run_trial_with_factory(spec, 0, &trace, factory).expect("the trial runs");
        (format!("{outcome:#?}"), trace.take_lines())
    }

    /// `spec` over {synchronous, 3 % loss + `Uniform{0,900}`, partition +
    /// churn, a heavy tail capped at four rounds} × every delivery policy
    /// × three seeds, through the overrides and through the oracle; each
    /// net keeps `spec`'s phase timetable.
    fn whole_rounds_match(spec: RunSpec) {
        let delta = NetConfig::synchronous().delta;
        let nets = [
            NetConfig::synchronous(),
            NetConfig::synchronous()
                .with_latency(LatencyModel::Uniform { lo: 0, hi: 900 })
                .with_faults(FaultPlan {
                    drop_prob: 0.03,
                    ..FaultPlan::default()
                }),
            NetConfig::synchronous().with_faults(FaultPlan {
                partitions: vec![Partition {
                    boundary: spec.n / 2,
                    from_round: 2,
                    heal_round: 6,
                }],
                churn: Some(Churn {
                    period: 9,
                    down: 2,
                    stagger: 1,
                }),
                ..FaultPlan::default()
            }),
            NetConfig::synchronous().with_latency(LatencyModel::HeavyTail {
                floor: 50,
                scale: 400.0,
                alpha: 1.2,
                cap: 4 * delta,
            }),
        ];
        for (k, net) in nets.into_iter().enumerate() {
            for ordering in DeliveryPolicy::ALL {
                for seed in [1u64, 2, 3] {
                    let net = NetConfig {
                        schedule: spec.net.schedule.clone(),
                        ..net.clone().with_ordering(ordering)
                    };
                    let spec = spec.clone().net(net).seeds(seed);
                    let ctx = format!("net {k} {ordering:?} seed {seed}");
                    let (outcome, trace) = observed(&spec, &mut NetFactory);
                    let (oracle, oracle_trace) = observed(&spec, &mut PerEnvelopeFactory);
                    assert!(outcome.contains("sent_bits"), "{ctx}: no per-phase stats");
                    assert!(trace.iter().any(|l| l.contains("\"net:recv\"")), "{ctx}");
                    assert_eq!(outcome, oracle, "{ctx}: outcomes differ");
                    assert_eq!(trace, oracle_trace, "{ctx}: traces differ");
                }
            }
        }
    }

    /// An engine-hosted protocol announces no phases: its per-phase
    /// buckets come from a timetable on its net.
    fn timetable() -> NetConfig {
        let mut schedule = Schedule::new();
        schedule.push("opening", 3);
        schedule.push("rest", 5);
        NetConfig::synchronous().with_schedule(schedule)
    }

    #[test]
    fn aeba_whole_rounds_match_the_per_envelope_path() {
        whole_rounds_match(RunSpec::aeba(48).net(timetable()));
    }

    #[test]
    fn ae_to_e_whole_rounds_match_the_per_envelope_path() {
        whole_rounds_match(RunSpec::ae_to_e(48).net(timetable()));
    }

    #[test]
    fn ben_or_whole_rounds_match_the_per_envelope_path() {
        whole_rounds_match(RunSpec::ben_or(32).net(timetable()));
    }

    #[test]
    fn phase_king_whole_rounds_match_the_per_envelope_path() {
        whole_rounds_match(RunSpec::phase_king(32).net(timetable()));
    }

    /// Fans (the tournament, which announces its phases) and singles
    /// (Algorithm 3) over one transport.
    #[test]
    fn everywhere_whole_rounds_match_the_per_envelope_path() {
        whole_rounds_match(RunSpec::everywhere(32));
    }
}

/// The perf kernels introduced for the scale campaign, pinned to their
/// retained scalar/boxed oracles (the PR-1 pattern: every optimized
/// kernel ships with the reference it must match bit-for-bit).
mod crypto_kernel_oracles {
    use king_saia::crypto::iterated::{reference, Layer, ShareTree};
    use king_saia::crypto::poly::Poly;
    use king_saia::crypto::Gf16;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The chunked `eval_many` kernel behind `shamir::share` equals
        /// the scalar Horner oracle at Shamir's evaluation points.
        #[test]
        fn eval_many_matches_scalar_shamir_oracle(
            secret in any::<u16>(),
            t in 0usize..40,
            n in 1usize..300,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = Poly::random_with_secret(Gf16::new(secret), t, &mut rng);
            let xs: Vec<Gf16> = (0..n).map(|j| Gf16::new((j + 1) as u16)).collect();
            let expected: Vec<Gf16> = xs.iter().map(|&x| p.eval(x)).collect();
            prop_assert_eq!(p.eval_many(&xs), expected);
        }

        /// Arena and boxed `ShareTree` dealings of one RNG stream agree
        /// on every recovery decision a coalition can pose.
        #[test]
        fn arena_share_tree_matches_boxed_recover(
            secret in any::<u16>(),
            n1 in 2usize..6,
            n2 in 2usize..6,
            seed in any::<u64>(),
            mask in any::<u64>(),
        ) {
            let layers = [Layer::majority(n1), Layer::majority(n2)];
            let secret = Gf16::new(secret);
            let arena =
                ShareTree::deal(secret, &layers, &mut StdRng::seed_from_u64(seed)).unwrap();
            let boxed = reference::ShareTree::deal(
                secret, &layers, &mut StdRng::seed_from_u64(seed),
            ).unwrap();
            prop_assert_eq!(arena.leaf_shares(), boxed.leaf_shares());
            let holds = |p: &[usize]| {
                let h = p.iter().fold(7u64, |a, &i| a.wrapping_mul(37).wrapping_add(i as u64));
                mask.rotate_left((h % 64) as u32) & 1 == 1
            };
            prop_assert_eq!(arena.recover(holds), boxed.recover(holds));
            prop_assert_eq!(arena.recover(|_| true), Some(secret));
        }
    }
}

/// Every spec in the starter scenario library parses, and its network
/// config round-trips the declared phases.
#[test]
fn scenario_library_parses() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut count = 0;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios/ exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable spec");
        let spec = king_saia::net::ScenarioSpec::parse(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(spec.trials > 0);
        let cfg = spec.net_config(0);
        if !spec.phases.is_empty() {
            let total: usize = spec.phases.iter().map(|(_, l)| l).sum();
            assert_eq!(
                cfg.schedule.as_ref().map(|s| s.total_rounds()),
                Some(total),
                "{}",
                path.display()
            );
        }
        count += 1;
    }
    assert!(count >= 8, "starter library shrank to {count} specs");
}
