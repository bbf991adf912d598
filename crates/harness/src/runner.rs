//! Executes a [`RunSpec`]: the one trial loop, per-trial transports, and
//! uniform metric extraction for every protocol the spec surface names.

use crate::spec::{
    AeToESpec, AebaSpec, Knowledgeable, MessageAdversary, Protocol, RunSpec, TournamentTuning,
};
use crate::stats::par_trials;
use ba_baselines::{
    BenOrConfig, BenOrProcess, CoordEquivocator, FloodConfig, FloodProcess, PhaseKingConfig,
    PhaseKingProcess, RabinConfig, RabinProcess,
};
use ba_core::ae_to_e::{AeToEConfig, AeToEProcess};
use ba_core::aeba::{AebaConfig, AebaProcess, UnreliableCoin};
use ba_core::attacks::{LabelGuesser, Overloader, ResponseForger, SplitVoter};
use ba_core::coin::CoinSequence;
use ba_core::everywhere::{self, EverywhereConfig, StackMsg};
use ba_core::tournament::{self, LevelStats, TourMsg, TournamentConfig};
use ba_net::{NetConfig, NetStats, NetTransport, PhaseLedger};
use ba_obs::Trace;
use ba_sim::{
    Adversary, BitStats, NullAdversary, Payload, ProcId, Process, RunOutcome, SimBuilder,
    StaticAdversary, Transport, WireMsg,
};
use ba_topology::Params;
use rand::SeedableRng;
use std::sync::Arc;

/// A transport usable for one harness trial: the engine-facing
/// [`Transport`] seam plus the [`PhaseLedger`] every carrier counts in,
/// which the runner reads the phase timetable and network statistics
/// from once the trial is over.
///
/// [`NetTransport`] is the in-process implementation; `ba-serve`'s
/// `SocketTransport` carries the same trials over real TCP sockets.
pub trait SessionTransport<M: Payload>: Transport<M> {
    /// Consumes the transport, returning its ledger.
    fn finish(self) -> PhaseLedger
    where
        Self: Sized;
}

impl<M: Payload> SessionTransport<M> for NetTransport<M> {
    fn finish(self) -> PhaseLedger {
        self.into_ledger()
    }
}

/// Per-trial transport construction, generic over the protocol's message
/// type. The factory is the runner's one seam for swapping the carrier
/// under otherwise-identical trials: [`NetFactory`] builds the simulated
/// `ba-net` network, `ba-serve` builds socket-backed transports.
///
/// Messages must be [`WireMsg`] so a factory is free to put them on a
/// real wire; for in-process carriers the codec is simply unused.
pub trait TransportFactory {
    /// The transport type produced for message type `M`.
    type Transport<M: WireMsg + 'static>: SessionTransport<M>;

    /// Builds the transport for one trial.
    fn make<M: WireMsg + 'static>(
        &mut self,
        n: usize,
        cfg: NetConfig,
        trace: &Trace,
    ) -> Result<Self::Transport<M>, String>;
}

/// The default factory: one simulated [`NetTransport`] per trial,
/// tracing into the trial's `Trace` — the behaviour every in-process
/// entry point ([`run`], [`run_trial`], …) has always had.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetFactory;

impl TransportFactory for NetFactory {
    type Transport<M: WireMsg + 'static> = NetTransport<M>;

    fn make<M: WireMsg + 'static>(
        &mut self,
        n: usize,
        cfg: NetConfig,
        trace: &Trace,
    ) -> Result<NetTransport<M>, String> {
        Ok(NetTransport::new(n, cfg).with_trace(trace.clone()))
    }
}

/// Uniform per-trial metrics, with protocol-specific drill-down where it
/// exists.
#[derive(Clone, Debug)]
pub struct TrialOutcome {
    /// The trial's seed.
    pub seed: u64,
    /// Plurality-agreement fraction among live good processors.
    pub agreement: f64,
    /// Fraction of live good processors that decided at all.
    pub decided: f64,
    /// Whether the decision was valid (protocols that define validity).
    pub valid: Option<bool>,
    /// The decided bit (tournament / everywhere runs).
    pub decided_bit: Option<bool>,
    /// Live good processors that decided a *wrong* value (Algorithm 3 /
    /// everywhere runs; 0 elsewhere).
    pub wrong: usize,
    /// Synchronous rounds executed.
    pub rounds: usize,
    /// Bits sent by live good processors.
    pub bits: BitStats,
    /// Bits sent by everyone.
    pub total_bits: u64,
    /// Final corruption flags.
    pub corrupt: Vec<bool>,
    /// The global coin subsequence (tournament / everywhere runs).
    pub coins: Option<CoinSequence>,
    /// Per-level tournament statistics (tournament / everywhere runs).
    pub level_stats: Vec<LevelStats>,
    /// Rounds spent in the tournament phase (everywhere runs).
    pub tournament_rounds: Option<usize>,
    /// Good-processor bits of the tournament phase alone (tournament /
    /// everywhere runs).
    pub tournament_bits: Option<BitStats>,
    /// Good-processor bits of the Algorithm-3 phase alone (everywhere
    /// runs).
    pub ae_bits: Option<BitStats>,
    /// Network statistics of the trial's transport.
    pub net: Option<NetStats>,
    /// Per-phase bit attribution. For the structured executors this is
    /// exact (snapshot deltas around each exchange); for engine-hosted
    /// protocols it buckets per-round charges by the transport's phase
    /// marks. Entries sum to `total_bits`.
    pub phase_bits: Vec<(String, u64)>,
}

impl TrialOutcome {
    /// A zeroed outcome at `seed`, for struct-update construction (the
    /// runner's trial paths and the hunt oracles' unit tests).
    pub fn base(seed: u64) -> Self {
        TrialOutcome {
            seed,
            agreement: 0.0,
            decided: 0.0,
            valid: None,
            decided_bit: None,
            wrong: 0,
            rounds: 0,
            bits: BitStats::default(),
            total_bits: 0,
            corrupt: Vec::new(),
            coins: None,
            level_stats: Vec::new(),
            tournament_rounds: None,
            tournament_bits: None,
            ae_bits: None,
            net: None,
            phase_bits: Vec::new(),
        }
    }
}

/// All trials of one spec, with aggregation helpers.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Per-trial outcomes in trial order.
    pub trials: Vec<TrialOutcome>,
}

impl RunReport {
    /// Mean of `f` over trials.
    pub fn mean_of(&self, f: impl Fn(&TrialOutcome) -> f64) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials.iter().map(f).sum::<f64>() / self.trials.len() as f64
    }

    /// Minimum of `f` over trials.
    pub fn min_of(&self, f: impl Fn(&TrialOutcome) -> f64) -> f64 {
        self.trials.iter().map(f).fold(f64::INFINITY, f64::min)
    }

    /// Fraction of trials satisfying `pred`.
    pub fn frac_of(&self, pred: impl Fn(&TrialOutcome) -> bool) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials.iter().filter(|t| pred(t)).count() as f64 / self.trials.len() as f64
    }

    /// Network statistics summed over all trials.
    pub fn net_sum(&self) -> NetStats {
        let nets = self.trials.iter().filter_map(|t| t.net.as_ref());
        nets.fold(NetStats::default(), |mut sum, net| {
            sum.accumulate(net);
            sum
        })
    }
}

/// Runs every trial of `spec` (fanned out over the `ba-par` pool; trial
/// `t` is a pure function of seed `seeds.base + t`, so results are
/// deterministic at any thread count).
pub fn run(spec: &RunSpec) -> Result<RunReport, String> {
    run_traced(spec, &Trace::off())
}

/// [`run`], with trace events fanned into `trace`. Each trial records
/// into its own in-memory buffer; buffers are replayed into the master
/// sink in trial order, so the merged trace is byte-identical at any
/// `BA_PAR_THREADS`. Wall-clock profiles merge by name (they live in
/// the quarantined `"profile"` section, never in the event stream).
pub fn run_traced(spec: &RunSpec, trace: &Trace) -> Result<RunReport, String> {
    let armed = trace.is_on();
    let trials: Vec<Result<(TrialOutcome, Vec<String>), String>> = par_trials(spec.trials, |t| {
        let local = if armed { Trace::memory() } else { Trace::off() };
        let outcome = run_trial_traced(spec, t, &local)?;
        trace.merge_profile_from(&local);
        Ok((outcome, local.take_lines()))
    });
    let mut out = Vec::with_capacity(trials.len());
    for t in trials {
        let (outcome, lines) = t?;
        for line in lines {
            trace.raw(line);
        }
        out.push(outcome);
    }
    Ok(RunReport { trials: out })
}

/// Plurality agreement and decided fractions among processors that are
/// neither corrupted nor crash-stopped.
fn tally<O: PartialEq>(outputs: &[Option<O>], corrupt: &[bool], faulty: &[bool]) -> (f64, f64) {
    let live: Vec<usize> = (0..outputs.len())
        .filter(|&i| !corrupt[i] && !faulty[i])
        .collect();
    if live.is_empty() {
        return (1.0, 1.0);
    }
    let decided = live.iter().filter(|&&i| outputs[i].is_some()).count();
    let plurality = live
        .iter()
        .map(|&i| {
            live.iter()
                .filter(|&&j| outputs[j].is_some() && outputs[j] == outputs[i])
                .count()
        })
        .max()
        .unwrap_or(0);
    (
        plurality as f64 / live.len() as f64,
        decided as f64 / live.len() as f64,
    )
}

/// Bit statistics over live good processors from an engine outcome.
fn good_bits<O>(outcome: &RunOutcome<O>) -> BitStats {
    let samples: Vec<u64> = (0..outcome.corrupt.len())
        .filter(|&i| !outcome.corrupt[i] && !outcome.faulty[i])
        .map(|i| outcome.metrics.bits_sent_by(ProcId::new(i)))
        .collect();
    BitStats::from_samples(&samples)
}

/// Emits the trial's top-3 talkers (by bits sent, ties to lower ids).
fn trace_talkers(trace: &Trace, round: usize, per_proc: impl Iterator<Item = u64>) {
    if !trace.is_on() {
        return;
    }
    let mut ranked: Vec<(usize, u64)> = per_proc.enumerate().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (proc, bits) in ranked.into_iter().take(3) {
        trace.event(
            "talker",
            round as u64,
            "",
            &[("proc", proc.into()), ("bits", bits.into())],
        );
    }
}

/// Emits one `sampler:cache` trace event summarizing graph/sampler
/// registry traffic since the `since` snapshot (take it with
/// [`ba_sampler::cache::stats`] before the run).
///
/// Call this once per *process* run, from a binary's top level — never
/// per trial. The registry counters are process-cumulative: their totals
/// are deterministic (misses always equal the number of distinct keys
/// built), but the per-trial split depends on thread scheduling, so a
/// per-trial event would break merged-trace byte-identity across
/// `BA_PAR_THREADS`.
pub fn trace_sampler_cache(trace: &Trace, since: ba_sampler::CacheStats) {
    if !trace.is_on() {
        return;
    }
    let delta = ba_sampler::cache::stats().since(since);
    trace.event(
        "sampler:cache",
        0,
        "summary",
        &[("hits", delta.hits.into()), ("misses", delta.misses.into())],
    );
}

/// Runs one engine-hosted protocol trial over a `ba-net` transport.
/// `wrong_pred` flags a decided output as *wrong* (e.g. not the message
/// Algorithm 3 was spreading); pass `|_| false` where the notion does
/// not exist.
#[allow(clippy::too_many_arguments)] // one spec-shaped bundle per knob; a struct would just rename them
fn engine_case<P, F, A, TF>(
    spec: &RunSpec,
    seed: u64,
    cfg: NetConfig,
    cap: usize,
    flood_cap: Option<usize>,
    make: F,
    adversary: A,
    wrong_pred: impl Fn(&P::Output) -> bool,
    trace: &Trace,
    factory: &mut TF,
) -> Result<TrialOutcome, String>
where
    P: Process,
    P::Msg: WireMsg + 'static,
    P::Output: PartialEq,
    F: FnMut(ProcId, usize) -> P,
    A: Adversary<P>,
    TF: TransportFactory,
{
    let transport = factory.make::<P::Msg>(spec.n, cfg, trace)?;
    let mut builder = SimBuilder::new(spec.n).seed(seed).trace(trace.clone());
    if let Some(budget) = spec.adversary.engine_budget() {
        builder = builder.max_corruptions(budget);
    }
    if let Some(fc) = flood_cap {
        builder = builder.flood_cap(fc);
    }
    let sim = builder.build_with_transport(make, adversary, transport);
    let (outcome, transport) = sim.run_parts(cap);
    let (agreement, decided) = tally(&outcome.outputs, &outcome.corrupt, &outcome.faulty);
    let wrong = (0..spec.n)
        .filter(|&i| !outcome.corrupt[i] && !outcome.faulty[i])
        .filter(|&i| outcome.outputs[i].as_ref().is_some_and(&wrong_pred))
        .count();
    let ledger = transport.finish(); // flushes the transport's last send event
    let phase_bits = outcome.metrics.phase_bits(&ledger.phase_marks());
    trace_talkers(
        trace,
        outcome.rounds,
        (0..spec.n).map(|i| outcome.metrics.bits_sent_by(ProcId::new(i))),
    );
    Ok(TrialOutcome {
        agreement,
        decided,
        wrong,
        rounds: outcome.rounds,
        bits: good_bits(&outcome),
        total_bits: outcome.metrics.total_bits(),
        net: Some(ledger.into_stats()),
        corrupt: outcome.corrupt,
        phase_bits,
        ..TrialOutcome::base(seed)
    })
}

fn unsupported(spec: &RunSpec, what: &str) -> String {
    format!(
        "protocol `{}` does not support {what}",
        spec.protocol.name()
    )
}

/// Runs trial `trial` of `spec` at seed `seeds.base + trial`.
pub fn run_trial(spec: &RunSpec, trial: u64) -> Result<TrialOutcome, String> {
    run_trial_traced(spec, trial, &Trace::off())
}

/// [`run_trial`], recording trace events into `trace`: a `trial:start`
/// header, the engine/transport event stream, per-phase `trial:phase`
/// attribution lines, top-talker events, and a `trial:end` summary.
pub fn run_trial_traced(spec: &RunSpec, trial: u64, trace: &Trace) -> Result<TrialOutcome, String> {
    run_trial_with_factory(spec, trial, trace, &mut NetFactory)
}

/// [`run_trial_traced`] with the trial's transport built by `factory`
/// instead of the in-process [`NetFactory`] — the entry point `ba-serve`
/// uses to run the same specs, seeds, adversaries, and metric extraction
/// over real sockets.
pub fn run_trial_with_factory<TF: TransportFactory>(
    spec: &RunSpec,
    trial: u64,
    trace: &Trace,
    factory: &mut TF,
) -> Result<TrialOutcome, String> {
    if trace.is_on() {
        trace.event(
            "trial:start",
            0,
            "",
            &[
                ("trial", trial.into()),
                ("seed", spec.seeds.seed(trial).into()),
                ("protocol", spec.protocol.name().into()),
                ("n", spec.n.into()),
            ],
        );
    }
    let out = {
        // Whole-trial wall clock, charged to the quarantined profile.
        let _t = trace.timer("harness:trial");
        dispatch(spec, trial, trace, factory)?
    };
    if trace.is_on() {
        let round = out.rounds as u64;
        for (phase, bits) in &out.phase_bits {
            trace.event(
                "trial:phase",
                round,
                phase,
                &[("trial", trial.into()), ("bits", (*bits).into())],
            );
        }
        let good = out.corrupt.iter().filter(|&&c| !c).count();
        trace.event(
            "trial:end",
            round,
            "",
            &[
                ("trial", trial.into()),
                ("seed", out.seed.into()),
                ("n", spec.n.into()),
                ("good", good.into()),
                ("agreement", out.agreement.into()),
                ("decided", out.decided.into()),
                ("total_bits", out.total_bits.into()),
            ],
        );
    }
    Ok(out)
}

/// Trial dispatch over the spec's protocol surface.
fn dispatch<TF: TransportFactory>(
    spec: &RunSpec,
    trial: u64,
    trace: &Trace,
    factory: &mut TF,
) -> Result<TrialOutcome, String> {
    let n = spec.n;
    if n == 0 {
        return Err("n must be positive".to_owned());
    }
    // The `.scn` parser says the same; `NetTransport::new` would panic.
    if spec.net.delta == 0 {
        return Err("delta must be positive".to_owned());
    }
    let seed = spec.seeds.seed(trial);
    let cfg = spec.trial_net(trial);
    let cap = spec.output.rounds_cap;
    let input = spec.input;
    match &spec.protocol {
        Protocol::Flood => {
            let pc = FloodConfig::for_n(n);
            let adv = generic_static(spec)?;
            engine_case(
                spec,
                seed,
                cfg,
                cap.unwrap_or(pc.rounds + 2),
                None,
                move |p, _| FloodProcess::new(pc, input.bit(p.index())),
                adv,
                |_| false,
                trace,
                factory,
            )
        }
        Protocol::PhaseKing => {
            let pc = PhaseKingConfig::for_n(n);
            let cap = cap.unwrap_or(pc.total_rounds() + 2);
            let make = move |p: ProcId, _: usize| PhaseKingProcess::new(pc, input.bit(p.index()));
            if let MessageAdversary::Equivocate { count } = spec.adversary.message {
                return engine_case(
                    spec,
                    seed,
                    cfg,
                    cap,
                    None,
                    make,
                    CoordEquivocator::new(count),
                    |_| false,
                    trace,
                    factory,
                );
            }
            let adv = generic_static(spec)?;
            engine_case(
                spec,
                seed,
                cfg,
                cap,
                None,
                make,
                adv,
                |_| false,
                trace,
                factory,
            )
        }
        Protocol::BenOr => {
            let pc = BenOrConfig::for_n(n);
            let adv = generic_static(spec)?;
            engine_case(
                spec,
                seed,
                cfg,
                cap.unwrap_or(pc.total_rounds() + 2),
                None,
                move |p, _| BenOrProcess::new(pc, input.bit(p.index())),
                adv,
                |_| false,
                trace,
                factory,
            )
        }
        Protocol::Rabin => {
            let mut pc = RabinConfig::for_n(n);
            pc.beacon_seed ^= seed; // fresh beacon per trial
            let cap = cap.unwrap_or(pc.total_rounds() + 2);
            let make = move |p: ProcId, _: usize| RabinProcess::new(pc, input.bit(p.index()));
            if let MessageAdversary::Equivocate { count } = spec.adversary.message {
                return engine_case(
                    spec,
                    seed,
                    cfg,
                    cap,
                    None,
                    make,
                    CoordEquivocator::new(count),
                    |_| false,
                    trace,
                    factory,
                );
            }
            let adv = generic_static(spec)?;
            engine_case(
                spec,
                seed,
                cfg,
                cap,
                None,
                make,
                adv,
                |_| false,
                trace,
                factory,
            )
        }
        Protocol::Aeba(aeba) => aeba_trial(spec, aeba, seed, cfg, trace, factory),
        Protocol::AeToE(ae) => ae_to_e_trial(spec, ae, seed, cfg, trace, factory),
        Protocol::Tournament(tuning) => tournament_trial(spec, tuning, seed, cfg, trace, factory),
        Protocol::Everywhere => everywhere_trial(spec, seed, cfg, trace, factory),
    }
}

/// The adversaries available to protocols without a specialized roster.
fn generic_static(spec: &RunSpec) -> Result<StaticAdversary, String> {
    match spec.adversary.message {
        MessageAdversary::None => Ok(StaticAdversary::default()),
        MessageAdversary::Crash { count } => Ok(StaticAdversary::first_k(count)),
        other => Err(unsupported(spec, &format!("message adversary {other:?}"))),
    }
}

fn aeba_trial<TF: TransportFactory>(
    spec: &RunSpec,
    aeba: &AebaSpec,
    seed: u64,
    cfg: NetConfig,
    trace: &Trace,
    factory: &mut TF,
) -> Result<TrialOutcome, String> {
    let n = spec.n;
    let rounds = aeba.rounds;
    let pc = AebaConfig {
        rounds,
        ..AebaConfig::default()
    };
    let cap = spec.output.rounds_cap.unwrap_or(rounds + 2);
    let degree = aeba.degree.for_n(n);
    // The (raw-seed, tag) pair identifies the seed_from_u64 stream this
    // builder consumes, so repeat trials reuse the cached graph.
    let graph =
        ba_sampler::cache::regular_graph(n, degree, (seed ^ 0x6261_6772, 0x6261_6772), || {
            let mut grng = rand_chacha::ChaCha12Rng::seed_from_u64(seed ^ 0x6261_6772);
            ba_sampler::RegularGraph::random_out_degree(n, degree, &mut grng)
        });
    let coin = Arc::new(UnreliableCoin::generate(
        rounds,
        aeba.coin_success,
        aeba.coin_blind,
        seed,
    ));
    let input = spec.input;
    let split_coins = aeba.split_failed_coins;
    let make = move |p: ProcId, _n: usize| {
        AebaProcess::new(
            p,
            input.bit(p.index()),
            graph.clone(),
            coin.clone(),
            pc.clone(),
            split_coins && p.index() % 2 == 1,
        )
    };
    match spec.adversary.message {
        MessageAdversary::SplitVotes { count } => engine_case(
            spec,
            seed,
            cfg,
            cap,
            None,
            make,
            SplitVoter { count },
            |_| false,
            trace,
            factory,
        ),
        MessageAdversary::None | MessageAdversary::Crash { .. } => {
            let adv = generic_static(spec)?;
            engine_case(
                spec,
                seed,
                cfg,
                cap,
                None,
                make,
                adv,
                |_| false,
                trace,
                factory,
            )
        }
        other => Err(unsupported(spec, &format!("message adversary {other:?}"))),
    }
}

fn ae_to_e_trial<TF: TransportFactory>(
    spec: &RunSpec,
    ae: &AeToESpec,
    seed: u64,
    cfg: NetConfig,
    trace: &Trace,
    factory: &mut TF,
) -> Result<TrialOutcome, String> {
    let n = spec.n;
    let pc = AeToEConfig::for_n(n, ae.eps);
    let cap = spec.output.rounds_cap.unwrap_or(pc.total_rounds() + 1);
    let labels = pc.labels;
    let message = ae.message;
    let input = spec.input;
    let knowledgeable = ae.knowledgeable;
    let knows = move |p: usize| -> bool {
        match knowledgeable {
            Knowledgeable::Input => input.bit(p),
            Knowledgeable::Fraction(f) => p < ((n as f64) * f) as usize,
        }
    };
    let make = {
        let pc = pc.clone();
        move |p: ProcId, _n: usize| {
            let k = knows(p.index()).then_some(message);
            AeToEProcess::new(pc.clone(), k)
        }
    };
    let wrong = move |v: &u64| *v != message;
    match spec.adversary.message {
        MessageAdversary::None | MessageAdversary::Crash { .. } => {
            let adv = generic_static(spec)?;
            engine_case(
                spec,
                seed,
                cfg,
                cap,
                ae.flood_cap,
                make,
                adv,
                wrong,
                trace,
                factory,
            )
        }
        MessageAdversary::Forge { count, fake } => engine_case(
            spec,
            seed,
            cfg,
            cap,
            ae.flood_cap,
            make,
            ResponseForger::new(count, fake),
            wrong,
            trace,
            factory,
        ),
        MessageAdversary::Overload { count, copies } => engine_case(
            spec,
            seed,
            cfg,
            cap,
            ae.flood_cap,
            make,
            Overloader {
                count,
                labels,
                copies,
            },
            wrong,
            trace,
            factory,
        ),
        MessageAdversary::GuessLabels { count, copies } => engine_case(
            spec,
            seed,
            cfg,
            cap,
            ae.flood_cap,
            make,
            LabelGuesser {
                count,
                labels,
                copies,
            },
            wrong,
            trace,
            factory,
        ),
        other => Err(unsupported(spec, &format!("message adversary {other:?}"))),
    }
}

/// Applies tuning overrides onto practical parameters.
fn tuned_params(n: usize, tuning: &TournamentTuning) -> Params {
    let mut p = Params::practical(n);
    if let Some(q) = tuning.q {
        p = p.with_q(q);
    }
    if let Some(k1) = tuning.k1 {
        p = p.with_k1(k1);
    }
    if let Some(d) = tuning.aeba_degree {
        p = p.with_aeba_degree(d);
    }
    p
}

fn tournament_trial<TF: TransportFactory>(
    spec: &RunSpec,
    tuning: &TournamentTuning,
    seed: u64,
    cfg: NetConfig,
    trace: &Trace,
    factory: &mut TF,
) -> Result<TrialOutcome, String> {
    if spec.adversary.message != MessageAdversary::None {
        return Err(unsupported(
            spec,
            "message adversaries (compose a tree adversary instead)",
        ));
    }
    if spec.output.rounds_cap.is_some() {
        return Err(unsupported(
            spec,
            "a rounds cap (the structured executor's length is parameter-determined)",
        ));
    }
    let n = spec.n;
    let mut config = TournamentConfig::for_n(n).with_seed(seed);
    config.params = tuned_params(n, tuning);
    let inputs: Vec<bool> = (0..n).map(|i| spec.input.bit(i)).collect();
    let mut adv = spec.adversary.tree.instantiate();
    let mut transport = factory.make::<TourMsg>(n, cfg, trace)?;
    let out = tournament::run_with_transport(&config, &inputs, &mut adv, &mut transport);
    let good = out.corrupt.iter().filter(|&&c| !c).count().max(1);
    let decided_count = out.decisions.iter().flatten().count();
    let bits = out.good_bit_stats();
    trace_talkers(trace, out.rounds, out.bits_per_proc.iter().copied());
    Ok(TrialOutcome {
        agreement: out.agreement_fraction,
        decided: decided_count as f64 / good as f64,
        valid: Some(out.valid),
        decided_bit: Some(out.decided),
        rounds: out.rounds,
        total_bits: out.bits_per_proc.iter().sum(),
        tournament_rounds: Some(out.rounds),
        tournament_bits: Some(bits),
        bits,
        coins: Some(CoinSequence::new(out.coin_words)),
        level_stats: out.level_stats,
        corrupt: out.corrupt,
        net: Some(transport.finish().into_stats()),
        phase_bits: out.phase_bits,
        ..TrialOutcome::base(seed)
    })
}

fn everywhere_trial<TF: TransportFactory>(
    spec: &RunSpec,
    seed: u64,
    cfg: NetConfig,
    trace: &Trace,
    factory: &mut TF,
) -> Result<TrialOutcome, String> {
    if spec.output.rounds_cap.is_some() {
        return Err(unsupported(
            spec,
            "a rounds cap (both phase lengths are parameter-determined)",
        ));
    }
    let n = spec.n;
    let config = EverywhereConfig::for_n(n).with_seed(seed);
    let labels = config.ae.labels;
    let inputs: Vec<bool> = (0..n).map(|i| spec.input.bit(i)).collect();
    let mut adv = spec.adversary.tree.instantiate();
    let transport = factory.make::<StackMsg>(n, cfg, trace)?;
    let (out, transport) = match spec.adversary.message {
        MessageAdversary::None => {
            everywhere::run_with_transport(&config, &inputs, &mut adv, NullAdversary, transport)
        }
        MessageAdversary::Crash { count } => everywhere::run_with_transport(
            &config,
            &inputs,
            &mut adv,
            StaticAdversary::first_k(count),
            transport,
        ),
        MessageAdversary::Forge { count, fake } => everywhere::run_with_transport(
            &config,
            &inputs,
            &mut adv,
            ResponseForger::new(count, fake),
            transport,
        ),
        MessageAdversary::Overload { count, copies } => everywhere::run_with_transport(
            &config,
            &inputs,
            &mut adv,
            Overloader {
                count,
                labels,
                copies,
            },
            transport,
        ),
        MessageAdversary::GuessLabels { count, copies } => everywhere::run_with_transport(
            &config,
            &inputs,
            &mut adv,
            LabelGuesser {
                count,
                labels,
                copies,
            },
            transport,
        ),
        other => return Err(unsupported(spec, &format!("message adversary {other:?}"))),
    };
    let good: Vec<usize> = (0..n).filter(|&i| !out.corrupt[i]).collect();
    let decided_count = good.iter().filter(|&&i| out.decisions[i].is_some()).count();
    let agreeing = good
        .iter()
        .filter(|&&i| out.decisions[i] == Some(out.tournament.decided))
        .count();
    let good_n = good.len().max(1);
    let bits = out.good_bit_stats();
    let ae_samples: Vec<u64> = good
        .iter()
        .map(|&i| out.bits_per_proc[i] - out.tournament.bits_per_proc[i])
        .collect();
    trace_talkers(trace, out.rounds, out.bits_per_proc.iter().copied());
    Ok(TrialOutcome {
        agreement: agreeing as f64 / good_n as f64,
        decided: decided_count as f64 / good_n as f64,
        valid: Some(out.valid),
        decided_bit: Some(out.tournament.decided),
        wrong: out.ae.wrong,
        rounds: out.rounds,
        total_bits: out.bits_per_proc.iter().sum(),
        tournament_rounds: Some(out.tournament.rounds),
        tournament_bits: Some(out.tournament.good_bit_stats()),
        ae_bits: Some(BitStats::from_samples(&ae_samples)),
        bits,
        coins: Some(CoinSequence::from_tournament(&out.tournament)),
        level_stats: out.tournament.level_stats.clone(),
        corrupt: out.corrupt,
        net: Some(transport.finish().into_stats()),
        phase_bits: out.phase_bits,
        ..TrialOutcome::base(seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AdversarySpec, TreeAttack};

    #[test]
    fn flood_runs_and_agrees() {
        let report = run(&RunSpec::flood(16).trials(2)).expect("run");
        assert_eq!(report.trials.len(), 2);
        for t in &report.trials {
            assert_eq!(t.agreement, 1.0);
            assert_eq!(t.decided, 1.0);
            assert!(t.net.is_some());
        }
    }

    #[test]
    fn trials_are_deterministic_per_seed() {
        let spec = RunSpec::aeba(48)
            .trials(2)
            .seeds(9)
            .net(NetConfig::synchronous().with_faults(ba_net::FaultPlan {
                drop_prob: 0.2,
                ..ba_net::FaultPlan::default()
            }));
        let a = run(&spec).expect("run a");
        let b = run(&spec).expect("run b");
        for (x, y) in a.trials.iter().zip(&b.trials) {
            assert_eq!(x.total_bits, y.total_bits);
            assert_eq!(x.agreement, y.agreement);
            assert_eq!(
                x.net.as_ref().unwrap().dropped_random,
                y.net.as_ref().unwrap().dropped_random
            );
        }
        // Different base seed → (almost surely) different drop draws.
        let c = run(&spec.clone().seeds(100)).expect("run c");
        assert_ne!(
            a.trials[0].net.as_ref().unwrap().dropped_random,
            c.trials[0].net.as_ref().unwrap().dropped_random,
            "seeding must reach the transport"
        );
    }

    #[test]
    fn tournament_carries_drilldown() {
        let spec = RunSpec::tournament(64).trials(1).seeds(3);
        let report = run(&spec).expect("run");
        let t = &report.trials[0];
        assert!(t.valid.expect("tournament defines validity"));
        assert!(!t.level_stats.is_empty());
        assert!(t.coins.as_ref().is_some_and(|c| !c.is_empty()));
        assert!(t.net.as_ref().is_some_and(|n| n.sent > 0));
    }

    #[test]
    fn tournament_derives_per_exchange_phases() {
        // No configured schedule: the stats breakdown comes entirely from
        // the executor's mark_phase announcements.
        let spec = RunSpec::tournament(64).trials(1).seeds(3);
        let report = run(&spec).expect("run");
        let net = report.trials[0].net.clone().expect("net stats");
        let names: Vec<&str> = net.per_phase.iter().map(|p| p.name.as_str()).collect();
        assert!(
            names.iter().any(|n| n.ends_with(":expose")),
            "phases: {names:?}"
        );
        assert!(
            names.iter().any(|n| n.ends_with(":winners")),
            "phases: {names:?}"
        );
        assert!(names.contains(&"root:coin"), "phases: {names:?}");
        // The first mark lands on round 0, so every sent message is
        // attributed to some exchange.
        let attributed: u64 = net.per_phase.iter().map(|p| p.sent).sum();
        assert_eq!(attributed, net.sent);
    }

    #[test]
    fn a_schedule_on_the_net_names_the_buckets() {
        let mut schedule = ba_sim::Schedule::new();
        schedule.push("opening", 3);
        schedule.push("rest", 5);
        let net = NetConfig::synchronous().with_schedule(schedule);
        let report = run(&RunSpec::aeba(48).trials(1).net(net)).expect("run");
        let net = report.trials[0].net.clone().expect("net stats");
        let names: Vec<&str> = net.per_phase.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names[..2], ["opening", "rest"], "phases: {names:?}");
        assert_eq!(names.len(), 3, "then the catch-all: {names:?}");
        let phase_bits: Vec<&str> = report.trials[0]
            .phase_bits
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(
            phase_bits, names,
            "bits are attributed by the same timetable"
        );
    }

    #[test]
    fn everywhere_attributes_the_algorithm3_handoff() {
        let spec = RunSpec::everywhere(64).trials(1).seeds(3);
        let report = run(&spec).expect("run");
        let net = report.trials[0].net.clone().expect("net stats");
        let names: Vec<&str> = net.per_phase.iter().map(|p| p.name.as_str()).collect();
        assert!(
            names.iter().any(|n| n.ends_with(":expose")),
            "phases: {names:?}"
        );
        assert_eq!(names.last(), Some(&"ae"), "phases: {names:?}");
        let ae = net.per_phase.last().unwrap();
        assert!(ae.sent > 0, "phase 2 traffic lands in the ae phase");
    }

    #[test]
    fn composed_adversaries_reach_everywhere() {
        let spec = RunSpec::everywhere(64).trials(1).adversary(
            AdversarySpec::none()
                .with_tree(TreeAttack::WinnerHunter)
                .with_message(MessageAdversary::Forge {
                    count: 8,
                    fake: 666,
                }),
        );
        let report = run(&spec).expect("run");
        let t = &report.trials[0];
        assert!(
            t.corrupt.iter().any(|&c| c),
            "adversaries corrupted someone"
        );
        assert_eq!(t.wrong, 0, "forgery must not flip decisions");
    }

    #[test]
    fn invalid_combo_is_an_error() {
        let spec = RunSpec::flood(16).adversary(AdversarySpec::split(4));
        assert!(run(&spec).is_err());
        let spec = RunSpec::tournament(64)
            .adversary(AdversarySpec::none().with_message(MessageAdversary::Crash { count: 2 }));
        assert!(run(&spec).is_err());
        // A rounds cap is meaningless for the structured executors and
        // must not be silently dropped.
        assert!(run(&RunSpec::tournament(64).rounds_cap(20)).is_err());
        assert!(run(&RunSpec::everywhere(64).rounds_cap(20)).is_err());
    }

    #[test]
    fn zero_delta_is_an_error_not_a_panic() {
        let cfg = NetConfig {
            delta: 0,
            ..NetConfig::synchronous()
        }
        .with_faults(ba_net::FaultPlan {
            drop_prob: 0.1,
            ..ba_net::FaultPlan::default()
        });
        let err = run_trial(&RunSpec::everywhere(32).net(cfg), 0).expect_err("delta = 0");
        assert_eq!(err, "delta must be positive");
    }
}
