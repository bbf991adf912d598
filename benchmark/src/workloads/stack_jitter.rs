//! `stack-jitter-256`: the full stack at paper-default constants over a
//! lossy, jittered network, against a composed adversary.
//!
//! It runs `ba_exp::run_trial(RunSpec::everywhere(256))` over
//! `NetTransport` with 1 % independent loss and uniform latency in
//! `[0, 900]` ticks of a 1000-tick round, against
//! `TreeAttack::CustodyBuster{0.5}` in the tournament and
//! `MessageAdversary::Overload{n/10, 4}` in Algorithm 3. The same `core`
//! layer as `stack-scale-4096`, used differently: the batched multicasts
//! take `NetTransport`'s slow path (a drop and a latency draw per
//! recipient, a jittered event queue), so `net` does most of the work.
//!
//! A trial fails when a good processor ends on a different bit than the
//! rest, on a bit no good processor held, or on a forged value.

use super::{
    export_profile, fnv1a, repeat_setup, run_window, seed_base, CacheMeter, NetLedger, OpSample,
    PhaseLedger, RunOpts, RunOut,
};
use crate::layers::{self, Counting};
use crate::span::Recorder;
use ba_core::attacks::Overloader;
use ba_core::everywhere::{self, EverywhereConfig};
use ba_exp::{
    AdversarySpec, InputPattern, MessageAdversary, NetConfig, RunSpec, TreeAttack, TrialOutcome,
};
use ba_net::{FaultPlan, LatencyModel};
use ba_obs::{ProfileAcc, Trace};
use ba_sim::Lockstep;

const LATENCY: LatencyModel = LatencyModel::Uniform { lo: 0, hi: 900 };
const TREE_ATTACK: TreeAttack = TreeAttack::CustodyBuster {
    aggressiveness: 0.5,
};
const OVERLOAD_COPIES: usize = 4;

fn net() -> NetConfig {
    NetConfig::synchronous()
        .with_faults(FaultPlan {
            drop_prob: 0.01,
            ..FaultPlan::default()
        })
        .with_latency(LATENCY)
}

/// The workload's spec: trial `t` runs at seed `base + t`, and `--seed`
/// picks `base`. Inputs are the worst-case even split (the harness takes
/// an input pattern, not a bit vector).
fn spec(n: usize, seed: u64) -> RunSpec {
    RunSpec::everywhere(n)
        .seeds(seed_base(seed, 2))
        .input(InputPattern::Split)
        .net(net())
        .adversary(AdversarySpec::none().with_tree(TREE_ATTACK).with_message(
            MessageAdversary::Overload {
                count: n / 10,
                copies: OVERLOAD_COPIES,
            },
        ))
}

fn sample(op: u64, wall_s: f64, out: &TrialOutcome) -> OpSample {
    super::check_phase_ledger(&out.phase_bits, out.total_bits, "stack-jitter trial");
    let ok = out.agreement == 1.0 && out.valid == Some(true) && out.wrong == 0;
    OpSample {
        op,
        wall_s,
        trials: 1,
        failed: u64::from(!ok),
        bits_good_max_sum: out.bits.max,
        digest: fnv1a(format!("{out:?}").as_bytes()),
    }
}

/// Trials the warm-up of repetition `rep` may use: far past any timed
/// trial index.
fn warm_trial(rep: u64) -> u64 {
    (1 << 40) + rep
}

/// Runs the workload.
pub fn run(opts: &RunOpts, rec: &mut Recorder) -> RunOut {
    let n = if opts.smoke { 64 } else { 256 };
    let (spec, setup_s) = repeat_setup(
        opts,
        5,
        |rep| {
            let spec = spec(n, opts.seed);
            ba_exp::run_trial(&spec, warm_trial(rep)).expect("the spec is valid");
            spec
        },
        drop,
    );

    let counted = match (opts.smoke, opts.trace) {
        (true, _) => 1,
        (false, true) => 2,
        (false, false) => 8,
    };
    let mut cache = CacheMeter::start();
    let mut ledger = PhaseLedger::default();
    let mut net_ledger = NetLedger::default();
    let mut profile = ProfileAcc::default();
    let (mut rounds, mut events) = (0u64, 0u64);
    let (plain, traced, window_s) = run_window(opts, 1, counted, rec, |op, on| {
        let trace = if on { Trace::memory() } else { Trace::off() };
        let t = std::time::Instant::now();
        let out = ba_exp::run_trial_traced(&spec, op, &trace).expect("the spec is valid");
        let wall_s = t.elapsed().as_secs_f64();
        if op < counted {
            cache.note();
        }
        if on {
            profile.merge(&trace.profile_snapshot());
            events += trace.take_lines().len() as u64;
            if op < counted {
                ledger.add(&out.phase_bits);
                net_ledger.add(out.net.as_ref().expect("harness trials carry net stats"));
                rounds = rounds.max(out.rounds as u64);
            }
        }
        sample(op, wall_s, &out)
    });

    let mut out = RunOut {
        setup_s,
        plain,
        traced,
        window_s,
        counted,
        ..RunOut::default()
    };
    if !opts.trace {
        return out;
    }

    let trial_s = out.median_wall_s();
    let layers = &mut out.layers;
    cache.export(layers);
    ledger.export(layers);
    net_ledger.export(layers);
    export_profile(&profile, out.traced.len(), layers);
    layers.insert("core.rounds", rounds as f64);
    layers.insert("obs.events", events as f64);

    // Phase 1 alone, over the same network and tree adversary (the
    // tournament takes no message adversary), at trial 0's seed.
    let tour_spec = RunSpec::tournament(n)
        .seeds(spec.seeds.base)
        .input(spec.input)
        .net(net())
        .adversary(AdversarySpec::none().with_tree(TREE_ATTACK));
    let (_, tour, tournament_s) = rec.time("core.tournament", 0, None, || {
        ba_exp::run_trial(&tour_spec, 0).expect("the tournament spec is valid")
    });
    let config = EverywhereConfig::for_n(n).with_seed(spec.seeds.seed(0));
    let params = &config.tournament.params;
    layers::topology(params, config.tournament.seed, rec, Some(tour), layers);
    layers::sampler_cold(params, config.tournament.seed, rec, Some(tour), layers);
    layers.insert("core.tournament_s", tournament_s);
    layers.insert("core.tournament_self_s", rec.self_s("core.tournament"));
    layers.insert("core.ae_s", (trial_s - tournament_s).max(0.0));

    // The same stack, adversaries included, over `Lockstep` through the
    // core API: what the trial costs when the network does nothing.
    let inputs: Vec<bool> = (0..n).map(|i| spec.input.bit(i)).collect();
    let mut tree_adversary = TREE_ATTACK.instantiate();
    let ((lockstep, transport), _, lockstep_s) =
        rec.time("core.everywhere.lockstep", 0, None, || {
            everywhere::run_with_transport(
                &config,
                &inputs,
                &mut tree_adversary,
                Overloader {
                    count: n / 10,
                    labels: config.ae.labels,
                    copies: OVERLOAD_COPIES,
                },
                Counting::new(Lockstep::default()),
            )
        });
    // The routed exchanges are fixed by the parameters, so the lockstep
    // run consumes the transport rounds every trial of this size does.
    layers.insert(
        "core.transport_rounds",
        lockstep.tournament.transport_rounds as f64,
    );
    let sent_per_trial = net_ledger.sent / counted;
    let overhead_s = (trial_s - lockstep_s).max(0.0);
    layers.insert("net.overhead_s", overhead_s);
    layers.insert(
        "net.ns_per_envelope",
        overhead_s * 1e9 / sent_per_trial.max(1) as f64,
    );
    // The busiest exchange carries most of a trial's envelopes in one
    // round, so a trial's volume (capped) is the queue's working size.
    layers::event_queue(sent_per_trial, &LATENCY, opts.seed, layers);
    layers::lockstep_multicast(transport.seen, n, layers);
    layers::crypto(params, opts.seed, layers);
    out
}
