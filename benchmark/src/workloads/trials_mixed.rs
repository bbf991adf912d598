//! `trials-mixed-small`: the hunt and scenario-suite use — hundreds of
//! small trials of every protocol, fanned out by `ba-par`.
//!
//! One *pass* is `ba_exp::run` over 24 specs: all eight protocols, each
//! over a synchronous network, a lossy one (3 % loss, uniform jitter) and
//! a partitioned, churning one, at n in [32, 128], 16 trials each. Tree
//! protocols face `WinnerHunter` / `StaticThird`, AEBA vote splitting,
//! Algorithm 3 response forgery, the baselines crash faults. Per-trial
//! fixed costs (tree and graph builds, pool dispatch, engine set-up),
//! `sim` stepping and `baselines` do the work; the big-committee paths do
//! almost none. Every pass reruns the same trials, as a hunt reruns its
//! roster, so after the warm-up pass the sampler cache serves repeats.
//!
//! Sizes and fault parameters are fixed so that a pass costs the same at
//! every `--seed`; the seed picks every spec's trial seeds and the order
//! of the specs. Adversaries here are meant to break the weaker
//! protocols, so a trial fails only when the harness returns an error.

use super::{
    export_profile, fnv1a, mix, repeat_setup, run_window, seed_base, CacheMeter, NetLedger,
    OpSample, PhaseLedger, RunOpts, RunOut,
};
use crate::layers;
use crate::span::Recorder;
use ba_core::aeba::CommitteeAttack;
use ba_exp::{AdversarySpec, MessageAdversary, NetConfig, RunReport, RunSpec, TreeAttack};
use ba_net::{Churn, FaultPlan, LatencyModel, Partition};
use ba_obs::{ProfileAcc, Trace};
use ba_topology::Params;
use std::collections::BTreeMap;

const LOSSY_LATENCY: LatencyModel = LatencyModel::Uniform { lo: 0, hi: 900 };

/// `(constructor, sizes under the three networks)`. Sizes shrink where
/// the jittered slow path would otherwise let one cell own the pass.
#[allow(clippy::type_complexity)]
const CELLS: [(fn(usize) -> RunSpec, [usize; 3]); 8] = [
    (RunSpec::flood, [128, 96, 128]),
    (RunSpec::phase_king, [96, 64, 96]),
    (RunSpec::ben_or, [96, 48, 64]),
    (RunSpec::rabin, [128, 64, 96]),
    (RunSpec::aeba, [96, 64, 128]),
    (RunSpec::ae_to_e, [128, 64, 96]),
    (RunSpec::tournament, [96, 48, 64]),
    (RunSpec::everywhere, [64, 32, 48]),
];

fn net(kind: usize, n: usize) -> NetConfig {
    let faults = match kind {
        0 => FaultPlan::default(),
        1 => FaultPlan {
            drop_prob: 0.03,
            ..FaultPlan::default()
        },
        _ => FaultPlan {
            partitions: vec![Partition {
                boundary: n / 2,
                from_round: 2,
                heal_round: 6,
            }],
            churn: Some(Churn {
                period: 16,
                down: 2,
                stagger: 1,
            }),
            ..FaultPlan::default()
        },
    };
    let cfg = NetConfig::synchronous().with_faults(faults);
    if kind == 1 {
        cfg.with_latency(LOSSY_LATENCY)
    } else {
        cfg
    }
}

fn adversary(protocol: &str, kind: usize, n: usize) -> AdversarySpec {
    let count = n / 10;
    match protocol {
        "aeba" => AdversarySpec::split(count),
        "ae_to_e" => {
            AdversarySpec::none().with_message(MessageAdversary::Forge { count, fake: 666 })
        }
        "tournament" | "everywhere" if kind.is_multiple_of(2) => {
            AdversarySpec::none().with_tree(TreeAttack::WinnerHunter)
        }
        "tournament" | "everywhere" => AdversarySpec::none().with_tree(TreeAttack::StaticThird {
            attack: CommitteeAttack::Oppose,
        }),
        _ => AdversarySpec::crash(count),
    }
}

/// The pass: 24 specs, seeded and ordered by `seed`.
fn specs(seed: u64, trials: u64) -> Vec<RunSpec> {
    let mut list = Vec::new();
    for (make, sizes) in CELLS {
        for (kind, &n) in sizes.iter().enumerate() {
            let spec = make(n);
            let adversary = adversary(spec.protocol.name(), kind, n);
            list.push(
                spec.trials(trials)
                    .seeds(seed_base(seed, 0x300 + list.len() as u64))
                    .net(net(kind, n))
                    .adversary(adversary),
            );
        }
    }
    // Fisher-Yates on the seed: the fan-out sees the cells in an order
    // the seed picks, not always cheapest-first.
    for i in (1..list.len()).rev() {
        list.swap(i, (mix(seed, 0x400 + i as u64) % (i as u64 + 1)) as usize);
    }
    list
}

fn sample(op: u64, wall_s: f64, trials: u64, result: &Result<RunReport, String>) -> OpSample {
    match result {
        Err(e) => OpSample {
            op,
            wall_s,
            trials,
            failed: trials,
            bits_good_max_sum: 0,
            digest: fnv1a(e.as_bytes()),
        },
        Ok(report) => {
            for t in &report.trials {
                super::check_phase_ledger(&t.phase_bits, t.total_bits, "mixed trial");
            }
            OpSample {
                op,
                wall_s,
                trials,
                failed: 0,
                bits_good_max_sum: report.trials.iter().map(|t| t.bits.max).sum(),
                digest: fnv1a(format!("{:?}", report.trials).as_bytes()),
            }
        }
    }
}

/// Runs the workload.
pub fn run(opts: &RunOpts, rec: &mut Recorder) -> RunOut {
    let trials = if opts.smoke { 2 } else { 16 };
    // Set up once: the warm-up pass fills the sampler cache with the
    // roster's own graphs, which a second repetition would find there.
    let (list, setup_s) = repeat_setup(
        opts,
        1,
        |_| {
            let list = specs(opts.seed, trials);
            for spec in &list {
                ba_exp::run(spec).expect("every spec in the pass is valid");
            }
            list
        },
        drop,
    );
    let cycle = list.len() as u64;

    let mut cache = CacheMeter::start();
    let mut ledger = PhaseLedger::default();
    let mut net_ledger = NetLedger::default();
    let mut profile = ProfileAcc::default();
    let (mut rounds, mut events) = (0u64, 0u64);
    let (plain, traced, window_s) = run_window(opts, cycle, cycle, rec, |op, on| {
        let spec = &list[(op % cycle) as usize];
        let trace = if on { Trace::memory() } else { Trace::off() };
        let t = std::time::Instant::now();
        let result = ba_exp::run_traced(spec, &trace);
        let wall_s = t.elapsed().as_secs_f64();
        if op < cycle {
            cache.note();
        }
        if on {
            profile.merge(&trace.profile_snapshot());
            events += trace.take_lines().len() as u64;
            if let (true, Ok(report)) = (op < cycle, &result) {
                for t in &report.trials {
                    ledger.add(&t.phase_bits);
                    net_ledger.add(t.net.as_ref().expect("harness trials carry net stats"));
                    rounds = rounds.max(t.rounds as u64);
                }
            }
        }
        sample(op, wall_s, spec.trials, &result)
    });

    let mut out = RunOut {
        setup_s,
        plain,
        traced,
        window_s,
        counted: cycle,
        ..RunOut::default()
    };
    if !opts.trace {
        return out;
    }

    let layers = &mut out.layers;
    cache.export(layers);
    ledger.export(layers);
    net_ledger.export(layers);
    export_profile(&profile, out.traced.len(), layers);
    layers.insert("core.rounds", rounds as f64);
    layers.insert("obs.events", events as f64);

    // How well the fan-out fills the pool: seconds spent inside trials
    // over the seconds the pool's threads were available for them.
    let threads = ba_par::num_threads() as f64;
    let traced_wall: f64 = out.traced.iter().map(|s| s.wall_s).sum();
    let trial_s = profile
        .entries()
        .find(|(n, _)| *n == "harness:trial")
        .map_or(0.0, |(_, e)| e.secs);
    layers.insert(
        "harness.fanout_efficiency",
        trial_s / (traced_wall * threads).max(f64::MIN_POSITIVE),
    );

    // Each protocol's specs alone: trials over the seconds its own
    // operations took, from the untraced side of the window.
    let mut per_protocol: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for s in &out.plain {
        let spec = &list[(s.op % cycle) as usize];
        let e = per_protocol.entry(spec.protocol.name()).or_default();
        e.0 += s.trials;
        e.1 += s.wall_s;
    }
    for (protocol, (count, secs)) in per_protocol {
        let key = match protocol {
            "flood" => "baselines.trials_per_s.flood",
            "phase_king" => "baselines.trials_per_s.phase_king",
            "ben_or" => "baselines.trials_per_s.ben_or",
            "rabin" => "baselines.trials_per_s.rabin",
            "aeba" => "harness.trials_per_s.aeba",
            "ae_to_e" => "harness.trials_per_s.ae_to_e",
            "tournament" => "harness.trials_per_s.tournament",
            _ => "harness.trials_per_s.everywhere",
        };
        layers.insert(key, count as f64 / secs);
    }

    // The same pass on one lane, in a child process (the pool is sized
    // once per process): how much the fan-out buys on this machine.
    let plain_trials: u64 = out.plain.iter().map(|s| s.trials).sum();
    let plain_wall: f64 = out.plain.iter().map(|s| s.wall_s).sum();
    layers.insert(
        "par.speedup",
        (plain_trials as f64 / plain_wall) / one_lane_trials_per_s(opts),
    );

    // Kernel and build probes at the largest committee stack in the pass.
    let params = Params::practical(96);
    let seed = seed_base(opts.seed, 0x600);
    layers::topology(&params, seed, rec, None, layers);
    layers::sampler_cold(&params, seed, rec, None, layers);
    layers::crypto(&params, opts.seed, layers);
    let sent_per_trial = net_ledger.sent / (cycle * trials);
    layers::event_queue(sent_per_trial, &LOSSY_LATENCY, opts.seed, layers);
    out
}

/// `trials_per_s` of this workload at this seed with `BA_PAR_THREADS=1`:
/// one warm-up pass and one timed pass in a child process.
fn one_lane_trials_per_s(opts: &RunOpts) -> f64 {
    // The child's wall-clock numbers are in the file it writes for a
    // parent, not in its result line.
    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir).expect("creating benchmark/out");
    let sidecar = dir.join(format!("one-lane-{}.json", opts.seed));
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = std::process::Command::new(exe);
    cmd.env("BA_PAR_THREADS", "1")
        .args(["--workload", "trials-mixed-small", "--trace", "0"])
        .args(["--seed", &opts.seed.to_string(), "--seconds", "0"])
        .arg("--sidecar")
        .arg(&sidecar);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().expect("starting the one-lane child");
    assert!(output.status.success(), "one-lane child failed: {output:?}");
    let text = std::fs::read_to_string(&sidecar).expect("the child writes its sidecar");
    std::fs::remove_file(&sidecar).ok();
    crate::json::parse(&text)
        .ok()
        .and_then(|doc| doc.get("timing")?.get("trials_per_s")?.get("value")?.num())
        .expect("the child reports trials_per_s")
}
