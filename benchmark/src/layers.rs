//! Per-layer measurements taken from outside the crates: spans around
//! their public entry points and timed loops over their kernels, each at
//! the dimensions of the workload that asks.
//!
//! Nothing here changes how the program under test runs. Replays are
//! *attributions*: `Tree::generate` and the gossip-graph builds do run
//! inside `tournament::run`, so timing them alone at the same `Params`
//! says what share of a trial they own; the Shamir and share-tree
//! kernels are priced, not executed, by the tournament, so their numbers
//! describe the kernels at the workload's committee size and are never
//! subtracted from a trial.

use crate::span::{Recorder, SpanId};
use ba_crypto::iterated::{Layer, ShareTree};
use ba_crypto::{shamir, Gf16};
use ba_net::{EventQueue, LatencyModel};
use ba_sampler::RegularGraph;
use ba_sim::{derive_rng, Envelope, Lockstep, Multicast, ProcId, Transport};
use ba_topology::{Params, Tree};
use rand::Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Layer metrics by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Median seconds of `reps` runs of `work`.
fn median_secs(reps: usize, mut work: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            work();
            t.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&samples)
}

/// `topology.*`: one `Tree::generate` at the workload's `Params`,
/// recorded as a child of `parent` (the tournament replay it is part of).
pub fn topology(
    params: &Params,
    seed: u64,
    rec: &mut Recorder,
    parent: Option<SpanId>,
    out: &mut Layers,
) {
    let (tree, _, secs) = rec.time("topology.tree_generate", 0, parent, || {
        Tree::generate(params, seed)
    });
    out.insert("topology.tree_generate_s", secs);
    out.insert("topology.tree_nodes", tree.total_nodes() as f64);
}

/// `sampler.build_cold_s`: the gossip graphs one tournament builds — one
/// committee graph per election node of every level and the root graph
/// over all processors — built through the process-wide cache on keys no
/// run uses, so every request is a miss.
pub fn sampler_cold(
    params: &Params,
    seed: u64,
    rec: &mut Recorder,
    parent: Option<SpanId>,
    out: &mut Layers,
) {
    // Keys are (seed, label) stream identities; this label is the
    // benchmark's own, so the builds can neither hit nor poison the
    // entries trials use.
    const PROBE_LABEL: u64 = 0xBE9C_C01D;
    let n = params.n;
    let ((), _, secs) = rec.time("sampler.build_cold", 0, parent, || {
        let mut key = seed;
        let mut build = |k: usize| {
            let degree = params.aeba_degree.min(k.saturating_sub(1)).max(1);
            if k < 2 {
                return;
            }
            key = key.wrapping_add(1);
            let g = ba_sampler::cache::regular_graph(k, degree, (key, PROBE_LABEL), || {
                let mut rng = derive_rng(key, PROBE_LABEL);
                RegularGraph::random_out_degree(k, degree, &mut rng)
            });
            black_box(g.len());
        };
        for level in 2..params.levels {
            for _ in 0..params.node_count(level) {
                build(params.node_size(level).min(n));
            }
        }
        build(n);
    });
    out.insert("sampler.build_cold_s", secs);
}

/// `crypto.*`: GF(2^16) multiplication, Shamir sharing and
/// reconstruction at the leaf-committee size `k1`, and a replay of the
/// two-layer dealing (`deal` + `sendSecretUp`) and its recovery, once per
/// array a tournament of this size deals (`n * w`, capped so the probe
/// stays under a second).
pub fn crypto(params: &Params, seed: u64, out: &mut Layers) {
    let mut rng = derive_rng(seed, 0x00C4_1970);

    // Independent products over arrays that stay in cache: the kernel's
    // throughput, which is what the batched Shamir evaluation sees.
    const LANES: usize = 4096;
    const SWEEPS: usize = 1000;
    let xs: Vec<Gf16> = (0..LANES).map(|_| Gf16::new(rng.gen())).collect();
    let ys: Vec<Gf16> = (0..LANES).map(|_| Gf16::new(rng.gen())).collect();
    let t = Instant::now();
    let mut acc = Gf16::new(0);
    for _ in 0..SWEEPS {
        for (&x, &y) in black_box(&xs).iter().zip(black_box(&ys)) {
            acc += x * y;
        }
    }
    black_box(acc);
    out.insert(
        "crypto.gf16_mul_ns",
        t.elapsed().as_secs_f64() * 1e9 / (LANES * SWEEPS) as f64,
    );

    let k = params.k1.max(2);
    let threshold = shamir::threshold_for(k);
    let reps = (200_000 / k).max(1);
    let t = Instant::now();
    let mut shares = Vec::new();
    for i in 0..reps {
        shares = shamir::share(Gf16::new(i as u16), k, threshold, &mut rng).expect("k1 < 2^16");
        black_box(&shares);
    }
    out.insert(
        "crypto.shamir_share_ns_per_point",
        t.elapsed().as_secs_f64() * 1e9 / (reps * k) as f64,
    );
    let t = Instant::now();
    for _ in 0..reps {
        black_box(shamir::reconstruct(black_box(&shares)).expect("distinct points"));
    }
    out.insert(
        "crypto.shamir_reconstruct_ns_per_share",
        t.elapsed().as_secs_f64() * 1e9 / (reps * k) as f64,
    );

    let layers = [Layer::majority(k), Layer::majority(k)];
    let deals = (params.n * params.w).min(2048);
    let t = Instant::now();
    let trees: Vec<ShareTree> = (0..deals)
        .map(|i| ShareTree::deal(Gf16::new(i as u16), &layers, &mut rng).expect("valid layers"))
        .collect();
    out.insert("crypto.deal_replay_s", t.elapsed().as_secs_f64());
    out.insert("crypto.deal_count", deals as f64);
    let t = Instant::now();
    for (i, tree) in trees.iter().enumerate() {
        let secret = tree.recover(|_| true).expect("all shares held");
        assert_eq!(secret, Gf16::new(i as u16), "share tree must recover");
    }
    out.insert("crypto.recover_replay_s", t.elapsed().as_secs_f64());
}

/// What a [`Counting`] transport saw.
#[derive(Clone, Copy, Debug, Default)]
pub struct Traffic {
    /// `send` + `send_many` calls: entries the transport queued.
    pub sends: u64,
    /// Logical recipients over all of them.
    pub envelopes: u64,
}

/// A transport that counts what passes through and otherwise is the
/// transport it wraps. Lets the benchmark read message volume off a
/// `Lockstep` run, which keeps no statistics of its own: the executors
/// hand the transport back when they finish.
pub struct Counting<T> {
    inner: T,
    /// What has passed through so far.
    pub seen: Traffic,
}

impl<T> Counting<T> {
    /// Wraps `inner`.
    pub fn new(inner: T) -> Self {
        Counting {
            inner,
            seen: Traffic::default(),
        }
    }

    fn note(&mut self, envelopes: u64) {
        self.seen.sends += 1;
        self.seen.envelopes += envelopes;
    }
}

impl<M: Clone, T: Transport<M>> Transport<M> for Counting<T> {
    fn send(&mut self, round: usize, env: Envelope<M>) {
        self.note(1);
        self.inner.send(round, env);
    }
    fn collect(&mut self, round: usize, deliver: &mut dyn FnMut(Envelope<M>)) {
        self.inner.collect(round, deliver);
    }
    fn send_many(&mut self, round: usize, mc: Multicast<M>) {
        self.note(mc.to.len() as u64);
        self.inner.send_many(round, mc);
    }
    fn collect_many(&mut self, round: usize, deliver: &mut dyn FnMut(Multicast<M>)) {
        self.inner.collect_many(round, deliver);
    }
    fn is_online(&self, round: usize, p: ProcId) -> bool {
        self.inner.is_online(round, p)
    }
    fn is_faulty(&self, round: usize, p: ProcId) -> bool {
        self.inner.is_faulty(round, p)
    }
    fn mark_phase(&mut self, round: usize, name: &str) {
        self.inner.mark_phase(round, name);
    }
}

/// `sim.lockstep_multicast_ns`: `Lockstep::send_many` + `collect_many` of
/// as many committee fans as one trial of the workload queued, each to a
/// committee of the workload's mean fan-out.
pub fn lockstep_multicast(traffic: Traffic, n: usize, out: &mut Layers) {
    let sends = traffic.sends.clamp(1, 2_000_000) as usize;
    let fanout = ((traffic.envelopes / traffic.sends.max(1)) as usize).clamp(1, n);
    let committee: Arc<[ProcId]> = (0..fanout).map(ProcId::new).collect();
    let secs = median_secs(3, || {
        let mut t: Lockstep<u16> = Lockstep::default();
        for i in 0..sends {
            t.send_many(
                0,
                Multicast {
                    from: ProcId::new(i % n),
                    to: Arc::clone(&committee),
                    payload: i as u16,
                },
            );
        }
        let mut delivered = 0usize;
        t.collect_many(1, &mut |mc| delivered += mc.to.len());
        assert_eq!(black_box(delivered), sends * fanout);
    });
    out.insert("sim.lockstep_multicast_ns", secs * 1e9 / sends as f64);
}

/// `net.queue_ns_per_event`: `EventQueue::push` + `drain_due_policy` of
/// one round's worth of the workload's envelopes, arrival times drawn
/// from the workload's latency model.
pub fn event_queue(events_per_round: u64, latency: &LatencyModel, seed: u64, out: &mut Layers) {
    let events = events_per_round.clamp(1, 1_000_000);
    let mut rng = derive_rng(seed, 0x000E_7E47);
    let arrivals: Vec<u64> = (0..events).map(|_| latency.sample(&mut rng)).collect();
    let mut order = derive_rng(seed, ba_net::ORDER_LABEL);
    let secs = median_secs(3, || {
        let mut q: EventQueue<u32> = EventQueue::new();
        for (i, &at) in arrivals.iter().enumerate() {
            q.push(at, i as u64, i as u32);
        }
        let mut drained = 0u64;
        q.drain_due_policy(
            u64::MAX,
            ba_net::DeliveryPolicy::Fifo,
            &mut order,
            &mut |_, v| {
                drained += 1;
                black_box(v);
            },
        );
        assert_eq!(drained, events);
    });
    out.insert("net.queue_ns_per_event", secs * 1e9 / events as f64);
}

/// `loc.<crate>`: non-blank lines of Rust under `crates/<crate>/src`.
pub fn lines_of_code(root: &Path, out: &mut Layers) {
    fn count(dir: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .map(|e| {
                let path = e.path();
                if path.is_dir() {
                    count(&path)
                } else if path.extension().is_some_and(|x| x == "rs") {
                    std::fs::read_to_string(&path)
                        .map(|s| s.lines().filter(|l| !l.trim().is_empty()).count() as u64)
                        .unwrap_or(0)
                } else {
                    0
                }
            })
            .sum()
    }
    for (name, _) in crate::metrics::PER_LAYER {
        if let Some(krate) = name.strip_prefix("loc.") {
            let lines = count(&root.join("crates").join(krate).join("src"));
            out.insert(name, lines as f64);
        }
    }
}
