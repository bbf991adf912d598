//! Criterion micro-benchmarks for the protocol's hot primitives:
//! field arithmetic, Shamir share/reconstruct, iterated dealing,
//! sampler and regular-graph construction, the lightest-bin election
//! and an election's input views, one committee-agreement execution, and
//! one Algorithm-3 loop.

use ba_core::ae_to_e::{AeToEConfig, AeToEProcess};
use ba_core::aeba::{run_committee, AebaConfig, CommitteeAttack};
use ba_core::election::lightest_bin;
use ba_core::tournament::InputViews;
use ba_crypto::iterated::{Layer, ShareTree};
use ba_crypto::{shamir, Gf16};
use ba_sampler::{RegularGraph, Sampler};
use ba_sim::{derive_rng, NullAdversary, SimBuilder};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::Rng;

fn bench_gf(c: &mut Criterion) {
    let mut g = c.benchmark_group("gf16");
    let a = Gf16::new(0x1234);
    let b = Gf16::new(0xABCD);
    // Table kernel vs. the retained shift-and-xor / Fermat reference.
    g.bench_function("mul", |bch| bch.iter(|| black_box(a) * black_box(b)));
    g.bench_function("mul_ref", |bch| {
        bch.iter(|| black_box(a).mul_ref(black_box(b)))
    });
    g.bench_function("inv", |bch| bch.iter(|| black_box(a).inv()));
    g.bench_function("inv_ref", |bch| bch.iter(|| black_box(a).inv_ref()));
    g.bench_function("pow", |bch| {
        bch.iter(|| black_box(a).pow(black_box(0xBEEF)))
    });
    g.bench_function("pow_ref", |bch| {
        bch.iter(|| black_box(a).pow_ref(black_box(0xBEEF)))
    });
    let batch: Vec<Gf16> = (1..=256u16).map(Gf16::new).collect();
    g.bench_function("batch_inv_256", |bch| {
        bch.iter(|| {
            let mut xs = batch.clone();
            Gf16::batch_inv(&mut xs);
            xs
        })
    });
    g.finish();
}

/// Pre-PR reconstruction: naive Lagrange over the reference kernel, one
/// Fermat inversion per share — the "before" side of `shamir/reconstruct`.
fn reconstruct_ref(shares: &[ba_crypto::Share]) -> Gf16 {
    let mut acc = Gf16::ZERO;
    for (i, si) in shares.iter().enumerate() {
        let mut num = Gf16::ONE;
        let mut den = Gf16::ONE;
        for (j, sj) in shares.iter().enumerate() {
            if i != j {
                num = num.mul_ref(sj.x);
                den = den.mul_ref(sj.x - si.x);
            }
        }
        let li = num.mul_ref(den.inv_ref().expect("distinct points"));
        acc += si.y.mul_ref(li);
    }
    acc
}

fn bench_shamir(c: &mut Criterion) {
    let mut g = c.benchmark_group("shamir");
    let mut rng = derive_rng(1, 1);
    let secret = Gf16::new(0xFEED);
    for &n in &[16usize, 64, 256] {
        let t = shamir::threshold_for(n);
        g.bench_function(format!("share_n{n}"), |bch| {
            bch.iter(|| shamir::share(black_box(secret), n, t, &mut rng).unwrap())
        });
        let shares = shamir::share(secret, n, t, &mut rng).unwrap();
        g.bench_function(format!("reconstruct_n{n}"), |bch| {
            bch.iter(|| shamir::reconstruct(black_box(&shares[..t + 1])).unwrap())
        });
        g.bench_function(format!("reconstruct_ref_n{n}"), |bch| {
            bch.iter(|| reconstruct_ref(black_box(&shares[..t + 1])))
        });
    }
    // Amortized word-sequence reconstruction: weights computed once for a
    // 64-word payload shared among 64 holders.
    let words: Vec<Gf16> = (0..64u16)
        .map(|i| Gf16::new(i.wrapping_mul(0x2525)))
        .collect();
    let holders = shamir::share_words(&words, 64, shamir::threshold_for(64), &mut rng).unwrap();
    let quorum = &holders[..shamir::threshold_for(64) + 1];
    g.bench_function("reconstruct_batch_64x64", |bch| {
        bch.iter(|| shamir::reconstruct_words(black_box(quorum)).unwrap())
    });
    g.finish();
}

fn bench_sharetree(c: &mut Criterion) {
    let mut g = c.benchmark_group("sharetree");
    let mut rng = derive_rng(9, 9);
    for depth in [2usize, 3] {
        let layers = vec![Layer::majority(8); depth];
        let tree = ShareTree::deal(Gf16::new(0xD00D), &layers, &mut rng).unwrap();
        g.bench_function(format!("recover_depth{depth}"), |bch| {
            bch.iter(|| tree.recover(|_| true))
        });
        g.bench_function(format!("recover_quorum_depth{depth}"), |bch| {
            bch.iter(|| tree.recover(|p| p.iter().all(|&i| i <= 4)))
        });
    }
    g.finish();
}

fn bench_iterated(c: &mut Criterion) {
    let mut g = c.benchmark_group("iterated");
    let mut rng = derive_rng(2, 2);
    for depth in [1usize, 2, 3] {
        let layers = vec![Layer::majority(8); depth];
        g.bench_function(format!("deal_depth{depth}"), |bch| {
            bch.iter(|| ShareTree::deal(black_box(Gf16::new(7)), &layers, &mut rng).unwrap())
        });
        let tree = ShareTree::deal(Gf16::new(7), &layers, &mut rng).unwrap();
        g.bench_function(format!("recover_depth{depth}"), |bch| {
            bch.iter(|| tree.recover(|_| true))
        });
    }
    g.finish();
}

fn bench_sampler(c: &mut Criterion) {
    let mut g = c.benchmark_group("sampler");
    let mut rng = derive_rng(3, 3);
    g.bench_function("random_1024x24", |bch| {
        bch.iter(|| Sampler::random(1024, 1024, 24, &mut rng))
    });
    g.bench_function("regular_graph_1024_d60", |bch| {
        bch.iter(|| RegularGraph::random_out_degree(1024, 60, &mut rng))
    });
    g.finish();
}

fn bench_election(c: &mut Criterion) {
    let mut g = c.benchmark_group("election");
    let mut rng = derive_rng(4, 4);
    for r in [8usize, 64, 512] {
        let bins = (r / 4).max(2);
        let choices: Vec<u16> = (0..r).map(|_| rng.gen_range(0..bins as u16)).collect();
        g.bench_function(format!("lightest_bin_r{r}"), |bch| {
            bch.iter(|| lightest_bin(black_box(&choices), bins, (r / bins).max(1)))
        });
    }
    // The members' views of one candidate's 4-bit bin choice in a
    // top-level election committee: one keyed stream set up, 16 384
    // member draws off it (divide by that for the cost a member; it was
    // a ChaCha block and a key set-up each).
    let saw = vec![true; 4096];
    g.bench_function("input_views_k4096_b4", |bch| {
        bch.iter(|| {
            let mut views = InputViews::new(black_box(4), 6, 1, 3, 0.02);
            (0..4)
                .map(|bit| views.next_bit(bit % 2 == 0, black_box(&saw), true))
                .collect::<Vec<_>>()
        })
    });
    g.finish();
}

fn bench_committee(c: &mut Criterion) {
    let mut g = c.benchmark_group("committee_agreement");
    g.sample_size(20);
    let mut rng = derive_rng(5, 5);
    for k in [32usize, 128] {
        let degree = (6.0 * (k as f64).sqrt()).ceil() as usize;
        let graph = RegularGraph::random_out_degree(k, degree.min(k - 1), &mut rng);
        let good: Vec<bool> = (0..k).map(|i| i % 5 != 0).collect();
        let inputs: Vec<bool> = (0..k).map(|i| i % 2 == 0).collect();
        g.bench_function(format!("k{k}_20rounds"), |bch| {
            bch.iter(|| {
                run_committee(
                    &good,
                    &inputs,
                    &graph,
                    |i, r| (i + r) % 2 == 0,
                    20,
                    &AebaConfig::default(),
                    CommitteeAttack::Oppose,
                    &mut rng,
                )
            })
        });
    }
    // Both sides of what the kernel's cost depends on, at the size of a
    // top-level election committee: all but 2 % of an honest committee
    // agreeing (what the tournament runs almost always; settles in two
    // rounds), and its worst case, a 50/50 committee that an `Oppose`
    // quarter and a round-dependent coin keep from settling.
    let k = 4096;
    let graph = RegularGraph::random_out_degree(k, 48, &mut rng);
    let shapes: [(&str, Vec<bool>, Vec<bool>, CommitteeAttack); 2] = [
        (
            "k4096_d48_2pct_dissent",
            vec![true; k],
            (0..k).map(|i| i % 50 != 7).collect(),
            CommitteeAttack::Passive,
        ),
        (
            "k4096_d48_split",
            (0..k).map(|i| i % 4 != 1).collect(),
            (0..k).map(|i| i % 2 == 0).collect(),
            CommitteeAttack::Oppose,
        ),
    ];
    for (name, good, inputs, attack) in &shapes {
        g.bench_function(*name, |bch| {
            bch.iter(|| {
                run_committee(
                    good,
                    inputs,
                    &graph,
                    |i, r| (i + r) % 2 == 0,
                    12,
                    &AebaConfig::default(),
                    *attack,
                    &mut rng,
                )
            })
        });
    }
    g.finish();
}

fn bench_ae_to_e(c: &mut Criterion) {
    let mut g = c.benchmark_group("ae_to_e");
    g.sample_size(10);
    for n in [64usize, 256] {
        g.bench_function(format!("full_run_n{n}"), |bch| {
            bch.iter(|| {
                let cfg = AeToEConfig::for_n(n, 0.1);
                let rounds = cfg.total_rounds();
                SimBuilder::new(n)
                    .seed(7)
                    .build(
                        |p, _| AeToEProcess::new(cfg.clone(), (p.index() < 2 * n / 3).then_some(5)),
                        NullAdversary,
                    )
                    .run(rounds + 1)
            })
        });
    }
    g.finish();
}

/// The ba-net event queue: batched same-instant drains vs. one pop per
/// event, on the arrival shapes the transport produces — a synchronous
/// round burst (every message due at one tick), a sparse jittery-link
/// spread (a couple of arrivals a tick over the round window) and a dense
/// one (thousands a tick) — and on instants farther apart than the ring's
/// window, which only the overflow side serves.
fn bench_event_queue(c: &mut Criterion) {
    use ba_net::EventQueue;

    let mut g = c.benchmark_group("event_queue");
    let n = 4096u64;

    // One round burst: everything lands on the same arrival tick.
    g.bench_function("burst_drain_due", |bch| {
        bch.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.push(1_000, i, i);
            }
            let mut acc = 0u64;
            q.drain_due(1_000, &mut |_, v| acc += v);
            acc
        })
    });
    g.bench_function("burst_pop_due", |bch| {
        bch.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.push(1_000, i, i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop_due(1_000) {
                acc += v;
            }
            acc
        })
    });

    // Jittery links: arrivals spread over the round window (pseudo-random
    // but fixed, so both sides drain the identical multiset).
    let jitter: Vec<u64> = (0..n).map(|i| (i * 2_654_435_761) % 1_800).collect();
    g.bench_function("jitter_drain_due", |bch| {
        bch.iter(|| {
            let mut q = EventQueue::new();
            for (i, &d) in jitter.iter().enumerate() {
                q.push(1_000 + d, i as u64, i as u64);
            }
            let mut acc = 0u64;
            q.drain_due(3_000, &mut |_, v| acc += v);
            acc
        })
    });
    g.bench_function("jitter_pop_due", |bch| {
        bch.iter(|| {
            let mut q = EventQueue::new();
            for (i, &d) in jitter.iter().enumerate() {
                q.push(1_000 + d, i as u64, i as u64);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop_due(3_000) {
                acc += v;
            }
            acc
        })
    });

    // The regime `stack-jitter-256` is in: one `L*:winners` round, 8 836
    // fans of 256 recipients (2.26 M eight-byte `(flight, recipient)`
    // entries) over the 901 ticks of `Uniform{0,900}`, pushed as the
    // transport pushes them — fan after fan, each fan's recipients in
    // recipient order straight into their arrival ticks, no sort and no
    // tie key — then drained at the next round boundary: ≈ 2 500 events a
    // tick, not 2.
    let dense: Vec<u64> = (0..8_836u64 * 256)
        .map(|i| (i * 2_654_435_761) % 901)
        .collect();
    g.bench_function("dense_jitter_drain_due", |bch| {
        bch.iter(|| {
            let mut q: EventQueue<(u32, u32), ()> = EventQueue::new();
            for (i, &d) in dense.iter().enumerate() {
                q.push(1_000 + d, (), ((i / 256) as u32, (i % 256) as u32));
            }
            let mut acc = 0u64;
            q.drain_due(2_000, &mut |_, (fan, to)| acc += u64::from(fan ^ to));
            acc
        })
    });

    // Instants 3 000 ticks apart, wider than the ring's window: every
    // push after the first waits in the overflow, and every drain step
    // slides the window onto the next instant.
    g.bench_function("far_apart_drain_due", |bch| {
        bch.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.push(1_000 + (i * 7 % n) * 3_000, (), i);
            }
            let mut acc = 0u64;
            q.drain_due(u64::MAX, &mut |_, v| acc += v);
            acc
        })
    });
    g.finish();
}

/// `NetTransport`'s slow path in the shape of `stack-jitter-256`'s busiest
/// round (and of `tests/net_memory.rs`): 2 048 fans to 256 recipients over
/// 1 % loss and `Uniform{0,900}`, so a fan's recipients land ≈ one to a
/// tick. An iteration is 524 288 recipients: divide by that for ns a
/// recipient. `_send` is the send side alone — the draws and one push per
/// survivor, in recipient order straight into its arrival tick, no sort —
/// on a fresh transport that is dropped full; the other row sends a round
/// into a warm transport and drains it at the next boundary through
/// `collect_lent`, as the tournament does (each instant's runs of one fan
/// rebuilt as groups and lent as slices).
fn bench_net(c: &mut Criterion) {
    use ba_net::NetTransport;
    use ba_sim::{Multicast, ProcId, Transport};
    use std::sync::Arc;

    let (n, fans) = (256usize, 2_048usize);
    let cfg = ba_bench::jitter_net(23);
    let everyone: Arc<[ProcId]> = (0..n).map(ProcId::new).collect();
    let send_round = |t: &mut NetTransport<u16>, round: usize| {
        for fan in 0..fans {
            t.send_many(
                round,
                Multicast {
                    from: ProcId::new(fan % n),
                    to: everyone.clone(),
                    payload: fan as u16,
                },
            );
        }
    };

    let mut g = c.benchmark_group("net");
    g.sample_size(10);
    g.bench_function("jittered_fan_256_send", |bch| {
        bch.iter(|| {
            let mut t = NetTransport::new(n, cfg.clone());
            send_round(&mut t, 0);
            t.stats().sent
        })
    });
    let mut t = NetTransport::new(n, cfg.clone());
    let mut round = 0;
    g.bench_function("jittered_fan_256", |bch| {
        bch.iter(|| {
            send_round(&mut t, round);
            round += 1;
            let mut delivered = 0usize;
            t.collect_lent(round, &mut |_, to, _| delivered += to.len());
            delivered
        })
    });
    g.finish();
}

/// The engine's path through `NetTransport`: an all-to-all round of
/// n = 128 handed over whole and read back whole at the next boundary,
/// the two buffers trading places as `Sim::step`'s do, on a warm
/// transport. An iteration is 16 384 envelopes (and one 196 KB copy to
/// refill the round): divide by that for ns an envelope. Synchronous, the
/// round is swapped in and out; under a standing partition and churn it
/// is filtered and scanned for dead letters; over `stack-jitter-256`'s
/// net (1 % loss, `Uniform{0,900}`) it is two draws an envelope, a sort
/// and a queue entry a tick.
fn bench_round_of_singles(c: &mut Criterion) {
    use ba_net::{Churn, FaultPlan, NetConfig, NetTransport, Partition};
    use ba_sim::{Envelope, ProcId, Transport};

    let n = 128usize;
    let template: Vec<Envelope<u16>> = (0..n * n)
        .map(|i| Envelope::new(ProcId::new(i / n), ProcId::new(i % n), i as u16))
        .collect();
    let cut_and_churn = NetConfig::synchronous().with_faults(FaultPlan {
        partitions: vec![Partition {
            boundary: n / 2,
            from_round: 0,
            heal_round: usize::MAX,
        }],
        churn: Some(Churn {
            period: 9,
            down: 2,
            stagger: 1,
        }),
        ..FaultPlan::default()
    });
    let mut g = c.benchmark_group("net");
    g.sample_size(10);
    for (name, cfg) in [
        ("round_of_singles_sync_128", NetConfig::synchronous()),
        ("round_of_singles_partition_churn_128", cut_and_churn),
        ("round_of_singles_jitter_128", ba_bench::jitter_net(23)),
    ] {
        let mut t: NetTransport<u16> = NetTransport::new(n, cfg);
        let (mut pending, mut arrivals) = (Vec::new(), Vec::new());
        let mut round = 0;
        g.bench_function(name, |bch| {
            bch.iter(|| {
                pending.extend_from_slice(&template);
                t.send_round(round, &mut pending);
                round += 1;
                arrivals.clear();
                std::mem::swap(&mut arrivals, &mut pending);
                t.collect_round(round, &mut arrivals);
                arrivals.len()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_gf,
    bench_shamir,
    bench_sharetree,
    bench_iterated,
    bench_sampler,
    bench_election,
    bench_committee,
    bench_ae_to_e,
    bench_event_queue,
    bench_net,
    bench_round_of_singles
);
criterion_main!(benches);
