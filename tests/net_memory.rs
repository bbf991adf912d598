//! An allocation budget for the faulty-net path: a recipient in the air
//! costs its flight's slot in the queue and its own entry in the flight's
//! survivor list.
//!
//! Over jittered links almost every recipient of a fan gets an arrival
//! tick of its own, so what `NetTransport` keeps per queued recipient is
//! what decides how large a faulty-net run fits in memory. An integration
//! test is its own binary, so this one installs a counting global
//! allocator and bounds the live heap of a round in flight per recipient:
//! the flight's 4-byte slot in the event queue and the recipient's 4-byte
//! entry in the survivor list (which also says where its group ends),
//! plus ≈ 1 byte of flight slab, chunk lists, calendar and at most one
//! partial chunk per arrival tick — 9.0 bytes against a budget of 11. The
//! 12-byte `Handle { flight, start, len }` this replaced reads 16.5 and
//! fails it, as does anything stored beside the slot (an 8-byte entry
//! reads ≈ 13); at 3cfceb9, with keyed 32-byte entries in per-tick
//! buffers, the same round measured 41.5.
//!
//! A round of singles handed over whole (`send_round`, the engine's path)
//! is one flight that *is* the round's buffer: an envelope in the air
//! costs itself, plus its share of one queue entry per arrival tick.

use king_saia::net::{EventQueue, FaultPlan, LatencyModel, NetConfig, NetTransport};
use king_saia::sim::{Envelope, Multicast, ProcId, Transport};
use std::sync::Arc;

mod common;
use common::{Counting, Measuring};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_recipient_in_the_air_costs_its_handle() {
    // The shape of `stack-jitter-256`'s busiest round: fans to everyone
    // over 1 % loss and `Uniform{0,900}` jitter, so a fan's recipients
    // land ≈ one to a tick and a tick holds hundreds of entries.
    let heap = Measuring::begin();
    let (n, fans) = (256, 2048);
    let cfg = NetConfig::synchronous()
        .with_seed(23)
        .with_latency(LatencyModel::Uniform { lo: 0, hi: 900 })
        .with_faults(FaultPlan {
            drop_prob: 0.01,
            ..FaultPlan::default()
        });
    let everyone: Arc<[ProcId]> = (0..n).map(ProcId::new).collect();
    let mut t: NetTransport<u16> = NetTransport::new(n, cfg);
    t.collect_many(0, &mut |_| {});

    let baseline = heap.live();
    for fan in 0..fans {
        t.send_many(
            0,
            Multicast {
                from: ProcId::new(fan % n),
                to: everyone.clone(),
                payload: fan as u16,
            },
        );
    }
    let in_flight = heap.live() - baseline;
    let mut delivered = 0;
    t.collect_many(1, &mut |mc| delivered += mc.to.len());
    let left = heap.live() - baseline;

    assert_eq!(delivered as u64, t.stats().delivered);
    assert_eq!(t.stats().sent, (n * fans) as u64);
    assert!(
        t.stats().dropped() > 0 && delivered * 100 > n * fans * 98,
        "1 % of the round was lost: {:?}",
        t.stats()
    );
    let per_recipient = in_flight as f64 / delivered as f64;
    println!("{in_flight} B live in flight = {per_recipient:.1} B per queued recipient");
    assert!(
        per_recipient <= 11.0,
        "over the budget of 11 B per recipient"
    );
    // The slab, its free list and the scratches stay for the next round;
    // no chunk and no survivor list does.
    println!("{left} B live after the round was collected");
    assert!(left <= delivered, "over 1 B per delivered recipient");
}

#[test]
fn a_single_in_the_air_costs_its_envelope() {
    // An all-to-all round of n = 128, 16 384 singles, as the engine hands
    // it over. Synchronous, the flight is the buffer and one queue entry:
    // 12.0 B an envelope of 12, budget 13. Over `Uniform{0,900}` jitter it
    // is the buffer and one one-event tick (≈ 140 B, see below) for each
    // of the 901 arrival ticks: 19.7 B, budget 20 — and nothing of the
    // 16 B an envelope it was sorted through. A flight and a queue slot
    // an envelope, the path this replaced, read 56.1 and 63.5.
    let heap = Measuring::begin();
    let n = 128;
    let envelope = std::mem::size_of::<Envelope<u16>>();
    // (the net, the budget over an envelope, buffers kept once delivered)
    for (latency, over, spares) in [
        (LatencyModel::Constant(0), 1, 0),
        (LatencyModel::Uniform { lo: 0, hi: 900 }, 8, 1),
    ] {
        let cfg = NetConfig::synchronous()
            .with_seed(23)
            .with_latency(latency.clone());
        let mut t: NetTransport<u16> = NetTransport::new(n, cfg);
        let mut round = Vec::new();
        t.collect_round(0, &mut round);

        let baseline = heap.live();
        round.extend((0..n * n).map(|i| Envelope::new(ProcId::new(i / n), ProcId::new(i % n), 7)));
        round.shrink_to_fit();
        t.send_round(0, &mut round);
        let in_flight = heap.live() - baseline;
        t.collect_round(1, &mut round);
        assert_eq!((round.len(), t.stats().delivered), (n * n, (n * n) as u64));
        drop(round);
        let left = heap.live() - baseline;

        let per_single = in_flight as f64 / (n * n) as f64;
        println!("{latency:?}: {in_flight} B live in flight = {per_single:.1} B per single");
        assert!(
            per_single <= (envelope + over) as f64,
            "over the budget of an envelope ({envelope} B) + {over} B per single"
        );
        // Swapped back whole, a round leaves its slot behind; handed out
        // group by group, also its buffer, to trade for the next round's.
        println!("{left} B live after the round was collected");
        assert!(
            left <= spares * n * n * envelope + 1024,
            "more than a slot and {spares} spare buffers"
        );
    }
}

#[test]
fn a_lone_event_does_not_pay_for_a_chunk() {
    // A sparse calendar — a small n, singles over jitter — is one event a
    // tick: the first chunk of an instant starts at a few entries (16 B
    // for four of the transport's 4-byte slots), in a chunk list of one
    // (32 B), under the instant's share of a half-full calendar node
    // (≈ 92 B): 140 B, budget 154 (what it reads + 10 %). A full 2 KiB
    // first chunk reads over 2 000; four 12-byte handles made it 172, and
    // at 3cfceb9 the four 32-byte entries of a fresh buffer 220.
    let heap = Measuring::begin();
    let mut q: EventQueue<u32, ()> = EventQueue::new();
    let ticks = 900;
    for tick in 1..=ticks {
        q.push(tick, (), tick as u32);
    }
    let per_tick = heap.live() as f64 / ticks as f64;
    println!("{per_tick:.1} B per one-event tick");
    assert!(per_tick <= 154.0, "over the budget of 154 B per tick");
    assert_eq!(q.len(), ticks as usize);
}
