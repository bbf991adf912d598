//! The engine's contract, pinned: *which* envelopes each processor reads
//! each round and *in what order*, what the adversary intercepts, and
//! every counter the run leaves behind — not just the protocol outcomes
//! that happen to depend on them.
//!
//! A [`Recorder`] processor folds every round's `(from, payload)`
//! sequence into a digest and emits a few sends drawn from its private
//! coin, so any change to inbox order, to who is stepped, or to how often
//! a stream is drawn shows up in the digests. The golden lines were
//! recorded at c7c2ae9 (per-processor owned inboxes, per-envelope
//! hand-off) by running this same file in a copy of that commit.

use king_saia::net::{
    Churn, Crash, DeliveryPolicy, FaultPlan, LatencyModel, NetConfig, NetTransport,
};
use king_saia::sim::{
    AdvAction, AdvView, Adversary, Envelope, Lockstep, Metrics, NullAdversary, ProcId, Process,
    RoundCtx, Schedule, SimBuilder, SimRng, Transport,
};
use rand::Rng;
use std::cell::Cell;
use std::rc::Rc;

const N: usize = 24;
/// Rounds in which recorders still emit; they decide four rounds later,
/// once late deliveries have had time to land.
const TALK: usize = 10;
const ROUNDS: usize = TALK + 4;

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Payloads of two wire sizes (1 and 17 bits), so bit counters tell
/// messages apart.
type Msg = Option<u16>;

struct Recorder {
    digest: u64,
    done: bool,
}

impl Process for Recorder {
    type Msg = Msg;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Msg>, inbox: &[Envelope<Msg>]) {
        fnv(&mut self.digest, ctx.round() as u64);
        for e in inbox {
            assert_eq!(e.to, ctx.me(), "an inbox holds only its owner's mail");
            fnv(&mut self.digest, e.from.index() as u64);
            fnv(&mut self.digest, e.payload.map_or(1 << 20, u64::from));
        }
        if ctx.round() < TALK {
            for _ in 0..ctx.rng().gen_range(0..5u8) {
                let to = ProcId::new(ctx.rng().gen_range(0..N));
                let payload = ctx.rng().gen_bool(0.7).then(|| ctx.rng().gen());
                ctx.send(to, payload);
            }
        }
        self.done = ctx.round() + 1 >= ROUNDS;
    }

    fn output(&self) -> Option<u64> {
        self.done.then_some(self.digest)
    }
}

/// Corrupts three processors in three different rounds (suppressing what
/// two of them had just emitted), folds everything it intercepts into a
/// digest of its own, and injects from its coin — from good senders too,
/// which the engine must refuse.
struct Meddler {
    seen: Rc<Cell<u64>>,
}

impl Adversary<Recorder> for Meddler {
    fn act(&mut self, view: &AdvView<'_, Recorder>, rng: &mut SimRng) -> AdvAction<Msg> {
        let mut seen = self.seen.get();
        for e in view.intercepted() {
            fnv(&mut seen, view.round() as u64);
            fnv(&mut seen, e.from.index() as u64);
            fnv(&mut seen, e.to.index() as u64);
            fnv(&mut seen, e.payload.map_or(1 << 20, u64::from));
        }
        self.seen.set(seen);
        let mut action = AdvAction::none();
        match view.round() {
            1 => action.corrupt = vec![ProcId::new(5)],
            3 => {
                action.corrupt = vec![ProcId::new(11)];
                action.drop_pending_from = vec![ProcId::new(11), ProcId::new(2)];
            }
            6 => {
                action.corrupt = vec![ProcId::new(17), ProcId::new(18)]; // budget is 3
                action.drop_pending_from = vec![ProcId::new(17)];
            }
            _ => {}
        }
        for _ in 0..rng.gen_range(0..7u8) {
            let from = ProcId::new(rng.gen_range(0..N));
            let to = ProcId::new(rng.gen_range(0..N));
            action.inject.push(Envelope::new(from, to, Some(rng.gen())));
        }
        action
    }
}

fn metrics_digest(m: &Metrics, rounds: usize) -> String {
    let (mut sent, mut received, mut by_round) = (0u64, 0u64, 0u64);
    for i in 0..N {
        fnv(&mut sent, m.bits_sent_by(ProcId::new(i)));
        fnv(&mut sent, m.msgs_sent_by(ProcId::new(i)));
        fnv(&mut received, m.bits_received_by(ProcId::new(i)));
    }
    for r in 0..rounds {
        fnv(&mut by_round, m.bits_in_round(r));
    }
    format!(
        "bits={} msgs={} sent={sent:016x} received={received:016x} by_round={by_round:016x}",
        m.total_bits(),
        m.total_msgs()
    )
}

/// One run, rendered: rounds, the recorders' digests, the corruption and
/// crash flags, and the metrics.
fn record<A, T>(seed: u64, adversary: A, transport: T) -> (String, T)
where
    A: Adversary<Recorder>,
    T: Transport<Msg>,
{
    let make = |_, _| Recorder {
        digest: 0,
        done: false,
    };
    let (out, transport) = SimBuilder::new(N)
        .seed(seed)
        .max_corruptions(3)
        .flood_cap(4)
        .build_with_transport(make, adversary, transport)
        .run_parts(ROUNDS + 2);
    let mut outputs = 0u64;
    for (i, o) in out.outputs.iter().enumerate() {
        fnv(&mut outputs, i as u64);
        fnv(&mut outputs, o.map_or(7, |d| d));
    }
    let flags = |v: &[bool]| -> String { v.iter().map(|&b| if b { '1' } else { '.' }).collect() };
    let line = format!(
        "rounds={} outputs={outputs:016x} corrupt={} faulty={} {}",
        out.rounds,
        flags(&out.corrupt),
        flags(&out.faulty),
        metrics_digest(&out.metrics, out.rounds)
    );
    (line, transport)
}

fn faulty_net(policy: DeliveryPolicy) -> NetTransport<Msg> {
    // A timetable shorter than the run, so `per_phase` has two named
    // buckets and the past-schedule one.
    let mut schedule = Schedule::new();
    schedule.push("early", 4);
    schedule.push("late", 5);
    let cfg = NetConfig {
        delta: 100,
        ..NetConfig::synchronous()
    }
    .with_seed(41)
    .with_latency(LatencyModel::Uniform { lo: 0, hi: 260 })
    .with_ordering(policy)
    .with_schedule(schedule)
    .with_faults(FaultPlan {
        drop_prob: 0.03,
        crashes: vec![Crash { proc: 9, round: 4 }],
        churn: Some(Churn {
            period: 5,
            down: 1,
            stagger: 2,
        }),
        ..FaultPlan::default()
    });
    NetTransport::new(N, cfg)
}

/// The transport's statistics: the headline counters in clear, and every
/// field (`per_phase` included) through the `Debug` rendering's digest.
fn net_line(transport: NetTransport<Msg>) -> String {
    let stats = transport.into_stats();
    let mut all = 0u64;
    for b in format!("{stats:?}").bytes() {
        fnv(&mut all, u64::from(b));
    }
    format!(
        "net sent={} delivered={} late={} dropped={} dead_letters={} all={all:016x}",
        stats.sent, stats.delivered, stats.late, stats.dropped_random, stats.dead_letters
    )
}

/// [`record`] under the [`Meddler`], with what it intercepted appended.
fn meddle<T: Transport<Msg>>(transport: T) -> (String, T) {
    let seen = Rc::new(Cell::new(0));
    let meddler = Meddler { seen: seen.clone() };
    let (line, transport) = record(5, meddler, transport);
    (format!("{line} seen={:016x}", seen.get()), transport)
}

/// Every scenario, one line each (a faulty-net scenario adds its
/// [`net_line`]).
fn scenarios() -> Vec<String> {
    let mut lines = vec![record(3, NullAdversary, Lockstep::default()).0];
    for policy in [
        DeliveryPolicy::Fifo,
        DeliveryPolicy::AdversarialLifo,
        DeliveryPolicy::Shuffle,
    ] {
        let (line, transport) = record(3, NullAdversary, faulty_net(policy));
        lines.push(line);
        lines.push(net_line(transport));
    }
    lines.push(meddle(Lockstep::default()).0);
    let (line, transport) = meddle(faulty_net(DeliveryPolicy::Shuffle));
    lines.push(line);
    lines.push(net_line(transport));
    lines
}

/// To re-record after a change that is *meant* to move these, run with
/// `--nocapture`: every line is printed before it is compared.
#[test]
fn inbox_order_adversary_view_and_counters_are_pinned() {
    let lines = scenarios();
    for line in &lines {
        println!("{line}");
    }
    let golden: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(lines.len(), golden.len());
    for (i, (line, golden)) in lines.iter().zip(golden).enumerate() {
        assert_eq!(line, golden, "line {i}");
    }
}

const GOLDEN: &str = "\
rounds=14 outputs=e8c8dae3edfa2eab corrupt=........................ faulty=........................ bits=5868 msgs=492 sent=917f8ff7e138d930 received=d3b1e9f92d9d0029 by_round=98c2556a0eb2be6d\n\
rounds=15 outputs=deb4a860be3099e1 corrupt=........................ faulty=.........1.............. bits=4725 msgs=389 sent=397c39f44de85478 received=1a83b4e46f6e8081 by_round=2d718cf1b5c9f3bd\n\
net sent=389 delivered=379 late=250 dropped=10 dead_letters=80 all=72824ee6793333fc\n\
rounds=15 outputs=b1c130ee4b22dbc7 corrupt=........................ faulty=.........1.............. bits=4725 msgs=389 sent=397c39f44de85478 received=1a83b4e46f6e8081 by_round=2d718cf1b5c9f3bd\n\
net sent=389 delivered=379 late=250 dropped=10 dead_letters=80 all=72824ee6793333fc\n\
rounds=15 outputs=ad951a6afe880ef2 corrupt=........................ faulty=.........1.............. bits=4725 msgs=389 sent=397c39f44de85478 received=1a83b4e46f6e8081 by_round=2d718cf1b5c9f3bd\n\
net sent=389 delivered=379 late=250 dropped=10 dead_letters=80 all=72824ee6793333fc\n\
rounds=14 outputs=4c712a7e26f043b3 corrupt=.....1.....1.....1...... faulty=........................ bits=5468 msgs=444 sent=7edc12a242c79ddc received=86980e222a00731c by_round=c04ef387acf6dda7 seen=1e152c9001894479\n\
rounds=15 outputs=1b84e14d2092a5f2 corrupt=.....1.....1.....1...... faulty=.........1.............. bits=4090 msgs=330 sent=5c517ffddaee7ef7 received=00631c5e15968e80 by_round=d8128ec16d39ab5e seen=c1b47792f852e8ca\n\
net sent=330 delivered=320 late=213 dropped=9 dead_letters=67 all=ac525fcd81a73ed1\n\
";
