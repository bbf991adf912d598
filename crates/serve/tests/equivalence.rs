//! The whole outcome, not its wire projection: a trial run over a
//! `SocketFactory` against the client's switch must return the very
//! `TrialOutcome` the in-process `run_trial` returns — every `NetStats`
//! counter and per-phase `sent` / `sent_bits` / `delivered`, every
//! `phase_bits` entry, the bit statistics, level statistics and coins —
//! where the loopback pins compare only the ten fields that cross the
//! wire in an `Outcome` frame. This is what holds the transport's
//! batched overrides to the per-recipient accounting of the expansion
//! they replace.

use ba_exp::{run_trial, run_trial_with_factory, scenario, TrialOutcome};
use ba_net::{NetConfig, ScenarioSpec};
use ba_obs::Trace;
use ba_serve::client::{self, SessionOutcome};
use ba_serve::frame::{Frame, FrameReader, FrameWriter, OutcomeWire};
use ba_serve::{SocketFactory, SocketTransport, WireCounters};
use ba_sim::{Envelope, Multicast, ProcId, Transport};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// Runs `daemon` on the accepted end of a loopback connection whose
/// other end is the client's switch (`run_session` on a thread of its
/// own), then ends the session; returns what both sides saw.
fn with_switch<T>(
    spec_text: &str,
    trial: u64,
    daemon: impl FnOnce(TcpStream) -> T,
) -> (T, SessionOutcome) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let text = spec_text.to_owned();
    let switch = std::thread::spawn(move || client::run_session(&addr, &text, trial));

    let (stream, _) = listener.accept().expect("accept");
    stream.set_nodelay(true).expect("nodelay");
    let open = FrameReader::new(&stream).read_frame().expect("open frame");
    assert_eq!(
        open,
        Frame::Open {
            trial,
            spec: spec_text.to_owned()
        }
    );
    let out = daemon(stream.try_clone().expect("clone"));
    // The switch runs until a terminal frame; what it says is not under
    // test here.
    let terminal = Frame::Outcome(OutcomeWire {
        seed: 0,
        agreement: 0.0,
        decided: 0.0,
        rounds: 0,
        total_bits: 0,
        decided_bit: None,
        valid: None,
        corrupt: 0,
        wire_frames: 0,
        wire_bytes: 0,
    });
    FrameWriter::new(&stream)
        .write_frame(&terminal)
        .expect("outcome frame");
    let session = switch.join().expect("switch thread").expect("session");
    (out, session)
}

/// Runs trial `trial` of `spec_text` the way the daemon's session does —
/// the harness over a `SocketFactory` on the accepted stream — but
/// keeps the whole `TrialOutcome` instead of projecting it onto the
/// wire struct.
fn served(spec_text: &str, trial: u64) -> (TrialOutcome, SessionOutcome) {
    let scn = ScenarioSpec::parse(spec_text).expect("spec parses");
    let spec = scenario::lower(&scn).expect("spec lowers");
    with_switch(spec_text, trial, |stream| {
        let mut factory = SocketFactory::new(stream);
        run_trial_with_factory(&spec, trial, &Trace::off(), &mut factory).expect("served trial")
    })
}

/// Field for field, through `Debug` (every field of `TrialOutcome` and
/// of what it holds is in it, in declaration order, none of it hashed).
fn assert_whole_outcome_matches(spec_text: &str, trial: u64) -> SessionOutcome {
    let (over_socket, session) = served(spec_text, trial);
    let scn = ScenarioSpec::parse(spec_text).expect("spec parses");
    let spec = scenario::lower(&scn).expect("spec lowers");
    let in_process = run_trial(&spec, trial).expect("in-process trial");
    let net = in_process
        .net
        .as_ref()
        .expect("harness trials carry net stats");
    assert!(net.sent > 0 && !in_process.phase_bits.is_empty());
    assert_eq!(
        format!("{over_socket:#?}"),
        format!("{in_process:#?}"),
        "served and in-process outcomes differ"
    );
    session
}

fn spec(protocol: &str, n: usize) -> String {
    format!("name = whole-outcome\nprotocol = {protocol}\nn = {n}\nseed = 3\ninput = split\n")
}

#[test]
fn tournament_is_all_fans_and_matches_in_every_field() {
    for trial in 0..2 {
        let s = assert_whole_outcome_matches(&spec("tournament", 64), trial);
        assert!(s.fan_frames > 0, "the tournament fans");
    }
}

/// Fans (the tournament) and singles (Algorithm 3, engine-hosted) share
/// one socket, and the engine drains it through the plain `collect`.
#[test]
fn everywhere_mixes_fans_and_singles_and_matches_in_every_field() {
    let s = assert_whole_outcome_matches(&spec("everywhere", 64), 0);
    assert!(s.fan_frames > 0, "the tournament phase fans");
    // What the client read besides fans and the outcome is singles and
    // at most one `Collect` a round.
    assert!(
        s.frames_in - 1 - s.fan_frames > 2 * s.outcome.rounds,
        "Algorithm 3 sends singles"
    );
}

/// The two collects over one socket: the plain `collect` expands a fan
/// per recipient in list order, in place among the singles (as
/// `Lockstep::collect` does); `collect_many` hands it over whole, every
/// fan to one committee sharing one list. Both count per recipient.
#[test]
fn a_fan_survives_either_collect_in_emission_order() {
    let p = ProcId::new;
    let committee: Arc<[ProcId]> = [p(4), p(2), p(9)].into_iter().collect();
    let fan = |from, payload| Multicast {
        from: p(from),
        to: Arc::clone(&committee),
        payload,
    };
    let ((), session) = with_switch("(no executor reads this)", 0, |stream| {
        let counters = Arc::new(WireCounters::default());
        let mut t: SocketTransport<u16> =
            SocketTransport::new(stream, NetConfig::default(), Trace::off(), counters)
                .expect("synchronous config");
        t.mark_phase(0, "mixed");

        t.send(0, Envelope::new(p(7), p(0), 100));
        t.send_many(0, fan(1, 200));
        t.send_many(0, fan(3, 0)); // an empty-handed sender still fans
        t.send_many(
            0,
            Multicast {
                from: p(5),
                to: Arc::from([]),
                payload: 1,
            },
        ); // a fan to nobody sends nothing
        t.send(0, Envelope::new(p(7), p(1), 300));
        let mut got = Vec::new();
        t.collect(1, &mut |e| {
            got.push((e.from.index(), e.to.index(), e.payload))
        });
        let want = [
            (7, 0, 100),
            (1, 4, 200),
            (1, 2, 200),
            (1, 9, 200),
            (3, 4, 0),
            (3, 2, 0),
            (3, 9, 0),
            (7, 1, 300),
        ];
        assert_eq!(got, want);

        t.send_many(1, fan(1, 400));
        t.send(1, Envelope::new(p(7), p(0), 500));
        t.send_many(1, fan(2, 600));
        let mut batches = Vec::new();
        t.collect_many(2, &mut |mc| batches.push(mc));
        let shape: Vec<_> = batches
            .iter()
            .map(|mc| (mc.from.index(), mc.to.to_vec(), mc.payload))
            .collect();
        let all = committee.to_vec();
        assert_eq!(
            shape,
            [(1, all.clone(), 400), (7, vec![p(0)], 500), (2, all, 600)]
        );
        assert!(
            Arc::ptr_eq(&batches[0].to, &batches[2].to),
            "fans to one committee share one list"
        );

        use ba_exp::SessionTransport;
        let stats = t.finish().into_stats();
        assert_eq!((stats.sent, stats.delivered), (15, 15));
        let phase = &stats.per_phase[0];
        assert_eq!((phase.sent, phase.delivered), (15, 15));
        assert_eq!(phase.sent_bits, 15 * 16, "bits are charged per recipient");
    });
    assert_eq!(session.fan_frames, 4);
    assert_eq!(session.payload_bits, 15 * 16);
    assert_eq!(session.payload_bytes, 7 * 2, "a fan's payload crosses once");
}

#[test]
fn aeba_is_all_singles_and_matches_in_every_field() {
    for trial in 0..2 {
        let s = assert_whole_outcome_matches(&spec("aeba", 32), trial);
        assert_eq!(s.fan_frames, 0, "engine-hosted protocols send singles");
    }
}

/// A configured timetable — `00-baseline-sync.scn`'s — buckets alike on
/// both carriers, its catch-all included: `aeba` runs 30 rounds, past
/// the schedule's 26.
#[test]
fn a_configured_schedule_matches_in_every_field_past_its_end() {
    let text = spec("aeba", 32) + "phases = early:8, mid:8, late:10\n";
    assert_whole_outcome_matches(&text, 0);
    let spec = scenario::lower(&ScenarioSpec::parse(&text).expect("spec parses")).expect("lowers");
    let net = run_trial(&spec, 0).expect("trial").net.expect("net stats");
    let names: Vec<&str> = net.per_phase.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names[..3], ["early", "mid", "late"]);
    assert_eq!(names.len(), 4, "the schedule's phases, then the catch-all");
    assert!(
        net.per_phase.iter().all(|p| p.sent > 0),
        "{:?}",
        net.per_phase
    );
}
