//! Loopback pins: a served session over real TCP on 127.0.0.1 must be
//! outcome-identical, per seed, to the in-process run of the same spec —
//! and the bytes observed on the wire must match the model's CostModel
//! accounting within the documented framing overhead.

use ba_exp::{run_trial, scenario};
use ba_serve::client;
use ba_serve::frame::{Frame, FrameReader, DATA_FRAME_OVERHEAD, FAN_FRAME_OVERHEAD};
use ba_serve::{ClientError, ServeSummary, Server, ServerOpts};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

const FLOOD_SPEC: &str = "\
name     = loopback-flood
protocol = flood
n        = 16
trials   = 3
seed     = 7
";

const TOURNAMENT_SPEC: &str = "\
name     = loopback-tournament
protocol = tournament
n        = 64
trials   = 1
seed     = 1
";

/// Starts a daemon on an ephemeral loopback port; returns its address
/// and the join handle yielding the drain summary.
fn start_server(opts: ServerOpts) -> (String, std::thread::JoinHandle<ServeSummary>) {
    let server = Server::bind("127.0.0.1:0", opts).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// One served trial vs the same trial in-process: every outcome field
/// that crosses the wire must match exactly.
fn assert_outcome_equivalent(addr: &str, spec_text: &str, trial: u64) -> client::SessionOutcome {
    let served = client::run_session(addr, spec_text, trial).expect("served session");
    let spec = scenario::parse_one(spec_text).expect("spec parses").spec;
    let local = run_trial(&spec, trial).expect("in-process trial");

    assert_eq!(served.outcome.seed, local.seed, "seed (trial {trial})");
    assert_eq!(
        served.outcome.agreement, local.agreement,
        "agreement (trial {trial})"
    );
    assert_eq!(
        served.outcome.decided, local.decided,
        "decided (trial {trial})"
    );
    assert_eq!(
        served.outcome.rounds, local.rounds as u64,
        "rounds (trial {trial})"
    );
    assert_eq!(
        served.outcome.total_bits, local.total_bits,
        "total_bits (trial {trial})"
    );
    assert_eq!(
        served.outcome.decided_bit, local.decided_bit,
        "decided_bit (trial {trial})"
    );
    assert_eq!(served.outcome.valid, local.valid, "valid (trial {trial})");
    assert_eq!(
        served.outcome.corrupt,
        local.corrupt.iter().filter(|&&c| c).count() as u64,
        "corrupt count (trial {trial})"
    );
    served
}

/// The two independent byte counters — client-side and server-side —
/// must describe the same conversation: the server's data-frame bytes
/// are everything the client saw minus the Open it sent and the Outcome
/// it received.
fn assert_counters_consistent(s: &client::SessionOutcome, spec_text: &str, trial: u64) {
    let open_len = Frame::Open {
        trial,
        spec: spec_text.to_owned(),
    }
    .to_bytes()
    .len() as u64;
    let outcome_len = Frame::Outcome(s.outcome.clone()).to_bytes().len() as u64;
    assert_eq!(
        s.outcome.wire_bytes,
        (s.bytes_in - outcome_len) + (s.bytes_out - open_len),
        "server and client disagree on wire bytes"
    );
    assert_eq!(
        s.outcome.wire_frames,
        (s.frames_in - 1) + (s.frames_out - 1)
    );
}

#[test]
fn flood_outcomes_match_in_process_and_bytes_match_cost_model() {
    let (addr, handle) = start_server(ServerOpts::default());
    for trial in 0..3u64 {
        let served = assert_outcome_equivalent(&addr, FLOOD_SPEC, trial);
        assert_eq!(
            served.outcome.seed,
            7 + trial,
            "seed derives as base + trial"
        );
        assert_counters_consistent(&served, FLOOD_SPEC, trial);

        // Exact CostModel link: every FloodMsg is 1 model bit and 1
        // payload byte, so the conversation's data bytes are fully
        // determined by the in-process transport statistics.
        let spec = scenario::parse_one(FLOOD_SPEC).expect("spec parses").spec;
        let local = run_trial(&spec, trial).expect("in-process trial");
        let net = local.net.as_ref().expect("flood trial has net stats");
        let sends = net.sent;
        let delivers = net.delivered;
        assert_eq!(
            served.payload_bits, sends,
            "client-observed model bits = in-process envelopes x 1 bit"
        );
        // frames_in = sends + collects + outcome; each collect is
        // answered by exactly one round-done frame.
        let collects = s_collects(&served, sends);
        let control_frame_len = Frame::Collect { round: 0 }.to_bytes().len() as u64;
        let expected =
            (sends + delivers) * (DATA_FRAME_OVERHEAD + 1) + 2 * collects * control_frame_len;
        assert_eq!(
            served.outcome.wire_bytes, expected,
            "flood wire bytes are exactly model payloads + framing (trial {trial})"
        );
    }
    client::shutdown(&addr).expect("shutdown");
    let summary = handle.join().expect("server thread");
    assert_eq!(summary.sessions_ok, 3);
    assert_eq!(summary.sessions_failed, 0);
}

fn s_collects(s: &client::SessionOutcome, sends: u64) -> u64 {
    // Client reads: one Send per envelope, one Collect per round the
    // executor drained, one terminal Outcome.
    s.frames_in - sends - 1
}

#[test]
fn tournament_outcome_matches_in_process_with_bounded_framing() {
    let (addr, handle) = start_server(ServerOpts::default());
    let served = assert_outcome_equivalent(&addr, TOURNAMENT_SPEC, 0);
    assert_counters_consistent(&served, TOURNAMENT_SPEC, 0);
    assert_eq!(
        served.outcome.agreement, 1.0,
        "tournament agrees on loopback"
    );

    // Exact framing: the tournament sends nothing but fans, and a fan
    // crosses the wire once each way as FAN_FRAME_OVERHEAD, its payload
    // once, and 4 bytes per recipient — so every envelope of the
    // in-process NetStats is 4 bytes of some fan, each way. (The
    // expanding default — a Send per recipient — reads 13.6 MB against
    // these 1.5; a single among the fans would break the equality too:
    // it would be counted as a collect here and cost 21 bytes more.)
    let spec = scenario::parse_one(TOURNAMENT_SPEC)
        .expect("spec parses")
        .spec;
    let local = run_trial(&spec, 0).expect("in-process trial");
    let net = local.net.as_ref().expect("tournament trial has net stats");
    assert_eq!(net.sent, net.delivered, "a synchronous net delivers all");
    let fans = served.fan_frames;
    let control_frame_len = Frame::Collect { round: 0 }.to_bytes().len() as u64;
    let collects = served.frames_in - fans - 1;
    let data = fans * FAN_FRAME_OVERHEAD + 4 * net.sent + served.payload_bytes;
    assert_eq!(
        served.outcome.wire_bytes,
        2 * data + 2 * collects * control_frame_len,
        "tournament wire bytes are exactly fans + recipients + payloads + control"
    );
    assert_eq!(served.outcome.wire_frames, 2 * (fans + collects));
    assert_eq!(
        served.payload_bits,
        net.per_phase.iter().map(|p| p.sent_bits).sum::<u64>(),
        "client-observed model bits = the in-process per-recipient sent bits"
    );

    client::shutdown(&addr).expect("shutdown");
    let summary = handle.join().expect("server thread");
    assert_eq!(summary.sessions_ok, 1);
    assert_eq!(summary.sessions_failed, 0);
}

#[test]
fn busy_backpressure_and_crash_isolation() {
    let (addr, handle) = start_server(ServerOpts {
        workers: 1,
        queue: 0,
        retry_after_ms: 5,
        ..ServerOpts::default()
    });

    // Session A: a raw client that opens a session and then stalls,
    // pinning the only worker at its first collect.
    let mut stall = TcpStream::connect(&addr).expect("connect A");
    stall
        .write_all(
            &Frame::Open {
                trial: 0,
                spec: FLOOD_SPEC.to_owned(),
            }
            .to_bytes(),
        )
        .expect("open A");
    stall.flush().expect("flush A");
    // Give the accept thread time to admit A before probing.
    std::thread::sleep(Duration::from_millis(100));

    // Session B: pool full (one worker busy, zero backlog) => Busy.
    match client::run_session(&addr, FLOOD_SPEC, 1) {
        Err(ClientError::Busy { retry_after_ms }) => assert_eq!(retry_after_ms, 5),
        other => panic!("expected busy, got {other:?}"),
    }

    // A drops mid-session: the served executor panics on the dead
    // socket, the pool contains the crash, and the worker frees up.
    drop(stall);

    // Session C: retries through the recovery window, then completes —
    // the daemon survived the crash.
    let c = (0..200)
        .find_map(|_| match client::run_session(&addr, FLOOD_SPEC, 2) {
            Err(ClientError::Busy { retry_after_ms }) => {
                std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms.max(1))));
                None
            }
            other => Some(other),
        })
        .expect("worker frees up after the crash")
        .expect("session after crash succeeds");
    assert_eq!(c.outcome.agreement, 1.0);

    client::shutdown(&addr).expect("shutdown");
    let summary = handle.join().expect("server thread");
    assert_eq!(summary.sessions_ok, 1, "only C completed");
    assert_eq!(summary.sessions_failed, 1, "A crashed, contained");
    assert!(summary.rejected_busy >= 1, "B (at least) saw backpressure");
}

/// A peer that opens a session and then goes quiet — socket open,
/// nothing answered — must cost the daemon one failed session, not a
/// worker: `open_timeout_secs` stays in force as the session's idle
/// timeout.
#[test]
fn a_silent_peer_releases_its_worker() {
    let (addr, handle) = start_server(ServerOpts {
        workers: 1,
        queue: 0,
        retry_after_ms: 5,
        open_timeout_secs: 1,
        ..ServerOpts::default()
    });
    let mut silent = TcpStream::connect(&addr).expect("connect");
    silent
        .write_all(
            &Frame::Open {
                trial: 0,
                spec: FLOOD_SPEC.to_owned(),
            }
            .to_bytes(),
        )
        .expect("open");

    // The only worker is parked on the silent peer's first `Collect`;
    // the next session gets through once the idle timeout fires.
    let ok = client::run_session_retrying(&addr, FLOOD_SPEC, 1, 2_000)
        .expect("the worker frees up within a few timeouts");
    assert_eq!(ok.outcome.agreement, 1.0);

    client::shutdown(&addr).expect("shutdown");
    let summary = handle.join().expect("server thread");
    drop(silent); // still open while everything above happened
    assert_eq!(summary.sessions_failed, 1, "the silent session timed out");
    assert_eq!(summary.sessions_ok, 1);
}

/// The same for a peer that stops *reading* mid-session: it answers the
/// opening `Collect`, then neither reads nor writes. The flood round
/// that follows at n = 1024 is a 27 MB burst of `Send`s — more than the
/// socket buffers of a peer that is not reading hold (the receive
/// window only grows as the application drains it) — so the daemon's
/// write blocks mid-burst and the *write* timeout fires. On a box tuned
/// to swallow the burst the read timeout at the next `Collect` ends the
/// session instead: the outcome asserted here is the same either way,
/// which is what keeps the test deterministic (std offers no way to
/// shrink a socket's buffers).
#[test]
fn a_peer_that_stops_reading_releases_its_worker() {
    let (addr, handle) = start_server(ServerOpts {
        workers: 1,
        queue: 0,
        retry_after_ms: 5,
        open_timeout_secs: 1,
        ..ServerOpts::default()
    });
    let mut deaf = TcpStream::connect(&addr).expect("connect");
    let open = Frame::Open {
        trial: 0,
        spec: "name = deaf\nprotocol = flood\nn = 1024\nseed = 1\n".to_owned(),
    };
    deaf.write_all(&open.to_bytes()).expect("open");
    let first = FrameReader::new(&deaf).read_frame().expect("first frame");
    assert_eq!(first, Frame::Collect { round: 0 });
    deaf.write_all(&Frame::RoundDone { round: 0 }.to_bytes())
        .expect("round done");

    let ok = client::run_session_retrying(&addr, FLOOD_SPEC, 1, 4_000)
        .expect("the worker frees up within a few timeouts");
    assert_eq!(ok.outcome.agreement, 1.0);

    client::shutdown(&addr).expect("shutdown");
    let summary = handle.join().expect("server thread");
    drop(deaf);
    assert_eq!(summary.sessions_failed, 1, "the deaf session timed out");
    assert_eq!(summary.sessions_ok, 1);
}

#[test]
fn concurrent_sessions_all_complete_with_derived_seeds() {
    let (addr, handle) = start_server(ServerOpts {
        workers: 4,
        queue: 16,
        ..ServerOpts::default()
    });
    let outcomes: Vec<_> = (0..12u64)
        .map(|trial| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                client::run_session_retrying(&addr, FLOOD_SPEC, trial, 500)
                    .expect("concurrent session")
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    for (trial, s) in outcomes.iter().enumerate() {
        assert_eq!(s.outcome.seed, 7 + trial as u64, "per-session seed");
        assert_eq!(s.outcome.agreement, 1.0, "session {trial} agrees");
    }
    client::shutdown(&addr).expect("shutdown");
    let summary = handle.join().expect("server thread");
    assert_eq!(summary.sessions_ok, 12);
    assert_eq!(summary.sessions_failed, 0);
}

#[test]
fn perturbed_configs_are_rejected_with_a_clean_error() {
    let (addr, handle) = start_server(ServerOpts::default());
    let lossy = "\
name     = loopback-lossy
protocol = flood
n        = 8
latency  = uniform 0 3
seed     = 1
";
    match client::run_session(&addr, lossy, 0) {
        Err(ClientError::Remote(msg)) => {
            assert!(
                msg.contains("synchronous"),
                "error names the synchronous restriction: {msg}"
            );
        }
        other => panic!("expected a remote error, got {other:?}"),
    }
    // The daemon keeps serving after the rejection.
    let ok = client::run_session(&addr, FLOOD_SPEC, 0).expect("next session runs");
    assert_eq!(ok.outcome.agreement, 1.0);
    client::shutdown(&addr).expect("shutdown");
    let summary = handle.join().expect("server thread");
    assert_eq!(summary.sessions_ok, 1);
    assert_eq!(summary.sessions_failed, 1);
}
