//! `serve-loopback-64`: agreement as a service, over real sockets.
//!
//! An in-process `ba_serve::Server` on `127.0.0.1:0` with one worker per
//! core and a backlog of two per core; one client thread per core runs
//! sessions back to back (closed loop): session `i` is trial `i` of a
//! tournament at n = 64 from a generated `.scn` text. The only workload
//! where `serve::frame`, the sockets and the client's replay switch do
//! the work — the executor is a few percent of a session.
//!
//! A session fails when it ends in an error or is still refused after
//! its retries. After the window every served outcome is compared, field
//! for field, with the in-process `run_trial` of the same spec and trial.

use super::{
    fnv1a, repeat_setup, seed_base, twins, window_done, NetLedger, OpSample, PhaseLedger, RunOpts,
    RunOut,
};
use crate::layers;
use crate::span::Recorder;
use ba_exp::{scenario, RunSpec};
use ba_net::ScenarioSpec;
use ba_obs::Trace;
use ba_serve::client::{self, ClientError, SessionOutcome};
use ba_serve::{Frame, OutcomeWire, Server, ServerOpts};
use ba_topology::Params;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Refusals a session may absorb before it counts as failed.
const MAX_RETRIES: u32 = 200;

fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// A running daemon and the thread it runs on.
struct Daemon {
    addr: String,
    thread: JoinHandle<ba_serve::ServeSummary>,
    trace: Trace,
}

impl Daemon {
    fn start(trace: Trace) -> Daemon {
        let workers = clients();
        let server = Server::bind(
            "127.0.0.1:0",
            ServerOpts {
                workers,
                queue: 2 * workers,
                trace: trace.clone(),
                ..ServerOpts::default()
            },
        )
        .expect("loopback bind");
        let addr = server.local_addr().expect("bound address").to_string();
        let thread = std::thread::spawn(move || server.run());
        Daemon {
            addr,
            thread,
            trace,
        }
    }

    /// Sends `Shutdown`, waits for the drain and returns the summary.
    fn stop(self) -> ba_serve::ServeSummary {
        client::shutdown(&self.addr).expect("shutdown frame");
        self.thread.join().expect("daemon thread")
    }
}

/// Processors per session.
const N: usize = 64;

struct State {
    spec_text: String,
    spec: RunSpec,
    plain: Daemon,
    /// The traced daemon of the traced pass.
    traced: Option<Daemon>,
}

/// The session's `.scn` text: everything the daemon learns about the
/// workload arrives in this string and the trial index.
fn spec_text(n: usize, seed: u64) -> String {
    format!(
        "name = bench-serve-loopback\nprotocol = tournament\nn = {n}\nseed = {}\ninput = split\n",
        seed_base(seed, 4)
    )
}

/// One session, retried while the daemon answers `Busy`; returns the
/// outcome and how many refusals it took.
fn session(addr: &str, spec: &str, trial: u64) -> (Result<SessionOutcome, ClientError>, u64) {
    let mut retries = 0u64;
    loop {
        match client::run_session(addr, spec, trial) {
            Err(ClientError::Busy { retry_after_ms }) if retries < u64::from(MAX_RETRIES) => {
                retries += 1;
                std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms.max(1))));
            }
            other => return (other, retries),
        }
    }
}

/// What one client thread brings back per session.
struct Served {
    op: u64,
    traced: bool,
    start: Instant,
    end: Instant,
    result: Result<SessionOutcome, String>,
    retries: u64,
}

/// Runs the workload.
pub fn run(opts: &RunOpts, rec: &mut Recorder) -> RunOut {
    let (state, setup_s) = repeat_setup(
        opts,
        5,
        |rep| {
            let spec_text = spec_text(N, opts.seed);
            let scn = ScenarioSpec::parse(&spec_text).expect("generated spec parses");
            let spec = scenario::lower(&scn).expect("generated spec lowers");
            let plain = Daemon::start(Trace::off());
            let traced = opts.trace.then(|| Daemon::start(Trace::memory()));
            // One warm-up session per client thread, on trials no timed
            // session (and no other repetition) uses.
            for d in std::iter::once(&plain).chain(traced.as_ref()) {
                for c in 0..clients() as u64 {
                    let trial = (1 << 40) + rep * 1024 + c;
                    session(&d.addr, &spec_text, trial)
                        .0
                        .expect("warm-up session");
                }
            }
            State {
                spec_text,
                spec,
                plain,
                traced,
            }
        },
        |s| {
            s.plain.stop();
            if let Some(d) = s.traced {
                d.stop();
            }
        },
    );

    let counted: u64 = match (opts.smoke, opts.trace) {
        (true, _) => 8,
        (false, true) => 16,
        (false, false) => 32,
    };

    // ---- The timed window: `clients()` threads, closed loop ------------
    let next = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let served: Mutex<Vec<Served>> = Mutex::new(Vec::new());
    let since = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients() {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let op = next.fetch_add(1, Ordering::Relaxed);
                    // A traced twin is the same trial against the traced
                    // daemon.
                    for &on in twins(opts, op, counted) {
                        let daemon = if on {
                            state
                                .traced
                                .as_ref()
                                .expect("traced pass has a traced daemon")
                        } else {
                            &state.plain
                        };
                        let start = Instant::now();
                        let (result, retries) = session(&daemon.addr, &state.spec_text, op);
                        served
                            .lock()
                            .expect("client threads do not panic")
                            .push(Served {
                                op,
                                traced: on,
                                start,
                                end: Instant::now(),
                                result: result.map_err(|e| e.to_string()),
                                retries,
                            });
                    }
                    // Sessions are claimed in index order, so once `done`
                    // sessions are claimed every counted one is.
                    let done = op + 1;
                    if window_done(opts, done, 1, counted, since) {
                        stop.store(true, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let window_s = since.elapsed().as_secs_f64();
    let mut served = served.into_inner().expect("client threads do not panic");
    served.sort_by_key(|s| (s.op, s.traced));

    // ---- Check every served outcome against the in-process run ---------
    let ops = served.iter().map(|s| s.op).max().map_or(0, |m| m + 1);
    let reference = ba_exp::run(&state.spec.clone().trials(ops)).expect("reference trials");
    let mut ledger = PhaseLedger::default();
    let mut net_ledger = NetLedger::default();
    let mut rounds = 0u64;
    for t in reference.trials.iter().take(counted as usize) {
        ledger.add(&t.phase_bits);
        net_ledger.add(t.net.as_ref().expect("harness trials carry net stats"));
        rounds = rounds.max(t.rounds as u64);
    }
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut retries, mut frames, mut bytes, mut sessions_ok) = (0u64, 0u64, 0u64, 0u64);
    for s in &served {
        let name = if s.traced { "op.traced" } else { "op.plain" };
        rec.add(name, s.op, None, s.start, s.end);
        let local = &reference.trials[s.op as usize];
        super::check_phase_ledger(&local.phase_bits, local.total_bits, "reference trial");
        let expect = OutcomeWire {
            seed: local.seed,
            agreement: local.agreement,
            decided: local.decided,
            rounds: local.rounds as u64,
            total_bits: local.total_bits,
            decided_bit: local.decided_bit,
            valid: local.valid,
            corrupt: local.corrupt.iter().filter(|&&c| c).count() as u64,
            wire_frames: 0,
            wire_bytes: 0,
        };
        let (failed, digest) = match &s.result {
            Err(e) => (1, fnv1a(e.as_bytes())),
            Ok(got) => {
                let wire = OutcomeWire {
                    wire_frames: 0,
                    wire_bytes: 0,
                    ..got.outcome.clone()
                };
                assert_eq!(
                    wire, expect,
                    "served session {} differs from the in-process trial",
                    s.op
                );
                if !s.traced && s.op < counted {
                    sessions_ok += 1;
                    frames += got.frames_in + got.frames_out;
                    bytes += got.bytes_in + got.bytes_out;
                }
                // The wire counters are part of the digest: the traced
                // daemon must move exactly the bytes the plain one does.
                (0, fnv1a(format!("{:?}", got.outcome).as_bytes()))
            }
        };
        retries += s.retries;
        let sample = OpSample {
            op: s.op,
            wall_s: (s.end - s.start).as_secs_f64(),
            trials: 1,
            failed,
            bits_good_max_sum: local.bits.max,
            digest,
        };
        if s.traced {
            traced.push(sample);
        } else {
            plain.push(sample);
        }
    }

    // ---- Stop the daemons; their summaries must account for everything --
    let profile = state.traced.as_ref().map(|d| d.trace.clone());
    let summary = state.plain.stop();
    assert_eq!(
        summary.sessions_ok,
        plain.iter().filter(|s| s.failed == 0).count() as u64 + clients() as u64,
        "daemon summary disagrees with the clients: {summary:?}"
    );
    let traced_events = state.traced.map(|d| {
        let trace = d.trace.clone();
        d.stop();
        trace.take_lines().len() as u64
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

    let p50_s = out.median_wall_s();
    let layers = &mut out.layers;
    ledger.export(layers);
    net_ledger.export(layers);
    layers.insert("core.rounds", rounds as f64);
    layers.insert("obs.events", traced_events.unwrap_or(0) as f64);
    layers.insert("serve.busy_retries", retries as f64);
    let per_session = |total: u64| total as f64 / sessions_ok.max(1) as f64;
    layers.insert("serve.frames_per_session", per_session(frames));
    layers.insert("serve.bytes_per_session", per_session(bytes));

    // Server-side seconds per session, from the daemon's own timer.
    let profile = profile.expect("traced pass").profile_snapshot();
    let session_s = profile
        .entries()
        .find(|(name, _)| *name == "serve:session")
        .map_or(0.0, |(_, e)| e.secs / e.calls.max(1) as f64);
    layers.insert("serve.session_s", session_s);

    // The executor alone: the same trials in process, one at a time.
    let executor: Vec<f64> = (0..counted.min(ops))
        .map(|t| {
            let start = Instant::now();
            black_box(ba_exp::run_trial(&state.spec, t).expect("reference trial"));
            start.elapsed().as_secs_f64()
        })
        .collect();
    let executor_s = crate::stats::median(&executor);
    layers.insert("serve.executor_s", executor_s);
    layers.insert("serve.wire_share", 1.0 - executor_s / p50_s);

    frame_codec(&reference.trials[0], per_session(frames), layers);
    let params = Params::practical(N);
    let seed = seed_base(opts.seed, 0x700);
    layers::topology(&params, seed, rec, None, layers);
    layers::sampler_cold(&params, seed, rec, None, layers);
    layers::crypto(&params, opts.seed, layers);
    out
}

/// `serve.frame_encode_ns` / `serve.frame_decode_ns`: `Frame::to_bytes`
/// and `Frame::decode` over a session's frame mix — one `Collect` and one
/// `RoundDone` per round, the rest `Send`/`Deliver` pairs carrying
/// tournament payloads.
fn frame_codec(trial: &ba_exp::TrialOutcome, frames_per_session: f64, layers: &mut layers::Layers) {
    use ba_sim::WireMsg;
    let rounds = trial.rounds.max(1);
    let data_per_round = ((frames_per_session as usize / rounds).saturating_sub(2) / 2).max(1);
    let mut payload = Vec::new();
    ba_core::TourMsg::WinnerShare {
        level: 2,
        node: 3,
        array: 17,
        words: 9,
    }
    .encode(&mut payload);
    let mut mix = Vec::new();
    for round in 0..rounds.min(64) as u32 {
        for i in 0..data_per_round.min(512) as u32 {
            let (from, to, bits) = (i % 64, (i * 7) % 64, 144);
            mix.push(Frame::Send {
                round,
                from,
                to,
                bits,
                payload: payload.clone(),
            });
            mix.push(Frame::Deliver {
                round,
                from,
                to,
                bits,
                payload: payload.clone(),
            });
        }
        mix.push(Frame::Collect { round: round + 1 });
        mix.push(Frame::RoundDone { round: round + 1 });
    }
    let start = Instant::now();
    let encoded: Vec<Vec<u8>> = mix.iter().map(|f| black_box(f).to_bytes()).collect();
    let encode_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    // `decode` takes the frame without its 4-byte length prefix.
    let decoded: Vec<Frame> = encoded
        .iter()
        .map(|bytes| Frame::decode(black_box(&bytes[4..])).expect("own encoding decodes"))
        .collect();
    let decode_s = start.elapsed().as_secs_f64();
    assert_eq!(decoded, mix, "the codec must round-trip its own frames");
    layers.insert("serve.frame_encode_ns", encode_s * 1e9 / mix.len() as f64);
    layers.insert("serve.frame_decode_ns", decode_s * 1e9 / mix.len() as f64);
}
