//! An allocation budget for a served session: the switch holds a round,
//! not a session of tuples.
//!
//! Daemon and client run in this one process, so the counting allocator
//! sees both ends of a tournament n = 64 session: the executor's own
//! heap (the same in process), the four 64 KiB socket buffers, and what
//! the wire path keeps per envelope. Since the transport ships a fan as
//! one frame and the switch echoes raw bytes out of one arena, that last
//! part is the busiest round's fan frames, once. At b37dcd8 the switch
//! kept every envelope of a round as a `(u32, u32, u32, u64, Vec<u8>)`
//! tuple with a heap payload, partitioned into two fresh vectors at each
//! collect, and the session's busiest round is most of its 163 456
//! envelopes: the same session peaked at 14 943 429 B of live heap
//! there. It reads 1 091 073 B now (1 016 962 at `BA_PAR_THREADS=1`);
//! the budget is under twice that.

use ba_serve::{client, Frame, FrameError, Server, ServerOpts};

mod common;
use common::{Counting, Measuring};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SPEC: &str = "name = serve-memory\nprotocol = tournament\nn = 64\nseed = 1\n";

#[test]
fn a_session_holds_a_round_not_a_session_of_tuples() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerOpts {
            workers: 1,
            // The worker may still be sending the warm-up's outcome when
            // the measured session opens: it waits, it is not refused.
            queue: 1,
            ..ServerOpts::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let daemon = std::thread::spawn(move || server.run());
    // Warm-up: the worker thread, the `ba-par` pool and the allocator's
    // own arenas exist before anything is counted.
    client::run_session(&addr, SPEC, 0).expect("warm-up session");

    let heap = Measuring::begin();
    let session = client::run_session(&addr, SPEC, 1).expect("measured session");
    let peak = heap.peak();
    drop(heap);
    assert_eq!(session.outcome.agreement, 1.0);
    println!(
        "{peak} B peak live heap for one session ({} envelopes' bits, {} B on the wire)",
        session.payload_bits, session.outcome.wire_bytes
    );
    assert!(peak <= 2_000_000, "over the budget of 2 MB a session");

    client::shutdown(&addr).expect("shutdown");
    let summary = daemon.join().expect("daemon thread");
    assert_eq!(summary.sessions_ok, 2);

    // A hostile fan count is turned away before anything is sized by it:
    // not one byte is allocated on the way to `Malformed`. (Here, after
    // the daemon is gone, so no other thread allocates meanwhile.)
    let mut body = vec![9u8];
    body.extend_from_slice(&[0; 16]); // round, from, bits
    body.extend_from_slice(&u32::MAX.to_le_bytes());
    body.resize(30, 0);
    let heap = Measuring::begin();
    let verdict = Frame::decode(&body);
    let allocated = heap.peak();
    drop(heap);
    assert!(matches!(verdict, Err(FrameError::Malformed(_))));
    assert_eq!(allocated, 0, "the rejection allocated");
}
