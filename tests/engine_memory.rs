//! An allocation budget for the engine: a round of Algorithm 3 traffic
//! must exist once.
//!
//! Algorithm 3 is `n·√n·a·log n` request envelopes a loop, and what the
//! engine keeps per envelope is what decides whether a large-n run fits
//! in memory. An integration test is its own binary, so this one installs
//! a counting global allocator and bounds the peak live heap of an
//! Algorithm 3 run per request envelope: 24 bytes of `Envelope<AeMsg>`,
//! 4 of by-recipient index, 4 of the requester's own `sent` list, plus
//! per-processor state — ≈ 32 bytes. A second copy of the round (owned
//! inboxes, a transport buffer of its own, a re-wrapped envelope type)
//! costs at least 24 more and fails the budget; at c7c2ae9 the same run
//! measured ≈ 130.

use king_saia::core::ae_to_e::{AeToEConfig, AeToEOutcome, AeToEProcess};
use king_saia::sim::{NullAdversary, SimBuilder};

mod common;
use common::{Counting, Measuring};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn algorithm_3_keeps_a_round_of_requests_once() {
    // The scale profile's Algorithm 3 at n = 1024: 32 labels × 4 requests
    // each, 2 loops, 70 % knowledgeable.
    let n = 1024;
    let mut cfg = AeToEConfig::for_n(n, 0.1);
    cfg.per_label = 4;
    cfg.loops = 2;
    assert_eq!(cfg.labels, 32);
    let requests_per_round = n * cfg.labels * cfg.per_label;
    let rounds = cfg.total_rounds();
    let m = 0xFACE;

    let heap = Measuring::begin();
    let outcome = SimBuilder::new(n)
        .seed(17)
        .build(
            |p, _| AeToEProcess::new(cfg.clone(), (p.index() % 10 < 7).then_some(m)),
            NullAdversary,
        )
        .run(rounds + 1);
    let peak = heap.peak();

    let tally = AeToEOutcome::from_outputs(&outcome.outputs, &outcome.corrupt, m);
    // Two loops of four samples leave a few confused processors undecided.
    assert!(
        tally.wrong == 0 && tally.agreed * 10 >= n * 9,
        "the run did its job: {tally:?}"
    );
    assert_eq!(
        outcome.metrics.bits_in_round(0),
        16 * requests_per_round as u64,
        "round 0 is one request envelope per (processor, label, sample)"
    );
    let per_request = peak as f64 / requests_per_round as f64;
    println!("peak live heap {peak} B = {per_request:.1} B per request envelope");
    assert!(per_request <= 40.0, "over the budget of 40 B per envelope");
}
