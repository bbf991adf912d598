//! Nothing outlives its trial: once a trial's outcome is dropped, the
//! heap is back where it was.
//!
//! Every structure a trial builds is keyed by that trial's own seed, so
//! nothing a trial leaves behind can serve a later one; anything kept is
//! memory that only grows with the number of trials a process runs. The
//! largest thing a trial builds is its gossip graph over all processors,
//! `8·n·degree` bytes — 24 576 B for the tournament's root agreement and
//! for `aeba` at n = 64, degree 48. A process-wide registry that kept
//! those graphs (until 64 MiB of them piled up) left 151 740 B live after
//! the six trials below — six graphs and its map. Now they leave 0 B; the
//! budget is a sixth of one graph.

use king_saia::exp::{run_trial, RunSpec};

mod common;
use common::{Counting, Measuring};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes a run of trials may leave live, all told.
const BUDGET: usize = 4096;

#[test]
fn dropped_trials_leave_no_heap_behind() {
    let specs = [RunSpec::tournament(64), RunSpec::aeba(64)];
    // Warm-up: the `ba-par` pool, the GF(2¹⁶) tables and the allocator's
    // own arenas exist before anything is counted.
    for spec in &specs {
        run_trial(spec, 0).expect("warm-up trial");
    }

    let heap = Measuring::begin();
    for spec in &specs {
        for trial in 1..=3 {
            let outcome = run_trial(spec, trial).expect("trial");
            assert_eq!(
                outcome.agreement,
                1.0,
                "{} trial {trial}",
                spec.protocol.name()
            );
        }
    }
    let live = heap.live();
    drop(heap);
    println!("{live} B live after six dropped trials (budget {BUDGET})");
    assert!(live <= BUDGET, "{live} B outlived their trials");
}
