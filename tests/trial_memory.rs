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

use king_saia::exp::{run_trial, scenario, RunSpec};
use king_saia::topology::Tree;
use king_saia::EverywhereConfig;

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
    // own arenas exist before anything is counted. It holds the
    // measurement lock, so a test measuring beside it counts none of it.
    let warm_up = Measuring::begin();
    for spec in &specs {
        run_trial(spec, 0).expect("warm-up trial");
    }
    drop(warm_up);

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

/// A tree holds its committees' seats and nothing else: one `u32` a seat,
/// a `Vec` header a committee and a level. At `scale_profile(4096)` that
/// is 2 048 160 B of 479 232 seats. A reverse index of each processor's
/// seats (12 B a seat and a `Vec` a processor), which no trial read, made
/// it 9 125 912 B. The tree is read by what its drop frees, so what the
/// harness's other threads allocate while it is generated is not counted.
#[test]
fn a_tree_holds_its_seats_and_nothing_else() {
    let params = EverywhereConfig::scale_profile(4096).tournament.params;
    let levels = params.levels;
    let seats: usize = (1..=levels)
        .map(|l| params.node_count(l) * params.node_size(l))
        .sum();
    let nodes: usize = (1..=levels).map(|l| params.node_count(l)).sum();
    let budget = 4 * seats + 24 * (nodes + levels) + 4096;

    let heap = Measuring::begin();
    let tree = Tree::generate(&params, 7);
    let with_tree = heap.live();
    drop(tree);
    let held = with_tree.saturating_sub(heap.live());
    drop(heap);
    println!("{held} B held by a tree of {seats} seats (budget {budget})");
    assert!(held <= budget, "{held} B held by a tree of {seats} seats");
}

/// A run holds every trial's outcome until its report is built, so a
/// trial count is memory: `trials = 1000000000` would ask for hundreds
/// of GB of outcome slots up front. The parser refuses it, and reading
/// the text costs a few small strings, nothing the size of its trials.
#[test]
fn a_billion_trials_are_refused_before_anything_is_allocated() {
    let text = "name = many\nprotocol = flood\nn = 16\ntrials = 1000000000\n";
    let heap = Measuring::begin();
    let parsed = scenario::parse(text);
    let peak = heap.peak();
    drop(heap);
    let err = parsed.expect_err("a billion trials");
    assert!(err.contains("trials"), "{err}");
    println!("{peak} B peak while refusing a billion trials");
    assert!(
        peak <= 4096,
        "{peak} B allocated while refusing a billion trials"
    );
}
