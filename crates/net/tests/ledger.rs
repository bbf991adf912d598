//! The equivalence the phase ledger rests on: a configured schedule turned
//! into marks buckets every round where `Schedule::locate` plus the
//! catch-all did, and the in-flight count it derives is the one a
//! transport would have kept.

use ba_net::{DropCause, NetConfig, PhaseLedger};
use ba_sim::Schedule;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Zero-length phases anywhere (first, last, in a row) included.
    #[test]
    fn schedule_marks_bucket_every_round_where_locate_does(
        lens in proptest::collection::vec(0usize..5, 1..7),
    ) {
        let mut schedule = Schedule::new();
        for (i, &len) in lens.iter().enumerate() {
            schedule.push(&format!("p{i}"), len);
        }
        let ledger = PhaseLedger::new(&NetConfig::synchronous().with_schedule(schedule.clone()));
        let catch_all = schedule.len();
        for r in 0..schedule.total_rounds() + 3 {
            let oracle = schedule.locate(r).map_or(catch_all, |(id, _)| id);
            prop_assert_eq!(ledger.bucket(r), Some(oracle), "round {}", r);
        }
    }
}

#[test]
fn in_flight_at_end_is_what_was_neither_dropped_nor_delivered() {
    let mut ledger = PhaseLedger::new(&NetConfig::synchronous());
    assert_eq!(ledger.bucket(0), None, "no timetable yet");
    assert!(ledger.mark(0, "a"));
    ledger.sent(0, 5, 80);
    ledger.dropped(0, DropCause::Random);
    assert!(!ledger.mark(1, "a"), "a repeat coalesces");
    assert!(ledger.mark(2, "b"));
    ledger.sent(2, 4, 64);
    ledger.dropped(2, DropCause::Partition);
    ledger.delivered(1, 0, 3, 1);
    ledger.delivered(4, 2, 2, 0); // a round late
    let stats = ledger.into_stats();
    assert_eq!((stats.sent, stats.dropped(), stats.delivered), (9, 2, 5));
    assert_eq!(stats.in_flight_at_end, 9 - 2 - 5);
    let [a, b] = &stats.per_phase[..] else {
        panic!("two phases: {:?}", stats.per_phase);
    };
    assert_eq!(
        (a.sent, a.dropped_random, a.delivered, a.dead_letters),
        (5, 1, 3, 1)
    );
    assert_eq!(
        (b.sent, b.dropped_partition, b.late, b.late_rounds),
        (4, 1, 2, 2)
    );
    assert_eq!((stats.late, stats.late_rounds), (2, 2));
}
