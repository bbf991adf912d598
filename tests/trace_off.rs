//! Tracing off is free: every method the instrumented code calls on
//! `Trace::off()` allocates nothing, so an untraced run pays one branch
//! per site and no heap.

use king_saia::obs::Trace;

mod common;
use common::{Counting, Measuring};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn an_off_handle_allocates_nothing() {
    let trace = Trace::off();
    // Built before counting: `raw` takes a line its caller rendered.
    let line = String::from("{\"kind\": \"x\", \"round\": 0}");

    let heap = Measuring::begin();
    trace.event("net:send", 3, "L0:expose", &[("sent", 64u64.into())]);
    drop(trace.timer("sim:procs"));
    let lines = trace.take_lines();
    trace.finish();
    // Last: dropping the line lowers the live count below the baseline,
    // which would hide a smaller allocation after it.
    trace.raw(line);
    let peak = heap.peak();
    drop(heap);
    assert!(lines.is_empty());
    assert_eq!(peak, 0, "an off handle allocated {peak} B");
}
