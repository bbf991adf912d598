//! Pinned-trace determinism: the event stream `exp run --trace` writes
//! for a scenario is **byte identical** whether the `ba-par` pool runs 1 worker
//! or 8. Trials trace into private buffers that the harness replays in
//! trial order, so the file on disk is a pure function of the spec and
//! seed — only the quarantined `"profile"` section (wall-clock timings)
//! may differ, and it is stripped before comparison.

use std::path::PathBuf;
use std::process::Command;

fn run_traced(threads: &str, spec: &PathBuf, trace: &PathBuf) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_exp"))
        .env("BA_PAR_THREADS", threads)
        .arg("run")
        .arg("--trace")
        .arg(trace)
        .arg(spec)
        .output()
        .expect("exp run launches");
    assert!(
        out.status.success(),
        "exp run failed (BA_PAR_THREADS={threads}): {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(trace).expect("trace written")
}

/// Drops the wall-clock profile lines — the single legitimately
/// nondeterministic section of a trace file.
fn strip_profile(trace: &str) -> String {
    trace
        .lines()
        .filter(|l| !l.contains("\"section\": \"profile\""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn trace_files_are_byte_identical_across_thread_counts() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let spec = repo.join("scenarios/03-partition-during-election.scn");
    assert!(spec.exists(), "scenario missing: {}", spec.display());

    let dir = std::env::temp_dir();
    let t1 = dir.join(format!("trace-pinned-1-{}.jsonl", std::process::id()));
    let t8 = dir.join(format!("trace-pinned-8-{}.jsonl", std::process::id()));
    let one_raw = run_traced("1", &spec, &t1);
    let eight_raw = run_traced("8", &spec, &t8);
    let _ = std::fs::remove_file(&t1);
    let _ = std::fs::remove_file(&t8);

    let (one, eight) = (strip_profile(&one_raw), strip_profile(&eight_raw));
    assert!(
        one.contains("\"kind\": \"trial:start\""),
        "trace lost its trial frames: {one}"
    );
    // Scheduled scenarios carry their phase labels on the aggregated
    // send events (net:phase spans are for executor-announced phases).
    assert!(
        one.contains("\"phase\": \"split\""),
        "trace lost the partition phase labels: {one}"
    );
    // The profile section is present in the raw file (quarantined, not
    // absent) and is all that differs between the raw captures.
    assert!(
        one_raw.contains("\"section\": \"profile\""),
        "profile section missing from raw trace"
    );
    assert_eq!(
        one, eight,
        "trace event streams depend on the worker-thread count"
    );
}
