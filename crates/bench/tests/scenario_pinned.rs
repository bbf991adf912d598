//! Pinned-output determinism: the composed scenario (tree adversary +
//! partition, the combination this API unlocked) produces a **byte
//! identical** `--json` file whether the `ba-par` pool runs 1 worker or
//! 8 — `exp run` is driven as a real subprocess both times, and its
//! rows carry no wall clock, so the whole file must match.

use std::path::PathBuf;
use std::process::Command;

fn run_with_threads(threads: &str, spec: &PathBuf, json: &PathBuf) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_exp"))
        .env("BA_PAR_THREADS", threads)
        .arg("run")
        .arg("--json")
        .arg(json)
        .arg(spec)
        .output()
        .expect("exp run launches");
    assert!(
        out.status.success(),
        "exp run failed (BA_PAR_THREADS={threads}): {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(json).expect("json written")
}

#[test]
fn composed_scenario_is_byte_identical_across_thread_counts() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let spec = repo.join("scenarios/10-composed-tree-partition.scn");
    assert!(
        spec.exists(),
        "composed scenario missing: {}",
        spec.display()
    );

    let dir = std::env::temp_dir();
    let j1 = dir.join(format!("scn-pinned-1-{}.json", std::process::id()));
    let j8 = dir.join(format!("scn-pinned-8-{}.json", std::process::id()));
    let one = run_with_threads("1", &spec, &j1);
    let eight = run_with_threads("8", &spec, &j8);
    let _ = std::fs::remove_file(&j1);
    let _ = std::fs::remove_file(&j8);

    assert!(
        one.contains("\"scenario\": \"composed-tree-partition\""),
        "unexpected runner output: {one}"
    );
    assert!(
        one.contains("dropped_partition"),
        "row lost its network stats: {one}"
    );
    assert_eq!(
        one, eight,
        "scenario results depend on the worker-thread count"
    );
}
