//! The `exp` binary's preset dispatch: without a preset, or with an
//! unknown one, it prints the preset table and exits 2; a flag a preset
//! cannot honour is refused before anything runs; `exp run` reports a
//! `.scn` file it cannot run and runs the rest, and writes its labels as
//! strict JSON.

use std::process::{Command, Output};

fn exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .output()
        .expect("exp runs")
}

#[test]
fn no_or_an_unknown_preset_prints_the_table_and_exits_2() {
    for args in [&[][..], &["nope"], &["--trials", "1"]] {
        let out = exp(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let table = String::from_utf8_lossy(&out.stderr);
        for preset in ["bits_scaling", "universe", "scale", "scale-131072"] {
            assert!(
                table.contains(&format!("\n  {preset} ")),
                "{preset}: {table}"
            );
        }
    }
}

#[test]
fn a_preset_runs_with_the_shared_flags() {
    let out = exp(&["fig1_tree", "--trials", "1"]);
    assert!(out.status.success(), "{out:?}");
    assert!(out.stdout.starts_with(b"E10: "), "{out:?}");
}

#[test]
fn a_flag_a_preset_cannot_honour_is_refused() {
    for args in [
        &["scale", "--trials", "1"][..],
        &["fig1_tree", "--seed", "7"],
    ] {
        let out = exp(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran before refusing");
    }
    let out = exp(&["scale", "--trials", "1"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("one fixed seed"), "{err}");
}

#[test]
fn run_reports_a_bad_file_by_path_runs_the_rest_and_exits_1() {
    let repo = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let good = repo.join("scenarios/00-baseline-sync.scn");
    let missing = repo.join("scenarios/no-such-spec.scn");
    // Parses and lowers, but flood's roster fields no vote splitter: the
    // run itself refuses it.
    let refused = std::env::temp_dir().join(format!("exp-run-refused-{}.scn", std::process::id()));
    std::fs::write(
        &refused,
        "name = refused\nprotocol = flood\nn = 16\nadversary = split\ncorrupt = 2\n",
    )
    .expect("temp spec");
    let out = exp(&[
        "run",
        missing.to_str().unwrap(),
        refused.to_str().unwrap(),
        "--trials",
        "1",
        good.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_file(&refused);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no-such-spec.scn: "), "{err}");
    assert!(err.contains("exp-run-refused-"), "{err}");
    assert!(err.contains("does not support message adversary"), "{err}");
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("\nbaseline-sync "), "{table}");
    assert!(!table.contains("\nrefused "), "{table}");
}

#[test]
fn run_escapes_control_characters_in_labels() {
    let dir = std::env::temp_dir();
    let tag = format!("exp-run-tab-{}", std::process::id());
    let (spec, json, trace) = (
        dir.join(format!("{tag}.scn")),
        dir.join(format!("{tag}.json")),
        dir.join(format!("{tag}.jsonl")),
    );
    // The parser keeps whitespace inside a value: both labels hold a tab.
    std::fs::write(
        &spec,
        "name = tab\there\nprotocol = phase_king\nn = 16\ntrials = 1\nphases = a\tb:8, late:10\n",
    )
    .expect("temp spec");
    let out = exp(&[
        "run",
        "--json",
        json.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
        spec.to_str().unwrap(),
    ]);
    let read = |p: &std::path::Path| std::fs::read_to_string(p).unwrap_or_default();
    let (json_text, trace_text) = (read(&json), read(&trace));
    for p in [&spec, &json, &trace] {
        let _ = std::fs::remove_file(p);
    }
    assert!(out.status.success(), "{out:?}");
    assert!(
        json_text.contains("\"scenario\": \"tab\\there\""),
        "{json_text}"
    );
    assert!(json_text.contains("\"name\": \"a\\tb\""), "{json_text}");
    assert!(trace_text.contains("\"phase\": \"a\\tb\""), "{trace_text}");
    for text in [&json_text, &trace_text] {
        assert!(
            text.bytes().all(|b| b >= b' ' || b == b'\n'),
            "a raw control byte: {text:?}"
        );
    }
}
