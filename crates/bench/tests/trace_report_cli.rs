//! `trace-report --check` passes a trace only if every line parses and
//! every trial's phase bits sum to its `total_bits`: a mangled line
//! would otherwise drop its trial from the very check.

use std::process::{Command, Output};

const TRIAL: &str = "{\"kind\": \"trial:start\", \"round\": 0, \"n\": 8}\n\
                     {\"kind\": \"trial:phase\", \"round\": 0, \"phase\": \"run\", \"bits\": 10}\n\
                     {\"kind\": \"trial:end\", \"round\": 0, \"n\": 8, \"good\": 8, \"total_bits\": 10}\n";

fn check(trace: &str, tag: &str) -> Output {
    let path =
        std::env::temp_dir().join(format!("trace-report-{tag}-{}.jsonl", std::process::id()));
    std::fs::write(&path, trace).expect("temp trace");
    let out = Command::new(env!("CARGO_BIN_EXE_trace-report"))
        .arg("--check")
        .arg(&path)
        .output()
        .expect("trace-report runs");
    let _ = std::fs::remove_file(&path);
    out
}

#[test]
fn check_passes_a_clean_trace() {
    let out = check(TRIAL, "clean");
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn check_fails_on_a_line_it_cannot_parse() {
    let mangled = format!(
        "{TRIAL}{}",
        "{\"kind\": \"trial:end\", \"round\": 0, \"n\": 8, \"good\"\n"
    );
    let out = check(&mangled, "mangled");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 4: does not parse"), "{err}");
    assert!(err.contains("1 line(s) do not parse"), "{err}");
}
