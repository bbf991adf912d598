//! The `exp` binary's preset dispatch: without a preset, or with an
//! unknown one, it prints the preset table and exits 2; a flag a preset
//! cannot honour is refused before anything runs.

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
