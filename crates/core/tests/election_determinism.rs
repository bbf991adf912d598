//! Per-seed determinism of the election streams: one tournament under
//! `exp_scale`'s reduced-constant profile is field-for-field the same
//! whatever `BA_PAR_THREADS` is and from run to run. Election streams are
//! keyed by `(level, node, candidate, …)`, never by the order workers
//! reach them.
//!
//! `ba-par` sizes its pool once a process, so each side is a child
//! process: this test binary re-run on itself with [`CHILD`] set, in
//! which the test prints the outcome instead of comparing.

use ba_core::tournament::{run, NoTreeAdversary, TournamentConfig};
use ba_topology::Params;
use std::process::Command;

const CHILD: &str = "BA_ELECTION_DETERMINISM_CHILD";
const MARK: &str = "outcome: ";

/// `exp_scale`'s tournament constants at `n`.
fn scale_profile(n: usize, seed: u64) -> TournamentConfig {
    let log_n = (n as f64).log2();
    let mut config = TournamentConfig::for_n(n).with_seed(seed);
    config.params = Params::practical(n)
        .with_k1((2.0 * log_n).ceil() as usize)
        .with_aeba_degree((4.0 * log_n).ceil() as usize)
        .with_aeba_rounds(((0.75 * log_n).ceil() as usize).max(6));
    config.extra_words = config.extra_words.min(8);
    config
}

#[test]
fn scale_profile_tournament_is_equal_across_thread_counts_and_runs() {
    let n = 1024;
    if std::env::var_os(CHILD).is_some() {
        let inputs: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
        let out = run(&scale_profile(n, 7), &inputs, &mut NoTreeAdversary);
        println!("{MARK}{out:?}");
        return;
    }
    let outcome_at = |threads: &str| {
        let out = Command::new(std::env::current_exe().expect("the test binary has a path"))
            .args([
                "--exact",
                "scale_profile_tournament_is_equal_across_thread_counts_and_runs",
                "--nocapture",
            ])
            .env(CHILD, "1")
            .env("BA_PAR_THREADS", threads)
            .output()
            .expect("the test binary re-runs");
        assert!(out.status.success(), "child failed at {threads} threads");
        let stdout = String::from_utf8(out.stdout).expect("Debug output is UTF-8");
        // libtest may put its own "test … " prefix on the same line.
        let at = stdout.find(MARK).expect("the child printed its outcome");
        let line = stdout[at..].lines().next().expect("found above");
        line.to_owned()
    };
    let one = outcome_at("1");
    assert!(one.contains("agreement_fraction"), "not an outcome: {one}");
    assert!(
        one == outcome_at("2"),
        "the outcome depends on the thread count"
    );
    assert!(
        one == outcome_at("2"),
        "the outcome differs between two runs"
    );
}
