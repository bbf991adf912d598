//! E4 (Theorem 3/5, Lemmas 11–13): AEBA with unreliable global coins.
//!
//! Three sweeps on the message-level Algorithm 5, as presets over
//! [`ba_exp::RunSpec`]:
//!  (a) agreement fraction per round (convergence trace),
//!  (b) final agreement vs coin success rate (Theorem 3's `1/2^t` term),
//!  (c) final agreement vs corrupt fraction, including past the 1/3
//!      bound where the guarantee must (and does) die.

use ba_exp::{AdversarySpec, AebaSpec, Experiment, GossipDegree, Metric, Protocol, RunSpec};

/// The sparse Theorem-5 regime (`5·log₂ n` gossip edges, not the √n
/// regime the tournament root uses), split inputs, adversarially split
/// failed coins — the worst case Theorem 3 prices in.
fn spec(n: usize, rounds: usize, coin_success: f64, corrupt: usize) -> RunSpec {
    let aeba = AebaSpec {
        rounds,
        coin_success,
        degree: GossipDegree::LogTimes(5.0),
        split_failed_coins: true,
        ..AebaSpec::default()
    };
    let mut s = RunSpec::new(Protocol::Aeba(aeba), n).trials(6);
    if corrupt > 0 {
        s = s.adversary(AdversarySpec::split(corrupt));
    }
    s
}

pub fn run(args: &[String]) {
    let n = 256;
    let mut e = Experiment::new(args, "E4", "AEBA convergence with unreliable global coins");

    e.section(
        &format!("E4a: convergence trace at n = {n} (split inputs, 20% corrupt, 80% good coins)"),
        &["round", "agreement"],
    );
    // Trace by running to increasing horizons (deterministic seeds make
    // prefixes consistent).
    for rounds in [1usize, 3, 6, 10, 15, 20, 30] {
        e.case(
            &[rounds.to_string()],
            &spec(n, rounds, 0.8, n / 5),
            &[Metric::Agreement],
        );
    }

    e.section(
        "E4b: final agreement vs coin success rate (30 rounds, 20% corrupt)",
        &["success", "agreement"],
    );
    for rate in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        e.case(
            &[ba_exp::f3(rate)],
            &spec(n, 30, rate, n / 5),
            &[Metric::Agreement],
        );
    }

    e.section(
        "E4c: final agreement vs corrupt fraction (30 rounds, 80% good coins)",
        &["corrupt%", "agreement"],
    );
    for pct in [0usize, 10, 20, 25, 30, 36, 45] {
        e.case(
            &[pct.to_string()],
            &spec(n, 30, 0.8, n * pct / 100),
            &[Metric::Agreement],
        );
    }
    e.note("\npaper claim: all but O(n/log n) good processors agree given enough successful");
    e.note("coin rounds; the guarantee must degrade beyond the 1/3 corruption bound.");
    e.finish();
}
