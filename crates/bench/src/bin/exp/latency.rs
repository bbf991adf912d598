//! E2 (Theorems 1–2): latency vs n — rounds must grow polylogarithmically.
//!
//! Measures synchronous rounds for (a) the tournament (a.e. BA), (b) the
//! full everywhere stack, against (c) Phase King, whose `2(t+1) = Θ(n)`
//! rounds are the deterministic floor the paper escapes. A polylog(n)
//! quantity has log-log slope → 0; Θ(n) has slope 1.

use ba_baselines::PhaseKingConfig;
use ba_exp::{f3, loglog_slope, Experiment, Metric, RunSpec};

pub fn run(args: &[String]) {
    let sizes = [64usize, 128, 256, 512, 1024, 2048];
    let trials = 3u64;
    let mut e = Experiment::new(
        args,
        "E2",
        &format!("rounds vs n (mean over {trials} seeds)"),
    );

    e.section(
        "E2: rounds vs n",
        &["n", "ae_rounds", "e_rounds", "phase_king", "e/log2^3"],
    );
    let mut xs = Vec::new();
    let mut ae_series = Vec::new();
    let mut e_series = Vec::new();
    let mut pk_series = Vec::new();

    for &n in &sizes {
        let report = e.run(&RunSpec::everywhere(n).trials(trials));
        let ae = Metric::TournamentRounds.eval(&report);
        let ev = Metric::Rounds.eval(&report);
        let pk = PhaseKingConfig::for_n(n).total_rounds() as f64;
        let log_n = (n as f64).log2();
        e.case_cells(
            &[n.to_string()],
            &[
                format!("{ae:.0}"),
                format!("{ev:.0}"),
                format!("{pk:.0}"),
                f3(ev / log_n.powi(3)),
            ],
            &[ae, ev, pk, ev / log_n.powi(3)],
        );
        xs.push(n as f64);
        ae_series.push(ae);
        e_series.push(ev);
        pk_series.push(pk);
    }

    let ae_slope = loglog_slope(&xs, &ae_series);
    let e_slope = loglog_slope(&xs, &e_series);
    let pk_slope = loglog_slope(&xs, &pk_series);
    e.note(&format!(
        "\nlog-log slope, a.e. BA rounds     : {} (polylog → well below 1)",
        f3(ae_slope)
    ));
    e.note(&format!(
        "log-log slope, everywhere rounds  : {}",
        f3(e_slope)
    ));
    e.note(&format!(
        "log-log slope, Phase King rounds  : {} (Θ(n) → 1)",
        f3(pk_slope)
    ));
    e.note(&format!(
        "\nshape check: KS slopes ≤ 0.5 and Phase King ≈ 1 → {}",
        if ae_slope < 0.55 && e_slope < 0.55 && pk_slope > 0.9 {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    ));
    e.finish();
}
