//! E1 (Theorem 1): bits per processor vs n — King–Saia everywhere
//! agreement against the classical baselines.
//!
//! The paper claims `Õ(√n)` bits per processor. The tournament phase
//! carries the paper's polylog(n)^Θ(1) constants (Lemma 5 puts it at
//! `Õ(n^{4/δ})` per processor — sub-√n only for the astronomical
//! `q = log^δ n, δ > 8` regime), so at laptop scale we report both
//! phases separately: the almost-everywhere→everywhere phase is the
//! `Õ(√n)` workhorse whose empirical slope this experiment checks. Where
//! the stack's curve crosses the baselines' is not measured yet (ROADMAP
//! item 2(a)).

use ba_baselines::PhaseKingConfig;
use ba_exp::{f3, loglog_slope, Experiment, Metric, RunSpec};

fn main() {
    let sizes = [64usize, 128, 256, 512, 1024];
    let trials = 3u64;
    let mut e = Experiment::new(
        "E1",
        &format!("bits per processor vs n (mean over {trials} seeds, max over good processors)"),
    );

    e.section(
        "E1: everywhere stack vs baselines",
        &["n", "ks_total", "ks_ae2e", "phase_king", "ben_or", "rabin"],
    );
    let mut xs = Vec::new();
    let mut ks_ae2e_series = Vec::new();
    let mut pk_series = Vec::new();

    // One spec per protocol, swept over n through the shared expansion
    // the scenario grammar uses (`RunSpec::sweep_n`).
    let ks_rows = RunSpec::everywhere(sizes[0]).trials(trials).sweep_n(&sizes);
    let pk_rows = RunSpec::phase_king(sizes[0]).trials(trials).sweep_n(&sizes);
    let bo_rows = RunSpec::ben_or(sizes[0]).trials(trials).sweep_n(&sizes);
    let rb_rows = RunSpec::rabin(sizes[0]).trials(trials).sweep_n(&sizes);

    for (((ks_spec, pk_spec), bo_spec), rb_spec) in
        ks_rows.iter().zip(&pk_rows).zip(&bo_rows).zip(&rb_rows)
    {
        let n = ks_spec.n;
        let ks = e.run(ks_spec);
        let ks_total = Metric::BitsMax.eval(&ks);
        let ks_ae2e = Metric::AeBitsMax.eval(&ks);

        let pk = if n <= 512 {
            Metric::BitsMax.eval(&e.run(pk_spec))
        } else {
            // Deterministic protocol: 2 bits to n peers per round for
            // 2(t+1) rounds; measured at smaller n, extrapolated here to
            // spare 500M-envelope simulations.
            let cfg = PhaseKingConfig::for_n(n);
            (n as f64) * (cfg.total_rounds() as f64 + 1.0)
        };
        let bo = Metric::BitsMax.eval(&e.run(bo_spec));
        let rb = Metric::BitsMax.eval(&e.run(rb_spec));

        e.case_cells(
            &[n.to_string()],
            &[
                format!("{ks_total:.0}"),
                format!("{ks_ae2e:.0}"),
                format!("{pk:.0}"),
                format!("{bo:.0}"),
                format!("{rb:.0}"),
            ],
            &[ks_total, ks_ae2e, pk, bo, rb],
        );
        xs.push(n as f64);
        ks_ae2e_series.push(ks_ae2e);
        pk_series.push(pk);
    }

    let ks_slope = loglog_slope(&xs, &ks_ae2e_series);
    let pk_slope = loglog_slope(&xs, &pk_series);
    e.note(&format!(
        "\nlog-log slope, King–Saia ae→e phase : {} (paper: 0.5 + o(1))",
        f3(ks_slope)
    ));
    e.note(&format!(
        "log-log slope, Phase King           : {} (Θ(n²) per processor)",
        f3(pk_slope)
    ));
    e.note(&format!(
        "\nshape check: ae→e slope < 1 < phase-king slope → {}",
        if ks_slope < 1.0 && pk_slope > 1.5 {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    ));
    e.finish();
}
