//! E3 (Theorem 2): almost-everywhere agreement quality.
//!
//! The tournament must leave at least a `1 − 1/log n` fraction of good
//! processors agreeing on one bit, for corruption fractions up to
//! `1/3 − ε`, under the static spread adversary. We sweep n and the
//! corruption fraction — each cell one [`ba_exp::RunSpec`].

use ba_core::aeba::CommitteeAttack;
use ba_exp::{f3, AdversarySpec, Experiment, RunSpec, TreeAttack};

fn tournament(n: usize, tree: TreeAttack) -> RunSpec {
    RunSpec::tournament(n)
        .trials(6)
        .adversary(AdversarySpec::none().with_tree(tree))
}

pub fn run(args: &[String]) {
    let mut e = Experiment::new(
        args,
        "E3",
        "almost-everywhere agreement quality (Theorem 2)",
    );
    let oppose = CommitteeAttack::Oppose;

    e.section(
        "E3a: good-processor agreement fraction vs n (budget-level static adversary)",
        &["n", "agreement", "target", "valid%", "clean_agr"],
    );
    // One template per column, swept over n through the shared sweep
    // axis (the code spelling of the grammar's `n = 64,128,...`).
    const SIZES: &[usize] = &[64, 128, 256, 512, 1024];
    let adv_rows = tournament(SIZES[0], TreeAttack::StaticThird { attack: oppose }).sweep_n(SIZES);
    let clean_rows = tournament(SIZES[0], TreeAttack::None)
        .seeds(1000)
        .sweep_n(SIZES);
    for (adv_spec, clean_spec) in adv_rows.iter().zip(&clean_rows) {
        let n = adv_spec.n;
        let adv = e.run(adv_spec);
        let clean = e.run(clean_spec);
        let target = 1.0 - 1.0 / (n as f64).log2();
        let agreement = adv.mean_of(|t| t.agreement);
        let valid = 100.0 * adv.frac_of(|t| t.valid.unwrap_or(false));
        let clean_agr = clean.mean_of(|t| t.agreement);
        e.case_cells(
            &[n.to_string()],
            &[
                f3(agreement),
                f3(target),
                format!("{valid:.0}"),
                f3(clean_agr),
            ],
            &[agreement, target, valid, clean_agr],
        );
    }

    e.section(
        "E3b: agreement vs corruption fraction at n = 256",
        &["corrupt%", "agreement", "valid%"],
    );
    for frac in [0.0, 0.05, 0.10, 0.15, 0.20, 0.23] {
        let report = e.run(&tournament(
            256,
            TreeAttack::StaticFraction {
                frac,
                attack: oppose,
            },
        ));
        let agreement = report.mean_of(|t| t.agreement);
        let valid = 100.0 * report.frac_of(|t| t.valid.unwrap_or(false));
        e.case_cells(
            &[format!("{:.0}", frac * 100.0)],
            &[f3(agreement), format!("{valid:.0}")],
            &[agreement, valid],
        );
    }
    e.note(
        "\npaper claim: agreement ≥ 1 − 1/log n of good processors w.h.p. up to (1/3 − ε)n corruption",
    );
    e.finish();
}
