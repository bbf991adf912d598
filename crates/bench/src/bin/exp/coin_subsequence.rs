//! E11 (§3.5, Theorem 2): the global coin subsequence solves (s, 2s/3).
//!
//! Measures, across tree adversaries (one [`ba_exp::RunSpec`] each): the
//! fraction of output words that are genuine uniform secrets (target
//! ≥ 2/3), uniformity of the genuine words (χ² over buckets), and the
//! subsequence length's growth with n.

use ba_core::aeba::CommitteeAttack;
use ba_exp::{f3, AdversarySpec, Experiment, Metric, RunSpec, TreeAttack};

fn spec(n: usize, trials: u64, tree: TreeAttack) -> RunSpec {
    RunSpec::tournament(n)
        .trials(trials)
        .adversary(AdversarySpec::none().with_tree(tree))
}

pub fn run(args: &[String]) {
    let n = 256;
    let trials = 6u64;
    let mut e = Experiment::new(
        args,
        "E11",
        &format!("global coin subsequence quality, n = {n} ({trials} seeds)"),
    );

    e.section(
        "E11a: good-word fraction of the coin subsequence",
        &["adversary", "s", "good_frac", "satisfies"],
    );
    let cases: [(&str, TreeAttack); 4] = [
        ("none", TreeAttack::None),
        (
            "static-budget",
            TreeAttack::StaticThird {
                attack: CommitteeAttack::Oppose,
            },
        ),
        ("winner-hunter", TreeAttack::WinnerHunter),
        (
            "custody-buster",
            TreeAttack::CustodyBuster {
                aggressiveness: 1.0,
            },
        ),
    ];
    for (name, tree) in cases {
        let report = e.run(&spec(n, trials, tree));
        let s = report.trials[0].coins.as_ref().map_or(0, |c| c.len());
        let gf = Metric::CoinGoodFrac.eval(&report);
        let ok = report.frac_of(|t| {
            t.coins
                .as_ref()
                .is_some_and(|c| c.satisfies(2 * c.len() / 3))
        });
        e.case_cells(
            &[name.to_string()],
            &[
                s.to_string(),
                f3(gf),
                format!(
                    "{:.0}/{}",
                    ok * report.trials.len() as f64,
                    report.trials.len()
                ),
            ],
            &[s as f64, gf, ok],
        );
    }

    // Uniformity: pooled genuine words over extra clean seeds.
    let pooled = e.run(&spec(n, trials * 4, TreeAttack::None));
    let mut byte_counts = [0usize; 16];
    let mut total = 0usize;
    for t in &pooled.trials {
        let Some(c) = &t.coins else { continue };
        for i in 0..c.len() {
            if c.is_good(i) == Some(true) {
                let v = c.number(i, u16::MAX).unwrap();
                byte_counts[(v % 16) as usize] += 1;
                total += 1;
            }
        }
    }
    let expect = total as f64 / 16.0;
    let chi2: f64 = byte_counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expect;
            d * d / expect
        })
        .sum();
    e.note(&format!(
        "\nE11b: pooled genuine words: {total}; χ² over 16 buckets: {chi2:.1} \
         (df = 15, mean 15, 99th pct ≈ 30.6)"
    ));

    e.section(
        "E11c: subsequence length vs n (s grows with the finalist count × extra words)",
        &["n", "s", "good_frac"],
    );
    for n in [64usize, 256, 1024] {
        let report = e.run(&spec(n, trials, TreeAttack::None));
        let s = report.trials[0].coins.as_ref().map_or(0, |c| c.len());
        let gf = Metric::CoinGoodFrac.eval(&report);
        e.case_cells(&[n.to_string()], &[s.to_string(), f3(gf)], &[s as f64, gf]);
    }
    e.note("\npaper claim (§3.5): the modified tournament solves the (s, 2s/3) global");
    e.note("coin subsequence problem — at least 2/3 of output words are uniform and");
    e.note("agreed by 1 − 1/log n of good processors.");
    e.finish();
}
