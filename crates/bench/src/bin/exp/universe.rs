//! E15 (§1.2): universe reduction from the global coin subsequence.
//!
//! The paper claims its techniques also solve universe reduction in
//! `Õ(√n)` bits: select a small committee whose corrupt fraction tracks
//! the population's, against an adaptive adversary. We run the
//! tournament (one [`ba_exp::RunSpec`] per adversary), reduce the
//! universe with the resulting beacon, and measure representativeness
//! and honest-majority rates; the strawman "announce then trust"
//! selection is shown for contrast.

use ba_core::coin::CoinSequence;
use ba_core::universe::{reduce_universe, Representativeness};
use ba_core::TournamentConfig;
use ba_exp::{f3, mean, AdversarySpec, Experiment, RunSpec, TreeAttack};

pub fn run(args: &[String]) {
    let n = 256;
    let committee = 15;
    let trials = 8u64;
    let mut e = Experiment::new(
        args,
        "E15",
        &format!("universe reduction to {committee}-member committees at n = {n} ({trials} seeds)"),
    );

    let cases: [(&str, TreeAttack); 4] = [
        ("none", TreeAttack::None),
        (
            "static-budget",
            TreeAttack::StaticThird {
                attack: Default::default(),
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

    e.section(
        "E15: beacon-driven committees stay representative",
        &["adversary", "pop_bad", "cmte_bad", "excess", "honest_maj%"],
    );
    for (name, tree) in cases {
        let report = e.run(
            &RunSpec::tournament(n)
                .trials(trials)
                .adversary(AdversarySpec::none().with_tree(tree)),
        );
        let res: Vec<Representativeness> = report
            .trials
            .iter()
            .map(|t| {
                let beacon = t
                    .coins
                    .clone()
                    .unwrap_or_else(|| CoinSequence::new(Vec::new()));
                let cmte = reduce_universe(&beacon, n, committee);
                Representativeness::measure(&cmte, &t.corrupt)
            })
            .collect();
        let pop = mean(&res.iter().map(|r| r.population_bad).collect::<Vec<_>>());
        let cmte = mean(&res.iter().map(|r| r.committee_bad).collect::<Vec<_>>());
        let excess = mean(&res.iter().map(|r| r.excess).collect::<Vec<_>>());
        let maj =
            100.0 * res.iter().filter(|r| r.honest_majority()).count() as f64 / res.len() as f64;
        e.case_cells(
            &[name.to_string()],
            &[f3(pop), f3(cmte), f3(excess), format!("{maj:.0}")],
            &[pop, cmte, excess, maj],
        );
    }

    // Strawman: announce a fixed committee at time zero, then let the
    // adaptive adversary corrupt it.
    let budget = TournamentConfig::for_n(n).params.corruption_budget();
    let strawman_bad = committee.min(budget) as f64 / committee as f64;
    e.note(&format!(
        "\nstrawman (announce-then-trust): committee corrupt fraction {} — the\n\
         adaptive adversary seizes the announced set whole; honest majority 0%.",
        f3(strawman_bad)
    ));
    e.note("\npaper claim (§1.2, §2): universe reduction with a representative (not");
    e.note("adaptively capturable) committee; the beacon words are secrets until the");
    e.note("root opening, so selection cannot be anticipated.");
    e.finish();
}
