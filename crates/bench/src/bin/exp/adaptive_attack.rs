//! E12: the adaptive-adversary headline — electing *arrays* survives the
//! takeover attack that destroys electing *processors*.
//!
//! §1.3: "This election approach is prima facie impossible with an
//! adaptive adversary, which can simply wait until a small set is elected
//! and then take over all processors in that set." We build that strawman
//! — a committee-election protocol where the elected processors' inputs
//! decide — and race it against King–Saia (as [`ba_exp::RunSpec`]
//! tournament runs) under the same WinnerHunter adversary.

use ba_core::TournamentConfig;
use ba_exp::{f3, AdversarySpec, Experiment, InputPattern, RunSpec, TreeAttack};
use ba_sim::derive_rng;
use rand::seq::SliceRandom;

/// The strawman: processors are recursively elected up the same tree
/// shape (uniformly at random among the children's delegates); the final
/// committee's majority input is broadcast as the decision. The adaptive
/// adversary corrupts delegates as soon as they are announced, with the
/// same per-level schedule the tree adversary gets.
fn strawman(n: usize, seed: u64, budget: usize, inputs: &[bool]) -> (bool, bool) {
    let mut rng = derive_rng(seed, 0x57AA);
    let mut corrupt = vec![false; n];
    let mut budget = budget;
    let mut delegates: Vec<usize> = (0..n).collect();
    // Same shrink factor as the tournament: q = 4 per level, stop at a
    // root committee of ≤ 16.
    while delegates.len() > 16 {
        delegates.shuffle(&mut rng);
        delegates.truncate(delegates.len() / 4);
        // Adaptive takeover: the adversary sees the elected set and
        // corrupts as much of it as budget allows (smallest sets first —
        // it waits for the final committee if the budget covers it).
        if delegates.len() <= budget {
            for &d in &delegates {
                if !corrupt[d] && budget > 0 {
                    corrupt[d] = true;
                    budget -= 1;
                }
            }
        }
    }
    // Corrupt delegates vote the minority bit of the good population.
    let good_ones = (0..n).filter(|&i| !corrupt[i] && inputs[i]).count();
    let good_total = (0..n).filter(|&i| !corrupt[i]).count().max(1);
    let good_majority = 2 * good_ones >= good_total;
    let votes_for_majority = delegates
        .iter()
        .filter(|&&d| !corrupt[d] && inputs[d] == good_majority)
        .count();
    let decided = votes_for_majority * 2 > delegates.len();
    let decided_bit = if decided {
        good_majority
    } else {
        !good_majority
    };
    let valid = (0..n).any(|i| !corrupt[i] && inputs[i] == decided_bit);
    (decided_bit == good_majority, valid)
}

pub fn run(args: &[String]) {
    let n = 256;
    let trials = 10u64;
    let mut e = Experiment::new(
        args,
        "E12",
        &format!("adaptive takeover — elect-processors strawman vs King–Saia arrays, n = {n}"),
    );

    // All good processors hold `true`; an execution "resists" when the
    // decision matches.
    let inputs: Vec<bool> = vec![true; n];
    let budget = TournamentConfig::for_n(n).params.corruption_budget();

    e.section(
        "E12: takeover resistance",
        &["protocol", "resist%", "valid%"],
    );

    let straw = e.collect(trials, |seed| strawman(n, seed, budget, &inputs));
    let resist = 100.0 * straw.iter().filter(|r| r.0).count() as f64 / straw.len() as f64;
    let valid = 100.0 * straw.iter().filter(|r| r.1).count() as f64 / straw.len() as f64;
    e.case_cells(
        &["strawman-elect".to_string()],
        &[format!("{resist:.0}"), format!("{valid:.0}")],
        &[resist, valid],
    );

    for (name, tree) in [
        ("ks-winnerhunt", TreeAttack::WinnerHunter),
        (
            "ks-custody",
            TreeAttack::CustodyBuster {
                aggressiveness: 1.0,
            },
        ),
        ("ks-clean", TreeAttack::None),
    ] {
        let report = e.run(
            &RunSpec::tournament(n)
                .trials(trials)
                .input(InputPattern::UnanimousTrue)
                .adversary(AdversarySpec::none().with_tree(tree)),
        );
        let resist = 100.0 * report.frac_of(|t| t.decided_bit == Some(true));
        let valid = 100.0 * report.frac_of(|t| t.valid.unwrap_or(false));
        e.case_cells(
            &[name.to_string()],
            &[format!("{resist:.0}"), format!("{valid:.0}")],
            &[resist, valid],
        );
        e.note(&format!(
            "    ({name}: mean agreement {})",
            f3(report.mean_of(|t| t.agreement))
        ));
    }

    e.note("\npaper claim (§1.3): waiting for the elected set and seizing it kills");
    e.note("processor elections (the strawman's final committee fits inside the");
    e.note("adversary budget), while elected *arrays* of pre-dealt secrets are");
    e.note("worthless to corrupt after the fact.");
    e.finish();
}
