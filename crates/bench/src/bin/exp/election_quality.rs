//! E5 (Lemma 4): Feige's lightest-bin election keeps the good-winner
//! fraction close to the good-candidate fraction, against an adversary
//! that sets its bin choices *after* seeing all good choices (rushing).
//!
//! Sweeps: good-candidate fraction; number of bins; and three adversarial
//! bin strategies. Monte-Carlo cells run through the harness's trial
//! loop ([`ba_exp::Experiment::case_with`]).

use ba_core::election::lightest_bin;
use ba_exp::{f3, Experiment};
use ba_sim::derive_rng;
use rand::Rng;

#[derive(Clone, Copy, Debug)]
enum BadStrategy {
    /// All bad candidates pick the bin with fewest good candidates.
    Stuff,
    /// Bad candidates spread uniformly (mimic good behaviour).
    Spread,
    /// Bad candidates pick the bin with *most* good candidates
    /// (sabotage: drown a popular bin so it cannot be lightest).
    Drown,
}

fn run_election(r: usize, bins: usize, good_frac: f64, strategy: BadStrategy, seed: u64) -> f64 {
    let mut rng = derive_rng(seed, 0xE1EC);
    let good_count = ((r as f64) * good_frac).round() as usize;
    let mut counts = vec![0usize; bins];
    let mut choices = vec![0u16; r];
    for c in choices.iter_mut().take(good_count) {
        let b = rng.gen_range(0..bins as u16);
        *c = b;
        counts[b as usize] += 1;
    }
    // Rushing adversary: picks after seeing all good counts.
    let bad_bin = match strategy {
        BadStrategy::Stuff => (0..bins).min_by_key(|&b| counts[b]).unwrap_or(0) as u16,
        BadStrategy::Drown => (0..bins).max_by_key(|&b| counts[b]).unwrap_or(0) as u16,
        BadStrategy::Spread => 0,
    };
    for (i, c) in choices.iter_mut().enumerate().skip(good_count) {
        *c = match strategy {
            BadStrategy::Spread => ((i - good_count) % bins) as u16,
            _ => bad_bin,
        };
    }
    let target = (r / bins).max(1);
    let res = lightest_bin(&choices, bins, target);
    res.winners.iter().filter(|&&w| w < good_count).count() as f64 / res.winners.len() as f64
}

pub fn run(args: &[String]) {
    let trials = 400u64;
    let r = 64;
    let bins = 8;
    let mut e = Experiment::new(args, "E5", "lightest-bin election quality (Lemma 4)");

    e.section(
        &format!(
            "E5a: good-winner fraction vs good-candidate fraction (r = {r}, bins = {bins}, stuffing adversary)"
        ),
        &["good_cand", "good_win", "lemma4_floor"],
    );
    for gf in [0.5, 0.6, 2.0 / 3.0, 0.75, 0.9, 1.0] {
        // Lemma 4: winners from the good set ≥ (|S|/r − 1/log n) fraction.
        let floor = gf - 1.0 / (r as f64).log2();
        let means = e.collect(trials, |s| run_election(r, bins, gf, BadStrategy::Stuff, s));
        let gw = ba_exp::mean(&means);
        e.case_cells(&[f3(gf)], &[f3(gw), f3(floor)], &[gw, floor]);
    }

    e.section(
        "E5b: good-winner fraction vs bins (2/3 good candidates, stuffing adversary)",
        &["bins", "good_win", "winners"],
    );
    for bins in [2usize, 4, 8, 16, 32] {
        let gw = ba_exp::mean(&e.collect(trials, |s| {
            run_election(r, bins, 2.0 / 3.0, BadStrategy::Stuff, s)
        }));
        let winners = (r / bins).max(1);
        e.case_cells(
            &[bins.to_string()],
            &[f3(gw), winners.to_string()],
            &[gw, winners as f64],
        );
    }

    e.section(
        &format!("E5c: adversarial bin strategies (2/3 good, r = {r}, bins = {bins})"),
        &["strategy", "good_win"],
    );
    for (name, strat) in [
        ("stuff", BadStrategy::Stuff),
        ("spread", BadStrategy::Spread),
        ("drown", BadStrategy::Drown),
    ] {
        let gw = ba_exp::mean(&e.collect(trials, |s| run_election(r, bins, 2.0 / 3.0, strat, s)));
        e.case_values(&[name.to_string()], &[gw]);
    }
    e.note("\npaper claim (Lemma 4): good winners ≥ good-candidate fraction − 1/log n,");
    e.note("regardless of how the adversary places its bin choices after rushing.");
    e.finish();
}
