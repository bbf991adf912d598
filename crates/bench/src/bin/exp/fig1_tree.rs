//! E10 (Figure 1, §3.6/Lemma 5): the tournament tree and its per-phase
//! communication breakdown.
//!
//! Renders the Figure-1 structure (committees per level, candidate flow)
//! for a small instance, then decomposes bits per phase — share-up /
//! expose / agree / send-winners — per level from one
//! [`ba_exp::RunSpec`] tournament run.

use ba_exp::{Experiment, RunSpec};
use ba_topology::{NodeAddr, Params, Tree};

pub fn run(args: &[String]) {
    let mut e = Experiment::new(
        args,
        "E10",
        "the communication tree and its phase bit breakdown",
    );

    // ---- Figure 1 left: the tree itself -----------------------------------
    let n = 64;
    let params = Params::practical(n);
    let tree = Tree::generate(&params, 1);
    e.note(&format!(
        "E10a: the communication tree at n = {n} (Figure 1 structure)\n"
    ));
    for level in (1..=params.levels).rev() {
        let count = params.node_count(level);
        let k = params.node_size(level);
        let marker = if level == params.levels {
            "root"
        } else if level == 1 {
            "leaves"
        } else {
            ""
        };
        e.note(&format!(
            "level {level:>2} {marker:<7}: {count:>4} committees × {k:>4} processors, \
             {cand} candidate arrays per election",
            cand = if level >= 2 {
                params.candidates_at(level)
            } else {
                0
            },
        ));
    }
    // A few example committees, Figure-1 style.
    e.note("\nexample committees (seed 1):");
    for level in (1..=params.levels).rev() {
        let at = NodeAddr::new(level, 0);
        let members = tree.members(at);
        let shown: Vec<String> = members.iter().take(8).map(|m| m.to_string()).collect();
        e.note(&format!(
            "  level {level}, node 0: {{{}{}}}",
            shown.join(","),
            if members.len() > 8 { ",…" } else { "" }
        ));
    }

    // ---- Figure 1 right: per-phase bits -----------------------------------
    let n = 256;
    let report = e.run(&RunSpec::tournament(n).trials(1).seeds(2));
    let trial = &report.trials[0];
    e.section(
        &format!("\nE10b: per-level phase bit breakdown at n = {n} (expose / agree / winners)"),
        &[
            "level",
            "candidates",
            "winners",
            "expose_bits",
            "agree_bits",
            "winner_bits",
            "mean_agr",
        ],
    );
    for s in &trial.level_stats {
        e.case_cells(
            &[s.level.to_string()],
            &[
                s.candidates.to_string(),
                s.winners.to_string(),
                s.expose_bits.to_string(),
                s.agree_bits.to_string(),
                s.winner_bits.to_string(),
                format!("{:.3}", s.mean_agreement),
            ],
            &[
                s.candidates as f64,
                s.winners as f64,
                s.expose_bits as f64,
                s.agree_bits as f64,
                s.winner_bits as f64,
                s.mean_agreement,
            ],
        );
    }

    e.note(&format!(
        "\ntotal: decided={:?} agreement={:.3} rounds={} bits/proc mean={:.0} max={}",
        trial.decided_bit.unwrap_or(false),
        trial.agreement,
        trial.rounds,
        trial.bits.mean,
        trial.bits.max
    ));
    e.note("\nFigure 1's phases per level — expose bin choices (sendDown+sendOpen),");
    e.note("agree bin choices (coin expose + gossip per candidate), send winner");
    e.note("shares up — execute in that order at every election node; candidate");
    e.note("counts match the w-per-child flow shown in the figure.");
    e.finish();
}
