//! E13 (Lemma 5 ablation): the q / degree / committee-size trade-offs the
//! paper's cost analysis exposes.
//!
//! Lemma 5: bit complexity `Õ(n^{4/δ})` for `q = log^δ n` — larger arity
//! flattens the tree (fewer, bigger elections, fewer hops) at the cost of
//! bigger committees per level. We sweep q, the AEBA gossip degree, and
//! the leaf committee size k₁ through [`ba_exp::TournamentTuning`].

use ba_core::aeba::CommitteeAttack;
use ba_exp::{AdversarySpec, Experiment, Metric, Protocol, RunSpec, TournamentTuning, TreeAttack};

fn spec(n: usize, trials: u64, tuning: TournamentTuning) -> RunSpec {
    RunSpec::new(Protocol::Tournament(tuning), n)
        .trials(trials)
        .adversary(AdversarySpec::none().with_tree(TreeAttack::StaticThird {
            attack: CommitteeAttack::Oppose,
        }))
}

const METRICS: &[Metric] = &[
    Metric::BitsMax,
    Metric::Rounds,
    Metric::Agreement,
    Metric::Valid,
];

pub fn run(args: &[String]) {
    let n = 256;
    let trials = 4u64;
    let mut e = Experiment::new(
        args,
        "E13",
        &format!("parameter ablations at n = {n} (static budget adversary, {trials} seeds)"),
    );

    e.section(
        "E13a: tree arity q (Lemma 5: larger q ⇒ flatter tree ⇒ fewer hops)",
        &["q", "levels", "max_bits", "rounds", "agreement", "valid"],
    );
    for q in [2usize, 4, 8, 16] {
        let levels = ba_topology::Params::practical(n).with_q(q).levels;
        let tuning = TournamentTuning {
            q: Some(q),
            ..TournamentTuning::default()
        };
        let report = e.run(&spec(n, trials, tuning));
        let values: Vec<f64> = METRICS.iter().map(|m| m.eval(&report)).collect();
        let mut cells = vec![levels.to_string()];
        cells.extend(METRICS.iter().zip(&values).map(|(m, v)| m.format(*v)));
        let mut vals = vec![levels as f64];
        vals.extend(&values);
        e.case_cells(&[q.to_string()], &cells, &vals);
    }

    e.section(
        "E13b: AEBA gossip degree (concentration vs bits)",
        &["degree", "max_bits", "agreement", "valid"],
    );
    for mult in [1usize, 2, 4, 6, 8] {
        let d = mult * (n as f64).sqrt() as usize;
        let tuning = TournamentTuning {
            aeba_degree: Some(d),
            ..TournamentTuning::default()
        };
        e.case(
            &[d.to_string()],
            &spec(n, trials, tuning),
            &[Metric::BitsMax, Metric::Agreement, Metric::Valid],
        );
    }

    e.section(
        "E13c: leaf committee size k₁ (custody robustness vs share fan-out)",
        &["k1", "max_bits", "agreement", "valid"],
    );
    for k1 in [8usize, 12, 20, 32, 48] {
        let tuning = TournamentTuning {
            k1: Some(k1),
            ..TournamentTuning::default()
        };
        e.case(
            &[k1.to_string()],
            &spec(n, trials, tuning),
            &[Metric::BitsMax, Metric::Agreement, Metric::Valid],
        );
    }

    e.section(
        "E13d: default tuning across n (one spec, swept via RunSpec::sweep_n)",
        &["n", "max_bits", "rounds", "agreement", "valid"],
    );
    for row in spec(64, trials, TournamentTuning::default()).sweep_n(&[64, 128, 256]) {
        e.case(&[row.n.to_string()], &row, METRICS);
    }

    e.note("\npaper claim (Lemma 5): the d_m^ℓ* share fan-out term dominates; raising q");
    e.note("shortens the tree and cuts bits until committee sizes hit n. The gossip");
    e.note("degree buys agreement quality linearly in bits.");
    e.finish();
}
