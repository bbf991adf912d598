//! E9 (§3.2.2 properties 1–3): sampler quality across the tree.
//!
//! With the adversary holding a `β` fraction of processors, the sampler
//! construction must keep the fraction of *bad* committees (good members
//! below `2/3 + ε/2`) small on every level, and degrade gracefully with
//! committee size/degree. Monte-Carlo cells run through the harness's
//! trial loop ([`ba_exp::Experiment::collect`]).

use ba_exp::{f3, mean, Experiment};
use ba_sampler::Sampler;
use ba_sim::derive_rng;
use ba_topology::{Goodness, NodeAddr, Params, Tree};
use rand::seq::SliceRandom;

pub fn run(args: &[String]) {
    let trials = 5u64;
    let mut e = Experiment::new(args, "E9", "sampler quality across the tree (§3.2.2)");

    let n = 1024;
    e.section(
        &format!("E9a: bad-committee fraction per tree level (n = {n}, β = 23% random corruption)"),
        &["level", "nodes", "k_l", "bad_frac", "paper_bound"],
    );
    let params = Params::practical(n);
    let runs: Vec<Vec<f64>> = e.collect(trials, |seed| {
        let tree = Tree::generate(&params, seed);
        let mut rng = derive_rng(seed, 0xBAD);
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(&mut rng);
        let mut corrupt = vec![false; n];
        for &i in ids.iter().take(params.corruption_budget()) {
            corrupt[i] = true;
        }
        let g = Goodness::classify(&tree, &corrupt, Goodness::paper_threshold(params.eps));
        (1..=params.levels)
            .map(|l| g.bad_node_fraction(l))
            .collect()
    });
    for l in 1..=params.levels {
        let bad = mean(&runs.iter().map(|r| r[l - 1]).collect::<Vec<_>>());
        let bound = 1.0 / (n as f64).log2();
        e.case_cells(
            &[l.to_string()],
            &[
                params.node_count(l).to_string(),
                params.node_size(l).to_string(),
                f3(bad),
                f3(bound),
            ],
            &[
                params.node_count(l) as f64,
                params.node_size(l) as f64,
                bad,
                bound,
            ],
        );
    }
    e.note("\npaper property (1): < 1/log n of committees bad — holds once committee");
    e.note("size outgrows the concentration scale (k_ℓ ≳ 100); level-1 committees of");
    e.note("size Θ(log n) carry the documented laptop-scale variance.");

    e.section(
        "E9b: committee-size sweep — bad fraction vs k at β = 23% (s = 1024 processors)",
        &["k", "bad_frac"],
    );
    for k in [8usize, 16, 24, 48, 96, 192] {
        e.case_with(&[k.to_string()], trials * 4, |seed| {
            let mut rng = derive_rng(seed, 0x5A);
            let h = Sampler::random(256, 1024, k, &mut rng);
            let mut ids: Vec<usize> = (0..1024).collect();
            ids.shuffle(&mut rng);
            let mut bad = vec![false; 1024];
            for &i in ids.iter().take(238) {
                bad[i] = true;
            }
            // Committee bad when corrupt members ≥ 1/3 − ε/2 of it.
            let rep = h.check(&bad, 1.0 / 3.0 - 238.0 / 1024.0 + 0.05);
            vec![rep.violating_fraction]
        });
    }

    e.section(
        "E9c: adversarial (worst-of-many random subsets) violation rate, degree 48",
        &["beta", "worst_violating"],
    );
    for beta in [0.1, 0.2, 1.0 / 3.0] {
        e.case_with(&[f3(beta)], trials, |seed| {
            let mut rng = derive_rng(seed, 0xAD5);
            let h = Sampler::random(256, 512, 48, &mut rng);
            vec![h.check_adversarial(beta, 0.15, 40, &mut rng)]
        });
    }

    e.section(
        "E9d: good-path fraction to the root under budget corruption (Lemma 3 precondition)",
        &["n", "good_paths"],
    );
    for n in [256usize, 512, 1024] {
        let params = Params::practical(n);
        e.case_with(&[n.to_string()], trials, move |seed| {
            let tree = Tree::generate(&params, seed);
            let mut rng = derive_rng(seed, 0x60D);
            let mut ids: Vec<usize> = (0..n).collect();
            ids.shuffle(&mut rng);
            let mut corrupt = vec![false; n];
            for &i in ids.iter().take(params.corruption_budget()) {
                corrupt[i] = true;
            }
            let g = Goodness::classify(&tree, &corrupt, 0.5);
            vec![g.good_path_fraction(&tree, NodeAddr::new(params.levels, 0))]
        });
    }
    e.note("\nLemma 3 needs > 1/2 + ε of leaves with good paths to the opening node.");
    e.finish();
}
