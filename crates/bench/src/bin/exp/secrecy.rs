//! E8 (Lemma 1, Lemma 3): iterated secret sharing secrecy.
//!
//! Exact reconstruction experiments on the [`ShareTree`] reference model:
//! for committee stacks of varying depth, a coalition corrupting a given
//! fraction of *every* committee's holders either can or cannot recover
//! the secret. Lemma 1 predicts a sharp threshold at the sharing
//! threshold `t/n = 1/2`; the tournament's custody bookkeeping
//! (`compromised` when a route committee passes 1/2 corrupt) is validated
//! against these exact results. Monte-Carlo cells run through the
//! harness's trial loop ([`ba_exp::Experiment::collect`]).

use ba_crypto::iterated::{Layer, ShareTree};
use ba_crypto::Gf16;
use ba_exp::{f3, mean, Experiment};
use ba_sim::derive_rng;
use rand::Rng;

/// Per-seed indicator: does a coalition holding each leaf independently
/// with probability `p` recover the secret?
fn recovers(layers: &[Layer], p: f64, seed: u64) -> f64 {
    let mut rng = derive_rng(seed, 0x5EC);
    let secret = Gf16::new(rng.gen());
    let tree = ShareTree::deal(secret, layers, &mut rng).expect("valid layers");
    let paths = tree.leaf_paths();
    let held: std::collections::HashSet<Vec<usize>> =
        paths.into_iter().filter(|_| rng.gen_bool(p)).collect();
    match tree.recover(|path| held.contains(path)) {
        Some(v) => {
            assert_eq!(v, secret, "recovery must return the true secret");
            1.0
        }
        None => 0.0,
    }
}

pub fn run(args: &[String]) {
    let trials = 60u64;
    let mut e = Experiment::new(
        args,
        "E8",
        "iterated secret sharing secrecy (Lemmas 1 and 3)",
    );

    e.section(
        "E8a: recovery probability vs corrupt-holder fraction (threshold t = n/2)",
        &["corrupt", "depth1", "depth2", "depth3"],
    );
    let l6 = Layer::majority(6);
    for p in [0.2, 0.35, 0.45, 0.5, 0.55, 0.65, 0.8, 0.95] {
        e.case_with(&[f3(p)], trials, |seed| {
            vec![
                recovers(&[l6], p, seed),
                recovers(&[l6, l6], p, seed),
                recovers(&[l6, l6, l6], p, seed),
            ]
        });
    }
    e.note("\nSharp threshold at 1/2 (Lemma 1); deeper stacks are *harder* for the");
    e.note("same per-committee fraction — each layer multiplies the majority test.");

    e.section(
        "E8b: Lemma 1 boundary — exactly t holders per committee never recover",
        &[
            "committee_n",
            "t_holders",
            "recovered",
            "t+1_holders",
            "recovered2",
        ],
    );
    for n in [4usize, 6, 8, 10] {
        let layer = Layer::majority(n);
        let at_t = mean(&e.collect(trials, |seed| {
            let mut rng = derive_rng(seed, 0x5ED);
            let secret = Gf16::new(rng.gen());
            let tree = ShareTree::deal(secret, &[layer, layer], &mut rng).unwrap();
            // Hold exactly the first t children at both layers.
            tree.recover(|path| path.iter().all(|&i| i < layer.t))
                .map_or(0.0, |_| 1.0)
        }));
        let above_t = mean(&e.collect(trials, |seed| {
            let mut rng = derive_rng(seed, 0x5EE);
            let secret = Gf16::new(rng.gen());
            let tree = ShareTree::deal(secret, &[layer, layer], &mut rng).unwrap();
            match tree.recover(|path| path.iter().all(|&i| i <= layer.t)) {
                Some(v) => {
                    assert_eq!(v, secret);
                    1.0
                }
                None => 0.0,
            }
        }));
        e.case_cells(
            &[n.to_string()],
            &[
                layer.t.to_string(),
                f3(at_t),
                (layer.t + 1).to_string(),
                f3(above_t),
            ],
            &[layer.t as f64, at_t, (layer.t + 1) as f64, above_t],
        );
    }

    e.section(
        "E8c: custody rule validation — committee-majority corruption vs exact recovery",
        &["per_cmte", "rule_fires", "exact_recovers"],
    );
    // The tournament marks an array `compromised` when a custody committee
    // reaches 1/2 corrupt members. Validate: when the rule does NOT fire
    // (every committee < 1/2 corrupt), exact recovery must fail too.
    for frac in [0.3f64, 0.45, 0.55, 0.7] {
        let layer = Layer::majority(8);
        let exact = mean(&e.collect(trials, |seed| {
            let mut rng = derive_rng(seed, 0x5EF);
            let secret = Gf16::new(rng.gen());
            let tree = ShareTree::deal(secret, &[layer, layer], &mut rng).unwrap();
            // Corrupt a deterministic `frac` of holders in every committee.
            let cut = ((8.0 * frac).round() as usize).min(8);
            tree.recover(|path| path.iter().all(|&i| i < cut))
                .map_or(0.0, |_| 1.0)
        }));
        let fires = frac >= 0.5;
        e.case_cells(
            &[f3(frac)],
            &[fires.to_string(), f3(exact)],
            &[f64::from(u8::from(fires)), exact],
        );
    }
    e.note("\nThe conservative rule (fires at ≥ 1/2) upper-bounds exact recoverability:");
    e.note("whenever exact recovery succeeds the rule has fired; it may over-fire");
    e.note("slightly at the boundary (majority of holders vs majority of shares).");
    e.finish();
}
