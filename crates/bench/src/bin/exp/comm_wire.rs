//! E14 (Lemma 3, §3.2.3): the communication primitives on the wire.
//!
//! Runs the message-level `sendSecretUp → sendDown → sendOpen` pipeline
//! (`ba_core::comm`) through the simulator and measures, per corruption
//! fraction: the fraction of opening-committee members that learn the
//! secret (Lemma 3(2)), and the bits the reveal costs — the one place in
//! the repository where the iterated-sharing data flow is priced by
//! *actual messages* rather than the Lemma 5 cost model, giving a
//! cross-check of the structured executor's accounting. The bespoke
//! reveal cell runs through the harness's trial loop
//! ([`ba_exp::Experiment::collect`]).

use ba_core::comm::{CommProcess, RevealSpec};
use ba_crypto::Gf16;
use ba_exp::{f3, mean, Experiment};
use ba_sim::{derive_rng, ProcId, SimBuilder, StaticAdversary};
use ba_topology::{Params, Tree};
use rand::seq::SliceRandom;
use std::sync::Arc;

struct RevealResult {
    learned_frac: f64,
    total_bits: u64,
    max_bits: u64,
}

fn run_reveal(n: usize, open_level: usize, corrupt_frac: f64, seed: u64) -> RevealResult {
    let params = Params::practical(n);
    let tree = Arc::new(Tree::generate(&params, seed));
    let secret: Vec<Gf16> = (0..4u16).map(|i| Gf16::new(0x2222 + i)).collect();
    let dealer = 5usize;
    let spec = Arc::new(RevealSpec {
        tree: tree.clone(),
        dealer: ProcId::new(dealer),
        leaf: dealer,
        open_level,
        secret,
    });
    let rounds = spec.total_rounds();
    let k = ((n as f64) * corrupt_frac) as usize;
    let mut ids: Vec<usize> = (0..n).filter(|&i| i != dealer).collect();
    ids.shuffle(&mut derive_rng(seed, 0xC0A));
    let targets: Vec<ProcId> = ids.into_iter().take(k).map(ProcId::new).collect();
    let out = SimBuilder::new(n)
        .seed(seed)
        .max_corruptions(k.max(1))
        .build(
            |p, _| CommProcess::new(spec.clone(), p),
            StaticAdversary::new(targets),
        )
        .run(rounds + 2);

    let want: Vec<u16> = spec.secret.iter().map(|w| w.raw()).collect();
    let at = spec.node_at(open_level);
    let mut learned = 0usize;
    let mut total = 0usize;
    for &m in spec.tree.members(at) {
        let m = m as usize;
        if out.corrupt[m] {
            continue;
        }
        total += 1;
        if out.outputs[m].as_deref() == Some(&want[..]) {
            learned += 1;
        }
    }
    RevealResult {
        learned_frac: learned as f64 / total.max(1) as f64,
        total_bits: out.metrics.total_bits(),
        max_bits: (0..n)
            .map(|i| out.metrics.bits_sent_by(ProcId::new(i)))
            .max()
            .unwrap_or(0),
    }
}

pub fn run(args: &[String]) {
    let trials = 5u64;
    let mut e = Experiment::new(
        args,
        "E14",
        "the communication primitives on the wire (Lemma 3)",
    );

    e.section(
        "E14a: reveal success vs crash-corruption fraction (n = 64, open at level 2)",
        &["corrupt%", "learned", "claim"],
    );
    for frac in [0.0, 0.10, 0.20, 0.30] {
        let res = e.collect(trials, |seed| run_reveal(64, 2, frac, seed));
        let learned = mean(&res.iter().map(|r| r.learned_frac).collect::<Vec<_>>());
        e.case_cells(
            &[format!("{:.0}", frac * 100.0)],
            &[f3(learned), "≥ 1 − 1/log n".to_string()],
            &[learned, 0.0],
        );
    }

    e.section(
        "E14b: reveal depth (clean) — attenuation with opening level at n = 64",
        &["level", "learned", "rounds"],
    );
    for level in [2usize, 3] {
        let res = e.collect(trials, |seed| run_reveal(64, level, 0.0, seed));
        let learned = mean(&res.iter().map(|r| r.learned_frac).collect::<Vec<_>>());
        let rounds = 2 * level + 3;
        e.case_cells(
            &[level.to_string()],
            &[f3(learned), rounds.to_string()],
            &[learned, rounds as f64],
        );
    }

    e.note("\nE14c: measured wire bits vs the executor's Lemma 5 cost model (n = 64, level 2)\n");
    let res = e.collect(trials, |seed| run_reveal(64, 2, 0.0, seed));
    let total = mean(&res.iter().map(|r| r.total_bits as f64).collect::<Vec<_>>());
    let max = mean(&res.iter().map(|r| r.max_bits as f64).collect::<Vec<_>>());
    // The executor's model for one 4-word expose from level 2: every
    // member of the (single) level-2 node pays d·words·16 down, every
    // leaf member pays (k1 + llink)·words·16.
    let params = Params::practical(64);
    let model = (params.node_size(2) as f64) * (params.uplink_degree as f64) * 4.0 * 16.0
        + 4.0 * (params.k1 as f64) * ((params.k1 + params.llink_degree) as f64) * 4.0 * 16.0;
    e.note(&format!("measured total bits : {total:.0}"));
    e.note(&format!("model (sendDown+open leg) : {model:.0}"));
    e.note(&format!("measured max bits/proc    : {max:.0}"));
    e.note(&format!(
        "ratio measured/model      : {:.2} (the wire run adds the sendSecretUp legs\n\
         and per-path share headers the model prices separately)",
        total / model
    ));
    e.note("\npaper claim (Lemma 3(2)): with good paths, 1 − 1/log n of the opening");
    e.note("committee learns the dealt sequence; crash faults below the sharing");
    e.note("threshold cost nothing.");
    e.finish();
}
