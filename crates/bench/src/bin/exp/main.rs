//! The paper's experiments, one preset each:
//!
//! ```text
//! cargo run --release -p ba-bench --bin exp -- <preset> [--json PATH] [--trials N] [--trace PATH]
//! ```
//!
//! A preset names its cells and prints its tables through
//! [`ba_exp::Experiment`], which parses the flags after the preset name;
//! `run` also takes `.scn` paths among them.
//! Without a preset, or with an unknown one, `exp` prints the preset
//! table and exits with status 2.

mod adaptive_attack;
mod ae_agreement;
mod ae_to_e;
mod aeba_convergence;
mod bits_scaling;
mod coin_subsequence;
mod election_quality;
mod fig1_tree;
mod latency;
mod param_sweep;
mod run;
mod sampler_quality;
mod scale;
mod secrecy;
mod tournament_survival;
mod universe;

/// A preset's name, its body (given the arguments after the name), and
/// what it reproduces.
type Preset = (&'static str, fn(&[String]), &'static str);

#[rustfmt::skip]
const PRESETS: &[Preset] = &[
    ("bits_scaling", bits_scaling::run, "E1   Theorem 1: bits per processor vs n, and the baselines"),
    ("latency", latency::run, "E2   Theorems 1-2: rounds vs n"),
    ("ae_agreement", ae_agreement::run, "E3   Theorem 2: almost-everywhere agreement quality"),
    ("aeba_convergence", aeba_convergence::run, "E4   AEBA with unreliable global coins"),
    ("election_quality", election_quality::run, "E5   Lemma 4: lightest-bin election quality"),
    ("tournament_survival", tournament_survival::run, "E6   Lemma 6: good-array survival"),
    ("ae_to_e", ae_to_e::run, "E7   Lemmas 7-10: almost-everywhere to everywhere"),
    ("secrecy", secrecy::run, "E8   Lemmas 1 and 3: iterated secret sharing secrecy"),
    ("sampler_quality", sampler_quality::run, "E9   sampler quality across the tree"),
    ("fig1_tree", fig1_tree::run, "E10  Figure 1: the tree and its per-phase bits"),
    ("coin_subsequence", coin_subsequence::run, "E11  the global coin subsequence"),
    ("adaptive_attack", adaptive_attack::run, "E12  adaptive takeover: strawman vs arrays"),
    ("param_sweep", param_sweep::run, "E13  Lemma 5 parameter ablations"),
    ("universe", universe::run, "E15  universe reduction from the coin subsequence"),
    ("run", run::run, "the .scn scenario library: run [SPEC|DIR]... (default scenarios/)"),
    ("scale", scale::run, "the stack under the scale profile at n = 4096 and 16384"),
    ("scale-131072", scale::run_131072, "`scale` and n = 131072 (~190 s, ~8.5 GB)"),
    ("scale-jitter", scale::run_jitter, "the scale profile at n = 512 and 1024 over a lossy net"),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let preset = args
        .first()
        .and_then(|name| PRESETS.iter().find(|p| p.0 == name));
    let Some((_, run, _)) = preset else {
        if let Some(name) = args.first() {
            eprintln!("unknown preset `{name}`");
        }
        eprintln!("usage: exp <preset> [--json PATH] [--trials N] [--trace PATH]\n\npresets:");
        for (name, _, about) in PRESETS {
            eprintln!("  {name:<20} {about}");
        }
        std::process::exit(2);
    };
    run(&args[1..]);
}
