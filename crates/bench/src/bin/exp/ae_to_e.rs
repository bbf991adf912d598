//! E7 (Lemmas 7–10): the almost-everywhere → everywhere protocol.
//!
//! Measures, per n: the agreed fraction after `X = Θ(log n)` loops,
//! wrong decisions (Lemma 7(2): none, w.h.p.), bits per processor
//! (`Õ(√n)`), and the overload behaviour under the flooding adversary
//! (Lemma 9) — every cell a preset over [`ba_exp::RunSpec`].

use ba_exp::{
    f3, loglog_slope, AdversarySpec, AeToESpec, Experiment, Knowledgeable, MessageAdversary,
    Protocol, RunReport, RunSpec,
};

const M: u64 = 0xABCD;

fn spec(n: usize, knowledgeable: f64, flood: bool) -> RunSpec {
    let ae = AeToESpec {
        knowledgeable: Knowledgeable::Fraction(knowledgeable),
        message: M,
        flood_cap: flood.then_some(4_000_000),
        ..AeToESpec::default()
    };
    let adversary = if flood {
        AdversarySpec::none().with_message(MessageAdversary::Overload {
            count: n / 5,
            copies: 500,
        })
    } else {
        AdversarySpec::none()
    };
    RunSpec::new(Protocol::AeToE(ae), n)
        .trials(5)
        .adversary(adversary)
}

/// Fraction of live good processors that decided the true message.
fn agreed_frac(report: &RunReport) -> f64 {
    report.mean_of(|t| {
        let good = t.corrupt.iter().filter(|&&c| !c).count().max(1);
        t.decided - t.wrong as f64 / good as f64
    })
}

fn wrong_sum(report: &RunReport) -> f64 {
    report.trials.iter().map(|t| t.wrong as f64).sum()
}

pub fn run(args: &[String]) {
    let mut e = Experiment::new(args, "E7", "almost-everywhere → everywhere (Algorithm 3)");

    e.section(
        "E7a: spread quality and bits vs n (60% knowledgeable, X = Θ(log n) loops)",
        &["n", "agreed", "wrong", "max_bits", "bits/sqrt(n)"],
    );
    let mut xs = Vec::new();
    let mut bits = Vec::new();
    for n in [64usize, 144, 256, 576, 1024] {
        let report = e.run(&spec(n, 0.60, false));
        let agreed = agreed_frac(&report);
        let wrong = wrong_sum(&report);
        let max_bits = report.mean_of(|t| t.bits.max as f64);
        e.case_cells(
            &[n.to_string()],
            &[
                f3(agreed),
                format!("{wrong:.0}"),
                format!("{max_bits:.0}"),
                format!("{:.0}", max_bits / (n as f64).sqrt()),
            ],
            &[agreed, wrong, max_bits, max_bits / (n as f64).sqrt()],
        );
        xs.push(n as f64);
        bits.push(max_bits);
    }
    let slope = loglog_slope(&xs, &bits);
    e.note(&format!(
        "\nlog-log slope of max bits/processor: {} (paper: 0.5 + o(1))",
        f3(slope)
    ));

    e.section(
        "E7b: agreement vs knowledgeable fraction at n = 256",
        &["knowl%", "agreed", "wrong"],
    );
    for kf in [0.40, 0.51, 0.55, 0.60, 0.70, 0.90] {
        let report = e.run(&spec(256, kf, false));
        let agreed = agreed_frac(&report);
        let wrong = wrong_sum(&report);
        e.case_cells(
            &[format!("{:.0}", kf * 100.0)],
            &[f3(agreed), format!("{wrong:.0}")],
            &[agreed, wrong],
        );
    }

    e.section(
        "E7c: flooding adversary (Lemma 9 overload bound) at n = 256",
        &["attack", "agreed", "wrong"],
    );
    for (name, flood) in [("none", false), ("overloader", true)] {
        let report = e.run(&spec(256, 0.60, flood));
        let agreed = agreed_frac(&report);
        let wrong = wrong_sum(&report);
        e.case_cells(
            &[name.to_string()],
            &[f3(agreed), format!("{wrong:.0}")],
            &[agreed, wrong],
        );
    }
    e.note("\npaper claims: everyone decides M (no wrong decisions) after Θ(log n) loops");
    e.note("above a 1/2 + ε knowledgeable majority; Õ(√n) bits per processor; flooding");
    e.note("overloads at most n/4 knowledgeable responders per loop (Lemma 9).");
    e.finish();
}
