//! `ba-hunt` CLI — adversary search: hunt for agreement violations,
//! shrink each novel one, optionally pin it as a regression scenario.
//!
//! ```text
//! cargo run --release -p ba-bench --bin hunt -- \
//!     [--seed N] [--budget N] [--pin DIR] [--json] [--expect SUBSTR]
//! ```
//!
//! * `--seed` / `--budget` — the whole hunt is a pure function of the
//!   seed within the trial budget; same seed, same bytes on stdout, at
//!   any `BA_PAR_THREADS`.
//! * `--pin DIR` — write each finding's shrunk spec as
//!   `DIR/hunt-<signature>.scn` (`ba_exp::scenario::render`'s output),
//!   ready for `scenarios/regressions/`.
//! * `--json` — emit the report as one JSON object instead of text.
//! * `--expect SUBSTR` — exit nonzero unless some finding's signature
//!   contains `SUBSTR`; CI uses `--expect equivocate` so the smoke fails
//!   if the hunt ever stops rediscovering the coordinator-equivocation
//!   break against the leader-based baselines.

use ba_exp::scenario::{render, Scenario};
use ba_exp::{hunt, HuntConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = HuntConfig::default();
    let mut pin_dir: Option<String> = None;
    let mut json = false;
    let mut expect: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--seed" => {
                config.seed = value("--seed").parse().unwrap_or_else(|e| {
                    eprintln!("--seed: {e}");
                    std::process::exit(2);
                })
            }
            "--budget" => {
                config.budget = value("--budget").parse().unwrap_or_else(|e| {
                    eprintln!("--budget: {e}");
                    std::process::exit(2);
                })
            }
            "--pin" => pin_dir = Some(value("--pin")),
            "--json" => json = true,
            "--expect" => expect = Some(value("--expect")),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: hunt [--seed N] [--budget N] [--pin DIR] [--json] [--expect SUBSTR]"
                );
                std::process::exit(2);
            }
        }
    }

    let report = hunt(&config);
    if json {
        println!("{}", report.render_json(&config));
    } else {
        print!("{}", report.render(&config));
    }

    let mut failed = false;
    if let Some(dir) = pin_dir {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("error: creating {dir}: {e}");
            failed = true;
        }
        for f in &report.findings {
            let row = Scenario {
                name: format!("hunt-{}", f.signature),
                spec: f.shrunk.clone(),
            };
            let path = format!("{dir}/{}.scn", row.name);
            match render(&row)
                .and_then(|text| std::fs::write(&path, text).map_err(|e| e.to_string()))
            {
                Ok(()) => eprintln!("pinned {path}"),
                Err(e) => {
                    eprintln!("error: writing {path}: {e}");
                    failed = true;
                }
            }
        }
    }
    if let Some(sub) = expect {
        if !report.findings.iter().any(|f| f.signature.contains(&sub)) {
            eprintln!("error: no finding matches --expect {sub}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
