//! `benchmark compare A.json B.json`: one row per workload and
//! end-to-end metric, judging B (the change) against A (the parent) by
//! the bound `BENCHMARK.json` fixes for the metric (wall-clock metrics,
//! which it does not gate, by `metrics::TIMING_BOUND`).
//!
//! * `same` — B's median is within the bound of A's;
//! * `better` / `worse` — it is beyond the bound;
//! * `unresolved` — the run-to-run spread of either side (the distance
//!   between the quartiles of its runs, as a share of their median) is
//!   wider than the bound, so neither `same` nor a difference can be
//!   claimed; a side with fewer than four runs has no spread to judge by
//!   and is taken at its word.
//!
//! An exact metric (a count that is a function of the seed) tolerates no
//! difference at all when both files ran the same seeds. The command
//! ends non-zero when any row is `worse` or B failed more trials.

use crate::json::{self, Json};
use crate::metrics;
use std::path::Path;

/// Runs per side below which a file carries no usable spread.
const MIN_RUNS_FOR_SPREAD: usize = 4;

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The bound of every end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let doc = load(Path::new("BENCHMARK.json"))?;
    let list = doc
        .get("end_to_end")
        .map(Json::arr)
        .ok_or("BENCHMARK.json has no `end_to_end`")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::str);
            let bound = m.get("bound").and_then(Json::num);
            name.zip(bound)
                .map(|(n, b)| (n.to_owned(), b))
                .ok_or_else(|| {
                    "BENCHMARK.json: an end-to-end metric lacks a name or a bound".to_owned()
                })
        })
        .collect()
}

struct Side {
    median: f64,
    spread: Option<f64>,
}

fn side(workload: &Json, metric: &str) -> Option<Side> {
    let m = workload.get("end_to_end")?.get(metric)?;
    let median = m.get("median")?.num()?;
    let runs = m.get("values").map_or(0, |v| v.arr().len());
    let spread = if runs >= MIN_RUNS_FOR_SPREAD {
        Some((m.get("q3")?.num()? - m.get("q1")?.num()?) / median)
    } else {
        None
    };
    Some(Side { median, spread })
}

/// The verdict for one metric. `worse_by` is B's change in the bad
/// direction, as a share of A's median (negative when B is better).
fn verdict(worse_by: f64, bound: f64, exact: bool, spread: Option<f64>) -> &'static str {
    if exact {
        return match worse_by {
            w if w > 0.0 => "worse",
            w if w < 0.0 => "better",
            _ => "same",
        };
    }
    if spread.is_some_and(|s| s > bound) {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else if worse_by < -bound {
        "better"
    } else {
        "same"
    }
}

/// Compares two result files; `Ok(false)` when B regressed.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds()?;
    let header = |doc: &Json, key: &str| doc.get("header").and_then(|h| h.get(key)?.num());
    let same_seeds = header(&a, "seed") == header(&b, "seed")
        && header(&a, "repeat") == header(&b, "repeat")
        && header(&a, "smoke") == header(&b, "smoke");

    let mut ok = true;
    println!(
        "{:<20} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for wa in a.get("workloads").map_or(&[][..], Json::arr) {
        let name = wa.get("name").and_then(Json::str).unwrap_or("?");
        let Some(wb) = b
            .get("workloads")
            .map_or(&[][..], Json::arr)
            .iter()
            .find(|w| w.get("name").and_then(Json::str) == Some(name))
        else {
            println!("{name:<20} missing from {}", b_path.display());
            ok = false;
            continue;
        };
        for m in metrics::END_TO_END.iter().chain(metrics::TIMING) {
            let (Some(sa), Some(sb)) = (side(wa, m.name), side(wb, m.name)) else {
                println!("{name:<20} {:<16} not in both files", m.name);
                ok = false;
                continue;
            };
            // Wall-clock metrics are not in BENCHMARK.json's gated list;
            // they are held to the widest bound it could have given them.
            let bound = bounds
                .iter()
                .find(|(n, _)| n == m.name)
                .map_or(metrics::TIMING_BOUND, |(_, b)| *b);
            let change = (sb.median - sa.median) / sa.median;
            let worse_by = if m.higher_is_better { -change } else { change };
            let spread = match (sa.spread, sb.spread) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let v = verdict(worse_by, bound, m.exact && same_seeds, spread);
            ok &= v != "worse";
            println!(
                "{name:<20} {:<16} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%  {v}{}",
                m.name,
                sa.median,
                sb.median,
                100.0 * change,
                100.0 * bound,
                if m.exact && same_seeds {
                    " (exact)"
                } else {
                    ""
                }
            );
        }
        let failed = |w: &Json| {
            let count = |k: &str| w.get(k).and_then(Json::num).unwrap_or(0.0);
            count("failed") / count("attempted").max(1.0)
        };
        let (fa, fb) = (failed(wa), failed(wb));
        let v = if fb > fa { "worse" } else { "same" };
        ok &= fb <= fa;
        println!(
            "{name:<20} {:<16} {fa:>14.6} {fb:>14.6} {:>9} {:>7}  {v}",
            "failed_share", "", "0"
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        assert_eq!(verdict(0.04, 0.10, false, None), "same");
        assert_eq!(verdict(0.12, 0.10, false, Some(0.03)), "worse");
        assert_eq!(verdict(-0.12, 0.10, false, Some(0.03)), "better");
        // A spread wider than the bound hides both a change and no change.
        assert_eq!(verdict(0.12, 0.10, false, Some(0.2)), "unresolved");
        assert_eq!(verdict(0.00, 0.10, false, Some(0.2)), "unresolved");
        // Exact counts tolerate nothing.
        assert_eq!(verdict(1e-9, 0.05, true, None), "worse");
        assert_eq!(verdict(-1e-9, 0.05, true, None), "better");
        assert_eq!(verdict(0.0, 0.05, true, Some(0.5)), "same");
    }
}
