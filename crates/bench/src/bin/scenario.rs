//! Declarative scenario runner: executes `key = value` scenario specs
//! (see `ba_net::ScenarioSpec`) by lowering each onto the unified
//! [`ba_exp::RunSpec`] surface — the same API the `exp` presets and
//! the library entry points use — and reports agreement quality plus
//! network statistics per scenario.
//!
//! ```text
//! cargo run --release -p ba-bench --bin scenario -- [--json OUT] [--trace OUT] SPEC...
//! ```
//!
//! Each `SPEC` is a `.scn` file or a directory of them (sorted). Trials
//! fan out over the `ba-par` worker pool inside `ba_exp::run`; every
//! trial derives its own seed (`seed + trial`) and owns its own
//! transport, so results are deterministic per spec regardless of
//! thread count. With `--json` a machine-readable array of per-scenario
//! rows is written for `scripts/bench.sh` to fold into `BENCH_<n>.json`.
//! With `--trace` a deterministic JSONL event trace (byte-identical per
//! seed at any `BA_PAR_THREADS`; see `docs/observability.md`) is written
//! for `trace-report` to digest.

use ba_exp::scenario::{run_scenario_traced, SCENARIO_COLUMNS};
use ba_exp::Table;
use ba_net::ScenarioSpec;
use ba_obs::Trace;

/// Expands a path argument into .scn files (directories are read sorted).
fn expand(path: &str) -> Result<Vec<std::path::PathBuf>, String> {
    let p = std::path::Path::new(path);
    if p.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(p)
            .map_err(|e| format!("{path}: {e}"))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|f| f.extension().is_some_and(|x| x == "scn"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("{path}: no .scn files"));
        }
        Ok(files)
    } else {
        Ok(vec![p.to_path_buf()])
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--json" {
            json_out = it.next().cloned();
            if json_out.is_none() {
                eprintln!("--json needs a path");
                std::process::exit(2);
            }
        } else if a == "--trace" {
            trace_out = it.next().cloned();
            if trace_out.is_none() {
                eprintln!("--trace needs a path");
                std::process::exit(2);
            }
        } else {
            paths.push(a.clone());
        }
    }
    let trace = match &trace_out {
        Some(p) => Trace::to_file(std::path::Path::new(p)).unwrap_or_else(|e| {
            eprintln!("error: opening trace file {p}: {e}");
            std::process::exit(1);
        }),
        None => Trace::off(),
    };
    if paths.is_empty() {
        paths.push("scenarios".to_owned());
    }

    let mut files = Vec::new();
    for p in &paths {
        match expand(p) {
            Ok(mut f) => files.append(&mut f),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    let table = Table::header(SCENARIO_COLUMNS);
    let mut rows = Vec::new();
    let mut failed = false;
    let cache_before = ba_sampler::cache::stats();
    for file in &files {
        // An `n = 64,128,256` sweep expands to one row per size before
        // lowering; a single-`n` spec expands to itself.
        let parsed = std::fs::read_to_string(file)
            .map_err(|e| e.to_string())
            .and_then(|text| ScenarioSpec::parse(&text))
            .map(|spec| spec.expand_n());
        match parsed {
            Ok(specs) => {
                for spec in &specs {
                    match run_scenario_traced(spec, &trace) {
                        Ok(report) => {
                            table.row(&report.table_cells());
                            rows.push(report.json_row());
                        }
                        Err(e) => {
                            eprintln!("error: {}: {e}", file.display());
                            failed = true;
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("error: {}: {e}", file.display());
                failed = true;
            }
        }
    }

    // One process-level cache summary (per-trial splits are scheduling-
    // dependent; the totals are not), then the quarantined profile
    // section, then flush.
    ba_exp::trace_sampler_cache(&trace, cache_before);
    trace.finish();
    if let Some(path) = json_out {
        let body = format!("[\n  {}\n]\n", rows.join(",\n  "));
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("error: writing {path}: {e}");
            failed = true;
        } else {
            eprintln!("wrote {path}");
        }
    }
    if failed {
        std::process::exit(1);
    }
}
