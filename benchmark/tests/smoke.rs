//! Drives the `benchmark` binary at its `--smoke` tier (n = 64, eight
//! sessions, one pass; a few seconds in all) and holds it to the contract
//! `BENCHMARK.json` states: the result line's shape, every metric by name
//! with its unit, and counted metrics that are a function of the seed —
//! identical across runs and across `BA_PAR_THREADS`.

use ks_benchmark::json::{self, Json};
use ks_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Per-layer metrics that are counts of simulated events or of source
/// lines: they must repeat exactly for a fixed seed.
const EXACT_LAYERS: &[&str] = &[
    "topology.tree_nodes",
    "sampler.cache_hits",
    "sampler.cache_misses",
    "crypto.deal_count",
    "core.bits.deal",
    "core.bits.expose",
    "core.bits.agree",
    "core.bits.winners",
    "core.bits.root_coin",
    "core.bits.coin_open",
    "core.bits.ae",
    "core.transport_rounds",
    "core.rounds",
    "sim.envelopes",
    "net.sent",
    "net.delivered",
    "net.dropped",
    "net.late",
    "net.dead_letters",
    "serve.frames_per_session",
    "serve.bytes_per_session",
];

/// The repository root: the benchmark reads `crates/` and writes
/// `benchmark/out/` relative to it.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_owned()
}

fn benchmark() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_benchmark"));
    cmd.current_dir(root());
    cmd
}

/// One smoke run; returns the parsed result line.
fn smoke_run(workload: &str, trace: bool, threads: Option<&str>) -> Json {
    let mut cmd = benchmark();
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "5",
        "--seconds",
        "1",
        "--smoke",
    ])
    .args(["--trace", if trace { "1" } else { "0" }]);
    match threads {
        Some(t) => cmd.env("BA_PAR_THREADS", t),
        None => cmd.env_remove("BA_PAR_THREADS"),
    };
    let out = cmd.output().expect("the benchmark binary starts");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}"))
}

/// Checks the result object's shape and returns `metric -> value`.
fn metrics_of(result: &Json, expect: &[(&str, &str)]) -> Vec<(String, f64)> {
    let keys: Vec<&str> = result.entries().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(result.get("attempted").and_then(Json::num).unwrap() >= 1.0);
    assert_eq!(result.get("failed").and_then(Json::num), Some(0.0));
    let metrics = result.get("metrics").unwrap().entries();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = expect.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, expected, "every metric, by its exact name");
    metrics
        .iter()
        .zip(expect)
        .map(|((name, m), (_, unit))| {
            assert_eq!(m.get("unit").and_then(Json::str), Some(*unit), "{name}");
            let value = m.get("value").and_then(Json::num).unwrap();
            assert!(value.is_finite() && value >= 0.0, "{name} = {value}");
            (name.clone(), value)
        })
        .collect()
}

#[test]
fn end_to_end_metrics_are_present_and_exact_ones_repeat() {
    let expect: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    for workload in WORKLOADS {
        let runs = [
            smoke_run(workload, false, None),
            smoke_run(workload, false, None),
            smoke_run(workload, false, Some("1")),
        ];
        let values: Vec<_> = runs.iter().map(|r| metrics_of(r, &expect)).collect();
        for (i, m) in END_TO_END.iter().enumerate() {
            let v = values[0][i].1;
            assert!(v > 0.0, "{workload}: {} must never be 0", m.name);
            if m.exact {
                for other in &values[1..] {
                    assert_eq!(other[i].1, v, "{workload}: {} must repeat exactly", m.name);
                }
            }
        }
    }
}

#[test]
fn per_layer_metrics_are_present_and_counts_repeat() {
    for workload in WORKLOADS {
        let runs = [
            smoke_run(workload, true, None),
            smoke_run(workload, true, None),
            smoke_run(workload, true, Some("1")),
        ];
        let values: Vec<_> = runs.iter().map(|r| metrics_of(r, PER_LAYER)).collect();
        for (i, (name, _)) in PER_LAYER.iter().enumerate() {
            if EXACT_LAYERS.contains(name) || name.starts_with("loc.") {
                for other in &values[1..] {
                    assert_eq!(other[i].1, values[0][i].1, "{workload}: {name} must repeat");
                }
            }
        }
        let span_file = root().join(format!("benchmark/out/trace-{workload}.jsonl"));
        let spans = std::fs::read_to_string(&span_file).expect("the traced pass writes its spans");
        assert!(spans.lines().count() >= 2, "{workload}: spans recorded");
        for line in spans.lines() {
            let span = json::parse(line).expect("one JSON object per span");
            for key in ["span", "name", "op", "parent", "start_ns", "end_ns"] {
                assert!(span.get(key).is_some(), "span lacks `{key}`: {line}");
            }
        }
    }
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .unwrap()
            .arr()
            .iter()
            .map(|m| m.get("name").and_then(Json::str).unwrap().to_owned())
            .collect()
    };
    assert_eq!(names("workloads"), WORKLOADS);
    assert_eq!(
        names("end_to_end"),
        END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    assert_eq!(
        names("per_layer"),
        PER_LAYER.iter().map(|(n, _)| *n).collect::<Vec<_>>()
    );
    for (m, want) in doc.get("end_to_end").unwrap().arr().iter().zip(END_TO_END) {
        assert_eq!(
            m.get("unit").and_then(Json::str),
            Some(want.unit),
            "{}",
            want.name
        );
        let better = if want.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(
            m.get("better").and_then(Json::str),
            Some(better),
            "{}",
            want.name
        );
        let bound = m.get("bound").and_then(Json::num).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", want.name);
    }
    for (m, (name, unit)) in doc.get("per_layer").unwrap().arr().iter().zip(PER_LAYER) {
        assert_eq!(m.get("unit").and_then(Json::str), Some(*unit), "{name}");
        let better = m.get("better").and_then(Json::str).unwrap();
        assert!(better == "lower" || better == "higher", "{name}: {better}");
    }
}

#[test]
fn two_smoke_sets_compare_clean() {
    let out = root().join("benchmark/out");
    std::fs::create_dir_all(&out).unwrap();
    let files = [out.join("smoke-a.json"), out.join("smoke-b.json")];
    for file in &files {
        let status = benchmark()
            .args(["--smoke", "--seed", "9", "--out"])
            .arg(file)
            .env_remove("BA_PAR_THREADS")
            .status()
            .expect("the benchmark binary starts");
        assert!(status.success(), "the smoke tier runs clean");
        let doc = json::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
        let header = doc.get("header").expect("a run header");
        for key in [
            "nproc",
            "par.threads",
            "rustc",
            "git_commit",
            "seed",
            "build_s",
        ] {
            assert!(header.get(key).is_some(), "header lacks `{key}`");
        }
    }
    let compared = benchmark()
        .arg("compare")
        .args(&files)
        .output()
        .expect("compare starts");
    let table = String::from_utf8_lossy(&compared.stdout);
    // Smoke timings are milliseconds and may differ by more than a
    // bound; what two runs of one commit may never show is a different
    // count or a failed trial.
    for line in table
        .lines()
        .filter(|l| l.contains("(exact)") || l.contains("failed_share"))
    {
        assert!(
            line.ends_with("same") || line.ends_with("same (exact)"),
            "{line}"
        );
    }
    assert!(table.contains("bits_good_max"), "{table}");
}
