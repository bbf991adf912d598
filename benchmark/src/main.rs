//! The King–Saia stack's benchmark. `BENCHMARK.json` at the repository
//! root names it; `benchmark/README.md` explains the workloads and the
//! metrics.
//!
//! ```text
//! benchmark --workload W --seed S --seconds T --trace 0|1   one run, one workload
//! benchmark [--seed S] [--traced] [--smoke] [--repeat N]    every workload, each in a child
//! benchmark compare A.json B.json                           two result files
//! ```
//!
//! Run from the repository root (`benchmark/run.sh` does): the source
//! tree under `crates/` is read for `loc.*`, and files are written only
//! under `benchmark/out/`.

use ks_benchmark::json::{self, Json};
use ks_benchmark::span::Recorder;
use ks_benchmark::workloads::{self, RunOpts, RunOut};
use ks_benchmark::{compare, layers, metrics, stats};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// The seed `run.sh` uses when none is given.
const DEFAULT_SEED: u64 = 20_100_725;

/// Where the benchmark writes: results, span files, nothing else.
const OUT_DIR: &str = "benchmark/out";

/// The command line, parsed.
#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    /// Run the traced pass as well (every-workload mode).
    traced: bool,
    repeat: u64,
    out: Option<PathBuf>,
    build_s: f64,
    /// File the child writes its full result to, for the parent.
    sidecar: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        traced: false,
        repeat: 1,
        out: None,
        build_s: 0.0,
        sidecar: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("`{flag}`: cannot read `{v}`");
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.to_owned()),
            "--seed" => out.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => out.seconds = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?),
            "--trace" => {
                out.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--repeat" => out.repeat = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--build-s" => out.build_s = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--out" => out.out = Some(PathBuf::from(value()?)),
            "--sidecar" => out.sidecar = Some(PathBuf::from(value()?)),
            "--smoke" => out.smoke = true,
            "--traced" => out.traced = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.repeat == 0 {
        return Err("`--repeat` must be at least 1".to_owned());
    }
    Ok(out)
}

/// `run_seconds` of `BENCHMARK.json`: the window length when the command
/// line names none.
fn default_seconds() -> f64 {
    std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .and_then(|doc| doc.get("run_seconds").and_then(Json::num))
        .unwrap_or(20.0)
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` jiffies of the machine so far, from `/proc/stat`.
/// Steal is CPU time the hypervisor gave to someone else while this
/// guest wanted it: the mark of a noisy neighbour.
fn host_jiffies() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<f64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// One finished run: the result line's fields plus what the parent
/// process wants to keep beside them.
struct Finished {
    attempted: u64,
    failed: u64,
    /// `(name, unit, value)` in catalogue order.
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// The window's wall-clock numbers, in `metrics::TIMING` order.
    timing: [f64; 3],
    op_wall_ms: Vec<f64>,
    setup_s: Vec<f64>,
    /// Share of the machine's CPU time stolen while the run lasted.
    steal_share: f64,
}

fn run_workload(name: &str, opts: &RunOpts, rec: &mut Recorder) -> Result<RunOut, String> {
    match name {
        "stack-scale-4096" => Ok(workloads::stack_scale::run(opts, rec)),
        "stack-jitter-256" => Ok(workloads::stack_jitter::run(opts, rec)),
        "trials-mixed-small" => Ok(workloads::trials_mixed::run(opts, rec)),
        "serve-loopback-64" => Ok(workloads::serve_loopback::run(opts, rec)),
        other => Err(format!(
            "unknown workload `{other}` (one of: {})",
            metrics::WORKLOADS.join(", ")
        )),
    }
}

/// Runs one workload once and turns what it produced into metrics.
fn run_one(name: &str, opts: &RunOpts) -> Result<Finished, String> {
    let mut rec = Recorder::default();
    let before = host_jiffies();
    let mut out = run_workload(name, opts, &mut rec)?;
    let steal_share = match (before, host_jiffies()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) / (t1 - t0),
        _ => 0.0,
    };
    let walls = |ops: &[workloads::OpSample]| -> Vec<f64> {
        ops.iter().map(|s| s.wall_s * 1000.0).collect()
    };
    let op_wall_ms = walls(&out.plain);
    let attempted: u64 = out.plain.iter().chain(&out.traced).map(|s| s.trials).sum();
    let failed: u64 = out.plain.iter().chain(&out.traced).map(|s| s.failed).sum();
    // The window's wall-clock numbers, in `metrics::TIMING` order. Every
    // trial the window completed counts towards its throughput.
    let timing = [
        stats::median(&op_wall_ms),
        stats::percentile(&op_wall_ms, 90.0),
        attempted as f64 / out.window_s,
    ];

    let mut metrics = Vec::new();
    if !opts.trace {
        let counted: Vec<_> = out.plain.iter().filter(|s| s.op < out.counted).collect();
        let bits: u64 = counted.iter().map(|s| s.bits_good_max_sum).sum();
        let trials: u64 = counted.iter().map(|s| s.trials).sum();
        for m in metrics::END_TO_END {
            let value = match m.name {
                "setup_s" => stats::median(&out.setup_s),
                "peak_rss_mb" => peak_rss_mb(),
                "bits_good_max" => bits as f64 / trials as f64,
                other => unreachable!("end-to-end metric `{other}` has no definition"),
            };
            metrics.push((m.name, m.unit, value));
        }
    } else {
        // A traced twin must end exactly as its plain twin did: tracing
        // may cost time, never change an outcome.
        for (p, t) in out.plain.iter().zip(&out.traced) {
            if p.op != t.op || p.digest != t.digest {
                return Err(format!(
                    "{name}: operation {} ended differently traced ({:016x}) and untraced ({:016x})",
                    p.op, t.digest, p.digest
                ));
            }
        }
        let layers = &mut out.layers;
        layers.insert("op.p50_ms", timing[0]);
        layers.insert("op.p90_ms", timing[1]);
        layers.insert("op.trials_per_s", timing[2]);
        // Each pair did the same work, so the per-pair ratio is free of
        // the spread between operations; its median is free of outliers.
        let ratios: Vec<f64> = out
            .traced
            .iter()
            .zip(&out.plain)
            .map(|(t, p)| t.wall_s / p.wall_s)
            .collect();
        layers.insert("obs.trace_overhead_ratio", stats::median(&ratios));
        layers.insert("par.threads", ba_par::num_threads() as f64);
        layers::lines_of_code(Path::new("."), layers);
        for &(metric, unit) in metrics::PER_LAYER {
            metrics.push((metric, unit, layers.remove(metric).unwrap_or(0.0)));
        }
        if let Some(stray) = layers.keys().next() {
            return Err(format!(
                "{name} measured `{stray}`, which no catalogue lists"
            ));
        }
        let path = Path::new(OUT_DIR).join(format!("trace-{name}.jsonl"));
        let spans = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| rec.write_jsonl(&path))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("{spans} spans -> {}", path.display());
    }
    Ok(Finished {
        attempted,
        failed,
        metrics,
        timing,
        op_wall_ms,
        setup_s: out.setup_s,
        steal_share,
    })
}

fn quartile_json(xs: &[f64]) -> Json {
    let [q1, median, q3] = stats::quartiles(xs);
    Json::obj()
        .with("n", xs.len())
        .with("q1", q1)
        .with("median", median)
        .with("q3", q3)
}

/// The one-workload mode the driver calls: human-readable lines, then
/// the result object as the last line of standard output.
fn single(name: &str, args: &Args, started: Instant) -> Result<(), String> {
    let opts = RunOpts {
        seed: args.seed,
        // The smoke tier runs the counted operations and stops.
        seconds: if args.smoke {
            0.0
        } else {
            args.seconds.unwrap_or_else(default_seconds)
        },
        trace: args.trace,
        smoke: args.smoke,
        started,
    };
    let done = run_one(name, &opts)?;
    let [q1, median, q3] = stats::quartiles(&done.op_wall_ms);
    println!(
        "{name}: seed {} | {} operations, wall q1 {q1:.2} / median {median:.2} / q3 {q3:.2} ms | \
         set-up x{} | {} trials, {} failed | {:.2} % of CPU time stolen by the host",
        opts.seed,
        done.op_wall_ms.len(),
        done.setup_s.len(),
        done.attempted,
        done.failed,
        100.0 * done.steal_share
    );
    let mut metrics = Json::obj();
    for &(metric, unit, value) in &done.metrics {
        println!("  {metric:<42} {value:>18.6} {unit}");
        metrics = metrics.with(metric, Json::obj().with("value", value).with("unit", unit));
    }
    let mut timing = Json::obj();
    for (m, &value) in metrics::TIMING.iter().zip(&done.timing) {
        if !opts.trace {
            println!("  {:<42} {value:>18.6} {} (not gated)", m.name, m.unit);
        }
        timing = timing.with(
            m.name,
            Json::obj().with("value", value).with("unit", m.unit),
        );
    }
    let result = Json::obj()
        .with("correct", done.failed == 0)
        .with("attempted", done.attempted)
        .with("failed", done.failed)
        .with("metrics", metrics);
    if let Some(path) = &args.sidecar {
        let side = Json::obj()
            .with("result", result.clone())
            .with("timing", timing)
            .with("op_wall_ms", quartile_json(&done.op_wall_ms))
            .with("setup_s", quartile_json(&done.setup_s))
            .with("steal_share", done.steal_share);
        std::fs::write(path, side.pretty())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        // The parent reads the file; the result line is for callers that
        // read standard output.
        return Ok(());
    }
    println!("{}", result.render());
    Ok(())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// Runs `workload` once in a child process and returns what its sidecar
/// file holds. A process per run keeps `VmHWM`, the sampler cache and the
/// `ba-par` pool private to the run.
fn child_run(workload: &str, seed: u64, trace: bool, args: &Args) -> Result<Json, String> {
    let sidecar = Path::new(OUT_DIR).join(format!(
        "run-{workload}-{seed}-{}.json",
        if trace { "traced" } else { "plain" }
    ));
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--sidecar")
        .arg(&sidecar);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    if !status.success() {
        return Err(format!("{workload} (seed {seed}) ended with {status}"));
    }
    let text = std::fs::read_to_string(&sidecar)
        .map_err(|e| format!("reading {}: {e}", sidecar.display()))?;
    std::fs::remove_file(&sidecar).ok();
    json::parse(&text)
}

/// The every-workload mode: each workload `--repeat` times at seeds
/// `S, S+1, ...`, each run in its own child, results gathered into one
/// file.
fn all(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let header = Json::obj()
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(1, |p| p.get()),
        )
        .with("par.threads", ba_par::num_threads())
        .with("rustc", command_line("rustc", &["--version"]))
        .with("git_commit", command_line("git", &["rev-parse", "HEAD"]))
        .with("seed", args.seed)
        .with("repeat", args.repeat)
        .with("seconds", args.seconds.unwrap_or_else(default_seconds))
        .with("smoke", args.smoke)
        .with("build_s", args.build_s);

    let mut workloads = Vec::new();
    for &name in metrics::WORKLOADS {
        let mut runs = Vec::new();
        let mut traced = None;
        for rep in 0..args.repeat {
            runs.push(child_run(name, args.seed + rep, false, args)?);
            if args.traced && rep == 0 {
                traced = Some(child_run(name, args.seed, true, args)?);
            }
        }
        // A metric's value in a run's file: among the result line's
        // metrics, or among the window's wall-clock numbers beside it.
        let value_of = |run: &Json, metric: &str| -> Option<f64> {
            let gated = run
                .get("result")
                .and_then(|r| r.get("metrics")?.get(metric));
            gated
                .or_else(|| run.get("timing")?.get(metric))?
                .get("value")?
                .num()
        };
        let count_of = |run: &Json, key: &str| {
            run.get("result")
                .and_then(|r| r.get(key)?.num())
                .unwrap_or(0.0)
        };
        let mut end_to_end = Json::obj();
        for m in metrics::END_TO_END.iter().chain(metrics::TIMING) {
            let values: Vec<f64> = runs.iter().filter_map(|r| value_of(r, m.name)).collect();
            if values.len() != runs.len() {
                return Err(format!("{name}: a run did not report `{}`", m.name));
            }
            let [q1, median, q3] = stats::quartiles(&values);
            end_to_end = end_to_end.with(
                m.name,
                Json::obj()
                    .with("unit", m.unit)
                    .with("median", median)
                    .with("q1", q1)
                    .with("q3", q3)
                    .with(
                        "values",
                        values.into_iter().map(Json::Num).collect::<Vec<_>>(),
                    ),
            );
        }
        let mut entry = Json::obj()
            .with("name", name)
            .with("runs", runs.len())
            .with(
                "attempted",
                runs.iter().map(|r| count_of(r, "attempted")).sum::<f64>(),
            )
            .with(
                "failed",
                runs.iter().map(|r| count_of(r, "failed")).sum::<f64>(),
            )
            .with("end_to_end", end_to_end)
            .with(
                "op_wall_ms",
                runs[0].get("op_wall_ms").cloned().unwrap_or(Json::Null),
            )
            .with(
                "setup_s",
                runs[0].get("setup_s").cloned().unwrap_or(Json::Null),
            )
            .with(
                "steal_share",
                runs.iter()
                    .map(|r| r.get("steal_share").cloned().unwrap_or(Json::Null))
                    .collect::<Vec<_>>(),
            );
        if let Some(t) = &traced {
            let mut per_layer = Json::obj();
            for &(metric, unit) in metrics::PER_LAYER {
                let value = value_of(t, metric)
                    .ok_or_else(|| format!("{name}: no `{metric}` in the traced run"))?;
                per_layer =
                    per_layer.with(metric, Json::obj().with("unit", unit).with("value", value));
            }
            entry = entry
                .with("per_layer", per_layer)
                .with("traced_failed", count_of(t, "failed"));
        }
        workloads.push(entry);
    }

    let doc = Json::obj()
        .with("header", header)
        .with("workloads", workloads);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join("results.json"));
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("writing {}: {e}", path.display()))?;

    println!(
        "\n{:<20} {:<16} {:>16} {:<6} {:>8}",
        "workload", "metric", "median", "unit", "spread"
    );
    for w in doc.get("workloads").map_or(&[][..], Json::arr) {
        let name = w.get("name").and_then(Json::str).unwrap_or("?");
        for (metric, m) in w.get("end_to_end").map_or(&[][..], Json::entries) {
            let num = |k: &str| m.get(k).and_then(Json::num).unwrap_or(0.0);
            // One run has no spread to show.
            let spread = match m.get("values").map_or(0, |v| v.arr().len()) {
                0 | 1 => "-".to_owned(),
                _ => format!("{:.2}%", 100.0 * (num("q3") - num("q1")) / num("median")),
            };
            println!(
                "{name:<20} {metric:<16} {:>16.4} {:<6} {spread:>8}",
                num("median"),
                m.get("unit").and_then(Json::str).unwrap_or(""),
            );
        }
        println!(
            "{name:<20} {:<16} {:>16}",
            "failed/attempted",
            format!(
                "{}/{}",
                w.get("failed").and_then(Json::num).unwrap_or(0.0),
                w.get("attempted").and_then(Json::num).unwrap_or(0.0)
            )
        );
    }
    println!("results -> {}", path.display());
    let failed: f64 = doc
        .get("workloads")
        .map_or(&[][..], Json::arr)
        .iter()
        .map(|w| {
            w.get("failed").and_then(Json::num).unwrap_or(0.0)
                + w.get("traced_failed").and_then(Json::num).unwrap_or(0.0)
        })
        .sum();
    if failed > 0.0 {
        return Err(format!("{failed} trials failed"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("compare") {
        match argv.as_slice() {
            [_, a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => Err("usage: benchmark compare A.json B.json".to_owned()),
        }
    } else {
        parse_args(&argv).and_then(|args| match &args.workload {
            Some(name) => single(name, &args, started).map(|()| true),
            None => all(&args).map(|()| true),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
