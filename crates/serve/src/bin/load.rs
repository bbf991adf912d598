//! Load generator for the ba-serve daemon: opens N sessions across a
//! bounded number of client threads and reports latency percentiles,
//! session throughput, and frames and bytes on the wire.
//!
//! ```text
//! load --addr HOST:PORT [--sessions N] [--concurrency N] [--spec FILE]
//!      [--retries N] [--json PATH] [--shutdown]
//! ```
//!
//! `--port-file PATH` reads the address a `serve --port-file` daemon
//! wrote. Session `i` runs trial index `i`, so a load run covers N
//! distinct seeds of the spec. Busy rejections retry with the
//! server-suggested backoff (counted, up to `--retries` per session).

use ba_serve::client;
use ba_serve::ClientError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const DEFAULT_SPEC: &str = "\
# Default ba-serve load spec: one tournament trial per session.
name     = serve-load
protocol = tournament
n        = 64
trials   = 1
seed     = 1
";

#[derive(Debug)]
struct Done {
    latency: Duration,
    agreement: f64,
    wire_bytes: u64,
    wire_frames: u64,
    bytes_out: u64,
    bytes_in: u64,
    frames_out: u64,
    frames_in: u64,
    total_bits: u64,
    payload_bits: u64,
}

fn main() {
    let mut addr: Option<String> = None;
    let mut sessions: u64 = 64;
    let mut concurrency: usize = 16;
    let mut spec_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut retries: u32 = 200;
    let mut do_shutdown = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr")),
            "--port-file" => {
                let p = value("--port-file");
                let text = std::fs::read_to_string(&p).unwrap_or_else(|e| {
                    eprintln!("error: reading port file {p}: {e}");
                    std::process::exit(1);
                });
                addr = Some(text.trim().to_owned());
            }
            "--sessions" => sessions = parse_num(&value("--sessions"), "--sessions"),
            "--concurrency" => concurrency = parse_num(&value("--concurrency"), "--concurrency"),
            "--spec" => spec_path = Some(value("--spec")),
            "--retries" => retries = parse_num(&value("--retries"), "--retries"),
            "--json" => json_path = Some(value("--json")),
            "--shutdown" => do_shutdown = true,
            other => {
                eprintln!(
                    "unknown argument `{other}` (accepted: --addr HOST:PORT, --port-file PATH, \
                     --sessions N, --concurrency N, --spec FILE, --retries N, --json PATH, \
                     --shutdown)"
                );
                std::process::exit(2);
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("load: --addr HOST:PORT (or --port-file PATH) is required");
        std::process::exit(2);
    };
    let spec_text = match &spec_path {
        Some(p) => std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("error: reading spec {p}: {e}");
            std::process::exit(1);
        }),
        None => DEFAULT_SPEC.to_owned(),
    };

    let next = Arc::new(AtomicU64::new(0));
    let busy_retries = Arc::new(AtomicU64::new(0));
    let done: Arc<Mutex<Vec<Done>>> = Arc::new(Mutex::new(Vec::new()));
    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let started = Instant::now();
    let threads: Vec<_> = (0..concurrency.max(1))
        .map(|_| {
            let addr = addr.clone();
            let spec_text = spec_text.clone();
            let next = Arc::clone(&next);
            let busy_retries = Arc::clone(&busy_retries);
            let done = Arc::clone(&done);
            let failures = Arc::clone(&failures);
            std::thread::spawn(move || loop {
                let trial = next.fetch_add(1, Ordering::Relaxed);
                if trial >= sessions {
                    return;
                }
                match run_one(&addr, &spec_text, trial, retries, &busy_retries) {
                    Ok(d) => done.lock().unwrap().push(d),
                    Err(e) => failures.lock().unwrap().push(format!("trial {trial}: {e}")),
                }
            })
        })
        .collect();
    for t in threads {
        let _ = t.join();
    }
    let wall = started.elapsed();

    if do_shutdown {
        if let Err(e) = client::shutdown(&addr) {
            eprintln!("warning: shutdown request failed: {e}");
        }
    }

    let done = Arc::try_unwrap(done)
        .expect("threads joined")
        .into_inner()
        .unwrap();
    let failures = failures.lock().unwrap().clone();
    report(
        &addr,
        sessions,
        concurrency,
        &done,
        &failures,
        busy_retries.load(Ordering::Relaxed),
        wall,
        json_path.as_deref(),
    );
    if !failures.is_empty() || done.len() as u64 != sessions {
        std::process::exit(1);
    }
}

fn run_one(
    addr: &str,
    spec_text: &str,
    trial: u64,
    retries: u32,
    busy_retries: &AtomicU64,
) -> Result<Done, ClientError> {
    let mut attempt = 0;
    loop {
        match client::run_session(addr, spec_text, trial) {
            Ok(s) => {
                return Ok(Done {
                    latency: s.wall,
                    agreement: s.outcome.agreement,
                    wire_bytes: s.outcome.wire_bytes,
                    wire_frames: s.outcome.wire_frames,
                    bytes_out: s.bytes_out,
                    bytes_in: s.bytes_in,
                    frames_out: s.frames_out,
                    frames_in: s.frames_in,
                    total_bits: s.outcome.total_bits,
                    payload_bits: s.payload_bits,
                });
            }
            Err(ClientError::Busy { retry_after_ms }) if attempt < retries => {
                attempt += 1;
                busy_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms.max(1))));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Nearest-rank percentile over sorted millisecond latencies.
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

#[allow(clippy::too_many_arguments)]
fn report(
    addr: &str,
    sessions: u64,
    concurrency: usize,
    done: &[Done],
    failures: &[String],
    busy_retries: u64,
    wall: Duration,
    json_path: Option<&str>,
) {
    let mut lat_ms: Vec<f64> = done.iter().map(|d| d.latency.as_secs_f64() * 1e3).collect();
    lat_ms.sort_by(f64::total_cmp);
    let p50 = percentile(&lat_ms, 50.0);
    let p90 = percentile(&lat_ms, 90.0);
    let p99 = percentile(&lat_ms, 99.0);
    let max = lat_ms.last().copied().unwrap_or(0.0);
    let mean = if lat_ms.is_empty() {
        0.0
    } else {
        lat_ms.iter().sum::<f64>() / lat_ms.len() as f64
    };
    let wall_secs = wall.as_secs_f64();
    let rate = if wall_secs > 0.0 {
        done.len() as f64 / wall_secs
    } else {
        0.0
    };
    let all_agreed = !done.is_empty() && done.iter().all(|d| d.agreement == 1.0);
    let bytes_out: u64 = done.iter().map(|d| d.bytes_out).sum();
    let bytes_in: u64 = done.iter().map(|d| d.bytes_in).sum();
    let server_wire_bytes: u64 = done.iter().map(|d| d.wire_bytes).sum();
    let frames_out: u64 = done.iter().map(|d| d.frames_out).sum();
    let frames_in: u64 = done.iter().map(|d| d.frames_in).sum();
    let server_wire_frames: u64 = done.iter().map(|d| d.wire_frames).sum();
    let total_bits: u64 = done.iter().map(|d| d.total_bits).sum();
    let payload_bits: u64 = done.iter().map(|d| d.payload_bits).sum();

    println!("load: {addr}, {sessions} sessions x {concurrency} client threads");
    println!(
        "  completed {} / {sessions} ({} failed), {busy_retries} busy retries, all_agreed = {all_agreed}",
        done.len(),
        failures.len(),
    );
    println!(
        "  latency ms: p50 {p50:.2}  p90 {p90:.2}  p99 {p99:.2}  mean {mean:.2}  max {max:.2}"
    );
    println!("  throughput: {rate:.1} sessions/s over {wall_secs:.2} s");
    println!(
        "  wire: {bytes_out} B to server, {bytes_in} B from server \
         (server-counted data bytes: {server_wire_bytes}); model bits: {total_bits}"
    );
    let per_session = |total: u64| total as f64 / done.len().max(1) as f64;
    println!(
        "  frames: {frames_out} to server, {frames_in} from server \
         (server-counted data frames: {server_wire_frames}); \
         per session: {:.1} frames, {:.1} B",
        per_session(frames_out + frames_in),
        per_session(bytes_out + bytes_in),
    );
    for f in failures.iter().take(5) {
        println!("  failure: {f}");
    }

    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"addr\": \"{addr}\",\n  \"sessions\": {sessions},\n  \"concurrency\": {concurrency},\n  \
             \"completed\": {completed},\n  \"failed\": {failed},\n  \"busy_retries\": {busy_retries},\n  \
             \"all_agreed\": {all_agreed},\n  \"wall_secs\": {wall_secs:.4},\n  \
             \"sessions_per_sec\": {rate:.2},\n  \
             \"latency_ms\": {{ \"p50\": {p50:.3}, \"p90\": {p90:.3}, \"p99\": {p99:.3}, \"mean\": {mean:.3}, \"max\": {max:.3} }},\n  \
             \"bytes_to_server\": {bytes_out},\n  \"bytes_from_server\": {bytes_in},\n  \
             \"server_data_bytes\": {server_wire_bytes},\n  \
             \"frames_to_server\": {frames_out},\n  \"frames_from_server\": {frames_in},\n  \
             \"server_data_frames\": {server_wire_frames},\n  \
             \"model_total_bits\": {total_bits},\n  \"client_payload_bits\": {payload_bits}\n}}\n",
            completed = done.len(),
            failed = failures.len(),
        );
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
        println!("  json -> {path}");
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, name: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{name}: `{s}` is not a valid number");
        std::process::exit(2);
    })
}
