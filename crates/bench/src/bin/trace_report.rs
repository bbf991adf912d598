//! Digests a `ba-obs` JSONL trace into the run-level tables the paper's
//! cost analysis talks about: per-phase bits per good processor vs n
//! (with a fitted `c·√n·log₂ᵏn` curve against Theorem 1's `Õ(√n)`
//! claim), the top talkers, and the quarantined wall-clock profile.
//!
//! ```text
//! cargo run --release -p ba-bench --bin trace-report -- [--check] [--top K] TRACE.jsonl
//! ```
//!
//! With `--check` the report exits non-zero unless every line parses
//! and every trial's per-phase attribution sums exactly to its
//! `total_bits` — the invariant `scripts/ci.sh` smokes on a traced
//! scenario run.

use ba_exp::Table;
use std::collections::BTreeMap;

/// A parsed JSON scalar from one trace line.
#[derive(Clone, Debug, PartialEq)]
enum Val {
    Str(String),
    Num(f64),
    Null,
}

impl Val {
    fn as_u64(&self) -> Option<u64> {
        match self {
            Val::Num(v) if *v >= 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Val::Num(v) => Some(*v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one flat JSONL object as `ba_obs::Trace` writes it: string /
/// number / null values only, strings decoded as UTF-8 with every JSON
/// escape (`ba_obs::json_escape` emits `\"`, `\\`, `\b`, `\t`, `\n`,
/// `\f`, `\r` and `\u00XX`).
fn parse_line(line: &str) -> Option<Vec<(String, Val)>> {
    let bytes = line.as_bytes();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < bytes.len() && bytes[*i].is_ascii_whitespace() {
            *i += 1;
        }
    };
    // Stops only at ASCII bytes, so every slice it copies is whole
    // UTF-8.
    let parse_string = |i: &mut usize| -> Option<String> {
        if bytes.get(*i) != Some(&b'"') {
            return None;
        }
        *i += 1;
        let mut out = String::new();
        loop {
            let start = *i;
            while !matches!(bytes.get(*i)?, b'"' | b'\\') {
                *i += 1;
            }
            out.push_str(&line[start..*i]);
            if bytes[*i] == b'"' {
                *i += 1;
                return Some(out);
            }
            let c = match bytes.get(*i + 1)? {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b't' => '\t',
                b'n' => '\n',
                b'f' => '\u{c}',
                b'r' => '\r',
                b'u' => {
                    let hex = line.get(*i + 2..*i + 6)?;
                    if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                        return None;
                    }
                    *i += 4;
                    char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
                }
                _ => return None,
            };
            out.push(c);
            *i += 2;
        }
    };
    skip_ws(&mut i);
    if bytes.get(i) != Some(&b'{') {
        return None;
    }
    i += 1;
    let mut fields = Vec::new();
    loop {
        skip_ws(&mut i);
        if bytes.get(i) == Some(&b'}') {
            return Some(fields);
        }
        let key = parse_string(&mut i)?;
        skip_ws(&mut i);
        if bytes.get(i) != Some(&b':') {
            return None;
        }
        i += 1;
        skip_ws(&mut i);
        let value = match bytes.get(i)? {
            b'"' => Val::Str(parse_string(&mut i)?),
            b'n' if line.get(i..i + 4) == Some("null") => {
                i += 4;
                Val::Null
            }
            _ => {
                let start = i;
                while i < bytes.len() && !matches!(bytes[i], b',' | b'}') {
                    i += 1;
                }
                Val::Num(line[start..i].trim().parse().ok()?)
            }
        };
        fields.push((key, value));
        skip_ws(&mut i);
        if bytes.get(i) == Some(&b',') {
            i += 1;
        }
    }
}

fn get<'a>(fields: &'a [(String, Val)], key: &str) -> Option<&'a Val> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Per-population aggregates folded from trial events.
#[derive(Debug, Default)]
struct SizeAgg {
    trials: u64,
    good_sum: u64,
    total_bits_sum: u64,
    /// phase → summed bits across trials.
    phase_bits: BTreeMap<String, u64>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check = false;
    let mut top_k = 5usize;
    let mut path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => check = true,
            "--top" => match it.next().and_then(|v| v.parse().ok()) {
                Some(k) => top_k = k,
                None => {
                    eprintln!("--top needs a count");
                    std::process::exit(2);
                }
            },
            other if path.is_none() && !other.starts_with("--") => path = Some(other.to_owned()),
            other => {
                eprintln!("unknown argument `{other}` (accepted: --check, --top K, TRACE.jsonl)");
                std::process::exit(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: trace-report [--check] [--top K] TRACE.jsonl");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("error: reading {path}: {e}");
        std::process::exit(1);
    });

    // Streaming fold: trial blocks arrive in trial order (the harness
    // merges per-trial buffers deterministically), so the last
    // `trial:start` is the context for every line until `trial:end`.
    let mut sizes: BTreeMap<u64, SizeAgg> = BTreeMap::new();
    let mut phase_order: Vec<String> = Vec::new();
    let mut pending_phases: Vec<(String, u64)> = Vec::new();
    let mut cur_n: Option<u64> = None;
    let mut talkers: Vec<(u64, u64, u64)> = Vec::new(); // (bits, proc, n)
    let mut profile: Vec<(String, u64, f64)> = Vec::new();
    let mut events = 0u64;
    let mut bad_lines = 0u64;
    let mut check_failures = 0u64;

    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let Some(fields) = parse_line(line) else {
            bad_lines += 1;
            eprintln!("line {}: does not parse", lineno + 1);
            continue;
        };
        if get(&fields, "section").and_then(Val::as_str) == Some("profile") {
            let name = get(&fields, "name").and_then(Val::as_str).unwrap_or("?");
            let calls = get(&fields, "calls").and_then(Val::as_u64).unwrap_or(0);
            let secs = get(&fields, "secs").and_then(Val::as_f64).unwrap_or(0.0);
            profile.push((name.to_owned(), calls, secs));
            continue;
        }
        events += 1;
        match get(&fields, "kind").and_then(Val::as_str) {
            Some("trial:start") => {
                cur_n = get(&fields, "n").and_then(Val::as_u64);
                pending_phases.clear();
            }
            Some("trial:phase") => {
                let phase = get(&fields, "phase").and_then(Val::as_str).unwrap_or("run");
                let bits = get(&fields, "bits").and_then(Val::as_u64).unwrap_or(0);
                pending_phases.push((phase.to_owned(), bits));
            }
            Some("talker") => {
                let proc = get(&fields, "proc").and_then(Val::as_u64).unwrap_or(0);
                let bits = get(&fields, "bits").and_then(Val::as_u64).unwrap_or(0);
                talkers.push((bits, proc, cur_n.unwrap_or(0)));
            }
            Some("trial:end") => {
                let n = get(&fields, "n").and_then(Val::as_u64).unwrap_or(0);
                let good = get(&fields, "good").and_then(Val::as_u64).unwrap_or(0);
                let total = get(&fields, "total_bits")
                    .and_then(Val::as_u64)
                    .unwrap_or(0);
                let attributed: u64 = pending_phases.iter().map(|(_, b)| *b).sum();
                if attributed != total {
                    check_failures += 1;
                    eprintln!(
                        "check: n={n} trial phase bits sum to {attributed}, total_bits is {total}"
                    );
                }
                let agg = sizes.entry(n).or_default();
                agg.trials += 1;
                agg.good_sum += good;
                agg.total_bits_sum += total;
                for (phase, bits) in pending_phases.drain(..) {
                    if !phase_order.contains(&phase) {
                        phase_order.push(phase.clone());
                    }
                    *agg.phase_bits.entry(phase).or_insert(0) += bits;
                }
            }
            _ => {}
        }
    }

    println!(
        "trace-report: {path} — {events} events, {} profile entr{}, {bad_lines} unparsed",
        profile.len(),
        if profile.len() == 1 { "y" } else { "ies" },
    );

    if sizes.is_empty() {
        println!("\nno trial summaries found (was the run traced through the harness?)");
        if check {
            eprintln!("check: FAILED (no trials to check)");
            std::process::exit(1);
        }
        return;
    }

    // Per-phase bits per good processor vs n. Column sums equal
    // total_bits / good by construction (checked above per trial).
    println!("\nper-phase bits per good processor");
    let mut columns = vec!["phase".to_owned()];
    columns.extend(sizes.keys().map(|n| format!("n={n}")));
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let table = Table::header(&col_refs);
    for phase in &phase_order {
        let mut cells = vec![phase.clone()];
        for agg in sizes.values() {
            let bits = agg.phase_bits.get(phase).copied().unwrap_or(0);
            cells.push(format!("{:.0}", bits as f64 / agg.good_sum.max(1) as f64));
        }
        table.row(&cells);
    }
    let mut total_cells = vec!["TOTAL".to_owned()];
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (n, agg) in &sizes {
        let per_good = agg.total_bits_sum as f64 / agg.good_sum.max(1) as f64;
        total_cells.push(format!("{per_good:.0}"));
        xs.push(*n as f64);
        ys.push(per_good);
    }
    table.row(&total_cells);

    // Fit total bits/good-proc to c·√n·log₂ᵏn: regress
    // log₂(b) − ½·log₂(n) on log₂(log₂ n). Theorem 1 says k stays O(1).
    if xs.len() >= 2 && ys.iter().all(|&y| y > 0.0) {
        let lx: Vec<f64> = xs.iter().map(|x| x.log2().log2()).collect();
        let ly: Vec<f64> = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| y.log2() - 0.5 * x.log2())
            .collect();
        let mx = lx.iter().sum::<f64>() / lx.len() as f64;
        let my = ly.iter().sum::<f64>() / ly.len() as f64;
        let num: f64 = lx.iter().zip(&ly).map(|(a, b)| (a - mx) * (b - my)).sum();
        let den: f64 = lx.iter().map(|a| (a - mx) * (a - mx)).sum();
        if den > 0.0 {
            let k = num / den;
            let c = (my - k * mx).exp2();
            println!("\nfit: bits/good-proc ≈ {c:.2} · √n · log₂^{k:.2}(n)");
            for (x, y) in xs.iter().zip(&ys) {
                let fitted = c * x.sqrt() * x.log2().powf(k);
                println!("  n={x:>6.0}: observed {y:>12.0}  fitted {fitted:>12.0}");
            }
        }
    }

    // Top talkers across all trials.
    talkers.sort_by(|a, b| b.cmp(a));
    if !talkers.is_empty() {
        println!(
            "\ntop {} talkers (bits in one trial)",
            top_k.min(talkers.len())
        );
        let t = Table::header(&["bits", "proc", "n"]);
        for (bits, proc, n) in talkers.iter().take(top_k) {
            t.row(&[bits.to_string(), proc.to_string(), n.to_string()]);
        }
    }

    // Wall-clock hotspots (quarantined section: absent from the
    // deterministic event stream, merged by name across trials).
    if !profile.is_empty() {
        profile.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        println!("\nprofile hotspots");
        let t = Table::header(&["secs", "calls", "section"]);
        for (name, calls, secs) in profile.iter().take(top_k) {
            t.row(&[format!("{secs:.4}"), calls.to_string(), name.clone()]);
        }
    }

    if check {
        if bad_lines > 0 {
            eprintln!("check: FAILED ({bad_lines} line(s) do not parse)");
        }
        if check_failures > 0 {
            eprintln!("check: FAILED ({check_failures} trial(s) with phase sums != total_bits)");
        }
        if bad_lines + check_failures > 0 {
            std::process::exit(1);
        }
        println!(
            "\ncheck: OK (every line parses and every trial's phase attribution sums to its \
             total_bits)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_obs::Trace;

    #[test]
    fn reads_back_what_the_tracer_writes() {
        let trace = Trace::memory();
        let (scenario, phase) = ("tab\there \"quoted\" \\ \u{1}", "ε:3");
        trace.event("serve:session", 3, phase, &[("scenario", scenario.into())]);
        let lines = trace.take_lines();
        let fields = parse_line(&lines[0]).expect("parses");
        assert_eq!(
            get(&fields, "kind"),
            Some(&Val::Str("serve:session".into()))
        );
        assert_eq!(get(&fields, "round"), Some(&Val::Num(3.0)));
        assert_eq!(get(&fields, "phase"), Some(&Val::Str(phase.into())));
        assert_eq!(get(&fields, "scenario"), Some(&Val::Str(scenario.into())));
    }

    #[test]
    fn a_mangled_line_does_not_parse() {
        for line in [
            "{\"kind\": \"trial:end\", \"n\": 8, \"good\"",
            "{\"kind\": \"x\\q\"}",
            "{\"kind\": \"\\u00zz\"}",
            "{\"kind\": nope}",
        ] {
            assert_eq!(parse_line(line), None, "{line}");
        }
    }
}
