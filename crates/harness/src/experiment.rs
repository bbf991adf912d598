//! The experiment harness: sections, rows, fixed-width tables, the
//! shared `--json`/`--trials`/`--trace` CLI, and JSON row emission —
//! once, for every preset of the `exp` binary.
//!
//! An [`Experiment`] executes eagerly: declaring a case runs it (trial
//! fan-out included) and prints its table row immediately, so a preset
//! reads top-to-bottom exactly like its output. `finish()` writes the
//! collected JSON rows when `--json PATH` was passed.

use crate::runner::{run_traced, RunReport};
use crate::spec::RunSpec;
use crate::stats::{mean, par_trials, Table};
use ba_net::NetStats;
use ba_obs::Trace;
use std::path::Path;

/// A named aggregate metric over a [`RunReport`], for table columns and
/// JSON fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Mean plurality-agreement fraction.
    Agreement,
    /// Worst-trial plurality-agreement fraction.
    AgreementMin,
    /// Mean decided fraction.
    Decided,
    /// Fraction of trials with a valid outcome.
    Valid,
    /// Mean rounds.
    Rounds,
    /// Mean max-bits-per-good-processor.
    BitsMax,
    /// Mean good fraction of the coin subsequence.
    CoinGoodFrac,
    /// Mean tournament-phase rounds.
    TournamentRounds,
    /// Mean max-bits of the Algorithm-3 phase alone.
    AeBitsMax,
    /// Mean total bits sent.
    TotalBits,
    /// Percentage of sent envelopes lost, over all trials.
    LossRate,
    /// Percentage of delivered envelopes that arrived late, over all
    /// trials.
    LateRate,
}

impl Metric {
    /// Evaluates the metric over a report.
    pub fn eval(&self, report: &RunReport) -> f64 {
        match self {
            Metric::Agreement => report.mean_of(|t| t.agreement),
            Metric::AgreementMin => report.min_of(|t| t.agreement),
            Metric::Decided => report.mean_of(|t| t.decided),
            Metric::Valid => report.frac_of(|t| t.valid.unwrap_or(false)),
            Metric::Rounds => report.mean_of(|t| t.rounds as f64),
            Metric::BitsMax => report.mean_of(|t| t.bits.max as f64),
            Metric::CoinGoodFrac => {
                report.mean_of(|t| t.coins.as_ref().map_or(0.0, |c| c.good_fraction()))
            }
            Metric::TournamentRounds => report.mean_of(|t| t.tournament_rounds.unwrap_or(0) as f64),
            Metric::AeBitsMax => {
                report.mean_of(|t| t.ae_bits.as_ref().map_or(0.0, |b| b.max as f64))
            }
            Metric::TotalBits => report.mean_of(|t| t.total_bits as f64),
            Metric::LossRate => 100.0 * report.net_sum().loss_rate(),
            Metric::LateRate => 100.0 * report.net_sum().late_rate(),
        }
    }

    /// Formats a value of this metric for a table cell.
    pub fn format(&self, v: f64) -> String {
        match self {
            Metric::Agreement
            | Metric::AgreementMin
            | Metric::Decided
            | Metric::Valid
            | Metric::CoinGoodFrac => format!("{v:.3}"),
            Metric::LossRate | Metric::LateRate => format!("{v:.1}"),
            _ => format!("{v:.0}"),
        }
    }
}

/// One experiment's harness: CLI, sections, tables, JSON.
#[derive(Debug)]
pub struct Experiment {
    name: String,
    json_out: Option<String>,
    trials_override: Option<u64>,
    trace: Trace,
    section: String,
    columns: Vec<String>,
    table: Option<Table>,
    rows: Vec<String>,
    finished: bool,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Formats an f64 as a JSON number (finite; NaN/inf become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The network block every `case` row carries in its JSON: aggregate
/// counters (dead letters and what was still in the air included) plus
/// per-phase lateness/loss drill-down.
fn net_json(net: &NetStats) -> String {
    let mut phases = String::new();
    for (i, p) in net.per_phase.iter().enumerate() {
        if i > 0 {
            phases.push_str(", ");
        }
        phases.push_str(&format!(
            "{{\"name\": \"{}\", \"sent\": {}, \"sent_bits\": {}, \"delivered\": {}, \
             \"late\": {}, \"late_rounds\": {}, \"dropped_random\": {}, \
             \"dropped_partition\": {}, \"dead_letters\": {}}}",
            json_escape(&p.name),
            p.sent,
            p.sent_bits,
            p.delivered,
            p.late,
            p.late_rounds,
            p.dropped_random,
            p.dropped_partition,
            p.dead_letters,
        ));
    }
    format!(
        "\"net\": {{\"sent\": {}, \"delivered\": {}, \"late\": {}, \"late_rounds\": {}, \
         \"dropped_random\": {}, \"dropped_partition\": {}, \"dead_letters\": {}, \
         \"in_flight_at_end\": {}, \"loss_rate\": {}, \"late_rate\": {}}}, \"phases\": [{}]",
        net.sent,
        net.delivered,
        net.late,
        net.late_rounds,
        net.dropped_random,
        net.dropped_partition,
        net.dead_letters,
        net.in_flight_at_end,
        json_num(net.loss_rate()),
        json_num(net.late_rate()),
        phases,
    )
}

/// The shared experiment CLI, parsed.
#[derive(Debug, Default, PartialEq, Eq)]
struct Cli {
    json: Option<String>,
    trials: Option<u64>,
    trace: Option<String>,
}

/// Parses an experiment's arguments: `--json PATH`, `--trials N` and
/// `--trace PATH`. `trials` is whether the experiment honours
/// `--trials`: one whose rows are one fixed seed each refuses it rather
/// than ignore it.
fn parse_cli(args: &[String], trials: bool) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--json" => cli.json = Some(value("a path")?),
            "--trace" => cli.trace = Some(value("a path")?),
            "--trials" if !trials => {
                return Err("--trials: this experiment runs one fixed seed a row".to_owned())
            }
            "--trials" => match value("a positive count")?.parse::<u64>() {
                Ok(t) if t > 0 => cli.trials = Some(t),
                _ => return Err("--trials needs a positive count".to_owned()),
            },
            other => {
                return Err(format!(
                    "unknown argument `{other}` (accepted: --json PATH, {}--trace PATH)",
                    if trials { "--trials N, " } else { "" }
                ))
            }
        }
    }
    Ok(cli)
}

impl Experiment {
    /// Creates the harness from the experiment's arguments (`--json PATH`
    /// to emit machine-readable rows, `--trials N` to override every
    /// spec's trial count, `--trace PATH` to record the runs), and prints
    /// the title. A bad argument exits with status 2.
    pub fn new(args: &[String], name: &str, title: &str) -> Self {
        Self::open(args, true, name, title)
    }

    /// [`Experiment::new`] for an experiment whose rows are one fixed
    /// seed each: it refuses `--trials`.
    pub fn one_seed(args: &[String], name: &str, title: &str) -> Self {
        Self::open(args, false, name, title)
    }

    fn open(args: &[String], trials: bool, name: &str, title: &str) -> Self {
        let cli = parse_cli(args, trials).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        let trace = match &cli.trace {
            Some(p) => Trace::to_file(Path::new(p)).unwrap_or_else(|e| {
                eprintln!("error: opening trace file {p}: {e}");
                std::process::exit(1);
            }),
            None => Trace::off(),
        };
        println!("{name}: {title}\n");
        Experiment {
            name: name.to_owned(),
            json_out: cli.json,
            trials_override: cli.trials,
            trace,
            section: String::new(),
            columns: Vec::new(),
            table: None,
            rows: Vec::new(),
            finished: false,
        }
    }

    /// Starts a new table section with the given columns.
    pub fn section(&mut self, title: &str, columns: &[&str]) {
        if self.table.is_some() {
            println!();
        }
        println!("{title}\n");
        self.section = title.to_owned();
        self.columns = columns.iter().map(|c| (*c).to_owned()).collect();
        self.table = Some(Table::header(columns));
    }

    /// The `--trace` sink (off without the flag), for a preset that
    /// frames its own trials with [`crate::traced_trial`].
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The trial count `spec` runs with here: `--trials` when given,
    /// else the spec's own.
    pub fn trials(&self, spec: &RunSpec) -> u64 {
        self.trials_override.unwrap_or(spec.trials)
    }

    /// Runs a spec (honoring `--trials` and `--trace`): the one trial
    /// loop behind every case. An error exits with status 1.
    pub fn run(&self, spec: &RunSpec) -> RunReport {
        self.try_run(spec).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        })
    }

    fn try_run(&self, spec: &RunSpec) -> Result<RunReport, String> {
        let spec = RunSpec {
            trials: self.trials(spec),
            ..spec.clone()
        };
        run_traced(&spec, &self.trace)
    }

    /// Runs `spec` and prints one row: `labels`, then the metric values
    /// in order. Returns the report for follow-up computation (slopes,
    /// drill-down rows). An error exits with status 1.
    pub fn case(&mut self, labels: &[String], spec: &RunSpec, metrics: &[Metric]) -> RunReport {
        self.try_case(labels, spec, metrics).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        })
    }

    /// [`Experiment::case`], returning a spec the run refuses as an
    /// error (and printing no row) instead of exiting.
    pub fn try_case(
        &mut self,
        labels: &[String],
        spec: &RunSpec,
        metrics: &[Metric],
    ) -> Result<RunReport, String> {
        let report = self.try_run(spec)?;
        let values: Vec<f64> = metrics.iter().map(|m| m.eval(&report)).collect();
        let mut cells = labels.to_vec();
        for (m, v) in metrics.iter().zip(&values) {
            cells.push(m.format(*v));
        }
        self.emit_row_with(&cells, labels.len(), &values, Some(&report.net_sum()));
        Ok(report)
    }

    /// Prints a row from values the caller computed (from reports or
    /// [`Experiment::collect`] output). Labels fill the first columns,
    /// `values` the rest.
    pub fn case_values(&mut self, labels: &[String], values: &[f64]) {
        let mut cells = labels.to_vec();
        cells.extend(values.iter().map(|v| crate::stats::f3(*v)));
        self.emit_row(&cells, labels.len(), values);
    }

    /// Like [`Experiment::case_values`], but with caller-formatted value
    /// cells (the JSON still records the raw numbers).
    pub fn case_cells(&mut self, labels: &[String], cells: &[String], values: &[f64]) {
        let mut all = labels.to_vec();
        all.extend(cells.iter().cloned());
        self.emit_row(&all, labels.len(), values);
    }

    /// The harness-owned custom trial loop: runs `f` over `trials` seeds
    /// in parallel (honoring `--trials`) and returns per-seed results in
    /// seed order — for experiments whose cell is not a protocol run
    /// (exact crypto models, pure election sampling, …).
    pub fn collect<T: Send>(&self, trials: u64, f: impl Fn(u64) -> T + Sync) -> Vec<T> {
        par_trials(self.trials_override.unwrap_or(trials), f)
    }

    /// Runs a custom per-seed closure returning one value vector per
    /// seed, prints the per-column means as a row, and returns them.
    pub fn case_with(
        &mut self,
        labels: &[String],
        trials: u64,
        f: impl Fn(u64) -> Vec<f64> + Sync,
    ) -> Vec<f64> {
        let samples = self.collect(trials, f);
        let cols = samples.first().map_or(0, Vec::len);
        let means: Vec<f64> = (0..cols)
            .map(|c| mean(&samples.iter().map(|s| s[c]).collect::<Vec<_>>()))
            .collect();
        self.case_values(labels, &means);
        means
    }

    /// Prints a free-form paragraph (kept out of the JSON).
    pub fn note(&mut self, text: &str) {
        println!("{text}");
    }

    fn emit_row(&mut self, cells: &[String], label_count: usize, values: &[f64]) {
        self.emit_row_with(cells, label_count, values, None);
    }

    fn emit_row_with(
        &mut self,
        cells: &[String],
        label_count: usize,
        values: &[f64],
        net: Option<&NetStats>,
    ) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match the section columns (section `{}`)",
            self.section
        );
        let table = self
            .table
            .as_ref()
            .expect("declare a section before emitting rows");
        table.row(cells);
        // JSON: labels as strings under their column names, values as
        // numbers under theirs.
        let mut fields = vec![
            format!("\"experiment\": \"{}\"", json_escape(&self.name)),
            format!("\"section\": \"{}\"", json_escape(&self.section)),
        ];
        for (col, cell) in self.columns.iter().take(label_count).zip(cells) {
            fields.push(format!(
                "\"{}\": \"{}\"",
                json_escape(col),
                json_escape(cell)
            ));
        }
        for (col, v) in self.columns.iter().skip(label_count).zip(values) {
            fields.push(format!("\"{}\": {}", json_escape(col), json_num(*v)));
        }
        if let Some(net) = net {
            fields.push(net_json(net));
        }
        self.rows.push(format!("{{{}}}", fields.join(", ")));
    }

    /// Writes the JSON rows if `--json` was passed. Every preset calls
    /// this last.
    pub fn finish(mut self) {
        self.finished = true;
        // Append the quarantined profile section and flush the trace
        // file, if one is open.
        self.trace.finish();
        let Some(path) = self.json_out.take() else {
            return;
        };
        let body = format!("[\n  {}\n]\n", self.rows.join(",\n  "));
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}

impl Drop for Experiment {
    fn drop(&mut self) {
        if !self.finished && self.json_out.is_some() && !std::thread::panicking() {
            eprintln!("warning: Experiment dropped without finish(); --json output not written");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RunSpec;

    #[test]
    fn metrics_evaluate_over_reports() {
        let report = crate::runner::run(&RunSpec::flood(16).trials(2)).expect("run");
        assert_eq!(Metric::Agreement.eval(&report), 1.0);
        assert!(Metric::Rounds.eval(&report) > 0.0);
        assert!(Metric::BitsMax.eval(&report) > 0.0);
        assert_eq!(
            Metric::Valid.eval(&report),
            0.0,
            "flood defines no validity"
        );
        assert_eq!(Metric::AgreementMin.eval(&report), 1.0);
        assert_eq!(Metric::Decided.eval(&report), 1.0);
        assert!(Metric::TotalBits.eval(&report) >= Metric::BitsMax.eval(&report));
        assert_eq!(Metric::LossRate.eval(&report), 0.0, "a clean net");
        assert_eq!(Metric::LateRate.eval(&report), 0.0, "a clean net");
        assert_eq!(Metric::Agreement.format(0.5), "0.500");
        assert_eq!(Metric::Rounds.format(12.0), "12");
        assert_eq!(Metric::LossRate.format(16.66), "16.7");
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn each_flag_parses() {
        assert_eq!(parse_cli(&[], true), Ok(Cli::default()));
        let cli = parse_cli(&args(&["--json", "o.json"]), true).unwrap();
        assert_eq!(cli.json.as_deref(), Some("o.json"));
        let cli = parse_cli(&args(&["--trials", "3"]), true).unwrap();
        assert_eq!(cli.trials, Some(3));
        let cli = parse_cli(&args(&["--trace", "t.jsonl"]), true).unwrap();
        assert_eq!(cli.trace.as_deref(), Some("t.jsonl"));
        let all = ["--trace", "t", "--trials", "1", "--json", "j"];
        let cli = parse_cli(&args(&all), true).unwrap();
        let want = Cli {
            json: Some("j".into()),
            trials: Some(1),
            trace: Some("t".into()),
        };
        assert_eq!(cli, want);
    }

    #[test]
    fn bad_arguments_are_errors() {
        for bad in [
            &["--json"][..],
            &["--trace"],
            &["--trials"],
            &["--trials", "0"],
            &["--trials", "-1"],
            &["--trials", "many"],
            &["--seed", "7"],
            &["scale"],
        ] {
            assert!(parse_cli(&args(bad), true).is_err(), "{bad:?} parsed");
        }
        let err = parse_cli(&args(&["--json"]), true).unwrap_err();
        assert_eq!(err, "--json needs a path");
        let err = parse_cli(&args(&["--max-n", "16384"]), true).unwrap_err();
        assert!(err.contains("unknown argument `--max-n`"), "{err}");
    }

    #[test]
    fn a_one_seed_experiment_refuses_trials() {
        let err = parse_cli(&args(&["--trials", "1"]), false).unwrap_err();
        assert!(err.contains("one fixed seed"), "{err}");
        let err = parse_cli(&args(&["--bogus"]), false).unwrap_err();
        assert!(!err.contains("--trials"), "not offered: {err}");
        let cli = parse_cli(&args(&["--json", "j", "--trace", "t"]), false).unwrap();
        assert_eq!(cli.trials, None);
        assert_eq!(cli.json.as_deref(), Some("j"));
    }

    #[test]
    fn json_helpers_are_safe() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(1.5), "1.5");
    }
}
