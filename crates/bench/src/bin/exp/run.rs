//! `exp run [--json PATH] [--trials N] [--trace PATH] [SPEC|DIR]...`:
//! declarative `.scn` scenarios (`scenarios/README.md`), one row per
//! spec — per size, for an `n = a,b,c` sweep — parsed straight to a
//! `RunSpec` by [`ba_exp::scenario::parse`] and run as an
//! [`Experiment::case`] like every other preset's rows.
//!
//! Every argument that is not a flag or a flag's value is a path: a
//! `.scn` file, or a directory whose `*.scn` files run sorted. With no
//! path it runs `scenarios/`. A path that expands to nothing, or a file
//! that fails to read, parse or run, is reported with its path;
//! the rest still run, and the exit status is 1.

use ba_exp::{scenario, Experiment, Metric};
use std::path::{Path, PathBuf};

const COLUMNS: &[&str] = &[
    "scenario", "protocol", "n", "trials", "agree", "min", "decided", "rounds", "bits", "loss%",
    "late%",
];

const METRICS: &[Metric] = &[
    Metric::Agreement,
    Metric::AgreementMin,
    Metric::Decided,
    Metric::Rounds,
    Metric::TotalBits,
    Metric::LossRate,
    Metric::LateRate,
];

/// Splits the arguments into the shared flags, each with the argument
/// after it as its value, and the paths.
fn split_args(args: &[String]) -> (Vec<String>, Vec<String>) {
    let (mut flags, mut paths) = (Vec::new(), Vec::new());
    let mut it = args.iter().cloned();
    while let Some(a) = it.next() {
        if a.starts_with("--") {
            flags.push(a);
            flags.extend(it.next());
        } else {
            paths.push(a);
        }
    }
    (flags, paths)
}

/// A path's `.scn` files: a directory's, sorted, or the path itself.
fn expand(path: &Path) -> Result<Vec<PathBuf>, String> {
    if !path.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|entry| Some(entry.ok()?.path()))
        .filter(|f| f.extension().is_some_and(|x| x == "scn"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no .scn files", path.display()));
    }
    Ok(files)
}

/// Runs every row of one `.scn` file.
fn run_file(e: &mut Experiment, file: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(file).map_err(|err| err.to_string())?;
    for row in scenario::parse(&text)? {
        let labels = [
            row.name,
            row.spec.protocol.name().to_owned(),
            row.spec.n.to_string(),
            e.trials(&row.spec).to_string(),
        ];
        e.try_case(&labels, &row.spec, METRICS)?;
    }
    Ok(())
}

pub fn run(args: &[String]) {
    let (flags, mut paths) = split_args(args);
    let mut e = Experiment::new(&flags, "run", "declarative scenarios over faulty nets");
    if paths.is_empty() {
        paths.push("scenarios".to_owned());
    }
    e.section("one row per scenario (per size of an `n` sweep)", COLUMNS);
    let cache_before = ba_sampler::cache::stats();
    let mut failed = false;
    for path in &paths {
        let files = expand(Path::new(path)).unwrap_or_else(|err| {
            eprintln!("error: {err}");
            failed = true;
            Vec::new()
        });
        for file in files {
            if let Err(err) = run_file(&mut e, &file) {
                eprintln!("error: {}: {err}", file.display());
                failed = true;
            }
        }
    }
    // One process-level count of the graphs built: per-trial splits
    // depend on scheduling, the total does not.
    ba_exp::trace_sampler_cache(e.trace(), cache_before);
    e.finish();
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn what_is_not_a_flag_or_its_value_is_a_path() {
        let args = strings(&["a.scn", "--trials", "1", "dir", "--json", "o.json", "b.scn"]);
        let (flags, paths) = split_args(&args);
        assert_eq!(flags, strings(&["--trials", "1", "--json", "o.json"]));
        assert_eq!(paths, strings(&["a.scn", "dir", "b.scn"]));
    }

    #[test]
    fn a_directory_expands_to_its_scn_files_sorted() {
        let dir = std::env::temp_dir().join(format!("exp-run-expand-{}", std::process::id()));
        let empty = dir.join("empty");
        std::fs::create_dir_all(&empty).expect("temp dir");
        for name in ["b.scn", "a.scn", "notes.txt", "c.scn.bak"] {
            std::fs::write(dir.join(name), "").expect("temp file");
        }
        let files = expand(&dir);
        let nothing = expand(&empty);
        std::fs::remove_dir_all(&dir).expect("cleanup");

        assert_eq!(files, Ok(vec![dir.join("a.scn"), dir.join("b.scn")]));
        let err = nothing.expect_err("no .scn files");
        assert!(err.ends_with("empty: no .scn files"), "{err}");
        // A path that is no directory is a file to read, present or not.
        let file = Path::new("missing.scn");
        assert_eq!(expand(file), Ok(vec![file.to_path_buf()]));
    }
}
