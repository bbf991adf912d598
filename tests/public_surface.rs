//! Nothing without a caller: every `pub fn` of a library crate under
//! `crates/*/src` must be named by some `.rs` file outside that crate's
//! library source. Other crates, the crate's own `src/bin` programs, any
//! `tests/`, `benches/` or `examples/` directory, the facade's `src/` and
//! `benchmark/` all count as outside; `#[cfg(test)]` items and `src/bin`
//! itself are not scanned. The match is by word, so a name shared with an
//! unrelated item elsewhere passes: this catches what nothing names at all.
//! Made `pub(crate)`, such a function is then rustc's `dead_code` lint's to
//! judge.
//!
//! A function that must stay `pub` with no such caller goes in `ALLOWED`
//! with the reason it is public.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// `(crate directory, fn name, why it stays pub)`.
const ALLOWED: &[(&str, &str, &str)] = &[];

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, skipping build output, hidden
/// directories and the vendored dependency shims (they call nothing of
/// ours).
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if path.is_dir() {
            if name != "target" && name != "vendor" && !name.starts_with('.') {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The crate directory whose library source holds `file`, if any.
fn library_of(file: &Path) -> Option<String> {
    let rel = file.strip_prefix(repo()).ok()?;
    let parts: Vec<_> = rel.iter().map(|p| p.to_string_lossy()).collect();
    match parts.as_slice() {
        [c, krate, s, rest @ ..] if c == "crates" && s == "src" && rest[0] != "bin" => {
            Some(krate.to_string())
        }
        _ => None,
    }
}

fn words(text: &str) -> BTreeSet<&str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .collect()
}

/// The lines of `text` outside `#[cfg(test)]` items. An item ends at its
/// first line, or, when that line opens a block, at the `}` back at the
/// attribute's indentation (the tree is rustfmt-formatted).
fn non_test_lines(text: &str) -> Vec<&str> {
    let mut kept = Vec::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        if line.trim() != "#[cfg(test)]" {
            kept.push(line);
            continue;
        }
        let close = format!("{}}}", &line[..line.len() - line.trim_start().len()]);
        let item = lines.by_ref().find(|l| !l.trim_start().starts_with("#["));
        if item.is_some_and(|l| l.trim_end().ends_with('{')) {
            lines.by_ref().find(|l| l.trim_end() == close);
        }
    }
    kept
}

fn pub_fn_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = ["const ", "unsafe "]
        .iter()
        .fold(rest, |r, q| r.strip_prefix(q).unwrap_or(r));
    let rest = rest.strip_prefix("fn ")?;
    let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_'))?;
    Some(&rest[..end])
}

/// `(crate, fn name)` for every scanned `pub fn` that no file outside its
/// crate's library source names.
fn uncalled() -> BTreeSet<(String, String)> {
    let mut files = Vec::new();
    rust_files(&repo(), &mut files);
    let this = repo().join("tests/public_surface.rs");
    let texts: Vec<(Option<String>, String)> = files
        .iter()
        .filter(|f| **f != this)
        .map(|f| (library_of(f), std::fs::read_to_string(f).expect("readable")))
        .collect();

    let mut defined: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (krate, text) in &texts {
        if let Some(krate) = krate {
            let names = defined.entry(krate.clone()).or_default();
            names.extend(
                non_test_lines(text)
                    .into_iter()
                    .filter_map(pub_fn_name)
                    .map(str::to_owned),
            );
        }
    }
    assert!(
        defined
            .get("core")
            .is_some_and(|n| n.contains("run_with_transport")),
        "the scan found {defined:?}"
    );

    let mut found = BTreeSet::new();
    for (krate, names) in defined {
        let outside: BTreeSet<&str> = texts
            .iter()
            .filter(|(k, _)| k.as_deref() != Some(krate.as_str()))
            .flat_map(|(_, text)| words(text))
            .collect();
        for name in names {
            if !outside.contains(name.as_str()) {
                found.insert((krate.clone(), name));
            }
        }
    }
    found
}

#[test]
fn every_pub_fn_has_a_caller_outside_its_crate() {
    let allowed: BTreeSet<(String, String)> = ALLOWED
        .iter()
        .map(|(krate, name, why)| {
            assert!(
                !why.is_empty(),
                "{krate}::{name} is allowed without a reason"
            );
            (krate.to_string(), name.to_string())
        })
        .collect();
    let found = uncalled();
    let offenders: Vec<String> = found
        .difference(&allowed)
        .map(|(krate, name)| format!("{krate}: {name}"))
        .collect();
    assert!(
        offenders.is_empty(),
        "{} pub fn(s) named nowhere outside their crate (make them pub(crate), \
         delete them or allow them with a reason):\n{}",
        offenders.len(),
        offenders.join("\n")
    );
    let stale: Vec<_> = allowed.difference(&found).collect();
    assert!(
        stale.is_empty(),
        "allowed but called from outside (drop the entry): {stale:?}"
    );
}

#[test]
fn test_modules_and_one_line_items_are_skipped() {
    let text = "pub fn a() {}\n#[cfg(test)]\nmod tests {\n    pub fn b() {}\n}\n\
                #[cfg(test)]\npub(crate) use x::y;\npub fn c() {}\n    #[cfg(test)]\n    \
                #[inline]\n    pub fn d() {\n    }\npub fn e() {}\n";
    let names: Vec<_> = non_test_lines(text)
        .into_iter()
        .filter_map(pub_fn_name)
        .collect();
    assert_eq!(names, ["a", "c", "e"]);
}
