//! `docs/observability.md`'s event schema lists every kind the stack
//! emits: each `.event("<kind>"` literal in the non-test part of
//! `crates/*/src` must have a row in the table.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every kind literal passed to `.event(` before the file's test module.
fn emitted_kinds() -> BTreeSet<String> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(repo().join("crates")).expect("crates/") {
        let src = krate.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut kinds = BTreeSet::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("readable source");
        let code = text.split("#[cfg(test)]\nmod ").next().unwrap_or_default();
        let mut rest = code;
        while let Some(at) = rest.find(".event(") {
            rest = rest[at + ".event(".len()..].trim_start();
            if let Some(lit) = rest.strip_prefix('"') {
                let end = lit.find('"').expect("closed literal");
                kinds.insert(lit[..end].to_owned());
            }
        }
    }
    kinds
}

/// The first column of the doc's `## Event schema` table.
fn documented_kinds() -> BTreeSet<String> {
    let doc = std::fs::read_to_string(repo().join("docs/observability.md")).expect("the doc");
    let section = doc
        .split("## Event schema")
        .nth(1)
        .expect("an event schema section");
    let section = section.split("\n## ").next().unwrap_or_default();
    section
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|l| l.split('`').next())
        .map(str::to_owned)
        .collect()
}

#[test]
fn the_schema_table_lists_every_emitted_kind() {
    let emitted = emitted_kinds();
    assert!(emitted.contains("trial:end"), "the scan found {emitted:?}");
    let documented = documented_kinds();
    let missing: Vec<_> = emitted.difference(&documented).collect();
    assert!(
        missing.is_empty(),
        "docs/observability.md's event schema lacks {missing:?}"
    );
}
