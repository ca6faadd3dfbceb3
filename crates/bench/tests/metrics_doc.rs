//! Doc lint: every metric name registered anywhere in the pipeline
//! must appear in the README's Observability table, and every name the
//! table carries must be registered somewhere. A metric that exports
//! without documentation is invisible to an operator, and a row whose
//! code is gone documents a metric nothing exports; these tests fail
//! the build the moment either happens.
//!
//! The scan covers string literals passed to `.counter("...")`,
//! `.gauge("...")`, `.histogram("...")`, and the two-argument
//! `span!(registry, "...")` form, across every `crates/*/src` tree
//! except `crates/telemetry` itself (whose unit tests and doc
//! examples use deliberately fake names like `a.hits`).

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/bench.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The string literal opening at `text[start..]` (which must begin
/// with `"`), if it closes on the same expression.
fn string_literal(text: &str, start: usize) -> Option<&str> {
    let body = &text[start + 1..];
    body.find('"').map(|end| &body[..end])
}

/// Metric names registered in `text` via method calls or `span!`.
fn registered_names(text: &str) -> Vec<String> {
    let mut names = Vec::new();
    for method in [".counter(", ".gauge(", ".histogram(", "span!("] {
        for (at, _) in text.match_indices(method) {
            let after = at + method.len();
            let rest = &text[after..];
            // Method forms register iff the first argument is a string
            // literal; `span!` registers iff its *second* argument is
            // one (the one-argument form reuses a resolved handle).
            let candidate = if method == "span!(" {
                let close = rest.find(')').unwrap_or(rest.len());
                rest[..close].find('"').map(|q| after + q)
            } else {
                let trimmed = rest.trim_start();
                trimmed
                    .starts_with('"')
                    .then(|| after + (rest.len() - trimmed.len()))
            };
            if let Some(q) = candidate {
                let name = string_literal(text, q).expect("unterminated metric name literal");
                names.push(name.to_string());
            }
        }
    }
    names
}

/// Every metric registration in the `crates/*/src` trees the scan
/// covers, as (file, name).
fn registrations(root: &Path) -> Vec<(PathBuf, String)> {
    let mut sources = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        let path = entry.expect("dir entry").path();
        if path.file_name().is_some_and(|n| n == "telemetry") {
            continue;
        }
        let src = path.join("src");
        if src.is_dir() {
            rust_sources(&src, &mut sources);
        }
    }
    assert!(sources.len() > 10, "source scan found almost nothing");
    let mut found = Vec::new();
    for path in sources {
        let text = std::fs::read_to_string(&path).expect("read source file");
        for name in registered_names(&text) {
            found.push((path.clone(), name));
        }
    }
    assert!(
        found.len() >= 40,
        "only {} metric registrations found; the scan is likely broken",
        found.len()
    );
    found
}

fn readme(root: &Path) -> String {
    std::fs::read_to_string(root.join("README.md")).expect("read README.md")
}

/// The metric names in the first column of the README's Observability
/// table.
fn documented_names(readme: &str) -> Vec<&str> {
    let rows = readme
        .split_once("| metric | type | unit | meaning |")
        .expect("the Observability table header")
        .1
        .lines()
        .skip(2) // the rest of the header line, and the separator row
        .take_while(|line| line.starts_with('|'));
    let names: Vec<&str> = rows
        .map(|row| {
            let cell = row.split('|').nth(1).expect("a first cell").trim();
            cell.strip_prefix('`')
                .and_then(|c| c.strip_suffix('`'))
                .unwrap_or_else(|| panic!("metric cell is not one code span: {row}"))
        })
        .collect();
    assert!(names.len() >= 40, "only {} table rows found", names.len());
    names
}

#[test]
fn every_registered_metric_is_documented_in_the_readme() {
    let root = workspace_root();
    let readme = readme(&root);
    let undocumented: Vec<String> = registrations(&root)
        .into_iter()
        .filter(|(_, name)| !readme.contains(&format!("`{name}`")))
        .map(|(path, name)| format!("{} registers {name:?}", path.display()))
        .collect();
    assert!(
        undocumented.is_empty(),
        "metrics missing from the README Observability table:\n  {}",
        undocumented.join("\n  ")
    );
}

#[test]
fn every_documented_metric_is_registered() {
    let root = workspace_root();
    let readme = readme(&root);
    let registered: Vec<String> = registrations(&root)
        .into_iter()
        .map(|(_, name)| name)
        .collect();
    let stale: Vec<&str> = documented_names(&readme)
        .into_iter()
        .filter(|name| !registered.iter().any(|r| r == name))
        .collect();
    assert!(
        stale.is_empty(),
        "README Observability rows no crates/*/src file registers:\n  {}",
        stale.join("\n  ")
    );
}
