//! `cargo xtask` — repo-local developer tooling.
//!
//! Two subcommands:
//!
//! - `lint` — the self-test of the clippy scopes (see [`lint`] and
//!   DESIGN.md §5): every ban in every `clippy.toml` still fires on a
//!   planted violation. Exits non-zero when one does not.
//! - `analyze` — the interprocedural determinism/hot-path analyzer
//!   hosted in the `vod-analyze` crate (see DESIGN.md §8). Findings
//!   are diffed against the checked-in baseline
//!   `results/ANALYZE_baseline.json`; only *new* findings fail the
//!   run. `--json` additionally writes the machine-readable report to
//!   `results/ANALYZE_findings.json`; `--write-baseline` regenerates
//!   the baseline from the current findings.

mod lint;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use vod_analyze::report::{render_baseline, render_json};

const BASELINE_PATH: &str = "results/ANALYZE_baseline.json";
const FINDINGS_PATH: &str = "results/ANALYZE_findings.json";

fn workspace_root() -> PathBuf {
    // crates/xtask/ → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

/// All `.rs` files under `dir`, recursively, as absolute paths.
/// Deterministic: directory entries are sorted.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            rust_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Load every workspace `.rs` file as (workspace-relative path,
/// contents) pairs for the analyzer.
fn load_sources(root: &Path) -> Vec<vod_analyze::SourceFile> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "benches", "examples"] {
        rust_files(&root.join(top), &mut files);
    }
    let mut out = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(content) = std::fs::read_to_string(path) else {
            continue;
        };
        out.push(vod_analyze::SourceFile { path: rel, content });
    }
    out
}

/// Write one report file under the workspace root.
fn write_report(root: &Path, rel: &str, text: String) -> bool {
    let path = root.join(rel);
    let written = std::fs::write(&path, text);
    match &written {
        Ok(()) => eprintln!("xtask analyze: wrote {}", path.display()),
        Err(e) => eprintln!("xtask analyze: cannot write {}: {e}", path.display()),
    }
    written.is_ok()
}

/// Run the interprocedural analyzer and diff against the baseline.
/// Returns the number of NEW (non-baseline) findings.
fn run_analyze(root: &Path, write_json: bool, write_baseline: bool) -> Result<(), usize> {
    let sources = load_sources(root);
    let result = vod_analyze::analyze_sources(&sources, &vod_analyze::DEFAULT_ROOTS);

    if write_json {
        write_report(root, FINDINGS_PATH, render_json(&result.findings));
    }
    if write_baseline {
        let written = write_report(root, BASELINE_PATH, render_baseline(&result.findings));
        return if written { Ok(()) } else { Err(1) };
    }

    let baseline = std::fs::read_to_string(root.join(BASELINE_PATH))
        .map(|s| vod_analyze::report::parse_baseline(&s))
        .unwrap_or_default();
    let mut new_findings = 0usize;
    let mut seen_keys = std::collections::BTreeSet::new();
    for f in &result.findings {
        let key = f.key();
        seen_keys.insert(key.clone());
        if baseline.contains(&key) {
            continue;
        }
        new_findings += 1;
        eprintln!("{f}");
        if !f.chain.is_empty() {
            eprintln!("    reachable: {}", f.chain.join(" -> "));
        }
    }
    let stale_baseline = baseline.difference(&seen_keys).count();
    eprintln!(
        "xtask analyze: {} files, {} fns ({} reachable from {} sink roots), \
         {} finding(s) ({} baselined, {} new); {} stale baseline key(s)",
        result.file_count,
        result.fn_count,
        result.reachable_count,
        vod_analyze::DEFAULT_ROOTS.len(),
        result.findings.len(),
        result.findings.len() - new_findings,
        new_findings,
        stale_baseline,
    );
    if stale_baseline > 0 {
        eprintln!(
            "xtask analyze: note: fixed debt is still listed in {BASELINE_PATH}; \
             refresh it with `cargo xtask analyze --write-baseline`"
        );
    }
    if new_findings == 0 {
        Ok(())
    } else {
        Err(new_findings)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("lint");
    match cmd {
        "lint" => match lint::self_test(&workspace_root()) {
            Ok(n) => {
                eprintln!("xtask lint: all {n} planted violations fired");
                ExitCode::SUCCESS
            }
            Err(problems) => {
                for p in &problems {
                    eprintln!("{p}");
                }
                eprintln!("xtask lint: {} clippy scope problem(s)", problems.len());
                ExitCode::FAILURE
            }
        },
        "analyze" => {
            let json = args.iter().any(|a| a == "--json");
            let write_baseline = args.iter().any(|a| a == "--write-baseline");
            match run_analyze(&workspace_root(), json, write_baseline) {
                Ok(()) => ExitCode::SUCCESS,
                Err(n) => {
                    eprintln!("xtask analyze: {n} new finding(s) not in {BASELINE_PATH}");
                    ExitCode::FAILURE
                }
            }
        }
        other => {
            eprintln!("unknown xtask command {other:?}; available: lint, analyze");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod main_tests {
    use super::*;

    /// Acceptance gate: the interprocedural analyzer reports nothing
    /// beyond the checked-in baseline. New nondeterminism sources,
    /// reachable panics, hot-loop allocations, or stale allows fail
    /// this test (and `cargo xtask analyze` in CI).
    #[test]
    fn analyze_workspace_has_no_new_findings() {
        let root = workspace_root();
        assert!(root.join("Cargo.toml").exists(), "bad workspace root");
        assert_eq!(run_analyze(&root, false, false), Ok(()));
    }
}
