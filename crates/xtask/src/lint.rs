//! `cargo xtask lint`: the self-test of the clippy scopes.
//!
//! The workspace's determinism bans are clippy configuration: one
//! `clippy.toml` per package scope (a package's file replaces the root
//! one, so each repeats every list it keeps) and the [`HOT_PATH_DENY`]
//! header on each hot-path module (DESIGN.md §5). A ban deleted from
//! one of those files would narrow a scope without a sound. So this
//! builds one throwaway crate per scope under `target/lint-selftest/`,
//! with that scope's `clippy.toml` and the workspace `[lints]` table,
//! and plants one violation per ban the scope must enforce, a
//! `wall-clock` plant inside a `#[cfg(test)]` module, a hot-path module
//! and a stale `#[expect]`. Then it runs `cargo clippy --offline` and
//! fails unless every plant is reported on its own line.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// The header of every module in [`HOT_PATH_MODULES`].
const HOT_PATH_DENY: &str =
    "#![deny(clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo)]";

/// Modules run per pass or per event by `solve_placement` / `simulate`
/// (the whole of `vod-trace`, through its crate root), by directory.
const HOT_PATH_MODULES: [(&str, &str); 4] = [
    (
        "crates/core/src",
        "block epf kernel penalty pool potential rounding shard solution solver",
    ),
    ("crates/sim/src", "batch cache engine faults"),
    ("crates/net/src", "routing"),
    ("crates/trace/src", "lib"),
];

/// Each ban and its planted lines, one per banned path.
const BANS: [(&str, &str); 6] = [
    ("wall-clock", "_ = std::time::Instant::now();\n_ = std::time::SystemTime::now();"),
    (
        "nondeterministic-map",
        "_ = std::collections::HashMap::<u8, u8>::new();\n\
         _ = std::collections::HashSet::<u8>::new();",
    ),
    ("raw-index", "_ = vod_model::VhoId::new(0);\n_ = vod_model::VhoId::from_index(0);"),
    (
        "sleep-timer",
        "std::thread::sleep(std::time::Duration::ZERO);\n\
         std::thread::park_timeout(std::time::Duration::ZERO);",
    ),
    ("snapshot-io", "_ = std::fs::write(\"x\", \"\");\n_ = std::fs::File::create(\"x\");"),
    (
        "io-fault-shim",
        "_ = std::fs::read(\"x\");\n_ = std::fs::read_to_string(\"x\");\n_ = std::fs::File::open(\"x\");",
    ),
];

/// Every `clippy.toml` in the workspace and the bans its scope enforces.
const SCOPES: [(&str, &str); 9] = [
    ("clippy.toml", "wall-clock raw-index sleep-timer"),
    ("crates/model/clippy.toml", "wall-clock sleep-timer"),
    ("crates/net/clippy.toml", "wall-clock sleep-timer"),
    ("crates/json/clippy.toml", IO_SCOPE),
    ("crates/ops/clippy.toml", IO_SCOPE),
    ("crates/bench/clippy.toml", "raw-index snapshot-io"),
    ("crates/core/clippy.toml", SOLVER_SCOPE),
    ("crates/sim/clippy.toml", SOLVER_SCOPE),
    ("crates/trace/clippy.toml", SOLVER_SCOPE),
];
const IO_SCOPE: &str = "wall-clock raw-index sleep-timer snapshot-io io-fault-shim";
const SOLVER_SCOPE: &str = "wall-clock nondeterministic-map raw-index sleep-timer";

/// A planted line and a fragment of the diagnostic it must raise.
type Plant = (usize, &'static str);

/// The planted `lib.rs` of one scope's crate and what must fire where.
fn plant_crate(bans: &str) -> (String, Vec<Plant>) {
    // (code, a fragment its first line must raise, or "")
    let mut chunks = vec![("pub fn plants(x: Option<u8>) -> u8 {", "")];
    for (ban, code) in BANS
        .iter()
        .filter(|(b, _)| bans.split(' ').any(|s| s == *b))
    {
        let needle = match *ban {
            "wall-clock" | "nondeterministic-map" => "disallowed type",
            _ => "disallowed method",
        };
        chunks.extend(code.lines().map(|c| (c, needle)));
    }
    chunks.extend([
        ("x.unwrap()\n}", "unwrap()"),
        (
            "#[allow(dead_code)]\nfn unreasoned() {}",
            "without specifying a reason",
        ),
        (
            "#[expect(clippy::panic, reason = \"stale\")]\nfn stale() {}",
            "unfulfilled",
        ),
        ("pub mod hot {", ""),
        (HOT_PATH_DENY, ""),
        ("pub fn f(x: Option<u8>) -> u8 {", ""),
        ("let a = x.expect(\"a\");", "expect()"),
        ("if a == 0 { panic!(\"p\") }", "`panic`"),
        ("if a == 1 { unreachable!() }", "unreachable!"),
        ("if a == 2 { todo!() }", "`todo`"),
        ("a\n}\n}", ""),
    ]);
    if bans.contains("wall-clock") {
        chunks.push(("#[cfg(test)]\nmod tests {\n#[test]\nfn t() {", ""));
        chunks.push(("_ = std::time::Instant::now();\n}\n}", "disallowed type"));
    }
    let (mut src, mut plants) = (String::new(), Vec::new());
    for (code, needle) in chunks {
        if !needle.is_empty() {
            plants.push((src.lines().count() + 1, needle));
        }
        src.push_str(code);
        src.push('\n');
    }
    (src, plants)
}

/// Run the self-test; `Err` carries one line per problem.
pub fn self_test(root: &Path) -> Result<usize, Vec<String>> {
    let mut problems = Vec::new();
    for (dir, names) in HOT_PATH_MODULES {
        for module in names.split(' ').map(|m| format!("{dir}/{m}.rs")) {
            let src = std::fs::read_to_string(root.join(&module)).unwrap_or_default();
            if !src.lines().any(|l| l == HOT_PATH_DENY) {
                problems.push(format!("{module}: the hot-path header is missing"));
            }
        }
    }
    let crates = root.join("crates");
    for dir in [crates.clone(), crates.join("shims")] {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let toml = entry.path().join("clippy.toml");
            let rel = toml.strip_prefix(root).unwrap_or(&toml).to_string_lossy();
            if toml.exists() && !SCOPES.iter().any(|(s, _)| *s == rel) {
                problems.push(format!("{rel}: a scope the self-test does not plant"));
            }
        }
    }

    let ws = root.join("target/lint-selftest");
    let cargo_toml = std::fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
    let lints: String = cargo_toml
        .split("\n[")
        .filter(|t| t.starts_with("workspace.lints"))
        .map(|t| format!("\n[{t}\n"))
        .collect();
    let mut members = String::new();
    let mut expected = Vec::new();
    for (i, (toml, bans)) in SCOPES.iter().enumerate() {
        let dir = ws.join(format!("s{i}"));
        let (src, plants) = plant_crate(bans);
        let manifest = format!(
            "[package]\nname = \"s{i}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
             [lints]\nworkspace = true\n[dependencies]\nvod-model = {{ path = {:?} }}\n",
            root.join("crates/model").display()
        );
        let written = std::fs::create_dir_all(dir.join("src"))
            .and_then(|()| std::fs::copy(root.join(toml), dir.join("clippy.toml")))
            .and_then(|_| std::fs::write(dir.join("Cargo.toml"), manifest))
            .and_then(|()| std::fs::write(dir.join("src/lib.rs"), src));
        if let Err(e) = written {
            return Err(vec![format!("{}: {e}", dir.display())]);
        }
        let _ = write!(members, "\"s{i}\", ");
        expected.extend(
            plants
                .into_iter()
                .map(|(l, n)| (*toml, format!("s{i}/src/lib.rs:{l}:"), n)),
        );
    }
    let manifest = format!("[workspace]\nmembers = [{members}]\nresolver = \"2\"\n{lints}");
    if let Err(e) = std::fs::write(ws.join("Cargo.toml"), manifest) {
        return Err(vec![format!("{}: {e}", ws.display())]);
    }

    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .current_dir(&ws)
        .env_remove("CLIPPY_CONF_DIR")
        .args(["clippy", "--offline", "--all-targets", "--keep-going"])
        .args(["--message-format=short", "--target-dir", "target"])
        .output();
    let report = match out {
        Ok(o) => String::from_utf8_lossy(&o.stderr).into_owned(),
        Err(e) => return Err(vec![format!("cannot run cargo clippy: {e}")]),
    };
    for (toml, at, needle) in &expected {
        if !report
            .lines()
            .any(|l| l.starts_with(at.as_str()) && l.contains(needle))
        {
            problems.push(format!(
                "{toml}: the plant at {at} did not raise `{needle}`"
            ));
        }
    }
    if problems.is_empty() {
        Ok(expected.len())
    } else {
        Err(problems)
    }
}
