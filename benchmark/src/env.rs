//! Where a number came from: the machine and build stamp written into
//! every output, and the process's peak memory.

use std::path::{Path, PathBuf};
use std::process::Command;
use vod_json::{obj, ToJson, Value};

/// Worker threads of the threaded workloads: `min(nproc, 2)`.
pub fn worker_threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The harness's own directory (`benchmark/` of the checkout it was
/// built in); everything the harness writes goes under its `out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn field_of(text: &str, key: &str) -> Option<String> {
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` is not available.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = field_of(&status, "VmHWM")?
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Machine, toolchain and run identity, so a number taken on another
/// box is recognisable as such. The checkout the driver runs in is not
/// a git repository; the commit is then `unknown`.
pub fn stamp(workload: &str, seed: u64, seconds: f64, traced: bool, smoke: bool) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| field_of(&t, "model name"));
    let unknown = || "unknown".to_string();
    obj(vec![
        ("workload", workload.to_value()),
        ("seed", seed.to_value()),
        ("seconds", seconds.to_value()),
        ("traced", traced.to_value()),
        ("smoke", smoke.to_value()),
        ("nproc", nproc().to_value()),
        ("worker_threads", worker_threads().to_value()),
        ("cpu_model", cpu.unwrap_or_else(unknown).to_value()),
        (
            "rustc",
            command_line("rustc", &["-V"])
                .unwrap_or_else(unknown)
                .to_value(),
        ),
        (
            "git_commit",
            command_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            )
            .unwrap_or_else(unknown)
            .to_value(),
        ),
    ])
}
