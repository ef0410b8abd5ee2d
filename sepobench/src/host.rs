//! Host stamp and process memory.
//!
//! Host wall-clock figures mean little without the machine they were taken
//! on, so every result carries the host's parallelism, the worker pool's
//! size, the CPU model, the compiler and the source revision.

use std::process::Command;

/// The host description stamped into every result.
pub fn stamp() -> serde_json::Value {
    serde_json::json!({
        "available_parallelism": sepo_bench::host_parallelism(),
        "pool_workers": gpu_sim::WorkerPool::global().workers(),
        "cpu_model": cpu_model(),
        "rustc": command_line("rustc", &["--version"]),
        "git_commit": command_line("git", &["rev-parse", "HEAD"]),
        "single_cpu_warning": sepo_bench::single_cpu_warning("sepobench"),
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's standard output, or "unknown" when the
/// command is missing or fails (a source tree that is not a git checkout
/// has no revision to report).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process (`VmHWM`), in megabytes.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
