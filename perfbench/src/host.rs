//! The host fingerprint printed with every result, and peak memory.

use std::process::Command;

use rpx_counters::counter::Clock;

use crate::report::json_object;

/// Output of a short command, or `unknown` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `{"nproc":…,"cpu":…,"clock":…,"rustc":…,"git_sha":…,"workload":…,"seed":…}`,
/// where `clock` is the counter clock the runtime used. The git SHA reads
/// `unknown` when the benchmark runs outside a git checkout.
pub fn fingerprint(workload: &str, seed: u64, clock: &Clock) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let clock = if clock.tsc_active() { "tsc" } else { "instant" };
    json_object(&[
        ("nproc", nproc.to_string()),
        ("cpu", cpu_model()),
        ("clock", clock.into()),
        ("rustc", command_line("rustc", &["--version"])),
        ("git_sha", command_line("git", &["rev-parse", "HEAD"])),
        ("workload", workload.into()),
        ("seed", seed.to_string()),
    ])
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
