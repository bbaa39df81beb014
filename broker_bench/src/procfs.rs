//! Process and thread accounting read from `/proc` (Linux).

use std::collections::HashMap;
use std::fs;

/// On-CPU nanoseconds per thread id, for the threads whose name starts
/// with `prefix`. Reads `/proc/self/task/<tid>/schedstat`, whose first
/// field is the thread's run time in nanoseconds.
pub fn thread_cpu_ns(prefix: &str) -> HashMap<u64, (String, u64)> {
    let mut out = HashMap::new();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let Some(tid) = task
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        let dir = task.path();
        let Ok(comm) = fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        let comm = comm.trim().to_string();
        if !comm.starts_with(prefix) {
            continue;
        }
        if let Some(ns) = read_schedstat(&dir.join("schedstat")) {
            out.insert(tid, (comm, ns));
        }
    }
    out
}

/// CPU nanoseconds the threads accepted by `keep` spent between two
/// [`thread_cpu_ns`] samples. Threads that started after `before` count
/// from zero.
pub fn cpu_delta_ns(
    before: &HashMap<u64, (String, u64)>,
    after: &HashMap<u64, (String, u64)>,
    keep: impl Fn(&str) -> bool,
) -> u64 {
    after
        .iter()
        .filter(|(_, (comm, _))| keep(comm))
        .map(|(tid, (_, ns))| ns.saturating_sub(before.get(tid).map_or(0, |(_, b)| *b)))
        .sum()
}

/// On-CPU nanoseconds of the calling thread.
pub fn own_cpu_ns() -> u64 {
    read_schedstat(std::path::Path::new("/proc/thread-self/schedstat")).unwrap_or(0)
}

fn read_schedstat(path: &std::path::Path) -> Option<u64> {
    fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Whether a thread name is a broker matching worker (`tep-broker-<n>`),
/// as opposed to the supervisor.
pub fn is_broker_worker(comm: &str) -> bool {
    comm.strip_prefix("tep-broker-")
        .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
