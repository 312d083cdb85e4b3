//! Memory and CPU of this process and its server children, read from
//! `/proc` (Linux only; elsewhere every reading is `None`/0 and the
//! metrics that depend on it report 0).

use std::fs;

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// The fields of `/proc/<pid>/stat` after the parenthesised command
/// name (which may itself contain spaces): index 0 is the state, 1 the
/// parent pid.
fn stat_fields(pid: Option<u32>) -> Option<(String, Vec<String>)> {
    let stat = fs::read_to_string(proc_path(pid, "stat")).ok()?;
    let (open, close) = (stat.find('(')?, stat.rfind(')')?);
    let comm = stat[open + 1..close].to_owned();
    let rest = stat[close + 1..]
        .split_whitespace()
        .map(str::to_owned)
        .collect();
    Some((comm, rest))
}

/// Direct children of this process whose command name is `comm`
/// (the kernel keeps 15 characters of it).
pub fn children_named(comm: &str) -> Vec<u32> {
    let me = std::process::id().to_string();
    let Ok(dir) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut pids: Vec<u32> = dir
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .filter(|&pid| {
            stat_fields(Some(pid)).is_some_and(|(c, rest)| {
                c == comm[..comm.len().min(15)] && rest.get(1) == Some(&me)
            })
        })
        .collect();
    pids.sort_unstable();
    pids
}

/// A `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`) in MiB.
pub fn status_mib(pid: Option<u32>, field: &str) -> Option<f64> {
    let status = fs::read_to_string(proc_path(pid, "status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Nanoseconds every thread of a process (this one when `pid` is
/// `None`) has spent on a processor, from the scheduler's own
/// per-thread clock (`schedstat`). The guest's scheduler subtracts the
/// time the hypervisor gave to someone else, so unlike wall-clock time
/// this does not grow when a neighbour is busy. Threads that have
/// already exited are not counted. 0 when unreadable.
pub fn cpu_ns(pid: Option<u32>) -> u64 {
    let Ok(tasks) = fs::read_dir(proc_path(pid, "task")) else {
        return 0;
    };
    tasks
        .filter_map(|task| {
            let stat = fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
