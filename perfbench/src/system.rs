//! Host facts the run record carries: core count, the filesystem under
//! the cache, and the daemon's peak resident set.

use std::path::Path;

/// Cores the benchmark may use.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type of the mount holding `dir` (`ext4`, `tmpfs`, ...),
/// from the longest matching mount point in `/proc/self/mountinfo`.
pub fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // `id parent major:minor root mount-point opts [tags] - fstype src opts`
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(dash)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(dash + 1) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or("unknown".to_string(), |(_, t)| t)
}

/// Pids of this process's children whose command name is `comm`.
pub fn child_pids(comm: &str) -> Vec<u32> {
    let me = std::process::id();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut pids: Vec<u32> = entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
                return false;
            };
            // `pid (comm) state ppid ...`; comm may hold spaces, so split
            // at the last ')'.
            let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
                return false;
            };
            let ppid = stat[close + 1..]
                .split_whitespace()
                .nth(1)
                .and_then(|p| p.parse::<u32>().ok());
            &stat[open + 1..close] == comm && ppid == Some(me)
        })
        .collect();
    pids.sort_unstable();
    pids
}

/// Peak resident set (`VmHWM`) of `pid`, MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_facts_are_readable() {
        assert!(host_cores() >= 1);
        assert_ne!(fs_type(Path::new(".")), "");
        assert!(peak_rss_mb(std::process::id()).is_some_and(|mb| mb > 0.0));
        assert!(child_pids("no-such-command").is_empty());
    }
}
