//! The host stamp every result carries, and the memory high-water mark.

use std::path::Path;

/// Peak resident set of this process so far, MB (VmHWM). VmHWM is a
/// lifetime maximum, which is why each workload runs in a process of
/// its own.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One line of JSON naming the host and the code measured.
pub fn stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        r#"{{"nproc": {}, "cpu": "{}", "rustc": "{}", "commit": "{}"}}"#,
        nproc,
        tv_obs::json::escape(&cpu_model()),
        tv_obs::json::escape(env!("PERFBENCH_RUSTC_VERSION")),
        tv_obs::json::escape(&git_commit(Path::new("."))),
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out at `root`, read from `.git` without running
/// git. An exported tree has no `.git`, and says so.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (no .git)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}
