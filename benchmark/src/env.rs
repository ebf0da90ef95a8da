//! What the benchmark reads about the process and the machine it runs on.

use std::fs;

fn field_of(text: &str, key: &str) -> Option<String> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.trim_start().strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// Peak resident set of this process (`VmHWM`), in kB.
pub fn vmhwm_kb() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    field_of(&status, "VmHWM")?
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| field_of(&t, "model name"))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` in a checkout that is not a git repository.
pub fn commit() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
    }
}
