//! Host fingerprint and `/proc` probes (memory and CPU time of this
//! process and of the broker child).

use std::path::Path;
use std::process::Command;

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, which
/// the kernel fixes at 100 per second for user space.
const TICKS_PER_SEC: f64 = 100.0;

fn proc_dir(pid: Option<u32>) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}"),
        None => "/proc/self".to_string(),
    }
}

/// A `kB` field of `/proc/<pid>/status` (e.g. `VmHWM`, `VmRSS`), in MiB.
pub fn status_mib(pid: Option<u32>, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("{}/status", proc_dir(pid))).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU time of a process, in milliseconds.
pub fn cpu_ms(pid: Option<u32>) -> Option<f64> {
    let text = std::fs::read_to_string(format!("{}/stat", proc_dir(pid))).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after `) `.
    let rest = &text[text.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1000.0 / TICKS_PER_SEC)
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

fn command_output(program: &str, args: &[&str]) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args);
    // Never let git walk up out of the checkout into an enclosing repo.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    match cmd.output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "none".to_string(),
    }
}

/// FNV-1a over every source file of the program and the benchmark, so a
/// result names the code it measured even where the checkout carries no
/// git metadata.
fn source_hash() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml" | "lock")
            ) {
                files.push(path);
            }
        }
    }
    let mut files = vec![
        Path::new("Cargo.toml").to_path_buf(),
        Path::new("Cargo.lock").to_path_buf(),
    ];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend_from_slice(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", pxf_xpath::fnv1a(&bytes))
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run-metadata JSON object: host fingerprint, code identity and the
/// run's own parameters.
pub fn metadata(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fields = [
        ("workload", json_str(workload)),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", trace.to_string()),
        ("nproc", nproc.to_string()),
        (
            "clocksource",
            json_str(&read_trimmed(
                "/sys/devices/system/clocksource/clocksource0/current_clocksource",
            )),
        ),
        (
            "l3",
            json_str(&read_trimmed(
                "/sys/devices/system/cpu/cpu0/cache/index3/size",
            )),
        ),
        ("rustc", json_str(&command_output("rustc", &["-V"]))),
        (
            "git_rev",
            json_str(&command_output("git", &["rev-parse", "HEAD"])),
        ),
        ("source_fnv", json_str(&source_hash())),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"meta\": {{{}}}}}", body.join(", "))
}
