//! The machine fingerprint written into every result: what ran, where,
//! and on which filesystem the stores' fsyncs land.

use std::path::Path;
use std::process::Command;

/// First line of a command's stdout, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `dir`, from `/proc/mounts`.
fn filesystem(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".to_string();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, fstype) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), format!("{fstype} on {point}")))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Digest of the repository sources, so a result names the code it
/// measured even in a checkout that is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "shims", "perfbench/src"] {
        walk(Path::new(root), &mut files);
    }
    files.push("Cargo.toml".into());
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.extend(std::fs::read(f).unwrap_or_default());
    }
    format!(
        "{} ({} files)",
        &crate::digest::digest(&all)[..16],
        files.len()
    )
}

/// `(key, value)` pairs describing this machine and build.
pub fn collect(work: &Path) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("cpu_model", cpu),
        ("rustc", command_line("rustc", &["-V"])),
        (
            "git_head",
            // Only ask git inside a checkout of its own: `git` would
            // otherwise report whatever repository encloses this one.
            if Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"])
            } else {
                "not a git checkout".to_string()
            },
        ),
        ("source_digest", source_digest()),
        (
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
        ),
        ("store_fs", filesystem(work)),
    ]
}
