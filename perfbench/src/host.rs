//! What the host is and what the process has used, read from `/proc`.

use std::path::Path;
use wormsim::observe::{git_describe, JsonObject};

/// Worker threads the sweeps get: every core the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One `key: value` field of a `/proc` file, or `None` when the file or
/// field is missing (a non-Linux host).
fn proc_field(file: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(file).ok()?;
    text.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        (name.trim() == key).then(|| value.trim().to_owned())
    })
}

/// The process's resident-set high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let kb: f64 = proc_field("/proc/self/status", "VmHWM")?
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Bytes the process has passed to write calls so far (`wchar`).
pub fn written_bytes() -> Option<u64> {
    proc_field("/proc/self/io", "wchar")?.parse().ok()
}

/// The type of the filesystem holding `dir` (the longest mount point in
/// `/proc/self/mountinfo` that contains it).
fn filesystem_type(dir: &Path) -> Option<String> {
    let dir = dir.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let mount_point = fields.get(4)?;
            let separator = fields.iter().position(|&f| f == "-")?;
            let fs_type = fields.get(separator + 1)?;
            dir.starts_with(mount_point)
                .then(|| (mount_point.len(), (*fs_type).to_owned()))
        })
        .max()
        .map(|(_, fs_type)| fs_type)
}

/// The host fingerprint printed with every report: CPU model, core count,
/// git revision, build profile and the journal directory's filesystem
/// (whose per-record `sync_all` cost the journal metrics include).
pub fn fingerprint(journal_dir: &Path) -> String {
    let unknown = || "unknown".to_owned();
    let mut text = String::new();
    let mut object = JsonObject::begin(&mut text);
    object
        .field_str(
            "cpu",
            &proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown),
        )
        .field_u64("nproc", nproc() as u64)
        .field_str("git_rev", &git_describe().unwrap_or_else(unknown))
        .field_str(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .field_str(
            "journal_fs",
            &filesystem_type(journal_dir).unwrap_or_else(unknown),
        );
    object.finish();
    text
}
