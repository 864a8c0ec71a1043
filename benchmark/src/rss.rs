//! Peak resident set size, read from `/proc/self/status`.

/// Parses the `VmHWM:` line of a `/proc/<pid>/status` text; the value is
/// in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut parts = rest.split_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(value)
}

/// This process's peak RSS so far, MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = parse_vm_hwm_kb(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}
