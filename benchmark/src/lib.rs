//! The repo benchmark harness. It drives the program only through the
//! crates' public functions and times those calls from outside; nothing in
//! any crate knows it is being measured. See `README.md`.

pub mod catalog;
pub mod des;
pub mod gen;
pub mod hops;
pub mod layers;
pub mod live;
pub mod micro;
pub mod report;
pub mod rss;
pub mod spans;
pub mod stats;
pub mod timing;

use std::path::PathBuf;

/// `benchmark/out`, created on demand: where traced runs leave their
/// spans files.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    Ok(dir)
}

/// Writes `benchmark/out/<workload>.spans.json`.
pub fn write_spans(workload: &str, spans: &spans::Spans) -> Result<(), String> {
    let path = out_dir()?.join(format!("{workload}.spans.json"));
    std::fs::write(&path, spans.to_json()).map_err(|e| format!("write {path:?}: {e}"))
}
