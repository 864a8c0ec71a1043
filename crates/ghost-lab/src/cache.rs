//! Content-addressed result cache.
//!
//! A finished [`crate::engine::ExperimentResult`] is stored in a plain
//! text file named by a hash of the experiment's *spec string* plus the
//! crate version. Re-running an unchanged sweep is then a pure cache
//! hit: zero simulations execute. Bumping the crate version (or any
//! change to the spec — topology, policy, seed, fault plan, ...)
//! changes the key, so stale results can never be returned.
//!
//! The format is deliberately simple — one header line, the pass flag,
//! the result hash, then each result line prefixed with `| ` — so a
//! cache file doubles as a human-readable run record. Any parse
//! mismatch (old format version, truncated file) is treated as a miss.

use crate::engine::ExperimentResult;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Magic first line of every cache file; bump on format changes.
const HEADER: &str = "ghost-lab-cache v1";

/// 64-bit FNV-1a, continued from state `h`. Stable across platforms and
/// runs — the whole determinism story hangs on result hashes being
/// reproducible, so the hash function is pinned here rather than
/// borrowed from `std` (`DefaultHasher` is explicitly allowed to change
/// between releases).
fn fnv_fold(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv_fold(FNV_OFFSET, bytes)
}

/// FNV-1a over a sequence of lines, with a separator folded in so that
/// `["ab", "c"]` and `["a", "bc"]` hash differently.
pub fn fnv64_lines<S: AsRef<str>>(lines: &[S]) -> u64 {
    lines.iter().fold(FNV_OFFSET, |h, line| {
        fnv_fold(fnv_fold(h, line.as_ref().as_bytes()), b"\n")
    })
}

/// [`fnv64_lines`] over the `Debug` text of each item, one line per item,
/// formatted through one reused buffer instead of a `Vec<String>`.
pub fn fnv64_debug_lines<T: std::fmt::Debug>(items: impl IntoIterator<Item = T>) -> u64 {
    let (mut h, mut line) = (FNV_OFFSET, String::new());
    for item in items {
        line.clear();
        writeln!(line, "{item:?}").expect("writing to a String cannot fail");
        h = fnv_fold(h, line.as_bytes());
    }
    h
}

/// A directory of cached experiment results, keyed by spec content.
pub struct Cache {
    dir: PathBuf,
}

impl Cache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir: dir.as_ref().to_path_buf(),
        })
    }

    /// The content key for a spec string: two independent FNV passes
    /// (one salted with the crate version) giving 128 bits of name
    /// space, rendered as 32 hex digits.
    pub fn key(spec: &str) -> String {
        let plain = fnv64(spec.as_bytes());
        let salted = fnv64(format!("{} {spec}", env!("CARGO_PKG_VERSION")).as_bytes());
        format!("{plain:016x}{salted:016x}")
    }

    fn path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.txt"))
    }

    /// Looks up a cached result. Any format mismatch is a miss.
    pub fn load(&self, key: &str) -> Option<ExperimentResult> {
        let text = fs::read_to_string(self.path(key)).ok()?;
        let mut it = text.lines();
        if it.next()? != HEADER {
            return None;
        }
        let pass = match it.next()?.strip_prefix("pass ")? {
            "1" => true,
            "0" => false,
            _ => return None,
        };
        let hash = u64::from_str_radix(it.next()?.strip_prefix("hash ")?, 16).ok()?;
        let lines: Vec<String> = it
            .map(|l| l.strip_prefix("| ").map(str::to_string))
            .collect::<Option<_>>()?;
        Some(ExperimentResult { pass, hash, lines })
    }

    /// Stores a result under `key`. Errors are swallowed — a cache that
    /// cannot write degrades to always-miss, it never fails the sweep.
    pub fn store(&self, key: &str, result: &ExperimentResult) {
        let mut text = format!(
            "{HEADER}\npass {}\nhash {:016x}\n",
            u8::from(result.pass),
            result.hash
        );
        for line in &result.lines {
            text.push_str("| ");
            text.push_str(line);
            text.push('\n');
        }
        let _ = fs::write(self.path(key), text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        // Reference vectors for FNV-1a 64-bit.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn line_hash_respects_boundaries() {
        assert_ne!(
            fnv64_lines(&["ab", "c"]),
            fnv64_lines(&["a", "bc"]),
            "line boundaries must be part of the hash"
        );
    }

    #[test]
    fn key_depends_on_spec() {
        assert_ne!(Cache::key("scenario a"), Cache::key("scenario b"));
        assert_eq!(Cache::key("scenario a"), Cache::key("scenario a"));
    }

    #[test]
    fn roundtrip() {
        let dir = std::env::temp_dir().join(format!("ghost-lab-cache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = Cache::open(&dir).unwrap();
        let r = ExperimentResult {
            pass: true,
            hash: 0xdead_beef,
            lines: vec!["completions 42".into(), "txns 7".into()],
        };
        let key = Cache::key("spec");
        assert!(cache.load(&key).is_none());
        cache.store(&key, &r);
        assert_eq!(cache.load(&key), Some(r));
        let _ = fs::remove_dir_all(&dir);
    }
}
