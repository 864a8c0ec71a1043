//! Table 2: lines of code. Counts this repository's Rust sources the way
//! the paper counts C/C++ (non-blank, non-comment lines, unit tests
//! excluded) and prints them beside the paper's numbers for its own
//! components.

use std::fs;
use std::path::Path;

/// A LOC entry.
#[derive(Debug, Clone)]
pub struct LocEntry {
    /// Component name.
    pub name: String,
    /// Counted lines.
    pub loc: usize,
}

/// Counts non-blank, non-comment lines in one Rust file, up to its
/// `#[cfg(test)]` module (the paper's numbers are for shipped code).
pub fn count_file(src: &str) -> usize {
    let mut in_block_comment = false;
    src.lines()
        .take_while(|line| line.trim() != "#[cfg(test)]")
        .filter(|line| {
            let t = line.trim();
            if in_block_comment {
                if t.contains("*/") {
                    in_block_comment = false;
                }
                return false;
            }
            if t.is_empty() {
                return false;
            }
            if t.starts_with("//") {
                return false;
            }
            if t.starts_with("/*") {
                if !t.contains("*/") {
                    in_block_comment = true;
                }
                return false;
            }
            true
        })
        .count()
}

/// Counts LOC across all `.rs` files under `dir`, recursively.
pub fn count_dir(dir: &Path) -> usize {
    let mut total = 0;
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            total += count_dir(&path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(src) = fs::read_to_string(&path) {
                total += count_file(&src);
            }
        }
    }
    total
}

/// The paper's Table 2, for reference columns.
pub fn paper_table2() -> Vec<(&'static str, usize)> {
    vec![
        ("Linux CFS (kernel/sched/fair.c)", 6_217),
        ("Shinjuku (NSDI '19)", 3_900),
        ("Shenango (NSDI '19)", 13_161),
        ("ghOSt Kernel Scheduling Class", 3_777),
        ("ghOSt Userspace Support Library", 3_115),
        ("Shinjuku Policy (§4.2)", 710),
        ("Shinjuku + Shenango Policy (§4.2)", 727),
        ("Google Snap Policy (§4.3)", 855),
        ("Google Search Policy (§4.4)", 929),
        ("Secure VM Kernel Policy (§4.5)", 7_164),
        ("Secure VM ghOSt Policy (§4.5)", 4_702),
    ]
}

/// This reproduction's components, mapped to the closest paper rows.
pub fn repo_components(repo_root: &Path) -> Vec<LocEntry> {
    let crates = repo_root.join("crates");
    let dir = |name: &str, rel: &str| LocEntry {
        name: name.into(),
        loc: count_dir(&crates.join(rel)),
    };
    let files = |name: &str, rels: &[&str]| LocEntry {
        name: name.into(),
        loc: rels
            .iter()
            .filter_map(|rel| fs::read_to_string(crates.join(rel)).ok())
            .map(|src| count_file(&src))
            .sum(),
    };
    vec![
        dir("ghost-sim (simulated kernel, incl. CFS)", "ghost-sim/src"),
        dir("ghost-core (ghOSt class + ABI + runtime)", "ghost-core/src"),
        files(
            "userspace support library (tracker + policy kernel)",
            &[
                "ghost-policies/src/tracker.rs",
                "ghost-policies/src/kernel.rs",
            ],
        ),
        files("Centralized FIFO policy", &["ghost-policies/src/fifo.rs"]),
        files("Per-CPU policy", &["ghost-policies/src/per_cpu.rs"]),
        files("Shinjuku policy", &["ghost-policies/src/shinjuku.rs"]),
        files(
            "Shinjuku + Shenango policy",
            &["ghost-policies/src/shinjuku_shenango.rs"],
        ),
        files(
            "Self-tuning Shinjuku policy",
            &["ghost-policies/src/shinjuku_adaptive.rs"],
        ),
        files("Snap policy", &["ghost-policies/src/snap.rs"]),
        files("Search policy", &["ghost-policies/src/search.rs"]),
        files(
            "Secure VM ghOSt policy",
            &["ghost-policies/src/core_sched.rs"],
        ),
        files(
            "Secure VM kernel policy (baseline)",
            &["ghost-baselines/src/kernel_core_sched.rs"],
        ),
        files(
            "Shinjuku dataplane (baseline)",
            &["ghost-baselines/src/shinjuku_dataplane.rs"],
        ),
        files(
            "MicroQuanta (baseline)",
            &["ghost-baselines/src/microquanta.rs"],
        ),
        dir("ghost-live (real-thread backend)", "ghost-live/src"),
        dir(
            "ghost-chaos (one harness + six fault families)",
            "ghost-chaos/src",
        ),
        dir(
            "ghost-lab (experiment engine + tournament)",
            "ghost-lab/src",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_skip_comments_and_blanks() {
        let src =
            "\n// comment\nfn main() {\n    /* block\n    still block\n    */\n    let x = 1;\n}\n";
        assert_eq!(count_file(src), 3); // fn main() {, let x = 1;, }
    }

    #[test]
    fn unit_test_modules_are_not_counted() {
        let src = "fn f() {}\n\n#[cfg(test)]\nmod tests {\n    fn g() {}\n}\n";
        assert_eq!(count_file(src), 1);
    }

    #[test]
    fn inline_block_comment_line_is_skipped() {
        let src = "/* one-liner */\nlet y = 2;\n";
        assert_eq!(count_file(src), 1);
    }

    #[test]
    fn paper_rows_are_present() {
        let t = paper_table2();
        assert_eq!(t.len(), 11);
        assert_eq!(t[3].1, 3_777);
    }
}
