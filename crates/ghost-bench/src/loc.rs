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
    let file_loc = |rel: &str| -> usize {
        fs::read_to_string(crates.join(rel))
            .map(|s| count_file(&s))
            .unwrap_or(0)
    };
    vec![
        LocEntry {
            name: "ghost-sim (simulated kernel, incl. CFS)".into(),
            loc: count_dir(&crates.join("ghost-sim/src")),
        },
        LocEntry {
            name: "ghost-core (ghOSt class + ABI + runtime)".into(),
            loc: count_dir(&crates.join("ghost-core/src")),
        },
        LocEntry {
            name: "userspace support library (tracker + policy kernel)".into(),
            loc: file_loc("ghost-policies/src/tracker.rs")
                + file_loc("ghost-policies/src/kernel.rs"),
        },
        LocEntry {
            name: "Centralized FIFO policy".into(),
            loc: file_loc("ghost-policies/src/fifo.rs"),
        },
        LocEntry {
            name: "Per-CPU policy".into(),
            loc: file_loc("ghost-policies/src/per_cpu.rs"),
        },
        LocEntry {
            name: "Shinjuku policy".into(),
            loc: file_loc("ghost-policies/src/shinjuku.rs"),
        },
        LocEntry {
            name: "Shinjuku + Shenango policy".into(),
            loc: file_loc("ghost-policies/src/shinjuku_shenango.rs"),
        },
        LocEntry {
            name: "Self-tuning Shinjuku policy".into(),
            loc: file_loc("ghost-policies/src/shinjuku_adaptive.rs"),
        },
        LocEntry {
            name: "Snap policy".into(),
            loc: file_loc("ghost-policies/src/snap.rs"),
        },
        LocEntry {
            name: "Search policy".into(),
            loc: file_loc("ghost-policies/src/search.rs"),
        },
        LocEntry {
            name: "Secure VM ghOSt policy".into(),
            loc: file_loc("ghost-policies/src/core_sched.rs"),
        },
        LocEntry {
            name: "Secure VM kernel policy (baseline)".into(),
            loc: file_loc("ghost-baselines/src/kernel_core_sched.rs"),
        },
        LocEntry {
            name: "Shinjuku dataplane (baseline)".into(),
            loc: file_loc("ghost-baselines/src/shinjuku_dataplane.rs"),
        },
        LocEntry {
            name: "MicroQuanta (baseline)".into(),
            loc: file_loc("ghost-baselines/src/microquanta.rs"),
        },
        LocEntry {
            name: "ghost-chaos (one harness + six fault families)".into(),
            loc: count_dir(&crates.join("ghost-chaos/src")),
        },
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
