//! # ghost-bench — experiment harnesses for the paper's evaluation
//!
//! Each module wires a complete experiment (machine, scheduler(s) under
//! test, workload) and returns structured results. The `benches/`
//! directory contains one `harness = false` bench target per table and
//! figure that sweeps parameters and prints the same rows/series the
//! paper reports; `tests/` runs shrunken versions to lock in the paper's
//! *shapes* (who wins, where crossovers fall) as assertions.
//!
//! | module | regenerates |
//! |---|---|
//! | [`loc`] | Table 2 (lines of code) |
//! | [`fig5`] | Fig. 5 (global-agent scalability) |
//! | [`fig6`] | Fig. 6a–c (Shinjuku comparison + batch sharing) |
//! | [`fig7`] | Fig. 7a–b (Snap tail latencies) |
//! | [`fig8`] | Fig. 8a–f (Google Search throughput + tails) |
//! | [`table4`] | Table 4 (secure VM core scheduling) |
//!
//! Table 3 is regenerated directly from `ghost_sim::CostModel`; host-time
//! costs of the real data structures are per-layer metrics of the
//! repository benchmark (`benchmark/`).

pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod loc;
pub mod table4;
