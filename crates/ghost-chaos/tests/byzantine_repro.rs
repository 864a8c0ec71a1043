//! Regression replays of shrunk byzantine repros that panicked the
//! kernel before the ABI boundary was hardened. Each repro is the
//! 1-minimal hostile op sequence found by the sweep + shrinker; they are
//! checked in so the panics can never come back silently.

use ghost_chaos::{ByzCombo, ByzOp, CaseReport, PolicyKind};
use ghost_core::abi::AbiError;
use ghost_trace::json;

fn load(name: &str) -> ByzCombo {
    let path = format!("{}/tests/repros/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    ghost_chaos::driver::decode(&json::parse(&text).unwrap()).unwrap()
}

fn hostile_rejected(report: &CaseReport) -> u64 {
    report.value("hostile-rejected").unwrap().parse().unwrap()
}

/// Pre-hardening, a transaction targeting a forged CPU id (999 on an
/// 8-CPU machine) indexed out of bounds in the commit path's
/// `CpuSet::contains` and panicked the kernel. It must now settle as a
/// typed `InvalidCpu` rejection while the victim enclave keeps its SLO.
#[test]
fn forged_commit_cpu_is_a_typed_rejection() {
    let combo = load("byzantine-forged-cpu.json");
    assert_eq!(
        combo,
        ByzCombo {
            victim: PolicyKind::PerCpu,
            seed: 2,
            ops: vec![ByzOp::CommitForgedCpu { cpu: 999 }],
        },
        "the checked-in file decodes to what it always did"
    );
    let (report, stats) = combo.execute();
    assert!(
        report.failures.is_empty(),
        "oracles failed: {:?}",
        report.failures
    );
    assert!(hostile_rejected(&report) >= 1);
    assert!(stats.rejects(AbiError::InvalidCpu) >= 1);
}

/// Pre-hardening, creating an enclave whose CPU mask named an id beyond
/// `MAX_CPUS` indexed out of bounds in `CpuSet::add` and panicked
/// before validation ever ran. The unrepresentable id now simply never
/// joins the mask, so creation fails closed with a typed `EmptyCpuSet`
/// rejection. (The shrunk repro originally used id 300 against
/// `MAX_CPUS = 256`; when the mask grew to 1024 words for the zen
/// topology, the id moved to 1300 to stay unrepresentable.)
#[test]
fn oversized_enclave_mask_is_a_typed_rejection() {
    let combo = load("byzantine-overlapping-create.json");
    assert_eq!(
        combo,
        ByzCombo {
            victim: PolicyKind::PerCpu,
            seed: 5,
            ops: vec![ByzOp::CreateOverlapping { cpu: 1300 }],
        },
        "the checked-in file decodes to what it always did"
    );
    let (report, stats) = combo.execute();
    assert!(
        report.failures.is_empty(),
        "oracles failed: {:?}",
        report.failures
    );
    assert!(hostile_rejected(&report) >= 1);
    assert!(stats.rejects(AbiError::EmptyCpuSet) >= 1);
}
