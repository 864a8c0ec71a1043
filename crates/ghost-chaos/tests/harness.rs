//! The generic parts of the harness, tested once instead of per family:
//! the repro codec round trip over every family, integer validation of
//! hand-edited documents, `--replay` dispatch, the shrinker against a
//! reference model, and the CLI's flag rules.

use ghost_chaos::driver::{decode, kind_of};
use ghost_chaos::lab::LendingScenario;
use ghost_chaos::rand::rngs::StdRng;
use ghost_chaos::rand::Rng;
use ghost_chaos::{
    for_seeds, rerun_file, shrink, ByzCombo, CaseReport, ChaosCase, Combo, Failure,
    LendingLiveCombo, LiveCombo, PolicyKind, RecoveryCombo, FAMILIES,
};
use ghost_trace::json::{self, Json};
use ghost_trace::TraceSink;
use std::collections::BTreeSet;

/// `decode(encode(c)) == c` and `encode` is a fixpoint, through the
/// written text, for 32 generated cases of family `C` (rotating over its
/// whole policy pool).
fn round_trips<C: ChaosCase + std::fmt::Debug>() {
    let policies = C::policies();
    for index in 0..32 {
        // Seeds near u64::MAX would not survive an f64 round trip.
        let case = C::generate(index, u64::MAX - 40, &policies);
        let text = case.encode().to_string();
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{e} in:\n{text}"));
        assert_eq!(kind_of(&doc), Ok(C::KIND));
        let back: C = decode(&doc).unwrap_or_else(|e| panic!("{e} in:\n{text}"));
        assert_eq!(back, case, "decode(encode(c)) != c for:\n{text}");
        assert_eq!(back.encode().to_string(), text, "encode is not a fixpoint");
        assert_eq!(back.label(), case.label());
        assert_eq!(back.spec(), case.spec());
    }
}

#[test]
fn every_family_round_trips_through_repro_json() {
    round_trips::<Combo>();
    round_trips::<RecoveryCombo>();
    round_trips::<ByzCombo>();
    round_trips::<LiveCombo>();
    round_trips::<LendingScenario>();
    round_trips::<LendingLiveCombo>();
}

fn repro(name: &str) -> (String, Json) {
    let path = format!("{}/tests/repros/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let doc = json::parse(&text).unwrap();
    (path, doc)
}

/// Files written by the binary of the commit before the codecs moved
/// onto the JSON tree (one per kind) still decode, re-encode to the
/// same document — modulo the `"kind": "fault"` line fault repros have
/// since gained — and pass.
#[test]
fn repros_written_before_the_generic_codec_still_replay() {
    fn same<C: ChaosCase>(name: &str) {
        let (path, doc) = repro(name);
        let case: C = decode(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut again = case.encode();
        if doc.get("kind").is_none() {
            let Json::Obj(members) = &mut again else {
                panic!("repros are objects")
            };
            assert_eq!(members.remove(0).0, "kind");
        }
        assert_eq!(again, doc, "{name} re-encodes differently");
        // The deterministic kinds also run here; the wall-clock ones run
        // in CI, which replays every file in the directory. (With the
        // seeded bug compiled in, the fault repros fail, as they should.)
        if C::DETERMINISTIC && !cfg!(feature = "seeded-bug") {
            assert_eq!(rerun_file(&path, &FAMILIES), Ok(true), "{name}");
        }
    }
    same::<Combo>("parent-fault.json");
    same::<Combo>("parent-fault-shrunk.json");
    same::<ByzCombo>("parent-byzantine.json");
    same::<ByzCombo>("byzantine-forged-cpu.json");
    same::<ByzCombo>("byzantine-overlapping-create.json");
    same::<LiveCombo>("parent-live.json");
    same::<LendingScenario>("parent-lending.json");
    same::<LendingLiveCombo>("parent-lending-live.json");
}

fn fault_doc(edit: &str) -> Json {
    let base = r#""policy": "per-cpu", "seed": "1", "horizon": 120000000, "threads": 5"#;
    let (key, _) = edit.split_once(':').unwrap();
    let kept: Vec<&str> = base.split(", ").filter(|m| !m.starts_with(key)).collect();
    let plan = if key == "\"plan\"" {
        ""
    } else {
        r#", "plan": []"#
    };
    json::parse(&format!("{{{}, {edit}{plan}}}", kept.join(", "))).unwrap()
}

/// A hand-edited number that a cast would wrap, truncate or hand to an
/// allocator is rejected, and the error names the field.
#[test]
fn hand_edited_integers_are_rejected_by_name() {
    let err = |doc: &Json| decode::<Combo>(doc).unwrap_err();
    // CPU 70000 would have silently targeted CPU 4464.
    let e = err(&fault_doc(
        r#""plan": [{"at": 1, "kind": "agent-crash", "cpu": 70000}]"#,
    ));
    assert!(e.contains("'cpu'") && e.contains("70000"), "{e}");
    // -1 would have become CPU 0.
    let e = err(&fault_doc(
        r#""plan": [{"at": 1, "kind": "agent-crash", "cpu": -1}]"#,
    ));
    assert!(e.contains("'cpu'") && e.contains("-1"), "{e}");
    // 1.5 would have become 1.
    let e = err(&fault_doc(r#""horizon": 1.5"#));
    assert!(e.contains("'horizon'") && e.contains("1.5"), "{e}");
    // 1e12 CPUs would have asked the live backend for a trillion threads.
    let live = json::parse(
        r#"{"kind": "live", "policy": "per-cpu", "seed": "1", "requests": 1, "cpus": 1e12,
            "plan": []}"#,
    )
    .unwrap();
    let e = decode::<LiveCombo>(&live).unwrap_err();
    assert!(e.contains("'cpus'") && e.contains("1000000000000"), "{e}");
    // Past 2^53 an f64 no longer says which integer was meant.
    let e = err(&fault_doc(r#""horizon": 9007199254740994"#));
    assert!(e.contains("'horizon'"), "{e}");
    // Seeds stay decimal strings: a number is not accepted in their place.
    let e = err(&fault_doc(r#""seed": 7"#));
    assert!(e.contains("'seed'"), "{e}");
    let e = err(&fault_doc(r#""seed": "-7""#));
    assert!(e.contains("'seed'"), "{e}");
    // The unedited document is fine.
    assert!(decode::<Combo>(&fault_doc(r#""threads": 5"#)).is_ok());
}

#[test]
fn decode_rejects_foreign_kinds_policies_and_garbage() {
    let live = LiveCombo::generated(PolicyKind::PerCpu, 4).encode();
    assert!(decode::<Combo>(&live).unwrap_err().contains("'live'"));
    assert!(decode::<ByzCombo>(&live).is_err());
    assert!(decode::<LiveCombo>(&live).is_ok());
    let fault = Combo::generated(PolicyKind::PerCpu, 4).encode();
    assert!(decode::<LendingScenario>(&fault).is_err());
    assert!(decode::<Combo>(&json::parse("{}").unwrap()).is_err());
    // Policies outside a family's pool: shinjuku has no live backend,
    // core scheduling cannot co-reside with the byzantine enclave.
    for doc in [
        r#"{"kind": "live", "policy": "shinjuku", "seed": "1", "requests": 1, "cpus": 1, "plan": []}"#,
        r#"{"kind": "lending-live", "policy": "shinjuku", "fault": "rm-crash", "seed": "1", "requests": 1}"#,
        r#"{"kind": "byzantine", "victim": "core-sched", "seed": "1", "ops": []}"#,
        r#"{"kind": "lending", "policy": "nope", "workload": "diurnal", "fault": "rm-crash", "seed": "1", "horizon": 1}"#,
        r#"{"policy": "nope", "seed": "1", "horizon": 1, "threads": 1, "plan": []}"#,
    ] {
        let doc = json::parse(doc).unwrap();
        let kind = kind_of(&doc).unwrap();
        let family = FAMILIES.iter().find(|f| f.kind == kind).unwrap();
        let e = (family.replay)(&doc).unwrap_err();
        assert!(e.contains("policy"), "{kind}: {e}");
    }
}

#[test]
fn replay_names_an_unknown_kind() {
    let dir = std::env::temp_dir().join(format!("ghost-chaos-harness-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("odd.json");
    std::fs::write(&path, r#"{"kind": "quantum", "policy": "per-cpu"}"#).unwrap();
    let e = rerun_file(path.to_str().unwrap(), &FAMILIES).unwrap_err();
    assert!(e.contains("unknown repro kind 'quantum'"), "{e}");
    std::fs::write(&path, "not json").unwrap();
    assert!(rerun_file(path.to_str().unwrap(), &FAMILIES)
        .unwrap_err()
        .contains("cannot parse"));
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(rerun_file(path.to_str().unwrap(), &FAMILIES)
        .unwrap_err()
        .contains("cannot read"));
}

/// The synthetic family of the shrinker's reference model: a set of
/// elements that fails iff it still contains all of `culprit`.
#[derive(Debug, Clone, PartialEq)]
struct SetCase {
    elements: Vec<u32>,
    culprit: BTreeSet<u32>,
}

impl ChaosCase for SetCase {
    const KIND: &'static str = "set";
    const COMBOS: u64 = 0;
    const DETERMINISTIC: bool = true;

    fn policies() -> Vec<PolicyKind> {
        Vec::new()
    }
    fn generate(_: u64, _: u64, _: &[PolicyKind]) -> Self {
        unreachable!("the model test builds its cases by hand")
    }
    fn label(&self) -> String {
        format!("set/{:?}", self.elements)
    }
    fn spec(&self) -> String {
        self.label()
    }
    fn run(&self) -> CaseReport {
        let hit = self.culprit.iter().all(|c| self.elements.contains(c));
        let failures = hit.then(|| Failure {
            oracle: "culprit",
            detail: format!("{:?} all present", self.culprit),
        });
        CaseReport {
            failures: failures.into_iter().collect(),
            lines: Vec::new(),
            trace: TraceSink::Null,
        }
    }
    fn encode(&self) -> Json {
        Json::Null
    }
    fn decode(_: &Json) -> Result<Self, String> {
        Err("set cases are not written".into())
    }
    fn shrink_candidates(&self) -> Vec<Self> {
        (0..self.elements.len())
            .map(|i| {
                let mut smaller = self.clone();
                smaller.elements.remove(i);
                smaller
            })
            .collect()
    }
}

/// Random element sets with a hidden failing subset: the shrinker must
/// return exactly that subset (in its original order), and must hand a
/// passing case back untouched. This is the whole contract of greedy
/// 1-minimal shrinking when failure is monotone in the element set.
#[test]
fn shrinker_recovers_the_hidden_subset() {
    for_seeds!(0x5EED_05E7, 64, |rng: &mut StdRng| {
        let n = rng.gen_range(0usize..12);
        let elements: Vec<u32> = (0..n as u32)
            .map(|i| i * 3 + rng.gen_range(0u32..3))
            .collect();
        let culprit: BTreeSet<u32> = elements
            .iter()
            .copied()
            .filter(|_| rng.gen_range(0u32..3) == 0)
            .collect();
        let case = SetCase {
            elements: elements.clone(),
            culprit: culprit.clone(),
        };
        let minimal = shrink(&case);
        let expect: Vec<u32> = elements
            .iter()
            .copied()
            .filter(|e| culprit.contains(e))
            .collect();
        assert_eq!(minimal.elements, expect, "from {elements:?}");
        assert!(!minimal.run().failures.is_empty());

        // One culprit element missing: the case passes and is returned
        // unchanged, element for element.
        if let Some(&gone) = culprit.iter().next() {
            let mut passing = case.clone();
            passing.elements.retain(|&e| e != gone);
            assert!(passing.run().failures.is_empty());
            assert_eq!(shrink(&passing), passing);
        }
    });
}

fn cli(args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ghost-chaos"))
        .args(args)
        .output()
        .expect("the ghost-chaos binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A flag combination the CLI cannot honour is a usage error (exit 2)
/// that says why, before anything runs.
#[test]
fn cli_rejects_flags_it_cannot_honour() {
    for (args, why) in [
        (&["--live", "--lending"][..], "pick one family"),
        (&["--recovery", "--byzantine"], "pick one family"),
        (&["--live", "--jobs", "4"], "--jobs"),
        (&["--lending-live", "--digest", "d.txt"], "--digest"),
        (&["--live", "--cache", "c"], "--cache"),
        (&["--bench-out", "b.json"], "unknown argument '--bench-out'"),
        (&["--byzantine", "--policy", "core-sched"], "core-sched"),
        (&["--combos", "many"], "--combos"),
        (&["--frobnicate"], "--frobnicate"),
    ] {
        let (code, stderr) = cli(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(why),
            "{args:?} should mention {why}: {stderr}"
        );
    }
    // The usage text lists every family's default sweep size.
    let (code, usage) = cli(&["--help"]);
    assert_eq!(code, Some(2));
    assert!(usage.contains("default 64; 6 with --live, 16 with --lending, 4 with --lending-live"));
}

/// A clean sweep exits 0 and honours the engine flags end to end.
#[test]
#[cfg(not(feature = "seeded-bug"))]
fn cli_sweeps_and_writes_a_digest() {
    let dir = std::env::temp_dir().join(format!("ghost-chaos-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let digest = dir.join("digest.txt");
    let (code, stderr) = cli(&[
        "--recovery",
        "--combos",
        "5",
        "--jobs",
        "2",
        "--digest",
        digest.to_str().unwrap(),
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(std::fs::read_to_string(&digest).unwrap().lines().count(), 5);
    std::fs::remove_dir_all(&dir).unwrap();
}
