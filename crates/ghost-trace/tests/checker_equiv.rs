//! Map-vs-table checker equivalence: the tid-/cpu-indexed [`Checker`]
//! must report exactly the violations of the original map-based rules —
//! same rule, seq, ts and detail text, in the same order — on any record
//! stream.
//!
//! The pre-table rules live on here, test-only, as the oracle
//! ([`reference_check`]). Streams come from a small consistent scheduler
//! model (clean by construction), then get one kind of damage injected
//! per case: double occupancy, a switch-in of a blocked thread, Tseq and
//! Aseq regressions, an unpaired commit, a stale wakeup, forged tids and
//! cpus, and plain random garbage.

use ghost_trace::check::{check_with_grace, Checker, Violation, DEFAULT_GRACE_NS};
use ghost_trace::{Nanos, TraceEvent, TraceRecord, NO_TID, PREV_BLOCKED, PREV_DEAD, PREV_RUNNABLE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// The original `BTreeMap`/`BTreeSet` checker, kept verbatim as the oracle.
fn reference_check(records: &[TraceRecord], grace_ns: Nanos) -> Vec<Violation> {
    let mut v = Vec::new();
    let mut cpu_running: BTreeMap<u16, u32> = BTreeMap::new();
    let mut thread_cpu: BTreeMap<u32, u16> = BTreeMap::new();
    let mut not_runnable: BTreeSet<u32> = BTreeSet::new();
    let mut tseq: BTreeMap<u32, u64> = BTreeMap::new();
    let mut aseq: BTreeMap<u32, u64> = BTreeMap::new();
    let mut armed: BTreeSet<(u16, u32)> = BTreeSet::new();
    let mut pending_wake: BTreeMap<u32, (Nanos, u64)> = BTreeMap::new();
    let mut blackout_at: Option<Nanos> = None;
    let mut push = |rec: &TraceRecord, rule: &'static str, detail: String| {
        v.push(Violation {
            seq: rec.seq,
            ts: rec.ts,
            rule,
            detail,
        })
    };

    for rec in records {
        match rec.event {
            TraceEvent::SchedWakeup { tid, .. } => {
                not_runnable.remove(&tid);
                pending_wake.entry(tid).or_insert((rec.ts, rec.seq));
            }
            TraceEvent::SchedSwitch {
                cpu,
                prev_tid,
                prev_state,
                next_tid,
                ..
            } => {
                match cpu_running.get(&cpu) {
                    Some(&running) if prev_tid != NO_TID && running != prev_tid => push(
                        rec,
                        "exclusive-occupancy",
                        format!(
                            "cpu {cpu} switches out tid {prev_tid} but was running tid {running}"
                        ),
                    ),
                    None if prev_tid != NO_TID && thread_cpu.contains_key(&prev_tid) => push(
                        rec,
                        "exclusive-occupancy",
                        format!(
                            "cpu {cpu} switches out tid {prev_tid}, which runs on cpu {}",
                            thread_cpu[&prev_tid]
                        ),
                    ),
                    _ => {}
                }
                if prev_tid != NO_TID {
                    if thread_cpu.get(&prev_tid) == Some(&cpu) {
                        thread_cpu.remove(&prev_tid);
                    }
                    cpu_running.remove(&cpu);
                    if prev_state != PREV_RUNNABLE {
                        not_runnable.insert(prev_tid);
                        if prev_state == PREV_DEAD {
                            pending_wake.remove(&prev_tid);
                        }
                    }
                } else {
                    cpu_running.remove(&cpu);
                }
                if next_tid != NO_TID {
                    if let Some(&other) = thread_cpu.get(&next_tid) {
                        if other != cpu {
                            push(
                                rec,
                                "exclusive-occupancy",
                                format!("tid {next_tid} switched in on cpu {cpu} while running on cpu {other}"),
                            );
                        }
                    }
                    if not_runnable.contains(&next_tid) {
                        push(
                            rec,
                            "runnable-switch-in",
                            format!("cpu {cpu} switched in tid {next_tid}, last seen non-runnable with no wakeup since"),
                        );
                    }
                    cpu_running.insert(cpu, next_tid);
                    thread_cpu.insert(next_tid, cpu);
                    pending_wake.remove(&next_tid);
                }
            }
            TraceEvent::MsgEnqueued { tid, seq, .. } if tid != NO_TID && seq != 0 => {
                if let Some(&prev) = tseq.get(&tid) {
                    if seq <= prev {
                        push(
                            rec,
                            "tseq-monotone",
                            format!("tid {tid} Tseq went {prev} -> {seq} (must strictly increase)"),
                        );
                    }
                }
                tseq.insert(tid, seq);
            }
            TraceEvent::AgentActivationBegin {
                agent_tid, aseq: a, ..
            } => {
                if let Some(&prev) = aseq.get(&agent_tid) {
                    if a < prev {
                        push(
                            rec,
                            "aseq-monotone",
                            format!(
                                "agent {agent_tid} Aseq went {prev} -> {a} (must not decrease)"
                            ),
                        );
                    }
                }
                aseq.insert(agent_tid, a);
            }
            TraceEvent::TxnArmed { cpu, tid } => {
                armed.insert((cpu, tid));
            }
            TraceEvent::TxnCommitOk { cpu, tid } if !armed.remove(&(cpu, tid)) => push(
                rec,
                "commit-pairing",
                format!("TxnCommitOk for tid {tid} on cpu {cpu} with no outstanding TxnArmed"),
            ),
            TraceEvent::TxnCommitEstale { cpu, tid } | TraceEvent::TxnCommitRace { cpu, tid } => {
                armed.remove(&(cpu, tid));
            }
            TraceEvent::WatchdogFired { .. } | TraceEvent::EnclaveDestroyed { .. } => {
                blackout_at = Some(rec.ts);
            }
            _ => {}
        }
    }

    let end_ts = records.last().map(|r| r.ts).unwrap_or(0);
    let end_seq = records.last().map(|r| r.seq).unwrap_or(0);
    for (tid, (woke_ts, _)) in pending_wake {
        let excused_by_blackout = blackout_at.is_some_and(|b| b >= woke_ts);
        let within_grace = end_ts.saturating_sub(woke_ts) <= grace_ns;
        if !excused_by_blackout && !within_grace {
            v.push(Violation {
                seq: end_seq,
                ts: end_ts,
                rule: "wakeup-liveness",
                detail: format!(
                    "tid {tid} woke at {woke_ts}ns but never ran in the remaining {}ns",
                    end_ts.saturating_sub(woke_ts)
                ),
            });
        }
    }
    v.sort_by_key(|x| x.seq);
    v
}

const CPUS: u16 = 4;
const TIDS: u32 = 10;
const AGENT: u32 = 100;
const STEP_NS: Nanos = 1_000_000;

fn switch(cpu: u16, prev_tid: u32, prev_state: u8, next_tid: u32) -> TraceEvent {
    TraceEvent::SchedSwitch {
        cpu,
        prev_tid,
        prev_class: 3,
        prev_state,
        next_tid,
        next_class: 3,
    }
}

#[derive(Clone, Copy, PartialEq)]
enum St {
    Blocked,
    Runnable,
    Running(u16),
    Dead,
}

/// A stream no rule objects to: a toy machine that only wakes blocked
/// threads, only switches in runnable ones, bumps Tseq/Aseq, arms before
/// it commits, and leaves nothing woken-but-unscheduled at the end.
fn clean_events(rng: &mut StdRng, steps: usize) -> Vec<TraceEvent> {
    let mut st = vec![St::Blocked; TIDS as usize];
    let mut running = [NO_TID; CPUS as usize];
    let mut tseq = vec![0u64; TIDS as usize];
    let mut aseq = 0u64;
    let mut out = Vec::new();
    for _ in 0..steps {
        let tid = rng.gen_range(0..TIDS);
        let cpu = rng.gen_range(0..CPUS);
        match (rng.gen_range(0..10u32), st[tid as usize]) {
            (0..=2, St::Blocked) => {
                st[tid as usize] = St::Runnable;
                out.push(TraceEvent::SchedWakeup { cpu, tid });
            }
            (0..=4, St::Runnable) => {
                // Arm and commit, then switch in over whatever runs there.
                out.push(TraceEvent::TxnArmed { cpu, tid });
                out.push(TraceEvent::TxnCommitOk { cpu, tid });
                let prev = running[cpu as usize];
                if prev != NO_TID {
                    st[prev as usize] = St::Runnable;
                }
                out.push(switch(cpu, prev, PREV_RUNNABLE, tid));
                running[cpu as usize] = tid;
                st[tid as usize] = St::Running(cpu);
            }
            (0..=3, St::Running(on)) => {
                let (state, next) = if rng.gen_range(0..20u32) == 0 {
                    (PREV_DEAD, St::Dead)
                } else {
                    (PREV_BLOCKED, St::Blocked)
                };
                out.push(switch(on, tid, state, NO_TID));
                running[on as usize] = NO_TID;
                st[tid as usize] = next;
            }
            (5..=6, s) if s != St::Dead => {
                tseq[tid as usize] += rng.gen_range(1..3u64);
                out.push(TraceEvent::MsgEnqueued {
                    queue: 0,
                    ty: 1,
                    tid,
                    seq: tseq[tid as usize],
                });
            }
            (7, _) => {
                aseq += rng.gen_range(0..3u64);
                out.push(TraceEvent::AgentActivationBegin {
                    cpu,
                    agent_tid: AGENT,
                    aseq,
                });
            }
            (8, _) => {
                out.push(TraceEvent::TxnArmed { cpu, tid });
                out.push(TraceEvent::TxnCommitEstale { cpu, tid });
            }
            _ => out.push(TraceEvent::TickDelivered { cpu }),
        }
    }
    // Let every woken thread run once so the end of the trace is quiet.
    for tid in 0..TIDS {
        if st[tid as usize] == St::Runnable {
            let cpu = 0;
            let prev = running[cpu as usize];
            out.push(switch(cpu, prev, PREV_RUNNABLE, tid));
            running[cpu as usize] = tid;
        }
    }
    out
}

fn forged_tid(rng: &mut StdRng) -> u32 {
    [
        NO_TID,
        NO_TID - 1,
        1 << 16,
        (1 << 16) - 1,
        70_000,
        3_000_000,
    ][rng.gen_range(0..6usize)]
}

fn garbage(rng: &mut StdRng) -> TraceEvent {
    let tid = match rng.gen_range(0..8u32) {
        0 => forged_tid(rng),
        _ => rng.gen_range(0..TIDS),
    };
    let cpu = match rng.gen_range(0..8u32) {
        0 => [u16::MAX, 4096, CPUS][rng.gen_range(0..3usize)],
        _ => rng.gen_range(0..CPUS),
    };
    match rng.gen_range(0..9u32) {
        0 => TraceEvent::SchedWakeup { cpu, tid },
        1 | 2 => switch(
            cpu,
            if rng.gen_range(0..3u32) == 0 {
                NO_TID
            } else {
                rng.gen_range(0..TIDS)
            },
            rng.gen_range(0..3u8),
            tid,
        ),
        3 => TraceEvent::MsgEnqueued {
            queue: 0,
            ty: 1,
            tid,
            seq: rng.gen_range(0..6u64),
        },
        4 => TraceEvent::AgentActivationBegin {
            cpu,
            agent_tid: tid,
            aseq: rng.gen_range(0..6u64),
        },
        5 => TraceEvent::TxnArmed { cpu, tid },
        6 => TraceEvent::TxnCommitOk { cpu, tid },
        7 => TraceEvent::TxnCommitRace { cpu, tid },
        _ => TraceEvent::EnclaveDestroyed { enclave: 0 },
    }
}

/// The kinds of damage a case can carry, each named by the rule it must
/// trip (`None`: any or none).
const INJECTIONS: [(&str, Option<&str>); 8] = [
    ("clean", None),
    ("double-occupancy", Some("exclusive-occupancy")),
    ("blocked-switch-in", Some("runnable-switch-in")),
    ("tseq-regression", Some("tseq-monotone")),
    ("aseq-regression", Some("aseq-monotone")),
    ("unpaired-commit", Some("commit-pairing")),
    ("stale-wakeup", Some("wakeup-liveness")),
    ("forged-and-garbage", None),
];

fn inject(rng: &mut StdRng, kind: &str, events: &mut Vec<TraceEvent>) {
    let at = rng.gen_range(0..events.len());
    // A thread and CPU the toy machine never uses, so the damage is
    // exactly the one intended.
    let (t, c) = (TIDS + 1, CPUS);
    let damage: Vec<TraceEvent> = match kind {
        "double-occupancy" => vec![
            switch(c, NO_TID, PREV_RUNNABLE, t),
            switch(c + 1, NO_TID, PREV_RUNNABLE, t),
            switch(c + 1, t, PREV_RUNNABLE, NO_TID),
        ],
        "blocked-switch-in" => vec![
            switch(c, NO_TID, PREV_RUNNABLE, t),
            switch(c, t, PREV_BLOCKED, NO_TID),
            switch(c, NO_TID, PREV_RUNNABLE, t),
            switch(c, t, PREV_BLOCKED, NO_TID),
        ],
        "tseq-regression" => [7u64, 7]
            .map(|seq| TraceEvent::MsgEnqueued {
                queue: 1,
                ty: 1,
                tid: t,
                seq,
            })
            .into(),
        "aseq-regression" => [5u64, 4]
            .map(|aseq| TraceEvent::AgentActivationBegin {
                cpu: c,
                agent_tid: t,
                aseq,
            })
            .into(),
        "unpaired-commit" => vec![
            TraceEvent::TxnArmed { cpu: c, tid: t },
            TraceEvent::TxnCommitOk { cpu: c + 1, tid: t },
        ],
        "stale-wakeup" => {
            events.insert(0, TraceEvent::SchedWakeup { cpu: c, tid: t });
            return;
        }
        "forged-and-garbage" => {
            for _ in 0..rng.gen_range(1..40usize) {
                let at = rng.gen_range(0..=events.len());
                events.insert(at, garbage(rng));
            }
            return;
        }
        _ => return,
    };
    events.splice(at..at, damage);
}

fn stamp(events: &[TraceEvent], rng: &mut StdRng) -> Vec<TraceRecord> {
    let mut ts = 0;
    events
        .iter()
        .enumerate()
        .map(|(i, &event)| {
            ts += rng.gen_range(0..2 * STEP_NS);
            TraceRecord {
                seq: 1_000 + i as u64,
                ts,
                cpu: 0,
                event,
            }
        })
        .collect()
}

#[test]
fn table_checker_matches_the_map_reference() {
    for (kind, must_trip) in INJECTIONS {
        let mut tripped = 0;
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(0xC4EC ^ seed);
            let mut events = clean_events(&mut rng, 400);
            inject(&mut rng, kind, &mut events);
            let records = stamp(&events, &mut rng);
            // 400+ records a millisecond apart outlast the default grace
            // window, so a wakeup stranded at the start is stale.
            for grace in [0, 3 * STEP_NS, DEFAULT_GRACE_NS] {
                let want = reference_check(&records, grace);
                let got = check_with_grace(&records, grace);
                assert_eq!(got, want, "{kind} seed={seed} grace={grace}");
                if kind == "clean" {
                    assert!(got.is_empty(), "clean stream flagged: {got:?}");
                }
                if let (Some(rule), DEFAULT_GRACE_NS) = (must_trip, grace) {
                    let hits = got.iter().filter(|v| v.rule == rule).count();
                    assert_eq!(hits, 1, "{kind} seed={seed}: {got:?}");
                    assert_eq!(got.len(), 1, "{kind} seed={seed}: {got:?}");
                    tripped += 1;
                }
            }
        }
        assert!(must_trip.is_none() || tripped == 40, "{kind} never tripped");
    }
}

#[test]
fn pure_garbage_streams_match_and_never_panic() {
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(0x6A5B ^ seed);
        let events: Vec<TraceEvent> = (0..300).map(|_| garbage(&mut rng)).collect();
        let records = stamp(&events, &mut rng);
        let want = reference_check(&records, STEP_NS);
        assert_eq!(check_with_grace(&records, STEP_NS), want, "seed={seed}");
        assert!(
            !want.is_empty(),
            "garbage must violate something, seed={seed}"
        );
        // The fold is the same thing fed record by record.
        let mut fold = Checker::new(STEP_NS);
        records.iter().for_each(|r| fold.observe(r));
        assert_eq!(fold.finish(), want, "fold, seed={seed}");
    }
}

#[test]
fn empty_stream_is_clean() {
    assert!(check_with_grace(&[], 0).is_empty());
    assert!(Checker::new(0).finish().is_empty());
}
