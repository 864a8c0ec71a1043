//! Tests of the harness's own arithmetic. None of them runs a workload.

use ghost_benchmark::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use ghost_benchmark::gen::open_schedule;
use ghost_benchmark::hops::Hops;
use ghost_benchmark::rss::parse_vm_hwm_kb;
use ghost_benchmark::spans::{span_totals, Spans};
use ghost_benchmark::stats::{interp_percentile, median, p50_p99, percentile_sorted};
use ghost_benchmark::timing::cleanest;
use ghost_lab::scenario::PolicyKind;
use ghost_metrics::LogHistogram;
use ghost_trace::json::{self, Json};
use ghost_trace::{TraceEvent, TraceRecord};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn cleanest_rep_is_the_fast_end() {
    let per_rep = [3.0, 1.5, 2.0];
    assert_eq!(cleanest(&per_rep, true), 3.0);
    assert_eq!(cleanest(&per_rep, false), 1.5);
}

#[test]
fn nearest_rank_percentiles() {
    let sorted: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile_sorted(&sorted, 50.0), 50);
    assert_eq!(percentile_sorted(&sorted, 99.0), 99);
    assert_eq!(percentile_sorted(&sorted, 100.0), 100);
    assert_eq!(percentile_sorted(&sorted, 0.0), 1);
    assert_eq!(percentile_sorted(&[], 50.0), 0);
    let mut unsorted = vec![30, 10, 20];
    assert_eq!(p50_p99(&mut unsorted), (20, 30));
}

#[test]
fn interpolated_percentile_is_finer_than_the_bucket() {
    let mut h = LogHistogram::new();
    for v in 1..=100_000u64 {
        h.record(v);
    }
    for (p, exact) in [(50.0, 50_000.0), (99.0, 99_000.0), (99.9, 99_900.0)] {
        let got = interp_percentile(&h, p);
        assert!(
            (got - exact).abs() / exact < 0.001,
            "p{p}: {got} vs exact {exact} (bucket floor {})",
            h.percentile(p)
        );
        assert!(got >= h.percentile(p) as f64);
    }
    assert_eq!(interp_percentile(&LogHistogram::new(), 50.0), 0.0);
}

#[test]
fn interpolated_percentile_of_a_constant_is_the_constant() {
    let mut h = LogHistogram::new();
    h.record_n(8_960, 1_000);
    assert_eq!(interp_percentile(&h, 50.0), 8_960.0);
    assert_eq!(interp_percentile(&h, 99.0), 8_960.0);
}

#[test]
fn merged_histogram_percentiles_equal_the_pooled_ones() {
    let (mut a, mut b, mut pooled) = (
        LogHistogram::new(),
        LogHistogram::new(),
        LogHistogram::new(),
    );
    for v in 1..=50_000u64 {
        a.record(v * 3);
        pooled.record(v * 3);
        b.record(v * 7 + 11);
        pooled.record(v * 7 + 11);
    }
    a.merge(&b);
    assert_eq!(a.count(), pooled.count());
    for p in [50.0, 99.0, 99.9] {
        assert_eq!(interp_percentile(&a, p), interp_percentile(&pooled, p));
    }
    // The top bucket holds the maximum: nothing lies above it.
    assert!(interp_percentile(&a, 100.0) <= a.max() as f64);
}

#[test]
fn span_self_time_is_duration_minus_direct_children() {
    let mut spans = Spans::on();
    spans.set_rep(3);
    spans.scope("outer", |s| {
        s.scope("inner", |s| {
            s.scope("leaf", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        s.scope("inner", |_| ());
    });
    let list = spans.spans();
    assert_eq!(list.len(), 4);
    assert_eq!(list[0].parent, None);
    assert_eq!(list[1].parent, Some(0));
    assert_eq!(list[2].parent, Some(1));
    assert_eq!(list[3].parent, Some(0));
    assert!(list.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));

    let totals = span_totals(list);
    let (outer, inner, leaf) = (totals["outer"], totals["inner"], totals["leaf"]);
    assert_eq!((outer.count, inner.count, leaf.count), (1, 2, 1));
    assert_eq!(leaf.self_ns, leaf.total_ns);
    assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    // Only the first `inner` has a child.
    assert_eq!(inner.self_ns, inner.total_ns - leaf.total_ns);
    assert!(leaf.total_ns >= 2_000_000);
    assert_eq!(spans.durations("inner").len(), 2);

    let parsed = json::parse(&spans.to_json()).expect("spans file is JSON");
    let rows = parsed.as_arr().expect("an array");
    assert_eq!(rows.len(), 4);
    assert_eq!(rows[2].get("name").and_then(Json::as_str), Some("leaf"));
    assert_eq!(rows[2].get("parent").and_then(Json::as_num), Some(1.0));
}

#[test]
fn spans_off_records_nothing() {
    let mut spans = Spans::off();
    assert_eq!(spans.scope("outer", |s| s.scope("inner", |_| 7)), 7);
    assert!(spans.spans().is_empty());
    assert_eq!(spans.to_json(), "[\n]");
}

#[test]
fn open_schedule_is_a_function_of_the_seed() {
    let a = open_schedule(7, 2_000, 6_000);
    assert_eq!(a, open_schedule(7, 2_000, 6_000));
    let b = open_schedule(8, 2_000, 6_000);
    assert!(a.iter().zip(&b).any(|(x, y)| x.key != y.key));
    // The arrival times are the fixed rate's, whatever the seed.
    assert!(a.iter().zip(&b).all(|(x, y)| x.due_ns == y.due_ns));
    assert_eq!(a[1].due_ns - a[0].due_ns, 500_000);
    assert_eq!(a.last().map(|r| r.due_ns), Some(5_999 * 500_000));
    let puts = a.iter().filter(|r| r.put).count();
    assert!((400..800).contains(&puts), "{puts} PUTs of 6000");
}

#[test]
fn vm_hwm_parsing() {
    let status =
        "Name:\tghost-benchmark\nVmPeak:\t  123456 kB\nVmHWM:\t   10240 kB\nVmRSS:\t    9000 kB\n";
    assert_eq!(parse_vm_hwm_kb(status), Some(10_240));
    assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t 1 kB\n"), None);
    assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
    assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
}

#[test]
fn hops_pair_by_message_and_thread() {
    let events = [
        (
            100,
            TraceEvent::MsgEnqueued {
                queue: 0,
                ty: 5,
                tid: 9,
                seq: 1,
            },
        ),
        (
            130,
            TraceEvent::MsgDequeued {
                queue: 0,
                ty: 5,
                tid: 9,
                seq: 1,
            },
        ),
        (150, TraceEvent::TxnCommitOk { cpu: 2, tid: 9 }),
        (
            190,
            TraceEvent::SchedSwitch {
                cpu: 2,
                prev_tid: u32::MAX,
                prev_class: 4,
                prev_state: 0,
                next_tid: 9,
                next_class: 3,
            },
        ),
        // A dequeue with no matching enqueue still starts a decision.
        (
            200,
            TraceEvent::MsgDequeued {
                queue: 0,
                ty: 5,
                tid: 4,
                seq: 8,
            },
        ),
        (260, TraceEvent::TxnCommitOk { cpu: 1, tid: 4 }),
    ];
    let records: Vec<TraceRecord> = events
        .iter()
        .enumerate()
        .map(|(i, &(ts, event))| TraceRecord {
            seq: i as u64,
            ts,
            cpu: 0,
            event,
        })
        .collect();
    let mut hops = Hops::default();
    hops.add(&records);
    assert_eq!(hops.msg_queue_wait, [30]);
    assert_eq!(hops.decide_commit, [20, 60]);
    assert_eq!(hops.commit_to_switch, [40]);
}

/// `BENCHMARK.json` and the catalog list the same names, units and
/// directions, in the same order, within the contract's limits.
#[test]
fn benchmark_json_matches_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let field = |row: &Json, key: &str| {
        row.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} missing"))
            .to_string()
    };
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let rows = doc.get(key).and_then(Json::as_arr).expect("metric list");
        let listed: Vec<_> = rows
            .iter()
            .map(|r| (field(r, "name"), field(r, "unit"), field(r, "better")))
            .collect();
        let catalog: Vec<_> = defs
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
            .collect();
        assert_eq!(listed, catalog, "{key}");
        for d in defs {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.better == "higher" || d.better == "lower", "{}", d.name);
        }
    }
    assert!(PER_LAYER.len() <= 128);
    let rows = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workload list");
    let listed: Vec<_> = rows
        .iter()
        .map(|r| (field(r, "name"), field(r, "why")))
        .collect();
    let catalog: Vec<_> = WORKLOADS
        .iter()
        .map(|(n, w)| (n.to_string(), w.to_string()))
        .collect();
    assert_eq!(listed, catalog);
    assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
}

#[test]
fn catalog_has_one_row_per_registered_policy() {
    let prefix = "policies.host_ns_per_event.";
    let listed: Vec<&str> = PER_LAYER
        .iter()
        .filter_map(|d| d.name.strip_prefix(prefix))
        .collect();
    let registered: Vec<&str> = PolicyKind::registered().map(PolicyKind::name).collect();
    assert_eq!(listed, registered);
}
