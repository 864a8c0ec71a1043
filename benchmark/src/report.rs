//! What one run reports, and how it is printed.

use crate::catalog::{MetricDef, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;

/// Measured values by metric name. Units come from the catalog, so a
/// value can only be stored under a name the catalog knows.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Stores `value` under `name`. Panics on a name missing from the
    /// catalog: that is a bug in the harness, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        self.0.insert(def.name, value);
    }

    /// Stores a `(p50, p99)` pair, given in ns, under `<stem>.p50` and
    /// `<stem>.p99` after dividing by `ns_per_unit`.
    pub fn set_p50_p99(&mut self, stem: &str, (p50, p99): (u64, u64), ns_per_unit: f64) {
        self.set(&format!("{stem}.p50"), p50 as f64 / ns_per_unit);
        self.set(&format!("{stem}.p99"), p99 as f64 / ns_per_unit);
    }

    /// The stored value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Reasons the run's outputs were wrong; empty means correct.
    pub errors: Vec<String>,
    /// Operations attempted (see the README for what counts per workload).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The measured metrics.
    pub metrics: Metrics,
    /// Human-readable remarks printed above the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Prints the outcome: notes, one `name value unit` line per metric, and
/// as the last line the JSON object the driver parses. `defs` is the list
/// the mode must print in full: a timed run must have measured every one,
/// a traced run prints 0 for layers off the workload's path.
pub fn print(outcome: &Outcome, defs: &[MetricDef], require_all: bool) -> Result<(), String> {
    for note in &outcome.notes {
        println!("# {note}");
    }
    for e in &outcome.errors {
        println!("# FAILED CHECK: {e}");
    }
    let mut fields = Vec::with_capacity(defs.len());
    for d in defs {
        let value = match outcome.metrics.get(d.name) {
            Some(v) => v,
            None if require_all => return Err(format!("metric {} was not measured", d.name)),
            None => 0.0,
        };
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", d.name));
        }
        println!("{:<48} {value:>18.4} {}", d.name, d.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.errors.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    Ok(())
}
