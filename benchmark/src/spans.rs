//! Harness spans: one record around every call the harness makes into a
//! layer. Kept in memory, written out when the traced run ends. Timed
//! runs use [`Spans::off`], which records nothing.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run_until`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Rep the span belongs to (spans of one rep share it).
    pub rep: u32,
}

/// Per-name totals derived from a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their durations minus their direct children's, ns.
    pub self_ns: u64,
}

/// The span recorder.
pub struct Spans {
    on: bool,
    origin: Instant,
    rep: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder that records nothing (timed runs).
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording recorder (traced runs).
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            rep: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Sets the rep id stamped on spans opened from now on.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Runs `f` inside a span called `name`; `f` gets the recorder back so
    /// it can open child spans.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            rep: self.rep,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`, in opening order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Sum of the durations of every span called `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Writes the spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rep\":{}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.rep,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

/// Per-name count, total and self time. A span's self time is its duration
/// minus the durations of its direct children.
pub fn span_totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        let dur = s.end_ns - s.start_ns;
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(children);
    }
    out
}
