//! The original Shinjuku system (§4.2 baseline): "It uses 20 spinning
//! worker threads pinned to 20 different hyperthreads and a spinning
//! dispatcher thread, running on a dedicated physical core. The spinning
//! threads prevent any other thread from running on their CPUs. The
//! dispatcher manages arriving requests in a FIFO and assigns them to
//! worker threads. Each request runs up to a limited runtime, before it
//! is preempted and added to the back of the FIFO."
//!
//! Because Shinjuku is a dataplane OS with its own closed world (Dune,
//! posted interrupts), it is modelled as a standalone discrete-event
//! system rather than on the kernel simulator: its CPUs are simply not
//! available to anyone else — which is exactly what Fig. 6c shows (the
//! batch app gets zero CPU share under Shinjuku).

use ghost_metrics::LogHistogram;
use ghost_sim::time::{Nanos, MICROS};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Preemption timeslice (30 µs in the paper's experiments).
const TIMESLICE: Nanos = 30 * MICROS;
/// Dispatcher→worker handoff cost (shared-memory descriptor pass).
const DISPATCH_COST: Nanos = 150;
/// Preemption cost (posted interrupt + context save).
const PREEMPT_COST: Nanos = 250;

/// Results of a dataplane run.
#[derive(Debug)]
pub struct DataplaneResult {
    /// Request latency (arrival → completion), ns.
    pub latency: LogHistogram,
    /// Completed requests.
    pub completed: u64,
    /// Preemptions performed.
    pub preemptions: u64,
    /// Requests still in flight when the run ended.
    pub in_flight: usize,
}

#[derive(Debug, Clone, Copy)]
struct Req {
    arrival: Nanos,
    remaining: Nanos,
}

/// The Shinjuku dataplane simulator.
pub struct ShinjukuDataplane {
    /// Number of spinning worker hyperthreads.
    workers: usize,
}

impl ShinjukuDataplane {
    /// Creates the system with `workers` spinning worker hyperthreads.
    pub fn new(workers: usize) -> Self {
        Self { workers }
    }

    /// Runs the dataplane over a pre-sorted arrival stream of
    /// `(arrival_time, service_time)` pairs until `horizon`.
    ///
    /// # Panics
    ///
    /// Panics if arrivals are not sorted by time.
    pub fn run(
        &self,
        arrivals: impl IntoIterator<Item = (Nanos, Nanos)>,
        horizon: Nanos,
    ) -> DataplaneResult {
        let mut fifo: VecDeque<Req> = VecDeque::new();
        // (completion-or-preemption time, worker, request) — earliest first.
        let mut running: BinaryHeap<Reverse<(Nanos, Req, Nanos)>> = BinaryHeap::new();
        let mut free_workers = self.workers;
        let mut latency = LogHistogram::new();
        let mut completed = 0u64;
        let mut preemptions = 0u64;
        let mut last_arrival = 0;

        let mut arrivals = arrivals.into_iter().peekable();
        let mut now: Nanos;
        loop {
            // Next event: arrival or running-slice end.
            let next_arrival = arrivals.peek().map(|&(t, _)| t);
            let next_slice = running.peek().map(|Reverse((t, _, _))| *t);
            let t = match (next_arrival, next_slice) {
                (None, None) => break,
                (Some(a), None) => a,
                (None, Some(s)) => s,
                (Some(a), Some(s)) => a.min(s),
            };
            if t > horizon {
                break;
            }
            now = t;
            if Some(t) == next_arrival {
                let (at, service) = arrivals.next().expect("peeked");
                assert!(at >= last_arrival, "arrivals must be sorted");
                last_arrival = at;
                fifo.push_back(Req {
                    arrival: at,
                    remaining: service,
                });
            } else {
                let Reverse((_, req, ran)) = running.pop().expect("peeked");
                free_workers += 1;
                if ran >= req.remaining {
                    // Completed.
                    latency.record(now - req.arrival);
                    completed += 1;
                } else {
                    // Preempted: back of the FIFO with reduced remaining.
                    preemptions += 1;
                    fifo.push_back(Req {
                        arrival: req.arrival,
                        remaining: req.remaining - ran + PREEMPT_COST,
                    });
                }
            }
            // Dispatcher: fill free workers from the FIFO.
            while free_workers > 0 {
                let Some(req) = fifo.pop_front() else {
                    break;
                };
                free_workers -= 1;
                let ran = req.remaining.min(TIMESLICE);
                let end = now + DISPATCH_COST + ran;
                running.push(Reverse((end, req, ran)));
            }
        }
        DataplaneResult {
            latency,
            completed,
            preemptions,
            in_flight: fifo.len() + running.len(),
        }
    }
}

// `Req` ordering for the heap: only the time matters; derive lexicographic
// compare over tuple requires Ord on Req.
impl PartialEq for Req {
    fn eq(&self, other: &Self) -> bool {
        (self.arrival, self.remaining) == (other.arrival, other.remaining)
    }
}
impl Eq for Req {}
impl PartialOrd for Req {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Req {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.arrival, self.remaining).cmp(&(other.arrival, other.remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghost_sim::time::{MILLIS, SECS};

    #[test]
    fn single_request_latency_is_service_plus_dispatch() {
        let dp = ShinjukuDataplane::new(20);
        let r = dp.run([(0, 4 * MICROS)], SECS);
        assert_eq!(r.completed, 1);
        assert_eq!(r.latency.max(), 4 * MICROS + 150);
        assert_eq!(r.preemptions, 0);
    }

    #[test]
    fn long_requests_are_preempted_at_the_slice() {
        let dp = ShinjukuDataplane::new(20);
        let r = dp.run([(0, 100 * MICROS)], SECS);
        assert_eq!(r.completed, 1);
        // 100 µs at a 30 µs slice → 3 preemptions.
        assert_eq!(r.preemptions, 3);
    }

    #[test]
    fn short_requests_are_not_blocked_by_long_ones() {
        // 20 workers busy with long requests + 1 short one: preemption
        // bounds the short request's latency near one timeslice.
        let dp = ShinjukuDataplane::new(20);
        let mut arrivals: Vec<(Nanos, Nanos)> = (0..21).map(|_| (0, 10 * MILLIS)).collect();
        arrivals.push((1, 4 * MICROS));
        arrivals.sort();
        let r = dp.run(arrivals, 2 * SECS);
        // The short request completes long before the 10 ms hogs would
        // drain without preemption.
        assert!(r.latency.min() < 100 * MICROS, "min {}", r.latency.min());
    }

    #[test]
    fn saturation_leaves_requests_in_flight() {
        let dp = ShinjukuDataplane::new(1);
        // 1 worker, offered 2x capacity.
        let arrivals: Vec<(Nanos, Nanos)> = (0..1000u64)
            .map(|i| (i * 5 * MICROS, 10 * MICROS))
            .collect();
        let r = dp.run(arrivals, 5 * MILLIS + 1);
        assert!(r.in_flight > 100, "in flight {}", r.in_flight);
    }

    #[test]
    fn throughput_matches_capacity_below_saturation() {
        let dp = ShinjukuDataplane::new(20);
        // 20 workers, 10 µs requests, offered at 1M req/s (half capacity).
        let arrivals: Vec<(Nanos, Nanos)> =
            (0..100_000u64).map(|i| (i * MICROS, 10 * MICROS)).collect();
        let r = dp.run(arrivals, 2 * SECS);
        assert_eq!(r.completed, 100_000);
        // p99 stays near service time.
        assert!(r.latency.percentile(99.0) < 40 * MICROS);
    }
}
