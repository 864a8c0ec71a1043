//! Seeded input generation. The program under test never sees the seed,
//! only the inputs made from it.

/// SplitMix64: the harness's own generator, so inputs do not depend on
/// which `rand` stand-in the workspace vendors.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is a function of `seed` alone.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e9b5);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform value in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

/// One open-loop request: when it is due and what it asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenRequest {
    /// Due time, ns after the schedule's start.
    pub due_ns: u64,
    /// Key to read or write.
    pub key: u64,
    /// PUT (one request in ten on average) or GET.
    pub put: bool,
}

/// A fixed-rate open-loop schedule: `count` requests, one every
/// `1/rate_per_s` seconds, keys and PUT flags drawn from `seed`. The
/// arrival times are not random: a fixed interval keeps the offered load
/// identical across seeds, so only the key stream varies.
pub fn open_schedule(seed: u64, rate_per_s: u64, count: u64) -> Vec<OpenRequest> {
    let mut rng = SplitMix64::new(seed ^ 0x6f70_656e);
    let period_ns = 1_000_000_000 / rate_per_s;
    (0..count)
        .map(|i| OpenRequest {
            due_ns: i * period_ns,
            key: rng.next_u64(),
            put: rng.next_u64().is_multiple_of(10),
        })
        .collect()
}
