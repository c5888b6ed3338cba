//! The three instrument kinds: counters, gauges, and latency histograms.
//!
//! All three share the same hot-path discipline: recording is a relaxed
//! `fetch_add` into a cache-line-padded per-thread shard, and the shards
//! are only summed when a snapshot is taken.  Handles are cheap `Arc`
//! clones, so call sites hold their instrument directly instead of going
//! through the registry map on every operation.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::snapshot::HistogramSnapshot;

/// Number of per-thread shards per instrument.  Threads are striped over
/// the shards by a process-wide registration index, so two dispatch
/// threads almost never share a cache line.
const SHARDS: usize = 8;

/// Buckets per power of two (same resolution as the workload harness
/// histogram: ~3% relative error).
pub(crate) const SUB_BUCKETS: usize = 32;
/// Highest representable latency: 2^38 ns ≈ 275 s.
pub(crate) const MAX_POWER: usize = 38;
/// Total bucket count of a [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = SUB_BUCKETS * MAX_POWER;

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn shard_index() -> usize {
    THREAD_SLOT.with(|slot| *slot % SHARDS)
}

/// One cache line holding one shard's cell, padded so neighbouring shards
/// never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

/// A monotonically increasing counter.
///
/// Cloning yields another handle onto the same underlying cells.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    shards: Arc<[PaddedU64; SHARDS]>,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` (relaxed, into the calling thread's shard).
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Sums the shards (snapshot path).
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// An instantaneous value (queue depths, in-flight work).
///
/// Unlike [`Counter`], `set` must observe one authoritative cell, so a
/// gauge is a single atomic — gauges are updated at bookkeeping frequency,
/// not per-operation.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Creates a zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` (saturating at zero under races only in aggregate;
    /// the raw cell wraps like any atomic).
    pub fn sub(&self, n: u64) {
        self.cell.fetch_sub(n, Ordering::Relaxed);
    }

    /// Reads the current value.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// One shard of a histogram: log-linear buckets plus count/sum/max.
#[derive(Debug)]
struct HistShard {
    buckets: Box<[AtomicU64]>,
    count: PaddedU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for HistShard {
    fn default() -> Self {
        HistShard {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: PaddedU64::default(),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// A lock-free log-spaced latency histogram (1 ns – ~275 s, ~3% relative
/// error), sharded per recording thread and merged on snapshot:
/// recordable concurrently from every dispatch thread with a relaxed
/// `fetch_add`.
#[derive(Debug, Clone)]
pub struct Histogram {
    shards: Arc<Vec<HistShard>>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of the bucket holding `ns`.
pub(crate) fn bucket_for(ns: u64) -> usize {
    if ns == 0 {
        return 0;
    }
    let power = 63 - ns.leading_zeros() as usize; // floor(log2(ns))
    let power = power.min(MAX_POWER - 1);
    let base = 1u64 << power;
    let sub = ((ns - base) as u128 * SUB_BUCKETS as u128 / base as u128) as usize;
    power * SUB_BUCKETS + sub.min(SUB_BUCKETS - 1)
}

/// Lower bound (ns) of bucket `idx`.
pub(crate) fn bucket_value(idx: usize) -> u64 {
    let power = idx / SUB_BUCKETS;
    let sub = idx % SUB_BUCKETS;
    let base = 1u64 << power;
    base + (base as u128 * sub as u128 / SUB_BUCKETS as u128) as u64
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            shards: Arc::new((0..SHARDS).map(|_| HistShard::default()).collect()),
        }
    }

    /// Records one duration sample.
    pub fn record(&self, latency: Duration) {
        self.record_ns(latency.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one sample in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let shard = &self.shards[shard_index()];
        shard.buckets[bucket_for(ns)].fetch_add(1, Ordering::Relaxed);
        shard.count.0.fetch_add(1, Ordering::Relaxed);
        shard.total_ns.fetch_add(ns, Ordering::Relaxed);
        shard.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Merges the shards into a point-in-time snapshot.
    ///
    /// Concurrent recorders may land between the per-shard reads; the
    /// snapshot is consistent enough for reporting (counts never go
    /// backwards across snapshots).
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let mut merged = vec![0u64; HISTOGRAM_BUCKETS];
        let mut count = 0u64;
        let mut total_ns = 0u64;
        let mut max_ns = 0u64;
        for shard in self.shards.iter() {
            for (m, b) in merged.iter_mut().zip(shard.buckets.iter()) {
                *m += b.load(Ordering::Relaxed);
            }
            count += shard.count.0.load(Ordering::Relaxed);
            total_ns = total_ns.saturating_add(shard.total_ns.load(Ordering::Relaxed));
            max_ns = max_ns.max(shard.max_ns.load(Ordering::Relaxed));
        }
        // `count` is authoritative: a racing recorder may have bumped a
        // bucket we already passed, so clamp the bucket sum to it.
        let mut buckets = Vec::new();
        let mut seen = 0u64;
        for (idx, &c) in merged.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let take = c.min(count.saturating_sub(seen));
            if take == 0 {
                break;
            }
            seen += take;
            buckets.push((idx as u32, take));
        }
        HistogramSnapshot {
            name: name.to_string(),
            count: seen,
            total_ns,
            max_ns,
            buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// Deterministic xorshift so the property tests need no external
    /// crates and reproduce bit-for-bit.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    #[test]
    fn bucket_boundaries_bracket_every_sample() {
        // Property: for any ns, the bucket's lower bound is <= ns, the
        // next bucket's lower bound is > ns (below the cap), and the
        // relative quantization error is bounded by the sub-bucket width.
        let mut state = 0x5eed_cafe_d00d_f00du64;
        let mut values: Vec<u64> = (0..20_000).map(|_| xorshift(&mut state) >> 12).collect();
        for p in 0..MAX_POWER {
            let base = 1u64 << p;
            values.extend([base.saturating_sub(1), base, base + 1]);
        }
        values.extend([0, 1, u64::MAX]);
        values.sort_unstable();
        let mut prev_idx = 0usize;
        for ns in values {
            let idx = bucket_for(ns);
            assert!(idx < HISTOGRAM_BUCKETS, "bucket index {idx} for {ns}");
            assert!(idx >= prev_idx, "bucket_for not monotone at {ns}");
            prev_idx = idx;
            let lo = bucket_value(idx);
            if (1..(1u64 << MAX_POWER)).contains(&ns) {
                assert!(lo <= ns, "bucket lower bound {lo} exceeds sample {ns}");
                // Quantization error: one sub-bucket width plus at most
                // 1 ns of integer-division floor loss.
                let err = (ns - lo) as f64 / ns as f64;
                let bound = 1.0 / SUB_BUCKETS as f64 + 1.0 / ns as f64 + 1e-9;
                assert!(err <= bound, "error {err} at {ns} (bound {bound})");
            }
        }
    }

    #[test]
    fn bucket_values_never_decrease() {
        // Low buckets collapse (integer division at tiny bases), but the
        // representative values must be non-decreasing for quantile
        // extraction to be monotone.
        let mut prev = 0u64;
        for idx in 0..HISTOGRAM_BUCKETS {
            let v = bucket_value(idx);
            assert!(v >= prev, "bucket {idx} value {v} < previous {prev}");
            prev = v;
        }
    }

    #[test]
    fn multithreaded_recording_loses_no_counts_and_quantiles_are_monotone() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 20_000;
        let h = Histogram::new();
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = h.clone();
                thread::spawn(move || {
                    let mut state = 0x9e37_79b9_7f4a_7c15u64.wrapping_add(t as u64);
                    let mut sum = 0u64;
                    for _ in 0..PER_THREAD {
                        let ns = xorshift(&mut state) % 1_000_000;
                        sum = sum.wrapping_add(ns);
                        h.record_ns(ns);
                    }
                    sum
                })
            })
            .collect();
        let expected_total: u64 = handles
            .into_iter()
            .map(|j| j.join().expect("recorder thread"))
            .fold(0u64, |a, b| a.wrapping_add(b));
        let snap = h.snapshot("t");
        assert_eq!(snap.count, THREADS as u64 * PER_THREAD, "lost counts");
        assert_eq!(
            snap.buckets.iter().map(|(_, c)| c).sum::<u64>(),
            snap.count,
            "bucket sum disagrees with count"
        );
        assert_eq!(snap.total_ns, expected_total);
        // Quantiles monotone and bounded by max.
        let mut prev = 0u64;
        for p in [1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
            let q = snap.percentile_ns(p);
            assert!(q >= prev, "p{p} = {q} < previous {prev}");
            assert!(q <= snap.max_ns, "p{p} = {q} above max {}", snap.max_ns);
            prev = q;
        }
    }

    #[test]
    fn percentiles_of_uniform_samples_are_accurate() {
        let h = Histogram::new();
        for us in 1..=1000u64 {
            h.record_ns(us * 1000);
        }
        let snap = h.snapshot("u");
        let p50 = snap.percentile_ns(50.0) as f64;
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.05, "p50 {p50}");
        let p99 = snap.percentile_ns(99.0) as f64;
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.05, "p99 {p99}");
    }

    #[test]
    fn counter_sums_across_threads() {
        let c = Counter::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().expect("adder thread");
        }
        assert_eq!(c.value(), 80_000);
    }

    #[test]
    fn gauge_tracks_last_set() {
        let g = Gauge::new();
        g.set(7);
        g.add(5);
        g.sub(2);
        assert_eq!(g.value(), 10);
    }
}
