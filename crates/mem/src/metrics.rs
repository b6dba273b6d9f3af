//! Live metrics substrate: lock-free atomic counters, plus the
//! fixed-size log2-bucketed histogram the sweep's ETA estimate uses.
//!
//! Post-mortem observability (the attribution buckets of
//! [`crate::stats`], Chrome traces from [`crate::trace`]) answers "where
//! did the cycles go" from a run's own artifacts; this module counts the
//! events behind them (tiles, DMA bursts, TLB misses, DRAM fills). The
//! benchmark's traced pass reads these counters. The design constraints
//! mirror the tracer's:
//!
//! * **Pure observation** — recording a metric never changes simulated
//!   timing or report contents; runs are bit-identical with metrics on
//!   or off.
//! * **Allocation-free hot path** — a [`MetricsRegistry`] is a fixed
//!   array of `AtomicU64`; `inc`/`add` are one relaxed atomic op (plus
//!   one branch through the [`Metrics`] handle, which is disabled by
//!   default exactly like [`crate::trace::Tracer`]). The enabled
//!   registry's cost is gated by `crates/soc/tests/observation_overhead.rs`.
//! * **Exact merge monoid** — a [`Log2Histogram`] merges bucket-wise, so
//!   partial histograms folded in any order equal the whole-run
//!   histogram bit-for-bit, the same law the stats monoids obey (see
//!   `crates/mem/tests/properties.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fixed bucket count of every histogram: bucket `k` holds values whose
/// bit length is `k`, i.e. bucket 0 = {0}, bucket `k` = `[2^(k-1),
/// 2^k - 1]`, with the top bucket absorbing everything that would
/// overflow the range.
pub const HIST_BUCKETS: usize = 64;

/// The bucket a value lands in: its bit length, clamped to the top
/// bucket.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// The largest value bucket `k` can hold (inclusive). The top bucket is
/// unbounded and reports `u64::MAX`.
#[inline]
pub fn bucket_upper_bound(k: usize) -> u64 {
    if k >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// Monotonically increasing event counters. Every variant is one slot of
/// the registry's fixed counter array; [`Counter::ALL`] fixes the report
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Compute tiles dispatched to the spatial array.
    TilesIssued,
    /// Compute tiles that completed (retired with a finish cycle).
    TilesRetired,
    /// DMA burst transfers (mvin + mvout).
    DmaBursts,
    /// Bytes moved by DMA bursts.
    DmaBytes,
    /// Scratchpad accesses delayed by a busy SRAM bank.
    SramBankConflicts,
    /// Maximal runs of consecutive conflicting scratchpad accesses.
    SramConflictRuns,
    /// Translation requests served by the filter registers or a TLB.
    TlbHits,
    /// Translation requests that missed every TLB level and walked.
    TlbMisses,
    /// DRAM line fills (L2 misses serviced by the DRAM channel).
    DramLineFills,
}

impl Counter {
    /// Every counter, in report order.
    pub const ALL: [Counter; 9] = [
        Counter::TilesIssued,
        Counter::TilesRetired,
        Counter::DmaBursts,
        Counter::DmaBytes,
        Counter::SramBankConflicts,
        Counter::SramConflictRuns,
        Counter::TlbHits,
        Counter::TlbMisses,
        Counter::DramLineFills,
    ];

    /// Number of counters (registry array size).
    pub const COUNT: usize = Self::ALL.len();
}

/// A log2-bucketed histogram with exact merging and bucket quantiles.
///
/// `merge` is an exact commutative monoid (bucket-wise addition with the
/// zero histogram as identity), so partial histograms folded in any
/// order or grouping equal one histogram of every value bit-for-bit.
#[derive(Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    /// Per-bucket observation counts (`buckets[bucket_index(v)]`).
    pub buckets: [u64; HIST_BUCKETS],
    /// Exact sum of every observed value (wrapping on overflow).
    pub sum: u64,
    /// Total observations.
    pub count: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            sum: 0,
            count: 0,
        }
    }
}

impl std::fmt::Debug for Log2Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Log2Histogram {{ count: {}, sum: {}, buckets:",
            self.count, self.sum
        )?;
        for (k, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                write!(f, " [{k}]={n}")?;
            }
        }
        write!(f, " }}")
    }
}

impl Log2Histogram {
    /// An empty histogram (the merge identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.sum = self.sum.wrapping_add(value);
        self.count += 1;
    }

    /// Folds another histogram in (exact, commutative, associative).
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum = self.sum.wrapping_add(other.sum);
        self.count += other.count;
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Upper bound of the bucket holding the `q`-quantile observation
    /// (`q` in `[0, 1]`): the first bucket whose cumulative count
    /// reaches `ceil(q * count)`. Returns 0 on an empty histogram. The
    /// bucket bound over-estimates by at most 2x — the price of fixed
    /// storage.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return bucket_upper_bound(k);
            }
        }
        bucket_upper_bound(HIST_BUCKETS - 1)
    }

    /// Exact mean of the observed values (0 on an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The live registry: one fixed slot per [`Counter`]. Shared by every
/// instrumented component via `Arc<MetricsRegistry>`; all operations are
/// lock-free relaxed atomics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: [AtomicU64; Counter::COUNT],
}

impl MetricsRegistry {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn counter_slot(c: Counter) -> usize {
        Counter::ALL
            .iter()
            .position(|&x| x == c)
            .expect("counter in ALL")
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.counters[Self::counter_slot(c)].fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Current value of a counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[Self::counter_slot(c)].load(Ordering::Relaxed)
    }

    /// A plain copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
        }
    }
}

/// A plain copy of a registry's contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: [u64; Counter::COUNT],
}

impl MetricsSnapshot {
    /// Value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[MetricsRegistry::counter_slot(c)]
    }
}

/// The cloneable handle instrumentation sites hold — `None` (disabled,
/// the default) costs one untaken branch per record, exactly the
/// [`crate::trace::Tracer`] discipline. Cloning shares the registry.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    registry: Option<Arc<MetricsRegistry>>,
}

impl Metrics {
    /// The disabled handle: every record is a no-op.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A fresh enabled handle plus the shared registry behind it.
    pub fn enabled() -> (Self, Arc<MetricsRegistry>) {
        let registry = Arc::new(MetricsRegistry::new());
        (Self::from_shared(registry.clone()), registry)
    }

    /// An enabled handle over an existing registry.
    pub fn from_shared(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            registry: Some(registry),
        }
    }

    /// Whether a registry is attached.
    #[inline]
    pub fn enabled_registry(&self) -> bool {
        self.registry.is_some()
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if let Some(r) = &self.registry {
            r.add(c, n);
        }
    }

    /// Increments a counter.
    #[inline]
    pub fn inc(&self, c: Counter) {
        if let Some(r) = &self.registry {
            r.inc(c);
        }
    }

    /// A plain copy of the registry, if one is attached.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.registry.as_ref().map(|r| r.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_bit_lengths() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(255), 8);
        assert_eq!(bucket_index(256), 9);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        // Every bucket's upper bound lands back in that bucket.
        for k in 1..HIST_BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_upper_bound(k)), k, "bucket {k}");
            assert_eq!(bucket_index(bucket_upper_bound(k) + 1), k + 1);
        }
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let mut h = Log2Histogram::new();
        for v in [0u64, 1, 1, 2, 3, 10, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 8);
        assert_eq!(h.sum, 1117);
        assert_eq!(h.buckets[0], 1); // {0}
        assert_eq!(h.buckets[1], 2); // {1}
        assert_eq!(h.buckets[2], 2); // {2, 3}
                                     // p50 of 8 observations: rank 4 -> bucket 2 (upper bound 3).
        assert_eq!(h.quantile(0.5), 3);
        // p100 -> bucket of 1000 (bit length 10, upper bound 1023).
        assert_eq!(h.quantile(1.0), 1023);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(Log2Histogram::new().quantile(0.5), 0);
        assert!((h.mean() - 1117.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_equals_serial_collection() {
        let values: Vec<u64> = (0..500).map(|i| (i * 2654435761u64) >> 16).collect();
        let mut whole = Log2Histogram::new();
        for &v in &values {
            whole.record(v);
        }
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        for (i, &v) in values.iter().enumerate() {
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut merged = Log2Histogram::new();
        merged.merge(&b);
        merged.merge(&a);
        assert_eq!(merged, whole, "merge is exact and order-independent");
    }

    #[test]
    fn registry_counts_and_snapshots() {
        let (m, registry) = Metrics::enabled();
        m.inc(Counter::TilesIssued);
        m.add(Counter::DmaBytes, 4096);
        assert_eq!(registry.counter(Counter::TilesIssued), 1);
        assert_eq!(registry.counter(Counter::DmaBytes), 4096);
        let snap = m.snapshot().unwrap();
        assert_eq!(snap.counter(Counter::DmaBytes), 4096);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let m = Metrics::disabled();
        m.inc(Counter::TilesIssued);
        assert!(!m.enabled_registry());
        assert!(m.snapshot().is_none());
    }
}
