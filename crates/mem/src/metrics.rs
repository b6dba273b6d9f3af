//! Live metrics substrate: lock-free atomic event counters.
//!
//! Post-mortem observability (the attribution buckets of
//! [`crate::stats`], Chrome traces from [`crate::trace`]) answers "where
//! did the cycles go" from a run's own artifacts; this module counts the
//! events behind them (tiles, DMA bursts and bytes, TLB misses, DRAM
//! fills). The benchmark's traced pass reads these counters. The design
//! constraints mirror the tracer's:
//!
//! * **Pure observation** — recording a metric never changes simulated
//!   timing or report contents; runs are bit-identical with metrics on
//!   or off.
//! * **Allocation-free hot path** — a [`MetricsRegistry`] is a fixed
//!   array of `AtomicU64`; `inc`/`add` are one relaxed atomic op (plus
//!   one branch through the [`Metrics`] handle, which is disabled by
//!   default exactly like [`crate::trace::Tracer`]). The enabled
//!   registry's cost is gated by `crates/soc/tests/observation_overhead.rs`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonically increasing event counters. Every variant is one slot of
/// the registry's fixed counter array; [`Counter::ALL`] fixes the report
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Compute tiles dispatched to the spatial array.
    TilesIssued,
    /// DMA burst transfers (mvin + mvout).
    DmaBursts,
    /// Bytes moved by DMA bursts.
    DmaBytes,
    /// Translation requests that missed every TLB level and walked.
    TlbMisses,
    /// DRAM line fills (L2 misses serviced by the DRAM channel).
    DramLineFills,
}

impl Counter {
    /// Every counter, in report order.
    pub const ALL: [Counter; 5] = [
        Counter::TilesIssued,
        Counter::DmaBursts,
        Counter::DmaBytes,
        Counter::TlbMisses,
        Counter::DramLineFills,
    ];

    /// Number of counters (registry array size).
    pub const COUNT: usize = Self::ALL.len();
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
        let handle = Self {
            registry: Some(registry.clone()),
        };
        (handle, registry)
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
