//! Live metrics substrate: lock-free atomic counters/gauges, fixed-size
//! log2-bucketed histograms, and their exposition formats.
//!
//! Post-mortem observability (the attribution buckets of
//! [`crate::stats`], Chrome traces from [`crate::trace`]) answers "where
//! did the cycles go" after a run finishes; this module answers "what is
//! the simulation doing right now" while a multi-hour sweep executes.
//! The design constraints mirror the tracer's:
//!
//! * **Pure observation** — recording a metric never changes simulated
//!   timing or report contents; runs are bit-identical with metrics on
//!   or off.
//! * **Allocation-free hot path** — a [`MetricsRegistry`] is fixed
//!   arrays of `AtomicU64`; `inc`/`add`/`observe` are one relaxed
//!   atomic op (plus one branch through the [`Metrics`] handle, which
//!   is disabled by default exactly like [`crate::trace::Tracer`]).
//! * **Exact merge monoid** — a [`Log2Histogram`] snapshot merges
//!   bucket-wise, so per-shard histograms folded in any order equal the
//!   whole-run histogram bit-for-bit, the same law the stats monoids
//!   obey (see `crates/mem/tests/properties.rs`).
//!
//! Two exposition formats, both hand-rolled (no dependencies, the
//! build is offline): a JSON snapshot embedded in the sweep heartbeat
//! files, and Prometheus text exposition ([`prometheus_text`]).

use crate::json::{FromJson, Json, JsonError, ToJson};
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
    /// Sweep points simulated to completion.
    PointsCompleted,
    /// Sweep points served from a checkpoint without running.
    PointsCached,
    /// Sweep points that failed (simulation error or panic).
    PointsFailed,
    /// Crashed shard children retried by the supervisor.
    ShardRetries,
}

impl Counter {
    /// Every counter, in report order.
    pub const ALL: [Counter; 13] = [
        Counter::TilesIssued,
        Counter::TilesRetired,
        Counter::DmaBursts,
        Counter::DmaBytes,
        Counter::SramBankConflicts,
        Counter::SramConflictRuns,
        Counter::TlbHits,
        Counter::TlbMisses,
        Counter::DramLineFills,
        Counter::PointsCompleted,
        Counter::PointsCached,
        Counter::PointsFailed,
        Counter::ShardRetries,
    ];

    /// Number of counters (registry array size).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable metric name (snake_case, no suffix; Prometheus exposition
    /// appends `_total`).
    pub fn name(self) -> &'static str {
        match self {
            Counter::TilesIssued => "tiles_issued",
            Counter::TilesRetired => "tiles_retired",
            Counter::DmaBursts => "dma_bursts",
            Counter::DmaBytes => "dma_bytes",
            Counter::SramBankConflicts => "sram_bank_conflicts",
            Counter::SramConflictRuns => "sram_conflict_runs",
            Counter::TlbHits => "tlb_hits",
            Counter::TlbMisses => "tlb_misses",
            Counter::DramLineFills => "dram_line_fills",
            Counter::PointsCompleted => "points_completed",
            Counter::PointsCached => "points_cached",
            Counter::PointsFailed => "points_failed",
            Counter::ShardRetries => "shard_retries",
        }
    }

    /// One-line description for `# HELP`.
    pub fn help(self) -> &'static str {
        match self {
            Counter::TilesIssued => "Compute tiles dispatched to the spatial array",
            Counter::TilesRetired => "Compute tiles retired",
            Counter::DmaBursts => "DMA burst transfers (mvin + mvout)",
            Counter::DmaBytes => "Bytes moved by DMA bursts",
            Counter::SramBankConflicts => "Scratchpad accesses delayed by a busy bank",
            Counter::SramConflictRuns => "Maximal runs of consecutive bank conflicts",
            Counter::TlbHits => "Translations served by filter registers or a TLB",
            Counter::TlbMisses => "Translations that required a full page-table walk",
            Counter::DramLineFills => "DRAM line fills serving L2 misses",
            Counter::PointsCompleted => "Sweep points simulated to completion",
            Counter::PointsCached => "Sweep points served from a checkpoint",
            Counter::PointsFailed => "Sweep points that failed",
            Counter::ShardRetries => "Crashed shard children retried by the supervisor",
        }
    }
}

/// Last-value gauges (set rather than accumulated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Sweep points currently executing on a worker.
    PointsInFlight,
    /// Worker threads of the current sweep phase.
    SweepWorkers,
}

impl Gauge {
    /// Every gauge, in report order.
    pub const ALL: [Gauge; 2] = [Gauge::PointsInFlight, Gauge::SweepWorkers];

    /// Number of gauges (registry array size).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable metric name.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::PointsInFlight => "points_in_flight",
            Gauge::SweepWorkers => "sweep_workers",
        }
    }

    /// One-line description for `# HELP`.
    pub fn help(self) -> &'static str {
        match self {
            Gauge::PointsInFlight => "Sweep points currently executing",
            Gauge::SweepWorkers => "Worker threads of the current sweep phase",
        }
    }
}

/// Log2-bucketed latency/size distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistKind {
    /// Cycles one DMA burst occupied its stream (issue to finish).
    DmaBurstCycles,
    /// Cycles one full page-table walk took.
    PtwWalkCycles,
    /// Cycles one DRAM line fill took on the channel.
    DramServiceCycles,
    /// Wall-clock microseconds one sweep point's simulation took.
    PointWallMicros,
}

impl HistKind {
    /// Every histogram, in report order.
    pub const ALL: [HistKind; 4] = [
        HistKind::DmaBurstCycles,
        HistKind::PtwWalkCycles,
        HistKind::DramServiceCycles,
        HistKind::PointWallMicros,
    ];

    /// Number of histograms (registry array size).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable metric name.
    pub fn name(self) -> &'static str {
        match self {
            HistKind::DmaBurstCycles => "dma_burst_cycles",
            HistKind::PtwWalkCycles => "ptw_walk_cycles",
            HistKind::DramServiceCycles => "dram_service_cycles",
            HistKind::PointWallMicros => "point_wall_micros",
        }
    }

    /// One-line description for `# HELP`.
    pub fn help(self) -> &'static str {
        match self {
            HistKind::DmaBurstCycles => "Cycles one DMA burst occupied its stream",
            HistKind::PtwWalkCycles => "Cycles one page-table walk took",
            HistKind::DramServiceCycles => "Cycles one DRAM line fill took",
            HistKind::PointWallMicros => "Simulation wall-clock per sweep point (us)",
        }
    }
}

/// A plain (non-atomic) log2 histogram: the snapshot/merge/quantile type.
///
/// `merge` is an exact commutative monoid (bucket-wise addition with the
/// zero histogram as identity), so shard-local histograms folded in any
/// order or grouping equal the single-process histogram bit-for-bit.
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

impl ToJson for Log2Histogram {
    fn to_json(&self) -> Json {
        // Sparse encoding: only non-empty buckets, as [index, count]
        // pairs — heartbeat files stay small and the round trip exact.
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(k, &n)| Json::Arr(vec![Json::from(k as u64), Json::from(n)]))
            .collect();
        Json::obj([
            ("count", Json::from(self.count)),
            ("sum", Json::from(self.sum)),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

impl FromJson for Log2Histogram {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let mut hist = Log2Histogram::new();
        hist.count = value.field("count")?.as_u64()?;
        hist.sum = value.field("sum")?.as_u64()?;
        for pair in value.field("buckets")?.as_arr()? {
            let pair = pair.as_arr()?;
            if pair.len() != 2 {
                return Err(JsonError::new(
                    "histogram bucket is not an [index, count] pair",
                ));
            }
            let k = pair[0].as_u64()? as usize;
            if k >= HIST_BUCKETS {
                return Err(JsonError::new(format!(
                    "histogram bucket index {k} out of range"
                )));
            }
            hist.buckets[k] = pair[1].as_u64()?;
        }
        Ok(hist)
    }
}

/// One histogram of the live registry: fixed atomic buckets.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    /// Records one observation: three relaxed atomic adds, no locks, no
    /// allocation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// A plain copy of the current contents. Buckets are read
    /// individually (relaxed), so a snapshot taken during concurrent
    /// recording may be mid-update; totals are exact once recording
    /// quiesces.
    pub fn snapshot(&self) -> Log2Histogram {
        Log2Histogram {
            buckets: std::array::from_fn(|k| self.buckets[k].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// The live registry: one fixed slot per [`Counter`], [`Gauge`] and
/// [`HistKind`]. Shared by every instrumented component via
/// `Arc<MetricsRegistry>`; all operations are lock-free relaxed atomics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: [AtomicU64; Counter::COUNT],
    gauges: [AtomicU64; Gauge::COUNT],
    hists: [AtomicHistogram; HistKind::COUNT],
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

    fn gauge_slot(g: Gauge) -> usize {
        Gauge::ALL
            .iter()
            .position(|&x| x == g)
            .expect("gauge in ALL")
    }

    fn hist_slot(h: HistKind) -> usize {
        HistKind::ALL
            .iter()
            .position(|&x| x == h)
            .expect("hist in ALL")
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

    /// Sets a gauge.
    #[inline]
    pub fn set_gauge(&self, g: Gauge, value: u64) {
        self.gauges[Self::gauge_slot(g)].store(value, Ordering::Relaxed);
    }

    /// Adds to a gauge.
    #[inline]
    pub fn gauge_add(&self, g: Gauge, n: u64) {
        self.gauges[Self::gauge_slot(g)].fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts from a gauge (saturating via wrapping sub on u64 is
    /// avoided: callers only decrement what they incremented).
    #[inline]
    pub fn gauge_sub(&self, g: Gauge, n: u64) {
        self.gauges[Self::gauge_slot(g)].fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value of a gauge.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[Self::gauge_slot(g)].load(Ordering::Relaxed)
    }

    /// Records one observation into a histogram.
    #[inline]
    pub fn observe(&self, h: HistKind, value: u64) {
        self.hists[Self::hist_slot(h)].record(value);
    }

    /// A plain copy of every counter, gauge and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
            gauges: std::array::from_fn(|i| self.gauges[i].load(Ordering::Relaxed)),
            hists: std::array::from_fn(|i| self.hists[i].snapshot()),
        }
    }
}

/// A plain copy of a registry's contents: the unit embedded in heartbeat
/// files, merged across shards, and rendered as Prometheus text.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    counters: [u64; Counter::COUNT],
    gauges: [u64; Gauge::COUNT],
    hists: [Log2Histogram; HistKind::COUNT],
}

impl MetricsSnapshot {
    /// An all-zero snapshot (the merge identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[MetricsRegistry::counter_slot(c)]
    }

    /// Value of one gauge.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[MetricsRegistry::gauge_slot(g)]
    }

    /// One histogram.
    pub fn hist(&self, h: HistKind) -> &Log2Histogram {
        &self.hists[MetricsRegistry::hist_slot(h)]
    }

    /// Folds another snapshot in: counters and gauges add, histograms
    /// merge bucket-wise — the fleet-aggregation primitive (a supervisor
    /// folds its shards' snapshots into one view). Exact and
    /// commutative, like every stats monoid in this crate.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for (a, b) in self.gauges.iter_mut().zip(&other.gauges) {
            *a += b;
        }
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }
}

impl ToJson for MetricsSnapshot {
    fn to_json(&self) -> Json {
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name(), Json::from(self.counter(c))))
            .collect::<Vec<_>>();
        let gauges = Gauge::ALL
            .iter()
            .map(|&g| (g.name(), Json::from(self.gauge(g))))
            .collect::<Vec<_>>();
        let hists = HistKind::ALL
            .iter()
            .map(|&h| (h.name(), self.hist(h).to_json()))
            .collect::<Vec<_>>();
        Json::obj([
            ("counters", Json::obj(counters)),
            ("gauges", Json::obj(gauges)),
            ("histograms", Json::obj(hists)),
        ])
    }
}

impl FromJson for MetricsSnapshot {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let mut snap = MetricsSnapshot::new();
        let counters = value.field("counters")?;
        for (i, c) in Counter::ALL.iter().enumerate() {
            snap.counters[i] = counters.field(c.name())?.as_u64()?;
        }
        let gauges = value.field("gauges")?;
        for (i, g) in Gauge::ALL.iter().enumerate() {
            snap.gauges[i] = gauges.field(g.name())?.as_u64()?;
        }
        let hists = value.field("histograms")?;
        for (i, h) in HistKind::ALL.iter().enumerate() {
            snap.hists[i] = Log2Histogram::from_json(hists.field(h.name())?)?;
        }
        Ok(snap)
    }
}

/// Renders a snapshot in Prometheus text exposition format (version
/// 0.0.4): counters as `<prefix>_<name>_total`, gauges bare, histograms
/// as cumulative `_bucket{le="..."}` series with `_sum`/`_count`. Bucket
/// boundaries are the log2 upper bounds; empty leading/trailing buckets
/// are elided (the `+Inf` bucket always appears).
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let prefix = "gemmini";
    for &c in &Counter::ALL {
        let name = c.name();
        let _ = writeln!(out, "# HELP {prefix}_{name}_total {}", c.help());
        let _ = writeln!(out, "# TYPE {prefix}_{name}_total counter");
        let _ = writeln!(out, "{prefix}_{name}_total {}", snap.counter(c));
    }
    for &g in &Gauge::ALL {
        let name = g.name();
        let _ = writeln!(out, "# HELP {prefix}_{name} {}", g.help());
        let _ = writeln!(out, "# TYPE {prefix}_{name} gauge");
        let _ = writeln!(out, "{prefix}_{name} {}", snap.gauge(g));
    }
    for &h in &HistKind::ALL {
        let name = h.name();
        let hist = snap.hist(h);
        let _ = writeln!(out, "# HELP {prefix}_{name} {}", h.help());
        let _ = writeln!(out, "# TYPE {prefix}_{name} histogram");
        let top = hist
            .buckets
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |k| (k + 1).min(HIST_BUCKETS - 1));
        let mut cumulative = 0u64;
        for k in 0..=top {
            cumulative += hist.buckets[k];
            let _ = writeln!(
                out,
                "{prefix}_{name}_bucket{{le=\"{}\"}} {cumulative}",
                bucket_upper_bound(k)
            );
        }
        let _ = writeln!(out, "{prefix}_{name}_bucket{{le=\"+Inf\"}} {}", hist.count);
        let _ = writeln!(out, "{prefix}_{name}_sum {}", hist.sum);
        let _ = writeln!(out, "{prefix}_{name}_count {}", hist.count);
    }
    out
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

    /// Sets a gauge.
    #[inline]
    pub fn set_gauge(&self, g: Gauge, value: u64) {
        if let Some(r) = &self.registry {
            r.set_gauge(g, value);
        }
    }

    /// Adds to a gauge.
    #[inline]
    pub fn gauge_add(&self, g: Gauge, n: u64) {
        if let Some(r) = &self.registry {
            r.gauge_add(g, n);
        }
    }

    /// Subtracts from a gauge.
    #[inline]
    pub fn gauge_sub(&self, g: Gauge, n: u64) {
        if let Some(r) = &self.registry {
            r.gauge_sub(g, n);
        }
    }

    /// Records one histogram observation.
    #[inline]
    pub fn observe(&self, h: HistKind, value: u64) {
        if let Some(r) = &self.registry {
            r.observe(h, value);
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
    fn histogram_json_round_trips() {
        let mut h = Log2Histogram::new();
        for v in [0u64, 7, 7, 1 << 40, u64::MAX] {
            h.record(v);
        }
        let back = Log2Histogram::from_json(&h.to_json()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn registry_counts_and_snapshots() {
        let (m, registry) = Metrics::enabled();
        m.inc(Counter::TilesIssued);
        m.add(Counter::DmaBytes, 4096);
        m.set_gauge(Gauge::SweepWorkers, 4);
        m.gauge_add(Gauge::PointsInFlight, 2);
        m.gauge_sub(Gauge::PointsInFlight, 1);
        m.observe(HistKind::PtwWalkCycles, 120);
        assert_eq!(registry.counter(Counter::TilesIssued), 1);
        assert_eq!(registry.counter(Counter::DmaBytes), 4096);
        assert_eq!(registry.gauge(Gauge::PointsInFlight), 1);
        let snap = m.snapshot().unwrap();
        assert_eq!(snap.counter(Counter::DmaBytes), 4096);
        assert_eq!(snap.gauge(Gauge::SweepWorkers), 4);
        assert_eq!(snap.hist(HistKind::PtwWalkCycles).count, 1);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let m = Metrics::disabled();
        m.inc(Counter::TilesIssued);
        m.observe(HistKind::DmaBurstCycles, 9);
        assert!(!m.enabled_registry());
        assert!(m.snapshot().is_none());
    }

    #[test]
    fn snapshot_merge_is_exact() {
        let (ma, ra) = Metrics::enabled();
        let (mb, rb) = Metrics::enabled();
        ma.add(Counter::TlbHits, 10);
        mb.add(Counter::TlbHits, 5);
        ma.observe(HistKind::DramServiceCycles, 33);
        mb.observe(HistKind::DramServiceCycles, 900);
        let mut merged = ra.snapshot();
        merged.merge(&rb.snapshot());
        assert_eq!(merged.counter(Counter::TlbHits), 15);
        assert_eq!(merged.hist(HistKind::DramServiceCycles).count, 2);
        assert_eq!(merged.hist(HistKind::DramServiceCycles).sum, 933);
        // Commutative.
        let mut other = rb.snapshot();
        other.merge(&ra.snapshot());
        assert_eq!(merged, other);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let (m, registry) = Metrics::enabled();
        m.add(Counter::PointsCompleted, 3);
        m.set_gauge(Gauge::SweepWorkers, 2);
        m.observe(HistKind::PointWallMicros, 1500);
        let snap = registry.snapshot();
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let (m, registry) = Metrics::enabled();
        m.add(Counter::DmaBursts, 7);
        m.observe(HistKind::DmaBurstCycles, 5);
        m.observe(HistKind::DmaBurstCycles, 300);
        let text = prometheus_text(&registry.snapshot());
        assert!(text.contains("# TYPE gemmini_dma_bursts_total counter"));
        assert!(text.contains("gemmini_dma_bursts_total 7"));
        assert!(text.contains("# TYPE gemmini_points_in_flight gauge"));
        assert!(text.contains("# TYPE gemmini_dma_burst_cycles histogram"));
        assert!(text.contains("gemmini_dma_burst_cycles_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("gemmini_dma_burst_cycles_sum 305"));
        assert!(text.contains("gemmini_dma_burst_cycles_count 2"));
        // Cumulative buckets are monotonically non-decreasing.
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("gemmini_dma_burst_cycles_bucket"))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "cumulative buckets must not decrease: {line}");
            last = v;
        }
    }
}
