//! Counters and windowed time-series statistics.
//!
//! The paper's profile figures (e.g. Fig. 4, TLB miss rate over a full
//! ResNet50 inference) plot a *rate over time*. [`WindowedRate`] collects
//! (cycle, hit/miss) events into fixed-width windows so the benchmark harness
//! can print the same series.

use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::Cycle;

/// Hit/miss counters for any cache-like structure.
///
/// # Example
///
/// ```
/// use gemmini_mem::stats::HitMissStats;
/// let mut s = HitMissStats::default();
/// s.record(true);
/// s.record(false);
/// assert_eq!(s.accesses(), 2);
/// assert!((s.hit_rate() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HitMissStats {
    hits: u64,
    misses: u64,
}

impl HitMissStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access; `hit` selects which counter is incremented.
    #[inline]
    pub fn record(&mut self, hit: bool) {
        self.record_n(hit, 1);
    }

    /// Records `n` accesses with the same outcome.
    #[inline]
    pub fn record_n(&mut self, hit: bool, n: u64) {
        if hit {
            self.hits += n;
        } else {
            self.misses += n;
        }
    }

    /// Number of hits recorded.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses recorded.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total number of accesses recorded.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of accesses that hit; `0.0` when no accesses were recorded.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    /// Fraction of accesses that missed; `0.0` when no accesses were recorded.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }

    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &HitMissStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// Resets both counters to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Reconstructs counters from raw hit/miss counts (checkpoint decode).
    pub fn from_counts(hits: u64, misses: u64) -> Self {
        Self { hits, misses }
    }
}

impl ToJson for HitMissStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("hits", Json::from(self.hits)),
            ("misses", Json::from(self.misses)),
        ])
    }
}

impl FromJson for HitMissStats {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self::from_counts(
            value.field("hits")?.as_u64()?,
            value.field("misses")?.as_u64()?,
        ))
    }
}

/// One point of a windowed rate series: the window's start cycle, its event
/// counts, and the miss rate within the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowPoint {
    /// First cycle covered by the window.
    pub start_cycle: Cycle,
    /// Accesses that hit in this window.
    pub hits: u64,
    /// Accesses that missed in this window.
    pub misses: u64,
}

impl WindowPoint {
    /// Miss rate within this window; `0.0` for an empty window.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Collects hit/miss events into fixed-width cycle windows.
///
/// Used to regenerate the paper's Fig. 4: the DMA's TLB requests over a full
/// inference, bucketed by time, showing miss-rate spikes at layer boundaries.
///
/// # Example
///
/// ```
/// use gemmini_mem::stats::WindowedRate;
/// let mut w = WindowedRate::new(100);
/// w.record(10, false);
/// w.record(150, true);
/// let series = w.series();
/// assert_eq!(series.len(), 2);
/// assert!((series[0].miss_rate() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct WindowedRate {
    window: Cycle,
    points: Vec<WindowPoint>,
}

impl WindowedRate {
    /// Creates a series with the given window width in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: Cycle) -> Self {
        assert!(window > 0, "window width must be non-zero");
        Self {
            window,
            points: Vec::new(),
        }
    }

    /// Window width in cycles.
    pub fn window(&self) -> Cycle {
        self.window
    }

    /// Records one event at simulation time `now`.
    ///
    /// Events may arrive slightly out of order (overlapped load/store
    /// streams); each is bucketed by its own timestamp.
    pub fn record(&mut self, now: Cycle, hit: bool) {
        self.record_n(now, hit, 1);
    }

    /// Records `k` events with the same outcome at `start`, `start + step`,
    /// …, `start + (k - 1) * step` in closed form: one bucket update per
    /// window the run spans, exactly as `k` calls to [`Self::record`].
    pub fn record_run(&mut self, start: Cycle, step: Cycle, k: u64, hit: bool) {
        let mut j = 0;
        while j < k {
            let t = start + j * step;
            // Events j.. that still land in t's window.
            let in_window = match step {
                0 => k - j,
                _ => ((t / self.window + 1) * self.window - t).div_ceil(step),
            };
            let n = in_window.min(k - j);
            self.record_n(t, hit, n);
            j += n;
        }
    }

    fn record_n(&mut self, now: Cycle, hit: bool, n: u64) {
        let idx = (now / self.window) as usize;
        if idx >= self.points.len() {
            let base = self.points.len();
            self.points.extend((base..=idx).map(|i| WindowPoint {
                start_cycle: i as Cycle * self.window,
                hits: 0,
                misses: 0,
            }));
        }
        let p = &mut self.points[idx];
        if hit {
            p.hits += n;
        } else {
            p.misses += n;
        }
    }

    /// Returns the collected series, one point per window, in time order.
    pub fn series(&self) -> &[WindowPoint] {
        &self.points
    }

    /// Merges another series into this one, window by window.
    ///
    /// The merged series is exactly what a single collector observing
    /// both event streams would have recorded: per-window hit and miss
    /// counts add, and the merged length is the longer of the two. This
    /// is the windowed-series analogue of [`HitMissStats::merge`] —
    /// without it, a sweep rollup could sum scalar counters but silently
    /// drop the rate-over-time series.
    ///
    /// # Panics
    ///
    /// Panics if the window widths differ — pointwise addition of
    /// differently-bucketed series would be meaningless.
    pub fn merge(&mut self, other: &WindowedRate) {
        assert_eq!(
            self.window, other.window,
            "cannot merge windowed series with different window widths"
        );
        if other.points.len() > self.points.len() {
            let base = self.points.len();
            self.points
                .extend((base..other.points.len()).map(|i| WindowPoint {
                    start_cycle: i as Cycle * self.window,
                    hits: 0,
                    misses: 0,
                }));
        }
        for (mine, theirs) in self.points.iter_mut().zip(&other.points) {
            mine.hits += theirs.hits;
            mine.misses += theirs.misses;
        }
    }
}

impl PartialEq for WindowedRate {
    fn eq(&self, other: &Self) -> bool {
        self.window == other.window && self.points == other.points
    }
}

impl ToJson for WindowPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("start_cycle", Json::from(self.start_cycle)),
            ("hits", Json::from(self.hits)),
            ("misses", Json::from(self.misses)),
        ])
    }
}

impl FromJson for WindowPoint {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            start_cycle: value.field("start_cycle")?.as_u64()?,
            hits: value.field("hits")?.as_u64()?,
            misses: value.field("misses")?.as_u64()?,
        })
    }
}

impl ToJson for WindowedRate {
    fn to_json(&self) -> Json {
        Json::obj([
            ("window", Json::from(self.window)),
            ("points", self.points.to_json()),
        ])
    }
}

impl FromJson for WindowedRate {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let window = value.field("window")?.as_u64()?;
        if window == 0 {
            return Err(JsonError::new("windowed series with zero window width"));
        }
        Ok(Self {
            window,
            points: Vec::<WindowPoint>::from_json(value.field("points")?)?,
        })
    }
}

/// Traffic counters for a memory component: bytes moved and transactions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Bytes read through the component.
    pub bytes_read: u64,
    /// Bytes written through the component.
    pub bytes_written: u64,
    /// Read transactions.
    pub reads: u64,
    /// Write transactions.
    pub writes: u64,
}

impl TrafficStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a read of `bytes` bytes.
    #[inline]
    pub fn record_read(&mut self, bytes: u64) {
        self.reads += 1;
        self.bytes_read += bytes;
    }

    /// Records a write of `bytes` bytes.
    #[inline]
    pub fn record_write(&mut self, bytes: u64) {
        self.writes += 1;
        self.bytes_written += bytes;
    }

    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.reads += other.reads;
        self.writes += other.writes;
    }
}

impl ToJson for TrafficStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("bytes_read", Json::from(self.bytes_read)),
            ("bytes_written", Json::from(self.bytes_written)),
            ("reads", Json::from(self.reads)),
            ("writes", Json::from(self.writes)),
        ])
    }
}

impl FromJson for TrafficStats {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            bytes_read: value.field("bytes_read")?.as_u64()?,
            bytes_written: value.field("bytes_written")?.as_u64()?,
            reads: value.field("reads")?.as_u64()?,
            writes: value.field("writes")?.as_u64()?,
        })
    }
}

/// Exclusive classification of every simulated cycle of a run.
///
/// Produced by [`crate::trace::AttributionLog::finish`]: each cycle of
/// `[0, total)` lands in exactly one bucket, so the buckets always sum
/// to the run's total cycle count ([`CycleAttribution::total`]). Merging
/// is plain field-wise addition — a commutative monoid like
/// [`HitMissStats`] — so per-core attributions fold into an SoC-level
/// one and parallel sweeps can roll points up in any order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleAttribution {
    /// Cycles the spatial array (or an execute-unit peripheral) was busy.
    pub compute: u64,
    /// Cycles the load unit was streaming data in at bus bandwidth
    /// (stall cycles are attributed to a more specific bucket below).
    pub load: u64,
    /// Cycles the store unit was streaming data out (same exclusion).
    pub store: u64,
    /// Cycles a DMA stream was stalled on the TLB hierarchy.
    pub tlb_stall: u64,
    /// Always 0: no scratchpad bank model runs. Kept so the report
    /// schema (and every digest of it) is unchanged; drop it at the next
    /// re-bless of the benchmark's pinned digests.
    pub bank_conflict: u64,
    /// Cycles a DMA stream waited on the bus → L2 → DRAM path beyond
    /// the ideal streaming time (contention, L2 latency, DRAM fills).
    pub dram: u64,
    /// Cycles no unit was doing anything the buckets above cover.
    pub idle: u64,
}

impl CycleAttribution {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sum of every bucket — by construction the run's total cycles.
    pub fn total(&self) -> u64 {
        self.busy() + self.idle
    }

    /// Sum of the non-idle buckets.
    pub fn busy(&self) -> u64 {
        self.compute + self.load + self.store + self.tlb_stall + self.bank_conflict + self.dram
    }

    /// Merges another attribution into this one (field-wise addition).
    pub fn merge(&mut self, other: &CycleAttribution) {
        self.compute += other.compute;
        self.load += other.load;
        self.store += other.store;
        self.tlb_stall += other.tlb_stall;
        self.bank_conflict += other.bank_conflict;
        self.dram += other.dram;
        self.idle += other.idle;
    }
}

impl ToJson for CycleAttribution {
    fn to_json(&self) -> Json {
        Json::obj([
            ("compute", Json::from(self.compute)),
            ("load", Json::from(self.load)),
            ("store", Json::from(self.store)),
            ("tlb_stall", Json::from(self.tlb_stall)),
            ("bank_conflict", Json::from(self.bank_conflict)),
            ("dram", Json::from(self.dram)),
            ("idle", Json::from(self.idle)),
        ])
    }
}

impl FromJson for CycleAttribution {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            compute: value.field("compute")?.as_u64()?,
            load: value.field("load")?.as_u64()?,
            store: value.field("store")?.as_u64()?,
            tlb_stall: value.field("tlb_stall")?.as_u64()?,
            bank_conflict: value.field("bank_conflict")?.as_u64()?,
            dram: value.field("dram")?.as_u64()?,
            idle: value.field("idle")?.as_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_rates() {
        let mut s = HitMissStats::new();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);
        for _ in 0..3 {
            s.record(true);
        }
        s.record(false);
        assert_eq!(s.hits(), 3);
        assert_eq!(s.misses(), 1);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn hit_miss_merge_and_reset() {
        let mut a = HitMissStats::new();
        a.record(true);
        let mut b = HitMissStats::new();
        b.record(false);
        a.merge(&b);
        assert_eq!(a.accesses(), 2);
        a.reset();
        assert_eq!(a.accesses(), 0);
    }

    #[test]
    fn windowed_rate_buckets_by_time() {
        let mut w = WindowedRate::new(10);
        w.record(0, true);
        w.record(9, false);
        w.record(25, false);
        let s = w.series();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].hits, 1);
        assert_eq!(s[0].misses, 1);
        assert_eq!(s[1].hits + s[1].misses, 0);
        assert_eq!(s[2].misses, 1);
        assert_eq!(s[1].start_cycle, 10);
    }

    #[test]
    fn windowed_rate_out_of_order_events() {
        let mut w = WindowedRate::new(10);
        w.record(25, false);
        w.record(5, true); // earlier than previous event
        assert_eq!(w.series()[0].hits, 1);
        assert_eq!(w.series()[2].misses, 1);
    }

    #[test]
    fn windowed_run_matches_one_record_per_event() {
        // Runs that start mid-window, straddle several window edges, land
        // exactly on an edge, or repeat one cycle (step 0).
        for (start, step, k) in [
            (0, 0, 5),
            (7, 0, 3),
            (7, 1, 9),
            (9, 2, 7),
            (10, 10, 4),
            (3, 7, 20),
            (5, 25, 3),
            (4, 3, 0),
        ] {
            let mut run = WindowedRate::new(10);
            run.record(1, false);
            run.record_run(start, step, k, true);
            let mut serial = WindowedRate::new(10);
            serial.record(1, false);
            for j in 0..k {
                serial.record(start + j * step, true);
            }
            assert_eq!(run, serial, "start {start} step {step} k {k}");
        }
    }

    #[test]
    #[should_panic(expected = "window width")]
    fn zero_window_panics() {
        let _ = WindowedRate::new(0);
    }

    #[test]
    fn windowed_merge_equals_serial_collection() {
        // Split one event stream across two shards; the merged series
        // must equal what a single collector would have recorded.
        let events = [
            (3u64, true),
            (12, false),
            (17, true),
            (44, false),
            (45, false),
            (90, true),
        ];
        let mut serial = WindowedRate::new(10);
        let mut shard_a = WindowedRate::new(10);
        let mut shard_b = WindowedRate::new(10);
        for (i, &(cycle, hit)) in events.iter().enumerate() {
            serial.record(cycle, hit);
            if i % 2 == 0 {
                shard_a.record(cycle, hit);
            } else {
                shard_b.record(cycle, hit);
            }
        }
        let mut merged = shard_a.clone();
        merged.merge(&shard_b);
        assert_eq!(merged.series(), serial.series());
        // Merge is symmetric in content.
        let mut merged_rev = shard_b;
        merged_rev.merge(&shard_a);
        assert_eq!(merged_rev.series(), serial.series());
    }

    #[test]
    #[should_panic(expected = "different window widths")]
    fn windowed_merge_rejects_mismatched_windows() {
        let mut a = WindowedRate::new(10);
        let b = WindowedRate::new(20);
        a.merge(&b);
    }

    #[test]
    fn attribution_totals_and_merge() {
        let a = CycleAttribution {
            compute: 50,
            load: 20,
            store: 10,
            tlb_stall: 5,
            bank_conflict: 1,
            dram: 4,
            idle: 10,
        };
        assert_eq!(a.busy(), 90);
        assert_eq!(a.total(), 100);
        let mut m = a;
        m.merge(&a);
        assert_eq!(m.total(), 200);
        assert_eq!(m.compute, 100);
        // Identity.
        let mut id = a;
        id.merge(&CycleAttribution::default());
        assert_eq!(id, a);
        // Round trip.
        assert_eq!(CycleAttribution::from_json(&a.to_json()).unwrap(), a);
    }

    #[test]
    fn traffic_counters() {
        let mut t = TrafficStats::new();
        t.record_read(64);
        t.record_write(128);
        assert_eq!(t.total_bytes(), 192);
        assert_eq!(t.reads, 1);
        assert_eq!(t.writes, 1);
        let mut u = TrafficStats::new();
        u.merge(&t);
        assert_eq!(u.total_bytes(), 192);
    }
}
