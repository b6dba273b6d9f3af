//! The composed virtual-address translation system.
//!
//! [`TranslationSystem`] chains the Section V-A hardware:
//! filter registers → private TLB → shared L2 TLB → shared page-table
//! walker. Every knob the paper sweeps in Fig. 8 is a field of
//! [`TranslationConfig`]: private TLB entries, shared L2 TLB entries
//! (including zero), and whether the filter registers exist.

use crate::filter::FilterPair;
use crate::page::{Mapping, Vpn};
use crate::page_table::AddressSpace;
use crate::ptw::{PageTableWalker, PtwConfig};
use crate::tlb::{Tlb, TlbConfig};
use gemmini_mem::addr::{PhysAddr, VirtAddr};
use gemmini_mem::metrics::{Counter, Metrics};
use gemmini_mem::stats::WindowedRate;
use gemmini_mem::trace::{Component, StallCause, Tracer};
use gemmini_mem::{Cycle, MemorySystem};
use std::error::Error;
use std::fmt;

/// Direction of the access being translated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// DMA read (mvin) stream.
    Read,
    /// DMA write (mvout) stream.
    Write,
}

/// Where in the hierarchy a translation was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Filter-register hit: zero cycles.
    Filter,
    /// Private TLB hit.
    Private,
    /// Shared L2 TLB hit.
    Shared,
    /// Full page-table walk.
    Walk,
}

/// A failed translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslateError {
    /// The page is not mapped in the address space.
    PageFault {
        /// The faulting page.
        vpn: Vpn,
    },
    /// The page is mapped but does not permit this access — the class of bug
    /// the paper says only surfaced when running under a real OS.
    PermissionDenied {
        /// The offending page.
        vpn: Vpn,
        /// Whether the denied access was a write.
        write: bool,
    },
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::PageFault { vpn } => write!(f, "page fault at {vpn}"),
            Self::PermissionDenied { vpn, write } => write!(
                f,
                "permission denied for {} at {vpn}",
                if *write { "write" } else { "read" }
            ),
        }
    }
}

impl Error for TranslateError {}

/// Configuration of the full translation system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslationConfig {
    /// The accelerator's private TLB.
    pub private: TlbConfig,
    /// The shared L2 TLB the private TLB falls back on (0 entries = absent).
    pub shared: TlbConfig,
    /// Whether the read/write filter registers exist.
    pub filter_registers: bool,
    /// Page-table walker parameters.
    pub ptw: PtwConfig,
    /// Window width (cycles) for the miss-rate time series (Fig. 4).
    pub stats_window: Cycle,
}

impl Default for TranslationConfig {
    /// The paper's baseline co-design point: 4-entry private TLB, no shared
    /// L2 TLB, no filter registers.
    fn default() -> Self {
        Self {
            private: TlbConfig::private(4),
            shared: TlbConfig::shared(0),
            filter_registers: false,
            ptw: PtwConfig::default(),
            stats_window: 100_000,
        }
    }
}

/// A successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The translated physical address.
    pub paddr: PhysAddr,
    /// Cycles spent translating (0 for a filter hit).
    pub latency: u64,
    /// Where the translation was satisfied.
    pub level: HitLevel,
}

/// Per-stream tracker for the paper's consecutive-same-page statistic
/// (87% of consecutive reads / 83% of consecutive writes hit the same page).
#[derive(Debug, Clone, Copy, Default)]
struct SamePageTracker {
    last: Option<Vpn>,
    same: u64,
    total: u64,
}

impl SamePageTracker {
    fn record(&mut self, vpn: Vpn) {
        // Only count transitions (i.e. requests after the first).
        if let Some(last) = self.last {
            self.total += 1;
            if last == vpn {
                self.same += 1;
            }
        }
        self.last = Some(vpn);
    }

    /// `k >= 1` back-to-back requests to `vpn`: every one after the first
    /// is a same-page transition.
    fn record_run(&mut self, vpn: Vpn, k: u64) {
        self.record(vpn);
        self.total += k - 1;
        self.same += k - 1;
    }

    fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.same as f64 / self.total as f64
        }
    }
}

/// The composed filter → private TLB → shared TLB → PTW pipeline.
///
/// # Example
///
/// ```
/// use gemmini_vm::translator::{TranslationSystem, TranslationConfig, Access};
/// use gemmini_vm::page_table::AddressSpace;
/// use gemmini_vm::page::FrameAllocator;
/// use gemmini_mem::MemorySystem;
///
/// let mut frames = FrameAllocator::new();
/// let mut space = AddressSpace::new(&mut frames);
/// let va = space.alloc(&mut frames, 4096);
/// let mut mem = MemorySystem::default();
/// let mut tsys = TranslationSystem::new(TranslationConfig::default());
///
/// let cold = tsys.translate(&space, &mut mem, 0, va, Access::Read)?;
/// let warm = tsys.translate(&space, &mut mem, cold.latency, va, Access::Read)?;
/// assert!(warm.latency < cold.latency);
/// # Ok::<(), gemmini_vm::TranslateError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TranslationSystem {
    config: TranslationConfig,
    private: Tlb,
    shared: Tlb,
    filters: FilterPair,
    ptw: PageTableWalker,
    window: WindowedRate,
    read_tracker: SamePageTracker,
    write_tracker: SamePageTracker,
    requests: u64,
    filter_hits: u64,
    walks_taken: u64,
    tracer: Tracer,
    metrics: Metrics,
}

impl TranslationSystem {
    /// Creates a cold translation system.
    pub fn new(config: TranslationConfig) -> Self {
        Self {
            private: Tlb::new(config.private),
            shared: Tlb::new(config.shared),
            filters: FilterPair::new(),
            ptw: PageTableWalker::new(config.ptw),
            window: WindowedRate::new(config.stats_window),
            read_tracker: SamePageTracker::default(),
            write_tracker: SamePageTracker::default(),
            requests: 0,
            filter_hits: 0,
            walks_taken: 0,
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
            config,
        }
    }

    /// Attaches a trace-event sink; walks emit page-table-walker spans
    /// into it. Disabled by default (a single branch per walk).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attaches a live-metrics handle; translations that walk count TLB
    /// misses. Disabled by default.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &TranslationConfig {
        &self.config
    }

    /// Translates `va` for an access of direction `access` starting at `now`.
    ///
    /// A hit checks the access against the permission bits cached with the
    /// translation; only a walk consults the page table.
    ///
    /// # Errors
    ///
    /// * [`TranslateError::PageFault`] if the page is unmapped (discovered by
    ///   the walk, whose latency has already been paid).
    /// * [`TranslateError::PermissionDenied`] if the mapping forbids the
    ///   access direction. The lookup that found the mapping (or the walk)
    ///   is still counted; nothing new is cached.
    pub fn translate(
        &mut self,
        space: &AddressSpace,
        mem: &mut MemorySystem,
        now: Cycle,
        va: VirtAddr,
        access: Access,
    ) -> Result<Translation, TranslateError> {
        let vpn = Vpn::of(va);
        self.requests += 1;
        match access {
            Access::Read => self.read_tracker.record(vpn),
            Access::Write => self.write_tracker.record(vpn),
        }
        let translation = |m: Mapping, latency, level| {
            if m.perms.allows(access == Access::Write) {
                Ok(Translation {
                    paddr: m.frame.base().add(va.offset_in_page()),
                    latency,
                    level,
                })
            } else {
                Err(TranslateError::PermissionDenied {
                    vpn,
                    write: access == Access::Write,
                })
            }
        };

        // 1. Filter registers: 0-cycle hit.
        if self.config.filter_registers {
            let reg = match access {
                Access::Read => &mut self.filters.read,
                Access::Write => &mut self.filters.write,
            };
            if let Some(m) = reg.lookup(vpn) {
                let out = translation(m, 0, HitLevel::Filter)?;
                self.filter_hits += 1;
                self.window.record(now, true);
                return Ok(out);
            }
        }

        // 2. Private TLB.
        if let Some(m) = self.private.lookup(vpn) {
            let out = translation(m, self.config.private.hit_latency, HitLevel::Private)?;
            self.window.record(now, true);
            self.update_filter(access, vpn, m);
            return Ok(out);
        }
        self.window.record(now, false);
        let mut latency = self.config.private.hit_latency;

        // 3. Shared L2 TLB (if present).
        if self.config.shared.entries > 0 {
            latency += self.config.shared.hit_latency;
            if let Some(m) = self.shared.lookup(vpn) {
                let out = translation(m, latency, HitLevel::Shared)?;
                self.private.insert(vpn, m);
                self.update_filter(access, vpn, m);
                return Ok(out);
            }
        }

        // 4. Full walk.
        self.walks_taken += 1;
        self.metrics.inc(Counter::TlbMisses);
        let outcome = self.ptw.walk(space, mem, now + latency, vpn);
        self.tracer.span(
            Component::Ptw,
            "walk",
            now + latency,
            outcome.done,
            StallCause::TlbMiss,
        );
        let total_latency = outcome.done.saturating_sub(now);
        let Some(m) = outcome.mapping else {
            return Err(TranslateError::PageFault { vpn });
        };
        let out = translation(m, total_latency, HitLevel::Walk)?;
        self.private.insert(vpn, m);
        self.shared.insert(vpn, m);
        self.update_filter(access, vpn, m);
        Ok(out)
    }

    /// The latency of a request that repeats the previous request's page on
    /// the same stream, or `None` when such a repeat is not certain to hit
    /// (no filter registers and a zero-entry private TLB).
    ///
    /// A successful [`Self::translate`] of page `p` leaves `p` in the
    /// stream's filter register when filters are fitted, else at the MRU
    /// position of the private TLB. A hit there evicts nothing, so every
    /// back-to-back repeat of `p` hits at this one latency. Translation
    /// latency is all that advances a DMA stream's issue time, so the
    /// repeats of a same-page run issue at fixed steps of this latency.
    pub fn repeat_latency(&self) -> Option<u64> {
        if self.config.filter_registers {
            Some(0)
        } else if self.config.private.entries > 0 {
            Some(self.config.private.hit_latency)
        } else {
            None
        }
    }

    /// Books, in closed form, `k` requests to `vpn` on the `access` stream
    /// that repeat the previous successful request's page, issued at
    /// `start`, `start + step`, … with `step` the
    /// [`Self::repeat_latency`]. The state left behind is exactly what `k`
    /// calls to [`Self::translate`] would leave: request count, same-page
    /// rates, filter or private-TLB hit counts and LRU stamps, the TLB-hit
    /// metric and the windowed miss-rate series. Permissions need no
    /// check: the previous request already passed it on the same page.
    ///
    /// # Panics
    ///
    /// Panics if repeats cannot hit (`repeat_latency()` is `None`) or the
    /// stream's last translation was not `vpn`.
    pub fn repeat_hits(&mut self, start: Cycle, vpn: Vpn, access: Access, k: u64) {
        let step = self
            .repeat_latency()
            .expect("repeat_hits needs a filter register or a private TLB");
        if k == 0 {
            return;
        }
        self.requests += k;
        let hit = if self.config.filter_registers {
            self.filter_hits += k;
            match access {
                Access::Read => self.filters.read.repeat_lookups(vpn, k),
                Access::Write => self.filters.write.repeat_lookups(vpn, k),
            }
        } else {
            self.private.repeat_lookups(vpn, k)
        };
        assert!(
            hit.is_some(),
            "repeat_hits: {vpn} is not the stream's last translation"
        );
        match access {
            Access::Read => self.read_tracker.record_run(vpn, k),
            Access::Write => self.write_tracker.record_run(vpn, k),
        }
        self.window.record_run(start, step, k, true);
    }

    fn update_filter(&mut self, access: Access, vpn: Vpn, m: Mapping) {
        if self.config.filter_registers {
            match access {
                Access::Read => self.filters.read.update(vpn, m),
                Access::Write => self.filters.write.update(vpn, m),
            }
        }
    }

    /// Flushes all cached translation state (context switch / sfence.vma).
    pub fn flush(&mut self) {
        self.private.flush();
        self.shared.flush();
        self.filters.flush();
    }

    /// Invalidates one page everywhere (single-page shootdown).
    pub fn invalidate(&mut self, vpn: Vpn) {
        self.private.invalidate(vpn);
        self.shared.invalidate(vpn);
        self.filters.invalidate(vpn);
    }

    /// The private TLB (for its hit/miss statistics).
    pub fn private_tlb(&self) -> &Tlb {
        &self.private
    }

    /// The shared L2 TLB (for its hit/miss statistics).
    pub fn shared_tlb(&self) -> &Tlb {
        &self.shared
    }

    /// The filter-register pair (for per-stream hit rates).
    pub fn filters(&self) -> &FilterPair {
        &self.filters
    }

    /// The page-table walker (for walk counts and mean latency).
    pub fn ptw(&self) -> &PageTableWalker {
        &self.ptw
    }

    /// Total translation requests.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Requests satisfied by the filter registers.
    pub fn filter_hits(&self) -> u64 {
        self.filter_hits
    }

    /// Requests that required a full walk.
    pub fn walks_taken(&self) -> u64 {
        self.walks_taken
    }

    /// Hit rate *including* filter hits — the paper's "private TLB hit rate
    /// (including hits on the filter registers) reached 90%" metric.
    pub fn effective_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        let hits = self.filter_hits + self.private.stats().hits();
        hits as f64 / self.requests as f64
    }

    /// Fraction of consecutive read requests to the same page (paper: 87%).
    pub fn consecutive_read_same_page_rate(&self) -> f64 {
        self.read_tracker.rate()
    }

    /// Fraction of consecutive write requests to the same page (paper: 83%).
    pub fn consecutive_write_same_page_rate(&self) -> f64 {
        self.write_tracker.rate()
    }

    /// The windowed miss-rate series (Fig. 4). A "miss" is a request that
    /// left the filter/private level.
    pub fn miss_rate_series(&self) -> &WindowedRate {
        &self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::FrameAllocator;
    use gemmini_mem::addr::PAGE_SIZE;

    fn setup(
        config: TranslationConfig,
    ) -> (AddressSpace, MemorySystem, TranslationSystem, VirtAddr) {
        let mut fa = FrameAllocator::new();
        let mut sp = AddressSpace::new(&mut fa);
        let va = sp.alloc(&mut fa, 64 * PAGE_SIZE);
        (
            sp,
            MemorySystem::default(),
            TranslationSystem::new(config),
            va,
        )
    }

    #[test]
    fn cold_miss_walks_then_private_hits() {
        let (sp, mut mem, mut t, va) = setup(TranslationConfig::default());
        let cold = t.translate(&sp, &mut mem, 0, va, Access::Read).unwrap();
        assert_eq!(cold.level, HitLevel::Walk);
        let warm = t.translate(&sp, &mut mem, 1000, va, Access::Read).unwrap();
        assert_eq!(warm.level, HitLevel::Private);
        assert_eq!(warm.latency, 2);
        assert!(cold.latency > warm.latency);
    }

    #[test]
    fn translation_is_functionally_correct() {
        let (sp, mut mem, mut t, va) = setup(TranslationConfig::default());
        let addr = va.add(PAGE_SIZE + 17);
        let out = t.translate(&sp, &mut mem, 0, addr, Access::Read).unwrap();
        assert_eq!(Some(out.paddr), sp.translate(addr));
    }

    #[test]
    fn filter_registers_give_zero_cycle_hits() {
        let cfg = TranslationConfig {
            filter_registers: true,
            ..TranslationConfig::default()
        };
        let (sp, mut mem, mut t, va) = setup(cfg);
        t.translate(&sp, &mut mem, 0, va, Access::Read).unwrap();
        let second = t
            .translate(&sp, &mut mem, 10, va.add(64), Access::Read)
            .unwrap();
        assert_eq!(second.level, HitLevel::Filter);
        assert_eq!(second.latency, 0);
        assert_eq!(t.filter_hits(), 1);
    }

    #[test]
    fn filters_decouple_read_and_write_streams() {
        // 1-entry private TLB: interleaved read/write to two pages would
        // thrash it, but the per-stream filters keep hitting.
        let cfg = TranslationConfig {
            private: TlbConfig {
                entries: 1,
                hit_latency: 2,
            },
            filter_registers: true,
            ..TranslationConfig::default()
        };
        let (sp, mut mem, mut t, va) = setup(cfg);
        let rd = va;
        let wr = va.add(PAGE_SIZE);
        // Prime both streams.
        t.translate(&sp, &mut mem, 0, rd, Access::Read).unwrap();
        t.translate(&sp, &mut mem, 0, wr, Access::Write).unwrap();
        // Now interleave: every access is a filter hit despite TLB thrash.
        for i in 0..10 {
            let r = t
                .translate(&sp, &mut mem, 100 + i, rd, Access::Read)
                .unwrap();
            let w = t
                .translate(&sp, &mut mem, 100 + i, wr, Access::Write)
                .unwrap();
            assert_eq!(r.level, HitLevel::Filter);
            assert_eq!(w.level, HitLevel::Filter);
        }
    }

    #[test]
    fn without_filters_interleaved_streams_thrash_a_tiny_tlb() {
        let cfg = TranslationConfig {
            private: TlbConfig {
                entries: 1,
                hit_latency: 2,
            },
            ..TranslationConfig::default()
        };
        let (sp, mut mem, mut t, va) = setup(cfg);
        let rd = va;
        let wr = va.add(PAGE_SIZE);
        let mut now = 0;
        for _ in 0..5 {
            now = now
                + t.translate(&sp, &mut mem, now, rd, Access::Read)
                    .unwrap()
                    .latency;
            now = now
                + t.translate(&sp, &mut mem, now, wr, Access::Write)
                    .unwrap()
                    .latency;
        }
        // Every access after the first pair still misses: reads and writes
        // evict each other's entry, the paper's observed contention.
        assert_eq!(t.private_tlb().stats().hits(), 0);
    }

    #[test]
    fn shared_tlb_catches_private_evictions() {
        let cfg = TranslationConfig {
            private: TlbConfig {
                entries: 1,
                hit_latency: 2,
            },
            shared: TlbConfig::shared(128),
            ..TranslationConfig::default()
        };
        let (sp, mut mem, mut t, va) = setup(cfg);
        let a = va;
        let b = va.add(PAGE_SIZE);
        t.translate(&sp, &mut mem, 0, a, Access::Read).unwrap(); // walk
        t.translate(&sp, &mut mem, 0, b, Access::Read).unwrap(); // walk, evicts a from private
        let again = t.translate(&sp, &mut mem, 0, a, Access::Read).unwrap();
        assert_eq!(again.level, HitLevel::Shared);
        assert_eq!(t.walks_taken(), 2);
    }

    #[test]
    fn page_fault_on_unmapped_page() {
        let (sp, mut mem, mut t, _va) = setup(TranslationConfig::default());
        let err = t
            .translate(&sp, &mut mem, 0, VirtAddr::new(0xdead_0000), Access::Read)
            .unwrap_err();
        assert!(matches!(err, TranslateError::PageFault { .. }));
    }

    #[test]
    fn permission_denied_on_readonly_write() {
        let mut fa = FrameAllocator::new();
        let mut sp = AddressSpace::new(&mut fa);
        let va = sp.alloc_readonly(&mut fa, PAGE_SIZE);
        let mut mem = MemorySystem::default();
        let mut t = TranslationSystem::new(TranslationConfig::default());
        assert!(t.translate(&sp, &mut mem, 0, va, Access::Read).is_ok());
        let err = t
            .translate(&sp, &mut mem, 0, va, Access::Write)
            .unwrap_err();
        assert!(matches!(
            err,
            TranslateError::PermissionDenied { write: true, .. }
        ));
        assert_eq!(
            err.to_string(),
            format!("permission denied for write at {}", Vpn::of(va))
        );
    }

    #[test]
    fn cached_readonly_translation_still_denies_writes() {
        let mut fa = FrameAllocator::new();
        let mut sp = AddressSpace::new(&mut fa);
        let va = sp.alloc_readonly(&mut fa, PAGE_SIZE);
        let mut mem = MemorySystem::default();
        let mut t = TranslationSystem::new(TranslationConfig {
            filter_registers: true,
            ..TranslationConfig::default()
        });
        // The read walks, caching the page in the private TLB and the read
        // filter register.
        t.translate(&sp, &mut mem, 0, va, Access::Read).unwrap();
        assert!(t.private_tlb().probe(Vpn::of(va)).is_some());
        assert_eq!(
            t.translate(&sp, &mut mem, 0, va, Access::Read)
                .unwrap()
                .level,
            HitLevel::Filter
        );
        // The write misses its own filter and hits the cached read-only
        // entry: denied without a walk.
        let err = t
            .translate(&sp, &mut mem, 0, va.add(8), Access::Write)
            .unwrap_err();
        assert_eq!(
            err,
            TranslateError::PermissionDenied {
                vpn: Vpn::of(va),
                write: true
            }
        );
        assert_eq!(t.walks_taken(), 1);
        assert_eq!(t.filters().write.hits(), 0);
    }

    #[test]
    fn repeat_hits_match_translate_calls() {
        // Filters on (0-cycle filter hits) and off (2-cycle MRU hits), a
        // 10-cycle window so the repeats straddle window edges.
        for filter_registers in [false, true] {
            let cfg = TranslationConfig {
                filter_registers,
                stats_window: 10,
                ..TranslationConfig::default()
            };
            let (sp, mut mem, mut run, va) = setup(cfg);
            let (_, mut mem2, mut serial, _) = setup(cfg);
            let first = run.translate(&sp, &mut mem, 3, va, Access::Write).unwrap();
            serial
                .translate(&sp, &mut mem2, 3, va, Access::Write)
                .unwrap();
            let step = run.repeat_latency().unwrap();
            let start = 3 + first.latency;
            run.repeat_hits(start, Vpn::of(va), Access::Write, 9);
            for j in 0..9 {
                let out = serial
                    .translate(
                        &sp,
                        &mut mem2,
                        start + j * step,
                        va.add(16 * j),
                        Access::Write,
                    )
                    .unwrap();
                assert_eq!(out.latency, step);
            }
            assert_eq!(run.requests(), serial.requests());
            assert_eq!(run.filter_hits(), serial.filter_hits());
            assert_eq!(run.private_tlb().stats(), serial.private_tlb().stats());
            assert_eq!(
                run.filters().write.lookups(),
                serial.filters().write.lookups()
            );
            assert_eq!(run.miss_rate_series(), serial.miss_rate_series());
            assert_eq!(
                run.consecutive_write_same_page_rate(),
                serial.consecutive_write_same_page_rate()
            );
        }
        let zero = TranslationConfig {
            private: TlbConfig::private(0),
            ..TranslationConfig::default()
        };
        assert_eq!(TranslationSystem::new(zero).repeat_latency(), None);
    }

    #[test]
    fn flush_forces_rewalk() {
        let (sp, mut mem, mut t, va) = setup(TranslationConfig::default());
        t.translate(&sp, &mut mem, 0, va, Access::Read).unwrap();
        t.flush();
        let after = t.translate(&sp, &mut mem, 0, va, Access::Read).unwrap();
        assert_eq!(after.level, HitLevel::Walk);
        assert_eq!(t.walks_taken(), 2);
    }

    #[test]
    fn invalidate_single_page_only() {
        let (sp, mut mem, mut t, va) = setup(TranslationConfig::default());
        let b = va.add(PAGE_SIZE);
        t.translate(&sp, &mut mem, 0, va, Access::Read).unwrap();
        t.translate(&sp, &mut mem, 0, b, Access::Read).unwrap();
        t.invalidate(Vpn::of(va));
        assert_eq!(
            t.translate(&sp, &mut mem, 0, va, Access::Read)
                .unwrap()
                .level,
            HitLevel::Walk
        );
        assert_eq!(
            t.translate(&sp, &mut mem, 0, b, Access::Read)
                .unwrap()
                .level,
            HitLevel::Private
        );
    }

    #[test]
    fn consecutive_same_page_rates() {
        let (sp, mut mem, mut t, va) = setup(TranslationConfig::default());
        // 4 reads: same, same, different -> 2/3 same.
        t.translate(&sp, &mut mem, 0, va, Access::Read).unwrap();
        t.translate(&sp, &mut mem, 0, va.add(8), Access::Read)
            .unwrap();
        t.translate(&sp, &mut mem, 0, va.add(16), Access::Read)
            .unwrap();
        t.translate(&sp, &mut mem, 0, va.add(PAGE_SIZE), Access::Read)
            .unwrap();
        assert!((t.consecutive_read_same_page_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.consecutive_write_same_page_rate(), 0.0);
    }

    #[test]
    fn effective_hit_rate_includes_filters() {
        let cfg = TranslationConfig {
            filter_registers: true,
            ..TranslationConfig::default()
        };
        let (sp, mut mem, mut t, va) = setup(cfg);
        t.translate(&sp, &mut mem, 0, va, Access::Read).unwrap(); // walk
        for _ in 0..9 {
            t.translate(&sp, &mut mem, 0, va, Access::Read).unwrap(); // filter hits
        }
        assert!((t.effective_hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn miss_rate_series_records_requests() {
        let (sp, mut mem, mut t, va) = setup(TranslationConfig::default());
        t.translate(&sp, &mut mem, 0, va, Access::Read).unwrap();
        t.translate(&sp, &mut mem, 0, va, Access::Read).unwrap();
        let series = t.miss_rate_series().series();
        assert_eq!(series[0].hits + series[0].misses, 2);
    }
}
