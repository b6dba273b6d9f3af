//! The composed memory hierarchy: bus → shared L2 → DRAM.
//!
//! [`MemorySystem`] is the single object the rest of the stack (accelerator
//! DMA engines, CPU models, the page-table walker) uses to account for
//! off-accelerator memory time. It is shared state: in multi-core SoCs every
//! core's traffic flows through one `MemorySystem`, which is how the Fig. 9
//! contention effects arise.

use crate::addr::{lines_in_range, PhysAddr, LINE_SHIFT};
use crate::bus::{Bus, BusConfig};
use crate::cache::{AccessKind, Cache, CacheConfig};
use crate::dram::{DramConfig, DramModel};
use crate::metrics::{Counter, Metrics};
use crate::stats::TrafficStats;
use crate::trace::{Component, StallCause, Tracer};
use crate::Cycle;

/// Configuration for the whole off-chip memory path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemorySystemConfig {
    /// System-bus parameters.
    pub bus: BusConfig,
    /// Shared L2 parameters.
    pub l2: CacheConfig,
    /// DRAM channel parameters.
    pub dram: DramConfig,
}

impl MemorySystemConfig {
    /// Validates every component configuration.
    ///
    /// # Errors
    ///
    /// Returns the first component error encountered.
    pub fn validate(&self) -> Result<(), String> {
        self.bus.validate()?;
        self.l2.validate()?;
        self.dram.validate()
    }
}

/// Identifies which requestor issued an access, for per-port statistics.
pub type PortId = usize;

/// Composed bus → L2 → DRAM timing model with per-port traffic statistics.
///
/// Accesses are line-granular: a request for `bytes` starting at `addr` is
/// split into cache-line accesses, each looked up in the L2; misses pay the
/// DRAM latency and occupy the shared DRAM channel.
///
/// # Example
///
/// ```
/// use gemmini_mem::hierarchy::{MemorySystem, MemorySystemConfig};
/// use gemmini_mem::addr::PhysAddr;
///
/// let mut mem = MemorySystem::new(MemorySystemConfig::default());
/// let miss = mem.read(0, 0, PhysAddr::new(0x8000_0000), 64);
/// let hit = mem.read(0, miss, PhysAddr::new(0x8000_0000), 64);
/// assert!(hit - miss < miss); // the hit is much cheaper than the cold miss
/// ```
#[derive(Debug, Clone)]
pub struct MemorySystem {
    config: MemorySystemConfig,
    bus: Bus,
    l2: Cache,
    dram: DramModel,
    /// Per-port traffic, in first-use order. A SoC has at most a few
    /// ports (one per core plus the page-table walker), so a linear scan
    /// beats hashing the port on every access.
    port_traffic: Vec<(PortId, TrafficStats)>,
    tracer: Tracer,
    metrics: Metrics,
}

impl MemorySystem {
    /// Builds the hierarchy from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MemorySystemConfig::validate`].
    pub fn new(config: MemorySystemConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid memory-system configuration: {e}");
        }
        Self {
            config,
            bus: Bus::new(config.bus),
            l2: Cache::new(config.l2),
            dram: DramModel::new(config.dram),
            port_traffic: Vec::new(),
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
        }
    }

    /// Attaches a trace-event sink; L2 misses emit DRAM line-fill spans
    /// into it. Disabled by default (one branch per access).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attaches a live-metrics handle; L2 misses count DRAM line fills.
    /// Disabled by default.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &MemorySystemConfig {
        &self.config
    }

    fn port_stats_mut(&mut self, port: PortId) -> &mut TrafficStats {
        let i = match self.port_traffic.iter().position(|&(p, _)| p == port) {
            Some(i) => i,
            None => {
                self.port_traffic.push((port, TrafficStats::default()));
                self.port_traffic.len() - 1
            }
        };
        &mut self.port_traffic[i].1
    }

    /// Moves a run of `k` equal-sized rows for `port`: row `j` moves
    /// `bytes` bytes from `paddr + j * stride`, issued at `start + j * step`.
    /// Each row pays the bus, then the L2 per line it touches (misses fill
    /// from DRAM, after writing back a dirty victim).
    ///
    /// The result is exactly that of `k` single-row [`Self::read`] or
    /// [`Self::write`] calls: rows share no state beyond what those calls
    /// share, and the port's traffic counters move once by `k` rows.
    ///
    /// When `step` is at most the L2 hit latency, a maximal group of rows
    /// that lie wholly inside the line the previous row ended in is
    /// booked in closed form: one bulk L2 hit count on that line and one
    /// bus step for the group. `row(issue, done)` is told, in order, each
    /// other row's issue and completion cycles, and each group's first
    /// issue and last completion. The union of the `[issue + streaming,
    /// done)` intervals it is told ([`Self::streaming_cycles`] of
    /// `bytes`) is that of the rows': a group's rows all hit, so their
    /// intervals chain.
    #[allow(clippy::too_many_arguments)]
    pub fn access_run(
        &mut self,
        port: PortId,
        start: Cycle,
        step: Cycle,
        paddr: PhysAddr,
        stride: u64,
        bytes: u64,
        k: u64,
        kind: AccessKind,
        mut row: impl FnMut(Cycle, Cycle),
    ) {
        let beats = self.config.bus.beats(bytes);
        let hit_latency = self.config.l2.hit_latency;
        // The line the previous row ended in.
        let mut last_line = None;
        let mut j = 0;
        while j < k {
            let issue = start + j * step;
            let addr = paddr.add(j * stride);
            // Rows from `j` on that lie wholly inside `last_line`. Every such
            // row hits, so its span ends `hit_latency` after its bus
            // transfer; with `step` at most that, the next row's span starts
            // before it ends, and one span covers the group.
            let group = match last_line {
                Some(line) if addr.line_index() == line && step <= hit_latency => {
                    let line_end = (line + 1) << LINE_SHIFT;
                    let row_end = addr.raw() + bytes;
                    match (line_end.checked_sub(row_end), stride) {
                        (None, _) => 0,
                        (Some(_), 0) => k - j,
                        (Some(room), _) => (room / stride + 1).min(k - j),
                    }
                }
                _ => 0,
            };
            if group == 0 {
                let done = self.row_access(issue, addr, bytes, beats, kind, last_line);
                last_line = (bytes > 0).then(|| addr.add(bytes - 1).line_index());
                row(issue, done);
                j += 1;
                continue;
            }
            debug_assert!(
                self.l2.last_holds(addr),
                "the previous row's line is the L2's last"
            );
            self.l2.repeat_hits(kind, group);
            let bus_done = self.bus.transfer_run(issue, step, beats, group);
            row(issue, bus_done + hit_latency);
            j += group;
        }
        let stats = self.port_stats_mut(port);
        match kind {
            AccessKind::Read => {
                stats.reads += k;
                stats.bytes_read += k * bytes;
            }
            AccessKind::Write => {
                stats.writes += k;
                stats.bytes_written += k * bytes;
            }
        }
    }

    /// One row: the bus transfer (`beats` long) for the whole row, then an
    /// L2 lookup per line; misses serialize on the DRAM channel. The L2
    /// access just before this row was to line `last_line`, if any; a row
    /// starting in that line hits it again without a set scan.
    fn row_access(
        &mut self,
        now: Cycle,
        addr: PhysAddr,
        bytes: u64,
        beats: u64,
        kind: AccessKind,
        last_line: Option<u64>,
    ) -> Cycle {
        let bus_done = self.bus.transfer_beats(now, beats);
        let mut done = bus_done;
        let mut again = last_line == Some(addr.line_index());
        for line in lines_in_range(addr, bytes) {
            let res = if std::mem::take(&mut again) {
                debug_assert!(
                    self.l2.last_holds(line),
                    "the previous row's line is the L2's last"
                );
                self.l2.repeat_hits(kind, 1)
            } else {
                self.l2.access(line, kind)
            };
            let line_done = if res.hit {
                bus_done + res.latency
            } else {
                let fill_done = self.dram.transfer_line(bus_done + res.latency);
                self.tracer.span(
                    Component::Dram,
                    "line-fill",
                    bus_done + res.latency,
                    fill_done,
                    StallCause::CacheMiss,
                );
                self.metrics.inc(Counter::DramLineFills);
                if res.writeback {
                    // The dirty victim's writeback occupies the DRAM channel
                    // (delaying later requests) but the demand fill does not
                    // wait for it to finish.
                    let _ = self.dram.transfer_line(bus_done + res.latency);
                }
                fill_done
            };
            done = done.max(line_done);
        }
        done
    }

    fn access(
        &mut self,
        port: PortId,
        now: Cycle,
        addr: PhysAddr,
        bytes: u64,
        kind: AccessKind,
    ) -> Cycle {
        let mut done = now;
        self.access_run(port, now, 0, addr, 0, bytes, 1, kind, |_, d| done = d);
        done
    }

    /// Reads `bytes` starting at `addr` on behalf of `port`; returns the
    /// completion cycle.
    pub fn read(&mut self, port: PortId, now: Cycle, addr: PhysAddr, bytes: u64) -> Cycle {
        self.access(port, now, addr, bytes, AccessKind::Read)
    }

    /// Writes `bytes` starting at `addr` on behalf of `port`; returns the
    /// completion cycle.
    pub fn write(&mut self, port: PortId, now: Cycle, addr: PhysAddr, bytes: u64) -> Cycle {
        self.access(port, now, addr, bytes, AccessKind::Write)
    }

    /// The shared L2 (for statistics and probing).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// The DRAM channel model.
    pub fn dram(&self) -> &DramModel {
        &self.dram
    }

    /// The system bus model.
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// Ideal (uncontended, all-hits-free) streaming time for `bytes`:
    /// the bus service time alone. Cycle-attribution uses this to split
    /// a transfer's memory time into bandwidth-limited streaming versus
    /// stalling on the L2/DRAM path behind it.
    pub fn streaming_cycles(&self, bytes: u64) -> u64 {
        self.config.bus.service_cycles(bytes)
    }

    /// Traffic generated by `port`, if any was recorded.
    pub fn port_traffic(&self, port: PortId) -> Option<&TrafficStats> {
        self.port_traffic
            .iter()
            .find_map(|(p, stats)| (*p == port).then_some(stats))
    }

    /// Resets all statistics (tag state and channel occupancy are preserved).
    pub fn reset_stats(&mut self) {
        self.l2.reset_stats();
        self.dram.reset_stats();
        self.port_traffic.clear();
    }
}

impl Default for MemorySystem {
    fn default() -> Self {
        Self::new(MemorySystemConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(MemorySystemConfig::default())
    }

    #[test]
    fn read_signature_misses_then_hits() {
        let mut m = sys();
        let a = PhysAddr::new(0x8000_0000);
        let t1 = m.read(0, 0, a, 64);
        let t2 = m.read(0, t1, a, 64);
        // Cold miss pays DRAM latency; hit pays only bus + L2 latency.
        assert!(t1 >= m.config().dram.latency);
        assert!(t2 - t1 <= m.config().bus.arbitration_latency + 4 + m.config().l2.hit_latency);
        assert_eq!(m.l2().stats().hits(), 1);
        assert_eq!(m.l2().stats().misses(), 1);
    }

    #[test]
    fn multi_line_burst_touches_every_line() {
        let mut m = sys();
        m.read(0, 0, PhysAddr::new(0), 256);
        assert_eq!(m.l2().stats().accesses(), 4);
    }

    #[test]
    fn unaligned_burst_touches_extra_line() {
        let mut m = sys();
        m.read(0, 0, PhysAddr::new(32), 64);
        assert_eq!(m.l2().stats().accesses(), 2);
    }

    #[test]
    fn per_port_traffic_is_separated() {
        let mut m = sys();
        m.read(0, 0, PhysAddr::new(0), 64);
        m.write(1, 0, PhysAddr::new(4096), 128);
        assert_eq!(m.port_traffic(0).unwrap().bytes_read, 64);
        assert_eq!(m.port_traffic(1).unwrap().bytes_written, 128);
        assert!(m.port_traffic(2).is_none());
    }

    #[test]
    fn two_ports_contend_on_dram() {
        let mut m = sys();
        // Two cold misses at the same time: the second completes later
        // because the DRAM channel serializes.
        let t1 = m.read(0, 0, PhysAddr::new(0x1000_0000), 64);
        let t2 = m.read(1, 0, PhysAddr::new(0x2000_0000), 64);
        assert!(t2 > t1);
    }

    #[test]
    fn writes_mark_lines_dirty_and_evictions_write_back() {
        // Tiny L2 to force evictions quickly.
        let mut m = MemorySystem::new(MemorySystemConfig {
            l2: CacheConfig {
                size_bytes: 8 * 64,
                ways: 1,
                hit_latency: 2,
            },
            ..MemorySystemConfig::default()
        });
        // Write 8 lines (fills the direct-mapped cache), then read 8 more
        // lines that map onto the same sets -> dirty evictions.
        for i in 0..8u64 {
            m.write(0, 0, PhysAddr::new(i * 64), 64);
        }
        for i in 0..8u64 {
            m.read(0, 0, PhysAddr::new(8 * 64 + i * 64), 64);
        }
        assert_eq!(m.l2().writebacks(), 8);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut m = sys();
        m.read(0, 0, PhysAddr::new(0), 64);
        m.reset_stats();
        assert_eq!(m.l2().stats().accesses(), 0);
        assert!(m.port_traffic(0).is_none());
    }
}
