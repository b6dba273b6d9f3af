//! DRAM timing model and the functional physical-memory byte store.
//!
//! [`DramModel`] is purely a timing device: a fixed access latency plus a
//! finite-bandwidth channel shared by all requestors (this is where dual-core
//! contention in the Fig. 9 case study comes from). [`MainMemory`] is purely
//! functional: a sparse, page-granular byte store with no timing at all.

use crate::addr::{PhysAddr, LINE_SIZE, PAGE_SIZE};
use crate::hash::IntMap;
use crate::stats::TrafficStats;
use crate::Cycle;

/// DRAM channel configuration.
///
/// Defaults model a single LPDDR4-class channel behind an edge SoC:
/// ~120-cycle access latency at 1 GHz and 8 B/cycle of peak bandwidth
/// (≈8 GB/s — a single x32 LPDDR4-2133 channel), which also calibrates the
/// accelerator's end-to-end ResNet50 time to the paper's 22.8 FPS anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Latency from request to first beat, in cycles.
    pub latency: u64,
    /// Peak transfer bandwidth in bytes per cycle.
    pub bytes_per_cycle: u64,
}

impl DramConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.bytes_per_cycle == 0 {
            return Err("DRAM bandwidth must be non-zero".to_string());
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self {
            latency: 120,
            bytes_per_cycle: 8,
        }
    }
}

/// Shared-channel DRAM timing model.
///
/// The channel serializes transfers: a transfer occupies the channel for
/// `bytes / bytes_per_cycle` cycles starting no earlier than both the request
/// time and the channel's previous completion. The returned completion time
/// additionally includes the access latency. This first-come-first-served
/// occupancy model is what makes two cores' memory streams slow each other
/// down.
///
/// # Example
///
/// ```
/// use gemmini_mem::dram::{DramModel, DramConfig};
/// let mut dram = DramModel::new(DramConfig { latency: 100, bytes_per_cycle: 16 });
/// let first = dram.transfer(0, 64);
/// assert_eq!(first, 100 + 4);
/// // Second transfer queues behind the first one's channel occupancy.
/// let second = dram.transfer(0, 64);
/// assert_eq!(second, 100 + 8);
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    config: DramConfig,
    channel_free_at: Cycle,
    /// Channel cycles one cache line occupies, sized once so a line
    /// transfer needs no division.
    line_occupancy: u64,
    stats: TrafficStats,
}

impl DramModel {
    /// Builds a DRAM model from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DramConfig::validate`].
    pub fn new(config: DramConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid DRAM configuration: {e}");
        }
        Self {
            config,
            channel_free_at: 0,
            line_occupancy: Self::occupancy(&config, LINE_SIZE),
            stats: TrafficStats::new(),
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    fn occupancy(config: &DramConfig, bytes: u64) -> u64 {
        bytes.div_ceil(config.bytes_per_cycle).max(1)
    }

    /// Schedules a transfer of `bytes` requested at time `now`; returns the
    /// cycle at which the data is fully delivered.
    pub fn transfer(&mut self, now: Cycle, bytes: u64) -> Cycle {
        self.occupy(now, bytes, Self::occupancy(&self.config, bytes))
    }

    /// [`Self::transfer`] of one cache line (a fill or a writeback).
    pub fn transfer_line(&mut self, now: Cycle) -> Cycle {
        self.occupy(now, LINE_SIZE, self.line_occupancy)
    }

    fn occupy(&mut self, now: Cycle, bytes: u64, occupancy: u64) -> Cycle {
        let start = now.max(self.channel_free_at);
        self.channel_free_at = start + occupancy;
        self.stats.record_read(bytes);
        self.channel_free_at + self.config.latency
    }

    /// Cycle at which the channel next becomes free.
    pub fn channel_free_at(&self) -> Cycle {
        self.channel_free_at
    }

    /// Traffic moved through the channel.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Resets traffic statistics (channel occupancy is preserved).
    pub fn reset_stats(&mut self) {
        self.stats = TrafficStats::new();
    }
}

/// Sparse, page-granular physical-memory byte store (functional only).
///
/// Pages are allocated lazily and zero-filled, mirroring how an OS hands out
/// zeroed frames. There is no timing here — all latency accounting lives in
/// [`DramModel`] and [`crate::cache::Cache`].
///
/// # Example
///
/// ```
/// use gemmini_mem::dram::MainMemory;
/// use gemmini_mem::addr::PhysAddr;
///
/// let mut mem = MainMemory::new();
/// mem.write(PhysAddr::new(0x1000), &[1, 2, 3]);
/// let mut buf = [0u8; 3];
/// mem.read(PhysAddr::new(0x1000), &mut buf);
/// assert_eq!(buf, [1, 2, 3]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MainMemory {
    pages: IntMap<u64, Box<[u8]>>,
}

impl MainMemory {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The page holding `addr`, or `None` if it was never written: such a
    /// page reads as zeros and stays unmaterialized.
    pub fn page(&self, addr: PhysAddr) -> Option<&[u8]> {
        self.pages.get(&addr.page_number()).map(|p| &p[..])
    }

    /// The page holding `addr`, materialized (zeroed) if it was never
    /// written.
    pub fn page_mut(&mut self, addr: PhysAddr) -> &mut [u8] {
        self.pages
            .entry(addr.page_number())
            .or_insert_with(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice())
    }

    /// Reads `buf.len()` bytes starting at `addr`. Unwritten memory reads as
    /// zero.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) {
        let mut off = 0usize;
        while off < buf.len() {
            let cur = addr.add(off as u64);
            let in_page = cur.offset_in_page() as usize;
            let n = (PAGE_SIZE as usize - in_page).min(buf.len() - off);
            match self.page(cur) {
                Some(p) => buf[off..off + n].copy_from_slice(&p[in_page..in_page + n]),
                None => buf[off..off + n].fill(0),
            }
            off += n;
        }
    }

    /// Writes `data` starting at `addr`, allocating pages as needed.
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) {
        let mut off = 0usize;
        while off < data.len() {
            let cur = addr.add(off as u64);
            let in_page = cur.offset_in_page() as usize;
            let n = (PAGE_SIZE as usize - in_page).min(data.len() - off);
            self.page_mut(cur)[in_page..in_page + n].copy_from_slice(&data[off..off + n]);
            off += n;
        }
    }

    /// Writes a single byte.
    pub fn write_u8(&mut self, addr: PhysAddr, value: u8) {
        self.write(addr, &[value]);
    }

    /// Number of pages currently materialized.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_includes_latency_and_occupancy() {
        let mut d = DramModel::new(DramConfig {
            latency: 100,
            bytes_per_cycle: 16,
        });
        assert_eq!(d.transfer(0, 64), 104);
    }

    #[test]
    fn line_transfer_equals_a_line_sized_transfer() {
        let cfg = DramConfig {
            latency: 100,
            bytes_per_cycle: 24,
        };
        let (mut line, mut sized) = (DramModel::new(cfg), DramModel::new(cfg));
        for now in [0, 0, 5, 400] {
            assert_eq!(line.transfer_line(now), sized.transfer(now, LINE_SIZE));
        }
        assert_eq!(line.channel_free_at(), sized.channel_free_at());
        assert_eq!(line.stats(), sized.stats());
    }

    #[test]
    fn back_to_back_transfers_queue_on_the_channel() {
        let mut d = DramModel::new(DramConfig {
            latency: 100,
            bytes_per_cycle: 16,
        });
        let a = d.transfer(0, 160); // occupies channel for 10 cycles
        let b = d.transfer(0, 160); // starts at cycle 10
        assert_eq!(a, 110);
        assert_eq!(b, 120);
    }

    #[test]
    fn idle_channel_starts_at_request_time() {
        let mut d = DramModel::new(DramConfig {
            latency: 10,
            bytes_per_cycle: 16,
        });
        let done = d.transfer(1000, 16);
        assert_eq!(done, 1011);
    }

    #[test]
    fn zero_byte_transfer_still_occupies_one_cycle() {
        let mut d = DramModel::new(DramConfig {
            latency: 10,
            bytes_per_cycle: 16,
        });
        assert_eq!(d.transfer(0, 0), 11);
    }

    #[test]
    fn traffic_is_counted() {
        let mut d = DramModel::new(DramConfig::default());
        d.transfer(0, 64);
        d.transfer(0, 64);
        assert_eq!(d.stats().total_bytes(), 128);
    }

    #[test]
    #[should_panic(expected = "invalid DRAM configuration")]
    fn zero_bandwidth_panics() {
        let _ = DramModel::new(DramConfig {
            latency: 1,
            bytes_per_cycle: 0,
        });
    }

    #[test]
    fn main_memory_roundtrip() {
        let mut m = MainMemory::new();
        m.write(PhysAddr::new(10), &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        m.read(PhysAddr::new(10), &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn main_memory_cross_page_write_and_read() {
        let mut m = MainMemory::new();
        let addr = PhysAddr::new(PAGE_SIZE - 2);
        m.write(addr, &[9, 8, 7, 6]);
        let mut buf = [0u8; 4];
        m.read(addr, &mut buf);
        assert_eq!(buf, [9, 8, 7, 6]);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = MainMemory::new();
        let mut buf = [0xffu8; 8];
        m.read(PhysAddr::new(12345), &mut buf);
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn write_u8_writes_one_byte() {
        let mut m = MainMemory::new();
        m.write_u8(PhysAddr::new(300), 0xab);
        let mut buf = [0u8; 3];
        m.read(PhysAddr::new(299), &mut buf);
        assert_eq!(buf, [0, 0xab, 0]);
    }
}
