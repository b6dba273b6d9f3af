//! Set-associative cache timing model (tags only).
//!
//! Models the SoC's shared L2: physically-indexed, write-back,
//! write-allocate, true-LRU replacement. Only tag state is tracked — the
//! functional bytes live in [`crate::dram::MainMemory`] — so one cache
//! instance can serve both the timing-only figure sweeps and the
//! functionally-exact correctness runs.

use crate::addr::{PhysAddr, LINE_SHIFT, LINE_SIZE};
use crate::spare::ZeroedU64s;
use crate::stats::HitMissStats;

/// Whether an access reads or writes the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read (load / DMA mvin / instruction fetch).
    Read,
    /// A write (store / DMA mvout).
    Write,
}

/// Configuration of a set-associative cache.
///
/// # Example
///
/// ```
/// use gemmini_mem::cache::CacheConfig;
/// let cfg = CacheConfig::l2_mb(1);
/// assert_eq!(cfg.size_bytes, 1 << 20);
/// assert_eq!(cfg.num_sets(), (1 << 20) / (8 * 64));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a multiple of `ways * LINE_SIZE`.
    pub size_bytes: u64,
    /// Associativity (lines per set). Must be non-zero.
    pub ways: u32,
    /// Latency of a hit, in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// A shared L2 configuration: `megabytes` MiB, 8-way, 16-cycle hits —
    /// the defaults used by the paper's Chipyard SoCs.
    pub fn l2_mb(megabytes: u64) -> Self {
        Self {
            size_bytes: megabytes << 20,
            ways: 8,
            hit_latency: 16,
        }
    }

    /// Number of sets implied by the capacity, associativity and line size.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.ways as u64 * LINE_SIZE)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.ways == 0 {
            return Err("cache must have at least one way".to_string());
        }
        if self.size_bytes == 0 {
            return Err("cache capacity must be non-zero".to_string());
        }
        let set_bytes = self.ways as u64 * LINE_SIZE;
        if !self.size_bytes.is_multiple_of(set_bytes) {
            return Err(format!(
                "capacity {} is not a multiple of ways*line ({})",
                self.size_bytes, set_bytes
            ));
        }
        let sets = self.size_bytes / set_bytes;
        if !sets.is_power_of_two() {
            return Err(format!("number of sets {sets} is not a power of two"));
        }
        Ok(())
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::l2_mb(1)
    }
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was present.
    pub hit: bool,
    /// Whether a dirty line had to be written back to make room.
    pub writeback: bool,
    /// Latency contributed by the cache itself (hit latency; the miss path's
    /// DRAM latency is added by the caller, who owns the DRAM model).
    pub latency: u64,
}

/// A set-associative, write-back, write-allocate cache (tags only).
///
/// Way state is kept in parallel per-way arrays, set-major, so a lookup
/// scans one set's tags in a single host cache line.
///
/// # Example
///
/// ```
/// use gemmini_mem::cache::{Cache, CacheConfig, AccessKind};
/// use gemmini_mem::addr::PhysAddr;
///
/// let mut l2 = Cache::new(CacheConfig::l2_mb(1));
/// let a = PhysAddr::new(0x8000_0000);
/// assert!(!l2.access(a, AccessKind::Read).hit); // cold miss
/// assert!(l2.access(a, AccessKind::Read).hit); // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Per way: the resident line's tag plus one; 0 marks an invalid way.
    keys: ZeroedU64s,
    /// Per way: monotonic use stamp for true-LRU; 0 while invalid.
    lru: ZeroedU64s,
    /// Per way: whether the resident line is dirty.
    dirty: Vec<bool>,
    set_mask: u64,
    set_bits: u32,
    ways: usize,
    /// Index of the way the last access hit or filled: the line
    /// [`Cache::repeat_hits`] hits on.
    last: usize,
    stamp: u64,
    stats: HitMissStats,
    evictions: u64,
    writebacks: u64,
}

impl Cache {
    /// Builds a cache from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CacheConfig::validate`].
    pub fn new(config: CacheConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid cache configuration: {e}");
        }
        let sets = config.num_sets();
        let n = (sets * config.ways as u64) as usize;
        Self {
            config,
            keys: ZeroedU64s::new(n),
            lru: ZeroedU64s::new(n),
            dirty: vec![false; n],
            set_mask: sets - 1,
            set_bits: sets.trailing_zeros(),
            ways: config.ways as usize,
            last: 0,
            stamp: 0,
            stats: HitMissStats::new(),
            evictions: 0,
            writebacks: 0,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The line's set index and its key (tag plus one).
    #[inline]
    fn set_and_key(&self, addr: PhysAddr) -> (usize, u64) {
        let line = addr.raw() >> LINE_SHIFT;
        let set = (line & self.set_mask) as usize;
        (set, (line >> self.set_bits) + 1)
    }

    /// Accesses the line containing `addr`, updating tag state, LRU order and
    /// statistics. On a miss the line is allocated (write-allocate for both
    /// reads and writes), evicting the LRU way.
    pub fn access(&mut self, addr: PhysAddr, kind: AccessKind) -> CacheAccess {
        self.stamp += 1;
        let (set, key) = self.set_and_key(addr);
        let base = set * self.ways;
        let end = base + self.ways;

        // Hit path.
        if let Some(i) = self.keys[base..end].iter().position(|&k| k == key) {
            return self.hit(base + i, kind, 1);
        }

        // Miss: pick victim (invalid way first, else LRU; invalid ways
        // hold stamp 0, below every valid way's).
        let victim = base
            + self.lru[base..end]
                .iter()
                .enumerate()
                .min_by_key(|&(_, &lru)| lru)
                .map(|(i, _)| i)
                .expect("cache set has at least one way");
        let valid = self.keys[victim] != 0;
        let writeback = valid && self.dirty[victim];
        if valid {
            self.evictions += 1;
        }
        if writeback {
            self.writebacks += 1;
        }
        self.keys[victim] = key;
        self.lru[victim] = self.stamp;
        self.dirty[victim] = kind == AccessKind::Write;
        self.last = victim;
        self.stats.record(false);
        CacheAccess {
            hit: false,
            writeback,
            latency: self.config.hit_latency,
        }
    }

    /// Books `m` hits on the line the last access hit or filled — DMA
    /// rows that lie inside the line the previous row ended in — without
    /// a set scan. The state left is exactly that of `m` [`Self::access`]
    /// calls to that line; the caller guarantees the line is still the
    /// last one touched ([`Self::last_holds`]).
    pub(crate) fn repeat_hits(&mut self, kind: AccessKind, m: u64) -> CacheAccess {
        self.stamp += m;
        self.hit(self.last, kind, m)
    }

    /// Whether the way the last access hit or filled holds the line
    /// containing `addr`.
    pub(crate) fn last_holds(&self, addr: PhysAddr) -> bool {
        let (set, key) = self.set_and_key(addr);
        self.last.wrapping_sub(set * self.ways) < self.ways && self.keys[self.last] == key
    }

    /// Books `n` hits on way `i`, the last at the current stamp.
    fn hit(&mut self, i: usize, kind: AccessKind, n: u64) -> CacheAccess {
        self.lru[i] = self.stamp;
        if kind == AccessKind::Write {
            self.dirty[i] = true;
        }
        self.last = i;
        self.stats.record_n(true, n);
        CacheAccess {
            hit: true,
            writeback: false,
            latency: self.config.hit_latency,
        }
    }

    /// Returns whether the line containing `addr` is currently resident,
    /// without perturbing LRU state or statistics.
    pub fn probe(&self, addr: PhysAddr) -> bool {
        let (set, key) = self.set_and_key(addr);
        let base = set * self.ways;
        self.keys[base..base + self.ways].contains(&key)
    }

    /// Hit/miss statistics since construction (or the last [`Self::reset_stats`]).
    pub fn stats(&self) -> &HitMissStats {
        &self.stats
    }

    /// Number of valid lines evicted to make room for fills.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of dirty lines written back to memory.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Resets statistics counters without touching tag state.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.evictions = 0;
        self.writebacks = 0;
    }

    /// Number of currently valid lines (for occupancy checks in tests).
    pub fn valid_lines(&self) -> usize {
        self.keys.iter().filter(|&&k| k != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B = 256 B.
        Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
            hit_latency: 4,
        })
    }

    fn addr(set: u64, tag: u64) -> PhysAddr {
        // 2 sets -> 1 set-index bit above the 6 line-offset bits.
        PhysAddr::new((tag << 7) | (set << 6))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        let a = addr(0, 1);
        let first = c.access(a, AccessKind::Read);
        assert!(!first.hit);
        assert!(!first.writeback);
        let second = c.access(a, AccessKind::Read);
        assert!(second.hit);
        assert_eq!(second.latency, 4);
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        c.access(addr(0, 1), AccessKind::Read);
        c.access(addr(0, 2), AccessKind::Read);
        // Touch tag 1 so tag 2 becomes LRU.
        c.access(addr(0, 1), AccessKind::Read);
        // Fill a third tag: tag 2 must be evicted.
        c.access(addr(0, 3), AccessKind::Read);
        assert!(c.probe(addr(0, 1)));
        assert!(!c.probe(addr(0, 2)));
        assert!(c.probe(addr(0, 3)));
    }

    #[test]
    fn dirty_eviction_triggers_writeback() {
        let mut c = tiny();
        c.access(addr(0, 1), AccessKind::Write);
        c.access(addr(0, 2), AccessKind::Read);
        let third = c.access(addr(0, 3), AccessKind::Read); // evicts dirty tag 1
        assert!(third.writeback);
        assert_eq!(c.writebacks(), 1);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(addr(0, 1), AccessKind::Read);
        c.access(addr(0, 2), AccessKind::Read);
        let third = c.access(addr(0, 3), AccessKind::Read);
        assert!(!third.writeback);
        assert_eq!(c.writebacks(), 0);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.access(addr(0, 1), AccessKind::Read);
        c.access(addr(0, 2), AccessKind::Read);
        // Filling set 1 must not evict set 0's lines.
        c.access(addr(1, 1), AccessKind::Read);
        c.access(addr(1, 2), AccessKind::Read);
        assert!(c.probe(addr(0, 1)));
        assert!(c.probe(addr(0, 2)));
        assert_eq!(c.valid_lines(), 4);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(addr(0, 1), AccessKind::Read);
        c.access(addr(0, 1), AccessKind::Write); // hit, marks dirty
        c.access(addr(0, 2), AccessKind::Read);
        // Tag 1's last touch (the write) precedes tag 2's fill, so the
        // dirty tag 1 is the least recently used line and the victim.
        let evicting = c.access(addr(0, 3), AccessKind::Read);
        assert!(evicting.writeback, "dirty tag 1 is the LRU victim");
    }

    #[test]
    fn repeat_hits_match_access_calls() {
        // `m` repeat hits of each kind after a hit, a fill and a write
        // leave the cache exactly as `m` accesses to that line do.
        let setups: [&[(u64, u64, AccessKind)]; 3] = [
            &[
                (0, 1, AccessKind::Read),
                (1, 1, AccessKind::Read),
                (0, 1, AccessKind::Read),
            ],
            &[
                (0, 1, AccessKind::Read),
                (0, 2, AccessKind::Read),
                (0, 3, AccessKind::Read),
            ],
            &[(1, 2, AccessKind::Read), (1, 2, AccessKind::Write)],
        ];
        for (s, setup) in setups.iter().enumerate() {
            for kind in [AccessKind::Read, AccessKind::Write] {
                for m in [1u64, 2, 5] {
                    let mut bulk = tiny();
                    for &(set, tag, k) in *setup {
                        bulk.access(addr(set, tag), k);
                    }
                    let mut plain = bulk.clone();
                    let &(set, tag, _) = setup.last().expect("non-empty setup");
                    assert!(bulk.last_holds(addr(set, tag)));
                    let got = bulk.repeat_hits(kind, m);
                    let mut want = got;
                    for _ in 0..m {
                        want = plain.access(addr(set, tag), kind);
                    }
                    let case = format!("setup {s} {kind:?} x{m}");
                    assert_eq!(got, want, "{case}");
                    assert_eq!(format!("{bulk:?}"), format!("{plain:?}"), "{case}");
                }
            }
        }
    }

    #[test]
    fn last_holds_tracks_the_last_line_touched() {
        let mut c = tiny();
        c.access(addr(0, 1), AccessKind::Read);
        assert!(c.last_holds(addr(0, 1)));
        c.access(addr(1, 1), AccessKind::Read);
        assert!(!c.last_holds(addr(0, 1)));
        assert!(c.last_holds(addr(1, 1)));
    }

    #[test]
    fn probe_does_not_perturb_lru() {
        let mut c = tiny();
        c.access(addr(0, 1), AccessKind::Read);
        c.access(addr(0, 2), AccessKind::Read);
        // Probing tag 1 must NOT refresh it; tag 1 remains LRU and is evicted.
        assert!(c.probe(addr(0, 1)));
        c.access(addr(0, 3), AccessKind::Read);
        assert!(!c.probe(addr(0, 1)));
    }

    #[test]
    #[should_panic(expected = "invalid cache configuration")]
    fn invalid_config_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 100, // not a multiple of ways*line
            ways: 2,
            hit_latency: 1,
        });
    }

    #[test]
    fn config_validation_messages() {
        assert!(CacheConfig {
            size_bytes: 0,
            ways: 1,
            hit_latency: 1
        }
        .validate()
        .is_err());
        assert!(CacheConfig {
            size_bytes: 64,
            ways: 0,
            hit_latency: 1
        }
        .validate()
        .is_err());
        // 3 sets: not a power of two.
        assert!(CacheConfig {
            size_bytes: 3 * 64,
            ways: 1,
            hit_latency: 1
        }
        .validate()
        .is_err());
        assert!(CacheConfig::l2_mb(2).validate().is_ok());
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        // 256B cache, stream 1 KiB repeatedly: second pass should still miss
        // (LRU with a circular working set 4x the capacity never hits).
        let mut c = tiny();
        for _pass in 0..2 {
            for i in 0..16u64 {
                c.access(PhysAddr::new(i * 64), AccessKind::Read);
            }
        }
        assert_eq!(c.stats().hits(), 0);
        assert_eq!(c.stats().misses(), 32);
    }

    #[test]
    fn working_set_fitting_in_cache_hits_on_second_pass() {
        let mut c = tiny();
        for i in 0..4u64 {
            c.access(PhysAddr::new(i * 64), AccessKind::Read);
        }
        for i in 0..4u64 {
            assert!(c.access(PhysAddr::new(i * 64), AccessKind::Read).hit);
        }
    }
}
