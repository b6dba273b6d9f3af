//! A generic TLB with LRU replacement.
//!
//! Used for both the accelerator's private TLB (typically 4–32 entries,
//! fully associative) and the larger shared L2 TLB (0–512 entries). A
//! zero-entry TLB is a valid configuration — the Fig. 8 sweep includes the
//! design point where the shared L2 TLB is absent.

use crate::page::{Mapping, Vpn};
use gemmini_mem::stats::HitMissStats;

/// TLB configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries; zero means the TLB is absent (every lookup misses).
    pub entries: u32,
    /// Latency of a hit, in cycles.
    pub hit_latency: u64,
}

impl TlbConfig {
    /// A private accelerator TLB: fully associative, `entries` entries,
    /// 2-cycle hits (the paper notes its private TLB hit latency was
    /// "several cycles").
    pub fn private(entries: u32) -> Self {
        Self {
            entries,
            hit_latency: 2,
        }
    }

    /// A shared L2 TLB: `entries` entries, 8-cycle hits (it sits at the L2).
    pub fn shared(entries: u32) -> Self {
        Self {
            entries,
            hit_latency: 8,
        }
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        Self::private(4)
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    vpn: Vpn,
    mapping: Mapping,
    lru: u64,
}

/// Fully-associative, true-LRU TLB. Each entry caches the page's
/// permission bits with its frame.
///
/// # Example
///
/// ```
/// use gemmini_vm::tlb::{Tlb, TlbConfig};
/// use gemmini_vm::page::{Frame, PagePermissions, Vpn};
///
/// let mut tlb = Tlb::new(TlbConfig::private(4));
/// assert!(tlb.lookup(Vpn::new(1)).is_none());
/// tlb.insert(Vpn::new(1), (Frame::new(100), PagePermissions::RO));
/// let hit = tlb.lookup(Vpn::new(1)).unwrap();
/// assert_eq!(hit.frame, Frame::new(100));
/// assert!(!hit.perms.write);
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    entries: Vec<Entry>,
    stamp: u64,
    stats: HitMissStats,
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new(config: TlbConfig) -> Self {
        Self {
            config,
            entries: Vec::with_capacity(config.entries as usize),
            stamp: 0,
            stats: HitMissStats::new(),
        }
    }

    /// The configuration this TLB was built with.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Looks up a page, updating LRU order and hit/miss statistics.
    /// Returns the cached mapping on a hit.
    pub fn lookup(&mut self, vpn: Vpn) -> Option<Mapping> {
        self.repeat_lookups(vpn, 1)
    }

    /// Books `k` back-to-back lookups of `vpn` in closed form: exactly
    /// what `k` calls to [`Self::lookup`] leave behind (use stamp, the
    /// entry's LRU position, hit or miss counts). Returns the mapping on a
    /// hit.
    pub fn repeat_lookups(&mut self, vpn: Vpn, k: u64) -> Option<Mapping> {
        self.stamp += k;
        let stamp = self.stamp;
        let found = self.entries.iter_mut().find(|e| e.vpn == vpn);
        self.stats.record_n(found.is_some(), k);
        found.map(|e| {
            e.lru = stamp;
            e.mapping
        })
    }

    /// Probes for a page without touching LRU order or statistics.
    pub fn probe(&self, vpn: Vpn) -> Option<Mapping> {
        self.entries
            .iter()
            .find(|e| e.vpn == vpn)
            .map(|e| e.mapping)
    }

    /// Inserts a translation, evicting the LRU entry if full. Inserting into
    /// a zero-entry TLB is a no-op. Re-inserting an existing page refreshes
    /// its mapping and LRU position. A bare [`crate::page::Frame`] inserts
    /// a read-write mapping.
    pub fn insert(&mut self, vpn: Vpn, mapping: impl Into<Mapping>) {
        if self.config.entries == 0 {
            return;
        }
        let mapping = mapping.into();
        self.stamp += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.vpn == vpn) {
            e.mapping = mapping;
            e.lru = self.stamp;
            return;
        }
        let entry = Entry {
            vpn,
            mapping,
            lru: self.stamp,
        };
        if self.entries.len() < self.config.entries as usize {
            self.entries.push(entry);
        } else {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .map(|(i, _)| i)
                .expect("non-empty TLB");
            self.entries[victim] = entry;
        }
    }

    /// Removes one page's translation (e.g. on an OS unmap / shootdown of a
    /// single page). Returns whether it was present.
    pub fn invalidate(&mut self, vpn: Vpn) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.vpn != vpn);
        before != self.entries.len()
    }

    /// Invalidates every entry (sfence.vma / context switch).
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Number of currently valid entries.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Hit/miss statistics since construction (or the last [`Self::reset_stats`]).
    pub fn stats(&self) -> &HitMissStats {
        &self.stats
    }

    /// Resets statistics without touching entries.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Frame;

    fn v(n: u64) -> Vpn {
        Vpn::new(n)
    }
    fn f(n: u64) -> Frame {
        Frame::new(n)
    }

    #[test]
    fn miss_then_hit() {
        let mut t = Tlb::new(TlbConfig::private(4));
        assert!(t.lookup(v(1)).is_none());
        t.insert(v(1), f(10));
        assert_eq!(t.lookup(v(1)), Some(f(10).into()));
        assert_eq!(t.stats().hits(), 1);
        assert_eq!(t.stats().misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut t = Tlb::new(TlbConfig::private(2));
        t.insert(v(1), f(1));
        t.insert(v(2), f(2));
        t.lookup(v(1)); // refresh 1; 2 becomes LRU
        t.insert(v(3), f(3)); // evicts 2
        assert!(t.probe(v(1)).is_some());
        assert!(t.probe(v(2)).is_none());
        assert!(t.probe(v(3)).is_some());
    }

    #[test]
    fn zero_entry_tlb_always_misses() {
        let mut t = Tlb::new(TlbConfig::shared(0));
        t.insert(v(1), f(1));
        assert!(t.lookup(v(1)).is_none());
        assert_eq!(t.occupancy(), 0);
        assert_eq!(t.stats().misses(), 1);
    }

    #[test]
    fn reinsert_updates_mapping_without_duplicating() {
        let mut t = Tlb::new(TlbConfig::private(4));
        t.insert(v(1), f(1));
        t.insert(v(1), f(99));
        assert_eq!(t.occupancy(), 1);
        assert_eq!(t.probe(v(1)), Some(f(99).into()));
    }

    #[test]
    fn invalidate_single_page() {
        let mut t = Tlb::new(TlbConfig::private(4));
        t.insert(v(1), f(1));
        t.insert(v(2), f(2));
        assert!(t.invalidate(v(1)));
        assert!(!t.invalidate(v(1)));
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn flush_clears_everything() {
        let mut t = Tlb::new(TlbConfig::private(4));
        t.insert(v(1), f(1));
        t.insert(v(2), f(2));
        t.flush();
        assert_eq!(t.occupancy(), 0);
        assert!(t.lookup(v(1)).is_none());
    }

    #[test]
    fn probe_does_not_affect_lru_or_stats() {
        let mut t = Tlb::new(TlbConfig::private(2));
        t.insert(v(1), f(1));
        t.insert(v(2), f(2));
        t.probe(v(1)); // must NOT refresh
        t.insert(v(3), f(3)); // evicts 1 (the true LRU)
        assert!(t.probe(v(1)).is_none());
        assert_eq!(t.stats().accesses(), 0);
    }

    #[test]
    fn capacity_is_respected() {
        let mut t = Tlb::new(TlbConfig::private(4));
        for i in 0..10 {
            t.insert(v(i), f(i));
        }
        assert_eq!(t.occupancy(), 4);
        // The four most recent survive.
        for i in 6..10 {
            assert!(t.probe(v(i)).is_some());
        }
    }
}
