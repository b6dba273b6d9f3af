//! Filter registers: the paper's Section V-A optimization.
//!
//! > "a single register that caches the last TLB hit for read operations,
//! > and another register that caches TLB hits for write operations. These
//! > two registers allow the DMA to 'skip' the TLB request if two
//! > consecutive requests are made to the same virtual page number, and help
//! > reduce the possibility of read-write contention over the TLB."
//!
//! A filter-register hit costs **zero** cycles. Because each stream (read /
//! write) has its own register, overlapped read and write bursts no longer
//! evict each other's most-recent translation.

use crate::page::{Mapping, Vpn};

/// A single filter register: the last translation seen by one stream,
/// permission bits included.
#[derive(Debug, Clone, Copy, Default)]
pub struct FilterRegister {
    entry: Option<(Vpn, Mapping)>,
    hits: u64,
    lookups: u64,
}

impl FilterRegister {
    /// Creates an empty register.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks the register; a hit returns the cached mapping at zero cost.
    pub fn lookup(&mut self, vpn: Vpn) -> Option<Mapping> {
        self.repeat_lookups(vpn, 1)
    }

    /// Books `k` back-to-back lookups of `vpn` in closed form, exactly as
    /// `k` calls to [`Self::lookup`] would.
    pub fn repeat_lookups(&mut self, vpn: Vpn, k: u64) -> Option<Mapping> {
        self.lookups += k;
        match self.entry {
            Some((v, m)) if v == vpn => {
                self.hits += k;
                Some(m)
            }
            _ => None,
        }
    }

    /// Records the translation most recently produced for this stream.
    pub fn update(&mut self, vpn: Vpn, mapping: Mapping) {
        self.entry = Some((vpn, mapping));
    }

    /// Invalidates the register (TLB shootdown / context switch).
    pub fn flush(&mut self) {
        self.entry = None;
    }

    /// Invalidates the register iff it caches `vpn`.
    pub fn invalidate(&mut self, vpn: Vpn) {
        if matches!(self.entry, Some((v, _)) if v == vpn) {
            self.entry = None;
        }
    }

    /// Lookups that hit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Fraction of lookups that hit — the paper reports 87% of consecutive
    /// read requests and 83% of consecutive write requests landing on the
    /// same page, which is exactly this ratio.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// The paper's pair of filter registers: one for the DMA's read stream, one
/// for its write stream.
///
/// # Example
///
/// ```
/// use gemmini_vm::filter::FilterPair;
/// use gemmini_vm::page::{Vpn, Frame};
///
/// let mut fp = FilterPair::new();
/// assert!(fp.read.lookup(Vpn::new(1)).is_none());
/// fp.read.update(Vpn::new(1), Frame::new(7).into());
/// assert_eq!(fp.read.lookup(Vpn::new(1)).map(|m| m.frame), Some(Frame::new(7)));
/// // The write stream has its own register:
/// assert!(fp.write.lookup(Vpn::new(1)).is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FilterPair {
    /// Register serving the read (mvin) stream.
    pub read: FilterRegister,
    /// Register serving the write (mvout) stream.
    pub write: FilterRegister,
}

impl FilterPair {
    /// Creates a pair of empty registers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Flushes both registers.
    pub fn flush(&mut self) {
        self.read.flush();
        self.write.flush();
    }

    /// Invalidates `vpn` in both registers.
    pub fn invalidate(&mut self, vpn: Vpn) {
        self.read.invalidate(vpn);
        self.write.invalidate(vpn);
    }

    /// Combined hits across both streams.
    pub fn total_hits(&self) -> u64 {
        self.read.hits() + self.write.hits()
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
    fn consecutive_same_page_hits() {
        let mut r = FilterRegister::new();
        assert!(r.lookup(v(5)).is_none());
        r.update(v(5), f(50).into());
        assert_eq!(r.lookup(v(5)), Some(f(50).into()));
        assert_eq!(r.lookup(v(5)), Some(f(50).into()));
        assert_eq!(r.hits(), 2);
        assert_eq!(r.lookups(), 3);
    }

    #[test]
    fn page_change_misses_and_can_be_updated() {
        let mut r = FilterRegister::new();
        r.update(v(1), f(1).into());
        assert!(r.lookup(v(2)).is_none());
        r.update(v(2), f(2).into());
        assert_eq!(r.lookup(v(2)), Some(f(2).into()));
    }

    #[test]
    fn streams_are_independent() {
        let mut fp = FilterPair::new();
        fp.read.update(v(1), f(1).into());
        fp.write.update(v(2), f(2).into());
        // Interleaved read/write to different pages both keep hitting —
        // the exact contention the paper's optimization removes.
        assert_eq!(fp.read.lookup(v(1)), Some(f(1).into()));
        assert_eq!(fp.write.lookup(v(2)), Some(f(2).into()));
        assert_eq!(fp.read.lookup(v(1)), Some(f(1).into()));
        assert_eq!(fp.total_hits(), 3);
    }

    #[test]
    fn flush_and_invalidate() {
        let mut fp = FilterPair::new();
        fp.read.update(v(1), f(1).into());
        fp.write.update(v(1), f(1).into());
        fp.invalidate(v(1));
        assert!(fp.read.lookup(v(1)).is_none());
        assert!(fp.write.lookup(v(1)).is_none());

        fp.read.update(v(2), f(2).into());
        fp.invalidate(v(3)); // different page: no effect
        assert!(fp.read.lookup(v(2)).is_some());

        fp.flush();
        assert!(fp.read.lookup(v(2)).is_none());
    }

    #[test]
    fn hit_rate_math() {
        let mut r = FilterRegister::new();
        r.update(v(1), f(1).into());
        r.lookup(v(1));
        r.lookup(v(2));
        assert!((r.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(FilterRegister::new().hit_rate(), 0.0);
    }
}
