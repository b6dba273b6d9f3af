//! The shared page-table walker.
//!
//! The Section V-A case-study SoC has "only one PTW, shared by both the CPU
//! and the accelerator, which is suitable for low-power devices". Walks
//! serialize on the single walker, and each of the three radix levels is a
//! real 8-byte read issued through the shared memory system — so PTEs are
//! cached in the L2 like any other data, and a warm walk is far cheaper
//! than a cold one.

use crate::page::{Mapping, Vpn};
use crate::page_table::{AddressSpace, PTE_BYTES};
use gemmini_mem::{Cycle, MemorySystem};

/// Page-table walker configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtwConfig {
    /// Fixed per-walk control overhead (request/response handshaking), in
    /// cycles.
    pub overhead: u64,
    /// Memory-system port the walker's PTE reads are attributed to.
    pub port: usize,
}

impl Default for PtwConfig {
    fn default() -> Self {
        Self {
            // Request queuing + walker state machine overhead per walk; a
            // single shared walker serves CPU and accelerator (Section V-A),
            // so misses queue behind each other.
            overhead: 30,
            port: usize::MAX - 1, // distinct from any core/DMA port by default
        }
    }
}

/// Result of one completed walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkOutcome {
    /// Cycle at which the walk finished.
    pub done: Cycle,
    /// The leaf PTE's mapping, or `None` if the page is unmapped.
    pub mapping: Option<Mapping>,
}

/// A single shared page-table walker.
///
/// # Example
///
/// ```
/// use gemmini_vm::ptw::{PageTableWalker, PtwConfig};
/// use gemmini_vm::page_table::AddressSpace;
/// use gemmini_vm::page::{FrameAllocator, Vpn};
/// use gemmini_mem::MemorySystem;
///
/// let mut frames = FrameAllocator::new();
/// let mut space = AddressSpace::new(&mut frames);
/// let va = space.alloc(&mut frames, 4096);
/// let mut mem = MemorySystem::default();
/// let mut ptw = PageTableWalker::new(PtwConfig::default());
/// let out = ptw.walk(&space, &mut mem, 0, Vpn::of(va));
/// assert!(out.mapping.is_some());
/// assert!(out.done > 0);
/// ```
#[derive(Debug, Clone)]
pub struct PageTableWalker {
    config: PtwConfig,
    busy_until: Cycle,
    walks: u64,
    total_walk_cycles: u64,
}

impl PageTableWalker {
    /// Creates an idle walker.
    pub fn new(config: PtwConfig) -> Self {
        Self {
            config,
            busy_until: 0,
            walks: 0,
            total_walk_cycles: 0,
        }
    }

    /// The configuration this walker was built with.
    pub fn config(&self) -> &PtwConfig {
        &self.config
    }

    /// Performs a three-level walk of `vpn` in `space`, starting no earlier
    /// than `now` and no earlier than the walker's previous walk finishing.
    ///
    /// Each level is a serialized PTE read through `mem`; the walk cannot
    /// fetch level N+1 before level N's PTE arrives (pointer chasing).
    pub fn walk(
        &mut self,
        space: &AddressSpace,
        mem: &mut MemorySystem,
        now: Cycle,
        vpn: Vpn,
    ) -> WalkOutcome {
        let start = now.max(self.busy_until);
        let mut t = start + self.config.overhead;
        let walk = space.walk(vpn);
        for pte_addr in walk.ptes {
            t = mem.read(self.config.port, t, pte_addr, PTE_BYTES);
        }
        self.busy_until = t;
        self.walks += 1;
        self.total_walk_cycles += t - start;
        WalkOutcome {
            done: t,
            mapping: walk.mapping,
        }
    }

    /// Number of walks performed.
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// Mean walk latency in cycles (0 if no walks yet).
    pub fn mean_walk_cycles(&self) -> f64 {
        if self.walks == 0 {
            0.0
        } else {
            self.total_walk_cycles as f64 / self.walks as f64
        }
    }

    /// Cycle at which the walker next becomes free.
    pub fn busy_until(&self) -> Cycle {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::FrameAllocator;

    fn setup() -> (AddressSpace, MemorySystem, PageTableWalker) {
        let mut fa = FrameAllocator::new();
        let mut sp = AddressSpace::new(&mut fa);
        sp.alloc(&mut fa, 16 * 4096);
        (
            sp,
            MemorySystem::default(),
            PageTableWalker::new(PtwConfig::default()),
        )
    }

    #[test]
    fn walk_of_mapped_page_reports_mapped() {
        let (sp, mut mem, mut ptw) = setup();
        let (vpn, frame, perms) = sp.iter().next().unwrap();
        let out = ptw.walk(&sp, &mut mem, 0, vpn);
        assert_eq!(out.mapping, Some(Mapping { frame, perms }));
        assert_eq!(ptw.walks(), 1);
    }

    #[test]
    fn walk_of_unmapped_page_reports_fault_but_still_takes_time() {
        let (sp, mut mem, mut ptw) = setup();
        let out = ptw.walk(&sp, &mut mem, 0, Vpn::new(0xdead));
        assert!(out.mapping.is_none());
        assert!(out.done > 0);
    }

    #[test]
    fn cold_walk_slower_than_warm_walk() {
        let (sp, mut mem, mut ptw) = setup();
        let vpn = Vpn::new(0x100); // heap base page
        let cold = ptw.walk(&sp, &mut mem, 0, vpn);
        let cold_latency = cold.done;
        let warm = ptw.walk(&sp, &mut mem, cold.done, vpn);
        let warm_latency = warm.done - cold.done;
        assert!(
            warm_latency < cold_latency / 2,
            "warm walk ({warm_latency}) should be much cheaper than cold ({cold_latency}) because PTEs now sit in the L2"
        );
    }

    #[test]
    fn walks_serialize_on_the_single_walker() {
        let (sp, mut mem, mut ptw) = setup();
        let a = ptw.walk(&sp, &mut mem, 0, Vpn::new(0x100));
        // Requested at time 0 but the walker is busy until `a.done`.
        let b = ptw.walk(&sp, &mut mem, 0, Vpn::new(0x101));
        assert!(b.done > a.done);
    }

    #[test]
    fn mean_walk_cycles_accumulates() {
        let (sp, mut mem, mut ptw) = setup();
        assert_eq!(ptw.mean_walk_cycles(), 0.0);
        ptw.walk(&sp, &mut mem, 0, Vpn::new(0x100));
        assert!(ptw.mean_walk_cycles() > 0.0);
    }
}
