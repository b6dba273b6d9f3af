//! Per-process address spaces backed by a three-level radix page table.
//!
//! The table is modeled at two levels of fidelity simultaneously:
//!
//! * **Mapping** — an integer-hashed map from [`Vpn`] to ([`Frame`],
//!   [`PagePermissions`]) gives O(1) functional translation.
//! * **Walk addresses** — for timing, [`AddressSpace::walk_addresses`]
//!   produces the three physical PTE addresses an sv39 walker would touch,
//!   derived from real per-level table frames allocated on demand. The
//!   page-table walker issues those as genuine memory accesses, so PTE
//!   locality (consecutive pages sharing a leaf table line) shows up in the
//!   L2 exactly as it does on real hardware.

use crate::page::{Frame, FrameAllocator, PagePermissions, Vpn};
use gemmini_mem::addr::{PhysAddr, VirtAddr, PAGE_SIZE};
use gemmini_mem::hash::IntMap;

/// Number of radix levels in the walk (sv39).
pub const WALK_LEVELS: usize = 3;
/// Size of one page-table entry in bytes.
pub const PTE_BYTES: u64 = 8;

/// One process's address space: mappings plus the radix-table frames that
/// back them.
///
/// # Example
///
/// ```
/// use gemmini_vm::page_table::AddressSpace;
/// use gemmini_vm::page::FrameAllocator;
///
/// let mut frames = FrameAllocator::new();
/// let mut space = AddressSpace::new(&mut frames);
/// let va = space.alloc(&mut frames, 100);
/// assert!(space.translate(va).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpace {
    root: Frame,
    map: IntMap<Vpn, (Frame, PagePermissions)>,
    /// Interior-node frames, keyed by (level, path-prefix of indices).
    tables: IntMap<(u32, u64), Frame>,
    next_va: u64,
}

/// Base of the bump-allocated virtual heap (keeps low addresses free, like a
/// real process layout).
const HEAP_BASE: u64 = 0x10_0000;

impl AddressSpace {
    /// Creates an empty address space, allocating its root table frame.
    pub fn new(frames: &mut FrameAllocator) -> Self {
        Self {
            root: frames.alloc(),
            map: IntMap::default(),
            tables: IntMap::default(),
            next_va: HEAP_BASE,
        }
    }

    /// The root table frame (the "satp" of this address space).
    pub fn root(&self) -> Frame {
        self.root
    }

    /// Maps one page with the given permissions, allocating interior table
    /// frames on demand. Remapping an existing page replaces its entry.
    pub fn map_page(
        &mut self,
        frames: &mut FrameAllocator,
        vpn: Vpn,
        frame: Frame,
        perms: PagePermissions,
    ) {
        // Materialize interior nodes for levels 1 and 2 so the walker has
        // real PTE addresses to touch.
        let l0 = vpn.index_at_level(0);
        let l1 = vpn.index_at_level(1);
        self.tables.entry((1, l0)).or_insert_with(|| frames.alloc());
        self.tables
            .entry((2, (l0 << 9) | l1))
            .or_insert_with(|| frames.alloc());
        self.map.insert(vpn, (frame, perms));
    }

    /// Allocates `len` bytes of fresh, page-aligned, read-write virtual
    /// memory backed by fresh frames; returns the starting virtual address.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn alloc(&mut self, frames: &mut FrameAllocator, len: u64) -> VirtAddr {
        assert!(len > 0, "cannot allocate zero bytes");
        let start = VirtAddr::new(self.next_va);
        let pages = len.div_ceil(PAGE_SIZE);
        for i in 0..pages {
            let vpn = Vpn::new(start.page_number() + i);
            let frame = frames.alloc();
            self.map_page(frames, vpn, frame, PagePermissions::RW);
        }
        self.next_va += pages * PAGE_SIZE;
        start
    }

    /// Allocates like [`Self::alloc`] but marks the pages read-only
    /// (e.g. for weights).
    pub fn alloc_readonly(&mut self, frames: &mut FrameAllocator, len: u64) -> VirtAddr {
        let va = self.alloc(frames, len);
        let pages = len.div_ceil(PAGE_SIZE);
        for i in 0..pages {
            let vpn = Vpn::new(va.page_number() + i);
            if let Some(entry) = self.map.get_mut(&vpn) {
                entry.1 = PagePermissions::RO;
            }
        }
        va
    }

    /// Unmaps one page (simulating an OS page eviction). Returns the frame it
    /// was mapped to, if any.
    pub fn unmap_page(&mut self, vpn: Vpn) -> Option<Frame> {
        self.map.remove(&vpn).map(|(f, _)| f)
    }

    /// Looks up the mapping for a page.
    pub fn lookup(&self, vpn: Vpn) -> Option<(Frame, PagePermissions)> {
        self.map.get(&vpn).copied()
    }

    /// Translates a full virtual address to its physical address (functional
    /// path; no timing).
    pub fn translate(&self, va: VirtAddr) -> Option<PhysAddr> {
        let (frame, _) = self.lookup(Vpn::of(va))?;
        Some(frame.base().add(va.offset_in_page()))
    }

    /// The physical PTE addresses a three-level walk of `vpn` touches, root
    /// first. Returned regardless of whether the leaf mapping exists (a walk
    /// that faults still performs its reads).
    pub fn walk_addresses(&self, vpn: Vpn) -> [PhysAddr; WALK_LEVELS] {
        let l0 = vpn.index_at_level(0);
        let l1 = vpn.index_at_level(1);
        let l2 = vpn.index_at_level(2);
        let level1 = self
            .tables
            .get(&(1, l0))
            .copied()
            .unwrap_or_else(|| Frame::new(self.root.raw() + 1));
        let level2 = self
            .tables
            .get(&(2, (l0 << 9) | l1))
            .copied()
            .unwrap_or_else(|| Frame::new(self.root.raw() + 2));
        [
            self.root.base().add(l0 * PTE_BYTES),
            level1.base().add(l1 * PTE_BYTES),
            level2.base().add(l2 * PTE_BYTES),
        ]
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.map.len()
    }

    /// Iterates over all mapped pages (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, Frame, PagePermissions)> + '_ {
        self.map.iter().map(|(v, (f, p))| (*v, *f, *p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> (FrameAllocator, AddressSpace) {
        let mut fa = FrameAllocator::new();
        let sp = AddressSpace::new(&mut fa);
        (fa, sp)
    }

    #[test]
    fn alloc_maps_whole_range() {
        let (mut fa, mut sp) = space();
        let va = sp.alloc(&mut fa, 3 * PAGE_SIZE + 1);
        assert_eq!(sp.mapped_pages(), 4);
        for i in 0..4 {
            assert!(sp.translate(va.add(i * PAGE_SIZE)).is_some());
        }
        assert!(sp.translate(va.add(4 * PAGE_SIZE)).is_none());
    }

    #[test]
    fn consecutive_allocs_do_not_overlap() {
        let (mut fa, mut sp) = space();
        let a = sp.alloc(&mut fa, PAGE_SIZE);
        let b = sp.alloc(&mut fa, PAGE_SIZE);
        assert_eq!(b.raw(), a.raw() + PAGE_SIZE);
        assert_ne!(sp.translate(a), sp.translate(b));
    }

    #[test]
    fn translate_preserves_page_offset() {
        let (mut fa, mut sp) = space();
        let va = sp.alloc(&mut fa, PAGE_SIZE);
        let pa = sp.translate(va.add(123)).unwrap();
        assert_eq!(pa.offset_in_page(), 123);
    }

    #[test]
    fn readonly_alloc_denies_writes() {
        let (mut fa, mut sp) = space();
        let va = sp.alloc_readonly(&mut fa, PAGE_SIZE);
        let (_, perms) = sp.lookup(Vpn::of(va)).unwrap();
        assert!(perms.read);
        assert!(!perms.write);
    }

    #[test]
    fn unmap_removes_translation() {
        let (mut fa, mut sp) = space();
        let va = sp.alloc(&mut fa, PAGE_SIZE);
        let vpn = Vpn::of(va);
        assert!(sp.unmap_page(vpn).is_some());
        assert!(sp.translate(va).is_none());
        assert!(sp.unmap_page(vpn).is_none());
    }

    #[test]
    fn walk_addresses_are_three_distinct_levels() {
        let (mut fa, mut sp) = space();
        let va = sp.alloc(&mut fa, PAGE_SIZE);
        let walk = sp.walk_addresses(Vpn::of(va));
        assert_eq!(walk.len(), 3);
        assert_ne!(walk[0].page_number(), walk[1].page_number());
        assert_ne!(walk[1].page_number(), walk[2].page_number());
    }

    #[test]
    fn adjacent_pages_share_leaf_table() {
        let (mut fa, mut sp) = space();
        let va = sp.alloc(&mut fa, 2 * PAGE_SIZE);
        let w0 = sp.walk_addresses(Vpn::of(va));
        let w1 = sp.walk_addresses(Vpn::new(va.page_number() + 1));
        // Same leaf table frame, adjacent PTEs.
        assert_eq!(w0[2].page_number(), w1[2].page_number());
        assert_eq!(w1[2].raw() - w0[2].raw(), PTE_BYTES);
    }

    #[test]
    fn distinct_address_spaces_use_distinct_frames() {
        let mut fa = FrameAllocator::new();
        let mut a = AddressSpace::new(&mut fa);
        let mut b = AddressSpace::new(&mut fa);
        let va_a = a.alloc(&mut fa, PAGE_SIZE);
        let va_b = b.alloc(&mut fa, PAGE_SIZE);
        assert_ne!(a.translate(va_a), b.translate(va_b));
    }

    #[test]
    #[should_panic(expected = "zero bytes")]
    fn zero_alloc_panics() {
        let (mut fa, mut sp) = space();
        sp.alloc(&mut fa, 0);
    }
}
