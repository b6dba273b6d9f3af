//! Per-process address spaces backed by a three-level radix page table.
//!
//! [`AddressSpace`] is an sv39 radix tree: a 512-slot root, mid tables of
//! 512 leaf-table slots and leaf tables of 512 PTEs, each table backed by
//! a real physical frame allocated on first touch. One traversal,
//! [`AddressSpace::walk`], yields both the mapping (functional
//! translation) and the three physical PTE addresses an sv39 walker
//! touches (timing). The page-table walker issues those as genuine memory
//! accesses, so PTE locality (consecutive pages sharing a leaf table
//! line) shows up in the L2 exactly as it does on real hardware.

use crate::page::{Frame, FrameAllocator, Mapping, PagePermissions, Vpn};
use gemmini_mem::addr::{PhysAddr, VirtAddr, PAGE_SIZE};

/// Number of radix levels in the walk (sv39).
pub const WALK_LEVELS: usize = 3;
/// Size of one page-table entry in bytes.
pub const PTE_BYTES: u64 = 8;
/// Entries in one radix table (9 index bits per level).
const TABLE_ENTRIES: usize = 512;
/// VPN bits the three levels index (sv39's 27-bit page number).
const VPN_BITS: u32 = 27;

/// A level-1 table: its frame plus one slot per leaf table.
#[derive(Debug, Clone)]
struct MidTable {
    frame: Frame,
    leaves: Box<[Option<Box<LeafTable>>; TABLE_ENTRIES]>,
}

/// A level-2 (leaf) table: its frame plus one PTE per page.
#[derive(Debug, Clone)]
struct LeafTable {
    frame: Frame,
    ptes: [Option<Mapping>; TABLE_ENTRIES],
}

/// One traversal of the radix tree for a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageWalk {
    /// The physical PTE addresses a walk touches, root first. Present
    /// whether or not the leaf maps the page (a walk that faults still
    /// performs its reads).
    pub ptes: [PhysAddr; WALK_LEVELS],
    /// The leaf mapping, if the page is mapped.
    pub mapping: Option<Mapping>,
}

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
    /// The root table's slots, indexed by the level-0 VPN index.
    mids: Box<[Option<Box<MidTable>>; TABLE_ENTRIES]>,
    mapped: usize,
    next_va: u64,
}

/// Base of the bump-allocated virtual heap (keeps low addresses free, like a
/// real process layout).
const HEAP_BASE: u64 = 0x10_0000;

/// The three 9-bit table indices of `vpn`, root first. Only the low 27
/// bits take part, so a VPN past sv39 aliases a lower page's PTEs.
fn indices(vpn: Vpn) -> [usize; WALK_LEVELS] {
    [0, 1, 2].map(|level| vpn.index_at_level(level) as usize)
}

/// The table indices of a VPN that fits sv39's 27-bit page number, or
/// `None` for one past it: such a page is never mapped.
fn sv39_indices(vpn: Vpn) -> Option<[usize; WALK_LEVELS]> {
    (vpn.raw() >> VPN_BITS == 0).then(|| indices(vpn))
}

fn empty_slots<T>() -> Box<[Option<T>; TABLE_ENTRIES]> {
    Box::new(std::array::from_fn(|_| None))
}

impl AddressSpace {
    /// Creates an empty address space, allocating its root table frame.
    pub fn new(frames: &mut FrameAllocator) -> Self {
        Self {
            root: frames.alloc(),
            mids: empty_slots(),
            mapped: 0,
            next_va: HEAP_BASE,
        }
    }

    /// The root table frame (the "satp" of this address space).
    pub fn root(&self) -> Frame {
        self.root
    }

    /// Maps one page with the given permissions, allocating interior table
    /// frames on demand (the mid table before the leaf table). Remapping
    /// an existing page replaces its entry.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` does not fit sv39's 27-bit page number.
    pub fn map_page(
        &mut self,
        frames: &mut FrameAllocator,
        vpn: Vpn,
        frame: Frame,
        perms: PagePermissions,
    ) {
        let [l0, l1, l2] = sv39_indices(vpn).unwrap_or_else(|| panic!("{vpn} is outside sv39"));
        let mid = self.mids[l0].get_or_insert_with(|| {
            Box::new(MidTable {
                frame: frames.alloc(),
                leaves: empty_slots(),
            })
        });
        let leaf = mid.leaves[l1].get_or_insert_with(|| {
            Box::new(LeafTable {
                frame: frames.alloc(),
                ptes: [None; TABLE_ENTRIES],
            })
        });
        let pte = &mut leaf.ptes[l2];
        self.mapped += usize::from(pte.is_none());
        *pte = Some(Mapping { frame, perms });
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
            if let Some(Some(m)) = self.pte_mut(Vpn::new(va.page_number() + i)) {
                m.perms = PagePermissions::RO;
            }
        }
        va
    }

    /// Unmaps one page (simulating an OS page eviction). Returns the frame it
    /// was mapped to, if any. The page's table frames stay allocated.
    pub fn unmap_page(&mut self, vpn: Vpn) -> Option<Frame> {
        let mapping = self.pte_mut(vpn)?.take()?;
        self.mapped -= 1;
        Some(mapping.frame)
    }

    /// The leaf PTE slot of `vpn`, if its tables exist.
    fn pte_mut(&mut self, vpn: Vpn) -> Option<&mut Option<Mapping>> {
        let [l0, l1, l2] = sv39_indices(vpn)?;
        Some(&mut self.mids[l0].as_mut()?.leaves[l1].as_mut()?.ptes[l2])
    }

    /// Looks up the mapping for a page.
    pub fn lookup(&self, vpn: Vpn) -> Option<(Frame, PagePermissions)> {
        self.walk(vpn).mapping.map(|m| (m.frame, m.perms))
    }

    /// Translates a full virtual address to its physical address (functional
    /// path; no timing).
    pub fn translate(&self, va: VirtAddr) -> Option<PhysAddr> {
        let (frame, _) = self.lookup(Vpn::of(va))?;
        Some(frame.base().add(va.offset_in_page()))
    }

    /// Walks the tree for `vpn` once: the three physical PTE addresses a
    /// walk touches, root first, and the leaf mapping. Where a table is
    /// absent the walk reads the frame after the root (level 1) or the
    /// one after that (level 2), as a faulting hardware walk still reads
    /// some table.
    pub fn walk(&self, vpn: Vpn) -> PageWalk {
        let [l0, l1, l2] = indices(vpn);
        let mid = self.mids[l0].as_deref();
        let leaf = mid.and_then(|m| m.leaves[l1].as_deref());
        let level1 = mid.map_or(Frame::new(self.root.raw() + 1), |m| m.frame);
        let level2 = leaf.map_or(Frame::new(self.root.raw() + 2), |l| l.frame);
        let index_bytes = |i: usize| i as u64 * PTE_BYTES;
        PageWalk {
            ptes: [
                self.root.base().add(index_bytes(l0)),
                level1.base().add(index_bytes(l1)),
                level2.base().add(index_bytes(l2)),
            ],
            mapping: sv39_indices(vpn).and(leaf).and_then(|l| l.ptes[l2]),
        }
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.mapped
    }

    /// Iterates over all mapped pages in VPN order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, Frame, PagePermissions)> + '_ {
        self.mids.iter().enumerate().flat_map(|(l0, mid)| {
            mid.iter().flat_map(move |mid| {
                mid.leaves.iter().enumerate().flat_map(move |(l1, leaf)| {
                    leaf.iter().flat_map(move |leaf| {
                        leaf.ptes.iter().enumerate().filter_map(move |(l2, pte)| {
                            let vpn = (l0 << 18 | l1 << 9 | l2) as u64;
                            pte.map(|m| (Vpn::new(vpn), m.frame, m.perms))
                        })
                    })
                })
            })
        })
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
        let walk = sp.walk(Vpn::of(va)).ptes;
        assert_eq!(walk.len(), 3);
        assert_ne!(walk[0].page_number(), walk[1].page_number());
        assert_ne!(walk[1].page_number(), walk[2].page_number());
    }

    #[test]
    fn adjacent_pages_share_leaf_table() {
        let (mut fa, mut sp) = space();
        let va = sp.alloc(&mut fa, 2 * PAGE_SIZE);
        let w0 = sp.walk(Vpn::of(va)).ptes;
        let w1 = sp.walk(Vpn::new(va.page_number() + 1)).ptes;
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
