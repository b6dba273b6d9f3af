//! Property-based tests for the virtual-memory substrate.

use gemmini_mem::addr::{PhysAddr, VirtAddr, PAGE_SIZE};
use gemmini_mem::hash::IntMap;
use gemmini_mem::MemorySystem;
use gemmini_vm::page::{Frame, FrameAllocator, Mapping, PagePermissions, Vpn};
use gemmini_vm::page_table::{AddressSpace, PTE_BYTES};
use gemmini_vm::tlb::{Tlb, TlbConfig};
use gemmini_vm::translator::{Access, TranslationConfig, TranslationSystem};
use proptest::prelude::*;

proptest! {
    /// A TLB never exceeds its capacity, and a lookup immediately after an
    /// insert always hits (for non-zero capacity).
    #[test]
    fn tlb_capacity_and_freshness(
        entries in 1u32..16,
        ops in proptest::collection::vec((0u64..32, 0u64..1000), 1..100),
    ) {
        let mut tlb = Tlb::new(TlbConfig { entries, hit_latency: 1 });
        for (vpn, frame) in ops {
            tlb.insert(Vpn::new(vpn), Frame::new(frame));
            prop_assert!(tlb.occupancy() <= entries as usize);
            prop_assert_eq!(tlb.probe(Vpn::new(vpn)).map(|m| m.frame), Some(Frame::new(frame)));
        }
    }

    /// With capacity >= working set, a second pass over the same pages
    /// never misses (LRU keeps a fitting working set resident).
    #[test]
    fn tlb_fitting_working_set_hits(pages in 1u64..12) {
        let mut tlb = Tlb::new(TlbConfig { entries: 16, hit_latency: 1 });
        for p in 0..pages {
            tlb.insert(Vpn::new(p), Frame::new(p + 100));
        }
        for p in 0..pages {
            prop_assert_eq!(tlb.lookup(Vpn::new(p)).map(|m| m.frame), Some(Frame::new(p + 100)));
        }
        prop_assert_eq!(tlb.stats().misses(), 0);
    }

    /// Functional translation agrees between the fast path and the full
    /// translation system, for any access pattern over mapped memory.
    #[test]
    fn translation_system_agrees_with_page_table(
        offsets in proptest::collection::vec((0u64..(16 * PAGE_SIZE), any::<bool>()), 1..60),
    ) {
        let mut frames = FrameAllocator::new();
        let mut space = AddressSpace::new(&mut frames);
        let base = space.alloc(&mut frames, 16 * PAGE_SIZE);
        let mut mem = MemorySystem::default();
        let mut tsys = TranslationSystem::new(TranslationConfig {
            filter_registers: true,
            ..TranslationConfig::default()
        });
        let mut now = 0;
        for (off, is_write) in offsets {
            let va = base.add(off);
            let access = if is_write { Access::Write } else { Access::Read };
            let out = tsys.translate(&space, &mut mem, now, va, access).unwrap();
            prop_assert_eq!(Some(out.paddr), space.translate(va));
            now += out.latency + 1;
        }
        // Conservation: every request is accounted for exactly once.
        prop_assert_eq!(
            tsys.requests(),
            tsys.filter_hits()
                + tsys.private_tlb().stats().hits()
                + tsys.private_tlb().stats().misses()
        );
    }

    /// Page offsets survive translation for any address.
    #[test]
    fn translation_preserves_offsets(page in 0u64..16, off in 0u64..PAGE_SIZE) {
        let mut frames = FrameAllocator::new();
        let mut space = AddressSpace::new(&mut frames);
        let base = space.alloc(&mut frames, 16 * PAGE_SIZE);
        let va = base.add(page * PAGE_SIZE + off);
        let pa = space.translate(va).unwrap();
        prop_assert_eq!(pa.offset_in_page(), va.offset_in_page());
    }

    /// Distinct mapped pages translate to distinct frames.
    #[test]
    fn mapping_is_injective(pages in 2u64..32) {
        let mut frames = FrameAllocator::new();
        let mut space = AddressSpace::new(&mut frames);
        let base = space.alloc(&mut frames, pages * PAGE_SIZE);
        let mut seen = std::collections::HashSet::new();
        for p in 0..pages {
            let pa = space.translate(VirtAddr::new(base.raw() + p * PAGE_SIZE)).unwrap();
            prop_assert!(seen.insert(pa.page_number()), "duplicate frame");
        }
    }

    /// Flushing the translation system never changes *what* addresses map
    /// to, only how long translation takes.
    #[test]
    fn flush_is_semantically_invisible(offs in proptest::collection::vec(0u64..(8 * PAGE_SIZE), 1..20)) {
        let mut frames = FrameAllocator::new();
        let mut space = AddressSpace::new(&mut frames);
        let base = space.alloc(&mut frames, 8 * PAGE_SIZE);
        let mut mem = MemorySystem::default();
        let mut tsys = TranslationSystem::new(TranslationConfig::default());
        for off in offs {
            let va = base.add(off);
            let before = tsys.translate(&space, &mut mem, 0, va, Access::Read).unwrap().paddr;
            tsys.flush();
            let after = tsys.translate(&space, &mut mem, 0, va, Access::Read).unwrap().paddr;
            prop_assert_eq!(before, after);
        }
    }
}

/// The hashed page table the radix tree replaced, kept as the oracle for
/// `radix_table_matches_the_hashed_reference`: an `IntMap` of pages plus
/// an `IntMap` of interior frames keyed by level and index prefix.
struct HashedSpace {
    root: Frame,
    map: IntMap<Vpn, (Frame, PagePermissions)>,
    tables: IntMap<(u32, u64), Frame>,
    next_va: u64,
}

impl HashedSpace {
    fn new(frames: &mut FrameAllocator) -> Self {
        Self {
            root: frames.alloc(),
            map: IntMap::default(),
            tables: IntMap::default(),
            next_va: 0x10_0000,
        }
    }

    fn map_page(
        &mut self,
        frames: &mut FrameAllocator,
        vpn: Vpn,
        frame: Frame,
        perms: PagePermissions,
    ) {
        let l0 = vpn.index_at_level(0);
        let l1 = vpn.index_at_level(1);
        self.tables.entry((1, l0)).or_insert_with(|| frames.alloc());
        self.tables
            .entry((2, (l0 << 9) | l1))
            .or_insert_with(|| frames.alloc());
        self.map.insert(vpn, (frame, perms));
    }

    fn alloc(&mut self, frames: &mut FrameAllocator, len: u64) -> VirtAddr {
        let start = VirtAddr::new(self.next_va);
        let pages = len.div_ceil(PAGE_SIZE);
        for i in 0..pages {
            let frame = frames.alloc();
            self.map_page(
                frames,
                Vpn::new(start.page_number() + i),
                frame,
                PagePermissions::RW,
            );
        }
        self.next_va += pages * PAGE_SIZE;
        start
    }

    fn alloc_readonly(&mut self, frames: &mut FrameAllocator, len: u64) -> VirtAddr {
        let va = self.alloc(frames, len);
        for i in 0..len.div_ceil(PAGE_SIZE) {
            if let Some(entry) = self.map.get_mut(&Vpn::new(va.page_number() + i)) {
                entry.1 = PagePermissions::RO;
            }
        }
        va
    }

    fn walk_addresses(&self, vpn: Vpn) -> [PhysAddr; 3] {
        let l0 = vpn.index_at_level(0);
        let l1 = vpn.index_at_level(1);
        let level1 = self
            .tables
            .get(&(1, l0))
            .copied()
            .unwrap_or(Frame::new(self.root.raw() + 1));
        let level2 = self
            .tables
            .get(&(2, (l0 << 9) | l1))
            .copied()
            .unwrap_or(Frame::new(self.root.raw() + 2));
        [
            self.root.base().add(l0 * PTE_BYTES),
            level1.base().add(l1 * PTE_BYTES),
            level2.base().add(vpn.index_at_level(2) * PTE_BYTES),
        ]
    }
}

/// A page number from a selector: the heap, a few root and mid slots at
/// both ends of their tables (most subtrees stay absent), or one of those
/// with a bit past sv39's 27 set (lookups only), whose indices alias a
/// mapped page.
fn vpn_from(sel: u64) -> Vpn {
    let l0 = [0, 1, 7, 511][(sel & 3) as usize];
    let l1 = [0, 1, 3, 511][(sel >> 2 & 3) as usize];
    let low = (sel >> 6) % 512;
    Vpn::new(match sel >> 4 & 3 {
        0 => 0x100 + (sel >> 6) % 1500,
        3 => 1 << (27 + sel % 8) | l0 << 18 | l1 << 9 | low,
        _ => l0 << 18 | l1 << 9 | low,
    })
}

/// Every observable of the radix tree against the hashed reference.
fn check_radix_against_hashed(ops: &[(u8, u64, u64)]) {
    let mut frames = FrameAllocator::new();
    let mut ref_frames = FrameAllocator::new();
    let mut space = AddressSpace::new(&mut frames);
    let mut reference = HashedSpace::new(&mut ref_frames);
    assert_eq!(space.root(), reference.root);
    let mut probes: Vec<Vpn> = Vec::new();
    for &(op, a, b) in ops {
        let vpn = vpn_from(b);
        match op {
            0 | 1 => {
                // Mostly a few pages; sometimes enough to cross a leaf table.
                let len = 1 + if a % 8 == 0 {
                    a % (700 * PAGE_SIZE)
                } else {
                    a % (4 * PAGE_SIZE)
                };
                let (va, ref_va) = if op == 0 {
                    (
                        space.alloc(&mut frames, len),
                        reference.alloc(&mut ref_frames, len),
                    )
                } else {
                    (
                        space.alloc_readonly(&mut frames, len),
                        reference.alloc_readonly(&mut ref_frames, len),
                    )
                };
                assert_eq!(va, ref_va);
                probes.push(Vpn::of(va));
                probes.push(Vpn::new(va.page_number() + len.div_ceil(PAGE_SIZE)));
            }
            2 if vpn.raw() >> 27 == 0 => {
                let frame = frames.alloc();
                assert_eq!(frame, ref_frames.alloc());
                let perms = if a % 2 == 0 {
                    PagePermissions::RW
                } else {
                    PagePermissions::RO
                };
                space.map_page(&mut frames, vpn, frame, perms);
                reference.map_page(&mut ref_frames, vpn, frame, perms);
            }
            3 => {
                // Unmap a probed page half the time, so unmaps often hit.
                let vpn = match probes.get(a as usize % (2 * probes.len() + 1)) {
                    Some(&p) => p,
                    None => vpn,
                };
                assert_eq!(
                    space.unmap_page(vpn),
                    reference.map.remove(&vpn).map(|(f, _)| f)
                );
            }
            _ => {}
        }
        probes.push(vpn);
        assert_eq!(frames.allocated(), ref_frames.allocated());
        assert_eq!(frames.clone().alloc(), ref_frames.clone().alloc());
        assert_eq!(space.mapped_pages(), reference.map.len());
        for &p in probes.iter().rev().take(8) {
            let want = reference.map.get(&p).copied();
            assert_eq!(space.lookup(p), want, "lookup {p}");
            let va = VirtAddr::new(p.base().raw() + a % PAGE_SIZE);
            assert_eq!(
                space.translate(va),
                want.map(|(f, _)| f.base().add(va.offset_in_page()))
            );
            let walk = space.walk(p);
            assert_eq!(walk.ptes, reference.walk_addresses(p), "walk {p}");
            assert_eq!(walk.mapping, want.map(Mapping::from));
        }
    }
    let mut got: Vec<_> = space.iter().collect();
    let mut want: Vec<_> = reference
        .map
        .iter()
        .map(|(v, (f, p))| (*v, *f, *p))
        .collect();
    got.sort_by_key(|&(v, _, _)| v);
    want.sort_by_key(|&(v, _, _)| v);
    assert_eq!(got, want);
}

proptest! {
    /// The radix page table equals the hashed design it replaced under
    /// random allocations, remaps, unmaps and lookups, including unmapped
    /// pages in absent subtrees (whose walks read the fallback frames):
    /// lookups, translations, walk addresses, page counts, the iterated
    /// set and the frame-allocation sequence.
    #[test]
    fn radix_table_matches_the_hashed_reference(
        ops in proptest::collection::vec((0u8..6, any::<u64>(), any::<u64>()), 0..40),
    ) {
        check_radix_against_hashed(&ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The same property over many more cases; run in release with
    /// `--include-ignored`.
    #[test]
    #[ignore = "slow: run with --release -- --include-ignored"]
    fn radix_table_matches_the_hashed_reference_many(
        ops in proptest::collection::vec((0u8..6, any::<u64>(), any::<u64>()), 0..40),
    ) {
        check_radix_against_hashed(&ops);
    }
}
