//! Property-based tests for the virtual-memory substrate.

use gemmini_mem::addr::{VirtAddr, PAGE_SIZE};
use gemmini_mem::MemorySystem;
use gemmini_vm::page::{Frame, FrameAllocator, Vpn};
use gemmini_vm::page_table::AddressSpace;
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
