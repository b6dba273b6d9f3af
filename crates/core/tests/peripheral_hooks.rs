//! Direct tests of the engine's peripheral hooks (im2col mvin, raw streams,
//! execute charging) and the shrink-mvin accumulator path — exercised here
//! at the instruction level rather than through the kernel library.

use gemmini_core::config::GemminiConfig;
use gemmini_core::isa::{Instruction, LocalAddr};
use gemmini_core::{Accelerator, MemCtx};
use gemmini_mem::addr::{VirtAddr, PAGE_SIZE};
use gemmini_mem::dram::MainMemory;
use gemmini_mem::MemorySystem;
use gemmini_vm::page::FrameAllocator;
use gemmini_vm::page_table::AddressSpace;
use gemmini_vm::translator::{TranslationConfig, TranslationSystem};

struct Rig {
    space: AddressSpace,
    translation: TranslationSystem,
    mem: MemorySystem,
    data: MainMemory,
    base: VirtAddr,
}

fn rig() -> Rig {
    let mut frames = FrameAllocator::new();
    let mut space = AddressSpace::new(&mut frames);
    let base = space.alloc(&mut frames, 64 * PAGE_SIZE);
    Rig {
        space,
        translation: TranslationSystem::new(TranslationConfig::default()),
        mem: MemorySystem::default(),
        data: MainMemory::new(),
        base,
    }
}

impl Rig {
    fn ctx(&mut self) -> MemCtx<'_> {
        MemCtx {
            space: &self.space,
            translation: &mut self.translation,
            mem: &mut self.mem,
            data: Some(&mut self.data),
            port: 0,
        }
    }

    fn write(&mut self, va: VirtAddr, bytes: &[u8]) {
        let pa = self.space.translate(va).unwrap();
        self.data.write(pa, bytes);
    }

    fn read(&self, va: VirtAddr, len: usize) -> Vec<u8> {
        let pa = self.space.translate(va).unwrap();
        let mut buf = vec![0u8; len];
        self.data.read(pa, &mut buf);
        buf
    }
}

#[test]
fn mvin_im2col_deposits_patches_with_raw_traffic() {
    let mut r = rig();
    let mut accel = Accelerator::new(GemminiConfig::edge());
    let base = r.base;
    let mut ctx = r.ctx();
    let patches: Vec<i8> = (0..4).flat_map(|i| [i as i8 + 1; 16]).collect();
    let done = accel
        .mvin_im2col(&mut ctx, base, 8, 32, 32, 100, 4, Some(&patches))
        .unwrap();
    assert!(done > 0);
    // Raw traffic: 8 rows of 32 bytes.
    assert_eq!(accel.dma_stats().bytes_in, 256);
    // Patches deposited to sp rows 100..104.
    assert_eq!(accel.scratchpad().row(100), &[1i8; 16]);
    assert_eq!(accel.scratchpad().row(103), &[4i8; 16]);
}

#[test]
fn mvin_im2col_zero_raw_rows_is_generation_only() {
    let mut r = rig();
    let mut accel = Accelerator::new(GemminiConfig::edge());
    let base = r.base;
    let mut ctx = r.ctx();
    let patches = vec![7i8; 8];
    accel
        .mvin_im2col(&mut ctx, base, 0, 32, 32, 0, 1, Some(&patches))
        .unwrap();
    assert_eq!(accel.dma_stats().bytes_in, 0, "no raw bytes moved");
    assert_eq!(&accel.scratchpad().row(0)[..8], &[7i8; 8]);
}

#[test]
fn mvout_raw_streams_peripheral_output() {
    let mut r = rig();
    let mut accel = Accelerator::new(GemminiConfig::edge());
    let base = r.base;
    let rows: Vec<u8> = [[0xaau8; 8], [0xbbu8; 8]].concat();
    {
        let mut ctx = r.ctx();
        accel
            .mvout_raw(&mut ctx, base, 2, 8, 8, Some(&rows))
            .unwrap();
    }
    assert_eq!(r.read(base, 8), vec![0xaa; 8]);
    assert_eq!(r.read(base.add(8), 8), vec![0xbb; 8]);
    assert_eq!(accel.dma_stats().bytes_out, 16);
}

#[test]
fn charge_execute_after_orders_behind_loads() {
    let mut r = rig();
    let mut accel = Accelerator::new(GemminiConfig::edge());
    let base = r.base;
    let in_done = {
        let mut ctx = r.ctx();
        accel.mvin_raw(&mut ctx, base, 16, 16, 16).unwrap()
    };
    let done = accel.charge_execute_after(in_done, 100);
    assert_eq!(done, in_done + 100);
    assert!(accel.stats().ex_busy >= 100);
}

#[test]
fn shrink_mvin_widens_int8_into_the_accumulator() {
    let mut r = rig();
    let mut accel = Accelerator::new(GemminiConfig::edge());
    let base = r.base;
    r.write(base, &[1u8, 2, 0xff, 0x80]); // 1, 2, -1, -128 as i8
    let mut ctx = r.ctx();
    accel
        .issue(
            &mut ctx,
            Instruction::ConfigLd {
                stride: 0,
                shrink: true,
            },
        )
        .unwrap();
    accel
        .issue(
            &mut ctx,
            Instruction::Mvin {
                dram_addr: base,
                local: LocalAddr::Acc {
                    row: 0,
                    accumulate: false,
                },
                rows: 1,
                cols: 4,
            },
        )
        .unwrap();
    assert_eq!(&accel.accumulator().row(0)[..4], &[1, 2, -1, -128]);
    // Traffic was 4 bytes (int8), not 16 (int32).
    assert_eq!(accel.dma_stats().bytes_in, 4);
}

#[test]
fn shrink_accumulate_adds_in_int32_space() {
    let mut r = rig();
    let mut accel = Accelerator::new(GemminiConfig::edge());
    let base = r.base;
    r.write(base, &[100u8]); // 100
    r.write(base.add(64), &[100u8]); // +100 -> 200, beyond i8 range
    let mut ctx = r.ctx();
    accel
        .issue(
            &mut ctx,
            Instruction::ConfigLd {
                stride: 0,
                shrink: true,
            },
        )
        .unwrap();
    for (addr, accumulate) in [(base, false), (base.add(64), true)] {
        accel
            .issue(
                &mut ctx,
                Instruction::Mvin {
                    dram_addr: addr,
                    local: LocalAddr::Acc { row: 0, accumulate },
                    rows: 1,
                    cols: 1,
                },
            )
            .unwrap();
    }
    assert_eq!(
        accel.accumulator().row(0)[0],
        200,
        "int32 accumulation holds 200"
    );
    // And the mvout saturates it back to int8.
    accel
        .issue(
            &mut ctx,
            Instruction::Mvout {
                dram_addr: base.add(128),
                local: LocalAddr::Acc {
                    row: 0,
                    accumulate: false,
                },
                rows: 1,
                cols: 1,
            },
        )
        .unwrap();
    let _ = ctx;
    assert_eq!(r.read(base.add(128), 1), vec![127u8]);
}

#[test]
fn wide_mvin_to_accumulator_without_shrink_reads_int32() {
    let mut r = rig();
    let mut accel = Accelerator::new(GemminiConfig::edge());
    let base = r.base;
    r.write(base, &1000i32.to_le_bytes());
    let mut ctx = r.ctx();
    accel
        .issue(
            &mut ctx,
            Instruction::Mvin {
                dram_addr: base,
                local: LocalAddr::Acc {
                    row: 0,
                    accumulate: false,
                },
                rows: 1,
                cols: 1,
            },
        )
        .unwrap();
    assert_eq!(accel.accumulator().row(0)[0], 1000);
    assert_eq!(accel.dma_stats().bytes_in, 4);
}
