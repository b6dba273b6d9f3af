//! Direct tests of the engine's peripheral hooks (im2col mvin, raw streams,
//! execute charging) and the widening accumulator mvin — exercised here at
//! the instruction level rather than through the kernel library.

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
        .mvin_im2col(&mut ctx, base, 8, 32, 32, 100, 4, Some((&patches, 16, 16)))
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
        .mvin_im2col(&mut ctx, base, 0, 32, 32, 0, 1, Some((&patches, 8, 8)))
        .unwrap();
    assert_eq!(accel.dma_stats().bytes_in, 0, "no raw bytes moved");
    assert_eq!(&accel.scratchpad().row(0)[..8], &[7i8; 8]);
}

#[test]
fn mvin_im2col_takes_a_strided_patch_view() {
    let mut r = rig();
    let mut accel = Accelerator::new(GemminiConfig::edge());
    let base = r.base;
    let mut ctx = r.ctx();
    // A 3-row view of a matrix with 10-element rows: 4 columns from
    // column 2 of each row go to the scratchpad, the rest zero-filled.
    let matrix: Vec<i8> = (0..30).collect();
    accel
        .mvin_im2col(&mut ctx, base, 0, 32, 32, 5, 3, Some((&matrix[2..], 10, 4)))
        .unwrap();
    for i in 0..3 {
        let at = 10 * i as i8 + 2;
        let mut want = [0i8; 16];
        want[..4].copy_from_slice(&[at, at + 1, at + 2, at + 3]);
        assert_eq!(accel.scratchpad().row(5 + i), &want);
    }
}

#[test]
fn mvout_raw_streams_peripheral_output() {
    let mut r = rig();
    let mut accel = Accelerator::new(GemminiConfig::edge());
    let base = r.base;
    let mut ctx = r.ctx();
    let done = accel.mvout_raw(&mut ctx, base, 2, 8, 8).unwrap();
    assert!(done > 0);
    assert_eq!(accel.now(), done);
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
}

#[test]
fn accumulator_mvin_widens_int8() {
    let mut r = rig();
    let mut accel = Accelerator::new(GemminiConfig::edge());
    let base = r.base;
    r.write(base, &[1u8, 2, 0xff, 0x80]); // 1, 2, -1, -128 as i8
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
                cols: 4,
            },
        )
        .unwrap();
    assert_eq!(&accel.accumulator().row(0)[..4], &[1, 2, -1, -128]);
    // Traffic was 4 bytes (int8), not 16 (int32).
    assert_eq!(accel.dma_stats().bytes_in, 4);
}

#[test]
fn accumulator_mvin_accumulates_in_int32_space() {
    let mut r = rig();
    let mut accel = Accelerator::new(GemminiConfig::edge());
    let base = r.base;
    r.write(base, &[100u8]); // 100
    r.write(base.add(64), &[100u8]); // +100 -> 200, beyond i8 range
    let mut ctx = r.ctx();
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
