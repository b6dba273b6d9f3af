//! Robustness fuzz of the execution engine: arbitrary (often nonsensical)
//! instruction sequences must either execute or return a typed error —
//! never panic, never corrupt the scoreboard (time stays monotone).

use gemmini_core::config::GemminiConfig;
use gemmini_core::isa::{Instruction, LocalAddr};
use gemmini_core::{Accelerator, MemCtx};
use gemmini_dnn::graph::Activation;
use gemmini_mem::addr::{VirtAddr, PAGE_SIZE};
use gemmini_mem::dram::MainMemory;
use gemmini_mem::MemorySystem;
use gemmini_vm::page::FrameAllocator;
use gemmini_vm::page_table::AddressSpace;
use gemmini_vm::translator::{TranslationConfig, TranslationSystem};
use proptest::prelude::*;

fn arb_local() -> impl Strategy<Value = LocalAddr> {
    prop_oneof![
        (0u32..20_000).prop_map(|row| LocalAddr::Sp { row }),
        ((0u32..2_000), any::<bool>())
            .prop_map(|(row, accumulate)| LocalAddr::Acc { row, accumulate }),
        Just(LocalAddr::None),
    ]
}

fn arb_instruction() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        (any::<bool>(), 0.0f32..2.0).prop_map(|(relu, scale)| Instruction::ConfigEx {
            activation: if relu {
                Activation::Relu
            } else {
                Activation::None
            },
            acc_scale: scale,
        }),
        (0u64..512, any::<bool>())
            .prop_map(|(stride, shrink)| Instruction::ConfigLd { stride, shrink }),
        (0u64..512).prop_map(|stride| Instruction::ConfigSt { stride }),
        (0u64..(64 * PAGE_SIZE), arb_local(), 0u16..40, 0u16..20).prop_map(
            |(off, local, rows, cols)| Instruction::Mvin {
                dram_addr: VirtAddr::new(0x10_0000 + off),
                local,
                rows,
                cols,
            }
        ),
        (0u64..(64 * PAGE_SIZE), arb_local(), 0u16..40, 0u16..20).prop_map(
            |(off, local, rows, cols)| Instruction::Mvout {
                dram_addr: VirtAddr::new(0x10_0000 + off),
                local,
                rows,
                cols,
            }
        ),
        (arb_local(), arb_local(), 0u16..20, 0u16..20).prop_map(|(b, c, b_rows, b_cols)| {
            Instruction::Preload {
                b,
                c,
                b_rows,
                b_cols,
            }
        }),
        (arb_local(), arb_local(), 0u16..20, 0u16..20).prop_map(|(a, d, a_rows, a_cols)| {
            Instruction::ComputePreloaded {
                a,
                d,
                a_rows,
                a_cols,
            }
        }),
        Just(Instruction::Flush),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_programs_never_panic(program in proptest::collection::vec(arb_instruction(), 1..60)) {
        let mut frames = FrameAllocator::new();
        let mut space = AddressSpace::new(&mut frames);
        // Map the region the fuzzer's addresses fall in (faults are still
        // possible at the tail of a multi-row transfer).
        let _ = space.alloc(&mut frames, 64 * PAGE_SIZE);
        let mut mem = MemorySystem::default();
        let mut translation = TranslationSystem::new(TranslationConfig::default());
        let mut data = MainMemory::new();
        let mut accel = Accelerator::new(GemminiConfig::edge());

        let mut last_now = 0;
        for instr in program {
            let mut ctx = MemCtx {
                space: &space,
                translation: &mut translation,
                mem: &mut mem,
                data: Some(&mut data),
                port: 0,
            };
            // Either outcome is fine; panics are not.
            let _ = accel.issue(&mut ctx, instr);
            let now = accel.now();
            prop_assert!(now >= last_now, "time must be monotone");
            last_now = now;
        }

    }

}
