//! Robustness fuzz of the execution engine: arbitrary (often nonsensical)
//! instruction sequences must either execute or return a typed error —
//! never panic, never corrupt the scoreboard (time stays monotone). Each
//! program also runs on a timing-only engine, which must return the same
//! result and reach the same `now()` after every instruction: timing does
//! not depend on whether bytes move.
//!
//! The 2048-case variant is ignored by default; run it with
//! `cargo test --release -p gemmini-core --test engine_fuzz -- --include-ignored`.

use gemmini_core::config::GemminiConfig;
use gemmini_core::isa::{Instruction, LocalAddr};
use gemmini_core::{AccelError, Accelerator, MemCtx};
use gemmini_dnn::graph::Activation;
use gemmini_mem::addr::{VirtAddr, PAGE_SIZE};
use gemmini_mem::dram::MainMemory;
use gemmini_mem::{Cycle, MemorySystem};
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
        (0u64..512).prop_map(|stride| Instruction::ConfigLd { stride }),
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
        (arb_local(), 0u16..20, 0u16..20)
            .prop_map(|(a, a_rows, a_cols)| Instruction::ComputePreloaded { a, a_rows, a_cols }),
        Just(Instruction::Flush),
    ]
}

/// One engine and the memory it runs against, functional (with main
/// memory contents) or timing-only.
struct System {
    space: AddressSpace,
    translation: TranslationSystem,
    mem: MemorySystem,
    data: Option<MainMemory>,
    accel: Accelerator,
}

impl System {
    fn new(functional: bool) -> Self {
        let mut frames = FrameAllocator::new();
        let mut space = AddressSpace::new(&mut frames);
        // Map the region the fuzzer's addresses fall in (faults are still
        // possible at the tail of a multi-row transfer).
        let _ = space.alloc(&mut frames, 64 * PAGE_SIZE);
        let config = GemminiConfig::edge();
        Self {
            space,
            translation: TranslationSystem::new(TranslationConfig::default()),
            mem: MemorySystem::default(),
            data: functional.then(MainMemory::new),
            accel: if functional {
                Accelerator::new(config)
            } else {
                Accelerator::timing_only(config)
            },
        }
    }

    fn issue(&mut self, instr: Instruction) -> Result<Cycle, AccelError> {
        let mut ctx = MemCtx {
            space: &self.space,
            translation: &mut self.translation,
            mem: &mut self.mem,
            data: self.data.as_mut(),
            port: 0,
        };
        self.accel.issue(&mut ctx, instr)
    }
}

/// Runs `program` on a functional and a timing-only engine side by side.
fn check(program: &[Instruction]) {
    let mut functional = System::new(true);
    let mut timing = System::new(false);
    let mut last_now = 0;
    for (k, &instr) in program.iter().enumerate() {
        // Either outcome is fine; panics are not.
        let result = functional.issue(instr);
        assert_eq!(
            result,
            timing.issue(instr),
            "instruction {k} ({instr:?}): functional vs timing-only result"
        );
        let now = functional.accel.now();
        assert!(now >= last_now, "time must be monotone");
        assert_eq!(
            now,
            timing.accel.now(),
            "instruction {k} ({instr:?}): functional vs timing-only now()"
        );
        last_now = now;
    }
}

/// Programs that once failed, kept as plain cases: the vendored proptest
/// reads no regression file.
#[test]
fn pinned_counterexamples() {
    // An mvin wider than the array (17 > 16 columns) once failed here.
    check(&[Instruction::Mvin {
        dram_addr: VirtAddr::new(0x10_0000),
        local: LocalAddr::Sp { row: 0 },
        rows: 1,
        cols: 17,
    }]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_programs_never_panic(program in proptest::collection::vec(arb_instruction(), 1..60)) {
        check(&program);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The same property over many more programs; run in release with
    /// `--include-ignored`.
    #[test]
    #[ignore = "slow: run with --release -- --include-ignored"]
    fn random_programs_never_panic_many(program in proptest::collection::vec(arb_instruction(), 1..60)) {
        check(&program);
    }
}
