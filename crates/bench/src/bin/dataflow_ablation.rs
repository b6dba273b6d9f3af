//! Dataflow ablation (a design choice the paper's template makes
//! runtime-selectable): weight-stationary vs output-stationary cycle counts
//! on single-tile-column GEMMs, programmed directly at the instruction
//! level.
//!
//! The trade: WS reuses the stationary B across tall A stripes but pays an
//! accumulator read-modify-write (and its pipeline drain) per K-slice; OS
//! keeps the output resident in the PEs across the whole K reduction but
//! must stream B every compute.
//!
//! Takes the sweep flags and `--trace` ([`gemmini_bench::SweepCli`]);
//! the trace re-runs one representative shape per dataflow (WS on pid
//! lane 0, OS on lane 1) into one Chrome `trace_event` file.

use gemmini_bench::{section, SweepCli, SWEEP_FLAGS};
use gemmini_soc::checkpoint::debug_fingerprint;

use gemmini_core::config::{Dataflow, GemminiConfig};
use gemmini_core::isa::{Instruction, LocalAddr};
use gemmini_core::trace::{export_chrome_trace, Tracer};
use gemmini_core::{Accelerator, MemCtx};
use gemmini_dnn::graph::Activation;
use gemmini_mem::addr::PAGE_SIZE;
use gemmini_mem::MemorySystem;
use gemmini_vm::page::FrameAllocator;
use gemmini_vm::page_table::AddressSpace;
use gemmini_vm::translator::{TranslationConfig, TranslationSystem};

/// Runs a (dim·mb) × (dim·kb) × dim GEMM column with the given dataflow,
/// timing-only; returns total cycles. `tracer` feeds the `--trace`
/// export and is the disabled (free) handle on sweep runs.
fn run(dataflow: Dataflow, mb: usize, kb: usize, tracer: Tracer) -> u64 {
    let cfg = GemminiConfig::edge();
    let dim = cfg.dim() as u16;
    let mut frames = FrameAllocator::new();
    let mut space = AddressSpace::new(&mut frames);
    let base = space.alloc(&mut frames, 4096 * PAGE_SIZE);
    let mut mem = MemorySystem::default();
    let mut translation = TranslationSystem::new(TranslationConfig::default());
    let mut accel = Accelerator::new(cfg);
    accel.set_tracer(tracer);
    let mut ctx = MemCtx {
        space: &space,
        translation: &mut translation,
        mem: &mut mem,
        data: None,
        port: 0,
    };

    let sp = |row: u32| LocalAddr::Sp { row };
    accel
        .issue(
            &mut ctx,
            Instruction::ConfigEx {
                dataflow,
                activation: Activation::None,
                acc_scale: 1.0,
            },
        )
        .expect("config");

    // Load A stripes (mb blocks) and B column (kb blocks).
    let a_base = 0u32;
    let b_base = (mb * kb) as u32 * dim as u32;
    for blk in 0..(mb * kb + kb) as u32 {
        accel
            .issue(
                &mut ctx,
                Instruction::Mvin {
                    dram_addr: base.add(blk as u64 * dim as u64 * dim as u64),
                    local: sp(blk * dim as u32),
                    rows: dim,
                    cols: dim,
                },
            )
            .expect("mvin");
    }

    match dataflow {
        Dataflow::OutputStationary => {
            // One armed output block per A stripe; stream all K slices.
            for ib in 0..mb as u32 {
                accel
                    .issue(
                        &mut ctx,
                        Instruction::Preload {
                            b: LocalAddr::None,
                            c: LocalAddr::Acc {
                                row: ib * dim as u32,
                                accumulate: false,
                            },
                            b_rows: 0,
                            b_cols: dim,
                        },
                    )
                    .expect("arm");
                for kbi in 0..kb as u32 {
                    accel
                        .issue(
                            &mut ctx,
                            Instruction::ComputePreloaded {
                                a: sp(a_base + (ib * kb as u32 + kbi) * dim as u32),
                                d: sp(b_base + kbi * dim as u32),
                                a_rows: dim,
                                a_cols: dim,
                            },
                        )
                        .expect("compute");
                }
            }
            accel.issue(&mut ctx, Instruction::Flush).expect("flush");
        }
        _ => {
            // Weight-stationary: per K slice, preload B once and stream all
            // A stripes against it, accumulating in the accumulator.
            for kbi in 0..kb as u32 {
                for ib in 0..mb as u32 {
                    let b_operand = if ib == 0 {
                        sp(b_base + kbi * dim as u32)
                    } else {
                        LocalAddr::None
                    };
                    accel
                        .issue(
                            &mut ctx,
                            Instruction::Preload {
                                b: b_operand,
                                c: LocalAddr::Acc {
                                    row: ib * dim as u32,
                                    accumulate: kbi > 0,
                                },
                                b_rows: if ib == 0 { dim } else { 0 },
                                b_cols: dim,
                            },
                        )
                        .expect("preload");
                    accel
                        .issue(
                            &mut ctx,
                            Instruction::ComputePreloaded {
                                a: sp(a_base + (ib * kb as u32 + kbi) * dim as u32),
                                d: LocalAddr::None,
                                a_rows: dim,
                                a_cols: dim,
                            },
                        )
                        .expect("compute");
                }
            }
        }
    }
    accel.stats().finish
}

fn main() {
    let cli = SweepCli::parse(&[&["--trace <path>"], SWEEP_FLAGS].concat());
    section("Dataflow ablation: WS vs OS, 16-wide GEMM columns (cycles)");
    println!(
        "{:>6} {:>6} {:>12} {:>12} {:>10}",
        "m blks", "k blks", "WS cycles", "OS cycles", "OS/WS"
    );
    let shapes = [(1usize, 16usize), (2, 8), (4, 4), (8, 2), (16, 1), (16, 16)];
    // One sweep task per (shape, dataflow), WS/OS adjacent per shape.
    // Each task carries its own fingerprint so `--json`/`--resume`
    // checkpointing can tell the points apart across restarts.
    let tasks = shapes
        .iter()
        .flat_map(|&(mb, kb)| {
            [Dataflow::WeightStationary, Dataflow::OutputStationary]
                .into_iter()
                .map(move |df| {
                    (
                        format!("{df:?} m={mb} k={kb}"),
                        debug_fingerprint(&(df, mb, kb)),
                        (df, mb, kb),
                    )
                })
        })
        .collect();
    let results = cli.sweep_map(tasks, |(df, mb, kb)| {
        Ok(run(df, mb, kb, Tracer::disabled()))
    });
    for (&(mb, kb), pair) in shapes.iter().zip(results.chunks(2)) {
        let ws = *pair[0].expect_ok();
        let os = *pair[1].expect_ok();
        println!(
            "{:>6} {:>6} {:>12} {:>12} {:>10.3}",
            mb,
            kb,
            ws,
            os,
            os as f64 / ws as f64
        );
    }
    println!();
    println!("Deep-K shapes favor OS (one accumulator trip per output block);");
    println!("tall-M shapes favor WS (the stationary operand amortizes).");

    // --trace: both dataflows on the balanced 4×4 shape into one file,
    // each in its own pid lane so Perfetto shows them side by side.
    if let Some(path) = &cli.trace {
        let (tracer, sink) = Tracer::buffered();
        run(Dataflow::WeightStationary, 4, 4, tracer.with_pid(0));
        run(Dataflow::OutputStationary, 4, 4, tracer.with_pid(1));
        let events = sink.lock().expect("trace sink lock").take();
        export_chrome_trace(path, &events)
            .unwrap_or_else(|e| panic!("cannot write trace {}: {e}", path.display()));
        eprintln!(
            "trace: wrote {} events for 'WS/OS m=4 k=4' to {}",
            events.len(),
            path.display()
        );
    }
}
