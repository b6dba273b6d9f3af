//! Heap-allocation regression guard for the steady-state tile step.
//!
//! The hot path of the functional core stages every tile through retained
//! scratch arenas: the engine's DMA/bias/store buffers, the mesh's
//! preloaded-operand matrix, and the attribution log's compaction scratch. This
//! test pins that discipline with a counting global allocator: after a
//! warm-up pass has sized every arena, faulted in the TLB and page tables,
//! touched every main-memory page, and compacted the attribution log, an
//! identical pass over the same tiles must perform ZERO heap allocations.
//!
//! If this test fails after a change to the engine, mesh, DMA, or memory
//! model, a per-tile allocation crept back into the steady state — fix it
//! by staging through a retained buffer rather than loosening the bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gemmini_core::config::GemminiConfig;
use gemmini_core::isa::{Instruction, LocalAddr};
use gemmini_core::metrics::{Counter, Metrics};
use gemmini_core::{Accelerator, MemCtx, TileColumn};
use gemmini_dnn::graph::Activation;
use gemmini_mem::addr::{VirtAddr, PAGE_SIZE};
use gemmini_mem::dram::MainMemory;
use gemmini_mem::MemorySystem;
use gemmini_vm::page::FrameAllocator;
use gemmini_vm::page_table::AddressSpace;
use gemmini_vm::translator::{TranslationConfig, TranslationSystem};

/// Counts every heap allocation (alloc, alloc_zeroed, realloc) made through
/// the global allocator, per thread: the test harness runs the tests below
/// in parallel, and each must see only its own thread's allocations.
/// Deallocations are free and not counted.
struct CountingAlloc;

thread_local! {
    // A const-initialized `Cell<u64>` has no destructor and needs no lazy
    // setup, so touching it from inside the allocator cannot recurse.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Heap allocations made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

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
    // One giant stats window: the miss-rate time series never grows a new
    // point during the measured pass regardless of how far cycle time has
    // advanced.
    let cfg = TranslationConfig {
        stats_window: 1 << 60,
        ..TranslationConfig::default()
    };
    Rig {
        space,
        translation: TranslationSystem::new(cfg),
        mem: MemorySystem::default(),
        data: MainMemory::new(),
        base,
    }
}

impl Rig {
    fn ctx(&mut self) -> MemCtx<'_> {
        self.ctx_in(true)
    }

    /// The memory context in functional or timing-only mode.
    fn ctx_in(&mut self, functional: bool) -> MemCtx<'_> {
        MemCtx {
            space: &self.space,
            translation: &mut self.translation,
            mem: &mut self.mem,
            data: functional.then_some(&mut self.data),
            port: 0,
        }
    }

    fn fill(&mut self, va: VirtAddr, bytes: &[u8]) {
        let pa = self.space.translate(va).unwrap();
        self.data.write(pa, bytes);
    }
}

fn sp(row: u32) -> LocalAddr {
    LocalAddr::Sp { row }
}

fn acc(row: u32, accumulate: bool) -> LocalAddr {
    LocalAddr::Acc { row, accumulate }
}

/// One full multi-tile pass: a 2×2 grid of weight-stationary tiles with an
/// accumulator bias, each tile doing mvin → preload → compute → mvout.
/// Identical across invocations.
fn tile_pass(accel: &mut Accelerator, r: &mut Rig, dim: usize) {
    let d16 = dim as u16;
    let row_i8 = dim as u64; // bytes per int8 tile row in DRAM
    let row_i32 = 4 * dim as u64;
    let tile_i8 = row_i8 * dim as u64;
    let tile_i32 = row_i32 * dim as u64;
    let va_a = r.base;
    let va_b = r.base.add(4 * tile_i8);
    let va_d = r.base.add(8 * tile_i8);
    let va_c = r.base.add(8 * tile_i8 + 4 * tile_i32);
    let mut ctx = r.ctx();
    let mut go = |i: Instruction| {
        accel.issue(&mut ctx, i).expect("steady-state issue failed");
    };
    go(Instruction::ConfigEx {
        activation: Activation::None,
        acc_scale: 1.0,
    });
    go(Instruction::ConfigLd {
        stride: row_i8,
        shrink: false,
    });
    go(Instruction::ConfigSt { stride: row_i8 });
    // 2×2 grid of WS tiles: C[t] = A[t]·B[t] + D[t].
    for t in 0..4u64 {
        go(Instruction::Mvin {
            dram_addr: va_a.add(t * tile_i8),
            local: sp(0),
            rows: d16,
            cols: d16,
        });
        go(Instruction::Mvin {
            dram_addr: va_b.add(t * tile_i8),
            local: sp(dim as u32),
            rows: d16,
            cols: d16,
        });
        go(Instruction::ConfigLd {
            stride: row_i32,
            shrink: false,
        });
        go(Instruction::Mvin {
            dram_addr: va_d.add(t * tile_i32),
            local: acc(0, false),
            rows: d16,
            cols: d16,
        });
        go(Instruction::ConfigLd {
            stride: row_i8,
            shrink: false,
        });
        go(Instruction::Preload {
            b: sp(dim as u32),
            c: acc(0, true),
            b_rows: d16,
            b_cols: d16,
        });
        go(Instruction::ComputePreloaded {
            a: sp(0),
            d: LocalAddr::None,
            a_rows: d16,
            a_cols: d16,
        });
        go(Instruction::Mvout {
            dram_addr: va_c.add(t * tile_i8),
            local: acc(0, false),
            rows: d16,
            cols: d16,
        });
    }
}

#[test]
fn steady_state_tile_step_does_not_allocate() {
    let mut r = rig();
    let cfg = GemminiConfig::edge();
    let dim = cfg.dim();
    let mut accel = Accelerator::new(cfg);

    // Seed the operand regions so functional reads see real data.
    let payload: Vec<u8> = (0..9 * dim * dim).map(|i| (i % 251) as u8).collect();
    r.fill(r.base, &payload);
    let bias: Vec<u8> = (0..4 * dim * dim)
        .flat_map(|i| ((i as i32 % 97) - 48).to_le_bytes())
        .collect();
    r.fill(r.base.add(8 * (dim * dim) as u64), &bias);

    // Warm-up: two passes size every arena, fault in translation state,
    // and allocate the mvout destination pages (sparse DRAM allocates on
    // first write). Compacting the attribution log afterwards drains its
    // span buffer in place and sizes the fold scratch.
    tile_pass(&mut accel, &mut r, dim);
    tile_pass(&mut accel, &mut r, dim);
    accel.compact_attribution();

    // The counter must be live, or the zero-delta assertion below would
    // pass vacuously.
    assert!(allocations() > 0, "counting allocator not installed");

    let before = allocations();
    tile_pass(&mut accel, &mut r, dim);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state tile pass performed {} heap allocations",
        after - before
    );

    // The pass above really did work: tighten against silent no-ops.
    assert!(accel.dma_stats().bytes_in > 0);
    assert!(accel.dma_stats().bytes_out > 0);
}

/// The same zero-allocation bound with a live metrics registry attached
/// to the engine, translation system, and memory hierarchy: counters and
/// histograms are fixed atomic arrays, so observation must stay free of
/// heap traffic too. A regression here means a metrics call started
/// allocating on the hot path.
#[test]
fn steady_state_with_live_metrics_does_not_allocate() {
    let mut r = rig();
    let cfg = GemminiConfig::edge();
    let dim = cfg.dim();
    let mut accel = Accelerator::new(cfg);
    let (metrics, registry) = Metrics::enabled();
    accel.set_metrics(metrics.clone());
    r.translation.set_metrics(metrics.clone());
    r.mem.set_metrics(metrics);

    let payload: Vec<u8> = (0..9 * dim * dim).map(|i| (i % 251) as u8).collect();
    r.fill(r.base, &payload);
    let bias: Vec<u8> = (0..4 * dim * dim)
        .flat_map(|i| ((i as i32 % 97) - 48).to_le_bytes())
        .collect();
    r.fill(r.base.add(8 * (dim * dim) as u64), &bias);

    tile_pass(&mut accel, &mut r, dim);
    tile_pass(&mut accel, &mut r, dim);
    accel.compact_attribution();

    let before = allocations();
    tile_pass(&mut accel, &mut r, dim);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "metered steady-state tile pass performed {} heap allocations",
        after - before
    );

    // The registry really observed the pass (no vacuous zero-delta).
    let snapshot = registry.snapshot();
    assert!(snapshot.counter(Counter::TilesIssued) > 0);
    assert!(snapshot.counter(Counter::DmaBursts) > 0);
    assert!(snapshot.counter(Counter::DmaBytes) > 0);
}

/// One pass of two weight-stationary tile columns over a ragged
/// `2·dim + 5`-row stripe (overwrite, then accumulate), between the mvins
/// of their operands and the mvout of the result. Identical across
/// invocations.
fn column_pass(accel: &mut Accelerator, r: &mut Rig, dim: usize, functional: bool) {
    let m_rows = 2 * dim + 5;
    let row_i8 = dim as u64;
    let (va_a, va_b, va_c) = (r.base, r.base.add(4 * PAGE_SIZE), r.base.add(8 * PAGE_SIZE));
    let mut ctx = r.ctx_in(functional);
    let mut go = |i: Instruction| {
        accel.issue(&mut ctx, i).expect("steady-state issue failed");
    };
    go(Instruction::ConfigEx {
        activation: Activation::None,
        acc_scale: 1.0,
    });
    go(Instruction::ConfigLd {
        stride: row_i8,
        shrink: false,
    });
    go(Instruction::ConfigSt { stride: row_i8 });
    go(Instruction::Mvin {
        dram_addr: va_a,
        local: sp(0),
        rows: m_rows as u16,
        cols: dim as u16,
    });
    go(Instruction::Mvin {
        dram_addr: va_b,
        local: sp(4 * dim as u32),
        rows: dim as u16,
        cols: dim as u16,
    });
    for accumulate in [false, true] {
        let col = TileColumn {
            b_row: 4 * dim as u32,
            b_rows: dim as u16,
            b_cols: dim as u16,
            a_row: 0,
            a_cols: dim as u16,
            c_row: 0,
            m_rows: m_rows as u16,
            accumulate,
        };
        accel
            .issue_tile_column(&mut ctx, &col)
            .expect("steady-state column failed");
    }
    accel
        .issue(
            &mut ctx,
            Instruction::Mvout {
                dram_addr: va_c,
                local: acc(0, false),
                rows: m_rows as u16,
                cols: dim as u16,
            },
        )
        .expect("steady-state issue failed");
}

/// Tile columns keep the discipline in both modes: after warm-up, a pass
/// of columns performs zero heap allocations, functional or timing-only.
#[test]
fn steady_state_tile_columns_do_not_allocate() {
    for functional in [true, false] {
        let mut r = rig();
        let cfg = GemminiConfig::edge();
        let dim = cfg.dim();
        let mut accel = Accelerator::new(cfg);
        let payload: Vec<u8> = (0..4 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        r.fill(r.base, &payload[..PAGE_SIZE as usize]);
        r.fill(r.base.add(4 * PAGE_SIZE), &payload[..PAGE_SIZE as usize]);

        column_pass(&mut accel, &mut r, dim, functional);
        column_pass(&mut accel, &mut r, dim, functional);
        accel.compact_attribution();

        let computes = accel.stats().computes;
        let before = allocations();
        column_pass(&mut accel, &mut r, dim, functional);
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "steady-state column pass (functional: {functional}) performed {} heap allocations",
            after - before
        );
        // Two columns of three computes each really ran.
        assert_eq!(accel.stats().computes - computes, 6);
    }
}
