//! Layer-granular heap-allocation guard for the kernel/runtime stack —
//! the outward extension of `crates/core/tests/alloc_guard.rs`, which
//! pins the steady-state *tile* step at zero allocations.
//!
//! The runtime level cannot be zero-alloc: starting a layer legitimately
//! builds its tiling plan, stages NHWC/im2col patches, and materializes
//! functional tensors. What it must not do is allocate *more over time*:
//! every allocation should be a bounded, layer-scoped setup cost, not
//! something proportional to tile count or cycle count. This test drives
//! one network through `NetworkExecution::step` with a counting global
//! allocator, attributes every allocation to the layer that retired it,
//! and pins the per-layer counts two ways:
//!
//! * determinism — a second, identical execution on a fresh SoC must
//!   allocate exactly the same number of times per layer;
//! * ceilings — each layer's count must stay under a pinned bound taken
//!   from the current implementation. If a kernel change trips a bound,
//!   either stage through a retained buffer or consciously raise the pin
//!   in this file (and say why in the commit).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gemmini_core::MemCtx;
use gemmini_dnn::graph::{Activation, Layer, Network, PoolKind};
use gemmini_soc::kernel::{KernelEnv, StepOutcome};
use gemmini_soc::runtime::NetworkExecution;
use gemmini_soc::soc::Soc;
use gemmini_soc::SocConfig;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One layer of every class the runtime lowers differently: conv (NHWC
/// staging + im2col patch), pooling, residual add, a panel-packed
/// matmul, and a row-wise normalization.
fn net() -> Network {
    let mut net = Network::new("alloc_layers");
    net.push(
        "conv",
        Layer::Conv {
            in_channels: 4,
            out_channels: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
            in_hw: (8, 8),
            activation: Activation::Relu,
        },
    );
    net.push(
        "pool",
        Layer::Pool {
            kind: PoolKind::Max,
            size: 2,
            stride: 2,
            padding: 0,
            channels: 8,
            in_hw: (8, 8),
        },
    );
    net.push("resadd", Layer::ResAdd { elements: 128 });
    net.push(
        "matmul",
        Layer::Matmul {
            m: 16,
            k: 8,
            n: 16,
            activation: Activation::None,
        },
    );
    net.push("norm", Layer::LayerNorm { rows: 16, cols: 16 });
    net
}

/// Runs `net()` to completion on a fresh functional SoC, returning each
/// layer's (name, allocations attributed to it). Setup (SoC build,
/// buffer placement, weight init) happens before counting starts.
fn allocations_per_layer() -> Vec<(String, u64)> {
    let config = SocConfig::edge_single_core();
    let mut soc = Soc::new(&config, true);
    let Soc {
        cores,
        mem,
        data,
        frames,
    } = &mut soc;
    let core = &mut cores[0];
    let mut exec = NetworkExecution::new(
        net(),
        core.accel.config().clone(),
        &mut core.space,
        frames,
        data.as_mut(),
        7,
    );

    let names: Vec<String> = exec
        .network()
        .layers()
        .iter()
        .map(|l| l.name.clone())
        .collect();
    let mut counts: Vec<u64> = Vec::with_capacity(names.len());
    let mut before = ALLOCATIONS.load(Ordering::SeqCst);
    loop {
        let mut env = KernelEnv {
            accel: &mut core.accel,
            cpu: &core.cpu,
            ctx: MemCtx {
                space: &core.space,
                translation: &mut core.translation,
                mem,
                data: data.as_mut(),
                port: core.id,
            },
        };
        let outcome = exec.step(&mut env).expect("step succeeds");
        // A layer boundary: attribute everything since the last one to
        // the layer that just retired.
        while exec.timings().len() > counts.len() {
            let now = ALLOCATIONS.load(Ordering::SeqCst);
            counts.push(now - before);
            before = now;
        }
        if matches!(outcome, StepOutcome::Done) {
            break;
        }
    }
    assert!(exec.is_finished());
    assert_eq!(counts.len(), names.len(), "one count per layer");
    names.into_iter().zip(counts).collect()
}

#[test]
fn per_layer_allocation_counts_are_deterministic_and_pinned() {
    // The counter must be live, or everything below is vacuous.
    assert!(
        ALLOCATIONS.load(Ordering::SeqCst) > 0,
        "counting allocator not installed"
    );

    let first = allocations_per_layer();
    let second = allocations_per_layer();
    assert_eq!(
        first, second,
        "identical executions must allocate identically per layer"
    );

    // Pinned ceilings: the measured per-layer counts of the current
    // kernel/runtime implementation, with no headroom. A layer that
    // starts allocating per tile will blow far past these; a layer that
    // adds one setup buffer trips them by one, which is exactly the
    // review conversation this guard exists to force.
    let ceilings: &[(&str, u64)] = &[
        ("conv", 33),
        ("pool", 12),
        ("resadd", 4),
        ("matmul", 3),
        // The norm layer copies its input into its output buffer, which
        // allocates a read buffer and materializes the output page.
        ("norm", 6),
    ];
    assert_eq!(first.len(), ceilings.len());
    for ((name, got), (expect_name, ceiling)) in first.iter().zip(ceilings) {
        assert_eq!(name, expect_name);
        assert!(
            got <= ceiling,
            "layer '{name}' performed {got} heap allocations (pinned ceiling {ceiling}); \
             stage through a retained buffer or consciously raise the pin"
        );
    }
}
