//! Heap footprint of functional set-up.
//!
//! `NetworkExecution::new` writes each layer's seeded weights straight
//! into their panel-packed pages. Its transient heap, the peak of live
//! bytes during the call minus the live bytes once it returns (the
//! simulated pages stay live), is a few reused block buffers: for a
//! matmul, `PAGE_SIZE / dim` rows of B (512 KiB here). It must not grow
//! with the weights, as it did when the whole weight tensor and its
//! packed copy were staged on the heap (about twice the weight bytes).
//!
//! This binary holds one test so no other test's allocations land in the
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gemmini_dnn::graph::{Activation, Layer, Network};
use gemmini_soc::runtime::NetworkExecution;
use gemmini_soc::soc::Soc;
use gemmini_soc::SocConfig;

struct TrackingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

const MIB: usize = 1 << 20;

#[test]
fn setup_transient_heap_does_not_grow_with_weights() {
    let (k, n) = (2048, 2048);
    let mut net = Network::new("fc2048");
    net.push(
        "fc",
        Layer::Matmul {
            m: 4,
            k,
            n,
            activation: Activation::Relu,
        },
    );
    let config = SocConfig::edge_single_core();
    let mut soc = Soc::new(&config, true);
    let Soc {
        cores,
        data,
        frames,
        ..
    } = &mut soc;
    let core = &mut cores[0];
    let accel = core.accel.config().clone();

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let exec = NetworkExecution::new(net, accel, &mut core.space, frames, data.as_mut(), 7);
    let after = LIVE.load(Ordering::SeqCst);
    let peak = PEAK.load(Ordering::SeqCst);
    drop(exec);

    // The weights now live in simulated pages: the probe saw them land.
    assert!(
        after - before >= k * n,
        "set-up kept {} bytes live, fewer than the {} weight bytes",
        after - before,
        k * n
    );
    let transient = peak - after;
    assert!(
        transient < MIB,
        "set-up held {transient} transient heap bytes for {} weight bytes",
        k * n
    );
}
