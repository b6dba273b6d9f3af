//! Fixed synthetic streams through single simulator components: host ns
//! per call of one public function, free of the rest of the stack.

use crate::stats::median;
use gemmini_core::config::GemminiConfig;
use gemmini_core::mesh::MatrixUnit;
use gemmini_dnn::tensor::Tensor;
use gemmini_dnn::zoo;
use gemmini_mem::addr::{PhysAddr, PAGE_SIZE};
use gemmini_mem::cache::{AccessKind, Cache, CacheConfig};
use gemmini_mem::MemorySystem;
use gemmini_soc::tiling::plan_matmul;
use gemmini_vm::page::{Frame, FrameAllocator, Vpn};
use gemmini_vm::page_table::AddressSpace;
use gemmini_vm::tlb::{Tlb, TlbConfig};
use gemmini_vm::translator::{Access, TranslationConfig, TranslationSystem};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Least host time each microbenchmark runs for.
const MIN_TIME: Duration = Duration::from_millis(200);
/// Least number of timed batches each microbenchmark takes its median over.
const MIN_BATCHES: usize = 5;

/// A microbenchmark under its metric name.
pub type Bench = (&'static str, fn() -> f64);

/// Every microbenchmark.
pub const BENCHES: [Bench; 6] = [
    ("vm.tlb_lookup_ns", tlb_lookup_ns),
    ("vm.translate_ns", translate_ns),
    ("mem.l2_access_ns", l2_access_ns),
    ("mem.read_ns", mem_read_ns),
    ("core.mesh_tile_ns", mesh_tile_ns),
    ("soc.plan_matmul_ns", plan_matmul_ns),
];

/// Median host ns per call over batches of `batch` calls; `call(i)` makes
/// call number `i` of the stream.
fn ns_per_call(batch: u64, mut call: impl FnMut(u64)) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while samples.len() < MIN_BATCHES || start.elapsed() < MIN_TIME {
        let t = Instant::now();
        for _ in 0..batch {
            call(i);
            i += 1;
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&samples)
}

/// A fixed pseudo-random line-aligned stream over a 2 MiB footprint: about
/// half its accesses hit a 1 MiB L2.
fn line_address(i: u64) -> PhysAddr {
    let mixed = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    PhysAddr::new((mixed % (2 << 20)) & !63)
}

/// `Tlb::lookup` on a 32-entry TLB cycling over 40 pages (refilled on
/// miss), so LRU replacement is exercised.
pub fn tlb_lookup_ns() -> f64 {
    let mut tlb = Tlb::new(TlbConfig::private(32));
    ns_per_call(100_000, |i| {
        let vpn = Vpn::new((i * 7) % 40);
        if black_box(tlb.lookup(vpn)).is_none() {
            tlb.insert(vpn, Frame::new(vpn.raw()));
        }
    })
}

/// `TranslationSystem::translate` streaming over 64 mapped pages with the
/// Fig. 8 filter registers on.
pub fn translate_ns() -> f64 {
    let mut frames = FrameAllocator::new();
    let mut space = AddressSpace::new(&mut frames);
    let pages = 64;
    let base = space.alloc(&mut frames, pages * PAGE_SIZE);
    let mut mem = MemorySystem::default();
    let mut tsys = TranslationSystem::new(TranslationConfig {
        filter_registers: true,
        ..TranslationConfig::default()
    });
    ns_per_call(50_000, |i| {
        let va = base.add((i * 512) % (pages * PAGE_SIZE));
        let out = tsys.translate(&space, &mut mem, i, va, Access::Read);
        black_box(out.expect("page is mapped"));
    })
}

/// `Cache::access` on a 1 MiB L2 over [`line_address`].
pub fn l2_access_ns() -> f64 {
    let mut l2 = Cache::new(CacheConfig::l2_mb(1));
    ns_per_call(100_000, |i| {
        black_box(l2.access(line_address(i), AccessKind::Read));
    })
}

/// `MemorySystem::read` of one line over [`line_address`], issued back to
/// back.
pub fn mem_read_ns() -> f64 {
    let mut mem = MemorySystem::default();
    let mut now = 0;
    ns_per_call(50_000, |i| {
        now = mem.read(0, now, line_address(i), 64);
    })
}

/// `MatrixUnit::compute_into` of one full 16×16 tile.
pub fn mesh_tile_ns() -> f64 {
    let dim = 16;
    let a = Tensor::<i8>::random(&[dim, dim], 1);
    let b = Tensor::<i8>::random(&[dim, dim], 2);
    let mut mu = MatrixUnit::new(dim);
    mu.preload_flat(b.as_slice(), dim, dim, dim);
    let mut out = vec![0i32; dim * dim];
    ns_per_call(20_000, |_| {
        mu.compute_into(black_box(a.as_slice()), dim, dim, dim, None, &mut out);
        black_box(&out);
    })
}

/// `tiling::plan_matmul` over ResNet50's GEMM shapes on the edge
/// accelerator, cycling through them.
pub fn plan_matmul_ns() -> f64 {
    let cfg = GemminiConfig::edge();
    let shapes: Vec<(usize, usize, usize)> = zoo::resnet50()
        .layers()
        .iter()
        .filter_map(|l| l.layer.as_gemm())
        .collect();
    ns_per_call(shapes.len() as u64 * 20, |i| {
        let (m, k, n) = shapes[(i % shapes.len() as u64) as usize];
        black_box(plan_matmul(&cfg, black_box(m), k, n));
    })
}
