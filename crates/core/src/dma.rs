//! The stream DMA engine.
//!
//! Every mvin/mvout row is translated through the accelerator's TLB
//! hierarchy and then moved through the shared memory system, so the DMA is
//! where the virtual-memory case study (Section V-A) and the cache
//! case study (Section V-B) meet: TLB misses stall the stream (the filter
//! registers exist to remove exactly those stalls), and every byte shows up
//! as L2/DRAM traffic.

use crate::metrics::Counter as MetricCounter;
use crate::scratchpad::copy_row;
use crate::trace::{AttributionKind, Component, Profiler, StallCause};
use gemmini_mem::addr::{VirtAddr, PAGE_SIZE};
use gemmini_mem::cache::AccessKind;
use gemmini_mem::dram::MainMemory;
use gemmini_mem::hierarchy::PortId;
use gemmini_mem::{Cycle, MemorySystem};
use gemmini_vm::page::Vpn;
use gemmini_vm::page_table::AddressSpace;
use gemmini_vm::translator::{Access, HitLevel, TranslateError, TranslationSystem};

/// Everything the accelerator needs from the surrounding SoC to move data:
/// its process's address space, its translation hardware, the shared memory
/// system, and (in functional mode) the physical byte store.
///
/// `data: None` selects *timing-only* mode: the address streams (and hence
/// all TLB/cache statistics and cycle counts) are identical, but no bytes
/// are copied — this is what makes full-network figure sweeps tractable.
#[derive(Debug)]
pub struct MemCtx<'a> {
    /// The running process's page table.
    pub space: &'a AddressSpace,
    /// The accelerator's translation hardware (filters + TLBs + PTW).
    pub translation: &'a mut TranslationSystem,
    /// The SoC's shared bus → L2 → DRAM path.
    pub mem: &'a mut MemorySystem,
    /// Physical bytes, when running functionally.
    pub data: Option<&'a mut MainMemory>,
    /// Memory-system port accesses are attributed to.
    pub port: PortId,
}

/// Outcome of one DMA transfer. Functional mvin bytes land in the
/// caller-provided destination buffer, so the transfer record itself is
/// plain-old-data and allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaTransfer {
    /// Cycle at which the last byte arrived.
    pub done: Cycle,
    /// Total bytes moved.
    pub bytes: u64,
}

/// Running totals for one DMA engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmaStats {
    /// Bytes moved in (mvin).
    pub bytes_in: u64,
    /// Bytes moved out (mvout).
    pub bytes_out: u64,
    /// Translation requests issued.
    pub translations: u64,
    /// Cycles the stream spent stalled waiting for translations.
    pub translation_stall_cycles: u64,
}

/// The accelerator's read/write stream DMA.
#[derive(Debug, Clone, Default)]
pub struct StreamDma {
    stats: DmaStats,
}

impl StreamDma {
    /// Creates an idle DMA engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Statistics since construction.
    pub fn stats(&self) -> &DmaStats {
        &self.stats
    }

    /// Reads `rows` rows of `row_bytes` bytes from virtual memory,
    /// `stride` bytes apart, starting at `vaddr` and time `now`.
    ///
    /// In functional mode pass `dst`: it is cleared and filled with the
    /// rows packed back to back (`rows * row_bytes` bytes total, row `r`
    /// at `r * row_bytes`). The buffer's capacity is retained across
    /// calls, so a reused arena makes the steady state allocation-free.
    /// With `dst: None` (or in timing-only mode) no bytes are stored.
    ///
    /// # Errors
    ///
    /// Propagates [`TranslateError`] (page fault / permission denied) from
    /// the translation system; rows before the fault have already been
    /// moved, matching hardware where the DMA raises an interrupt
    /// mid-stream.
    #[allow(clippy::too_many_arguments)]
    pub fn mvin(
        &mut self,
        prof: &mut Profiler,
        ctx: &mut MemCtx<'_>,
        now: Cycle,
        vaddr: VirtAddr,
        rows: usize,
        row_bytes: u64,
        stride: u64,
        dst: Option<&mut Vec<u8>>,
    ) -> Result<DmaTransfer, TranslateError> {
        self.transfer(
            prof,
            ctx,
            now,
            vaddr,
            rows,
            row_bytes,
            stride,
            Access::Read,
            None,
            dst,
        )
    }

    /// Writes `rows` rows to virtual memory. In functional mode `data`
    /// supplies the bytes, packed `rows * row_bytes` flat (row `r` at
    /// `r * row_bytes`).
    ///
    /// # Errors
    ///
    /// Propagates [`TranslateError`] from the translation system.
    ///
    /// # Panics
    ///
    /// Panics if `data` is provided with a length other than
    /// `rows * row_bytes`.
    #[allow(clippy::too_many_arguments)]
    pub fn mvout(
        &mut self,
        prof: &mut Profiler,
        ctx: &mut MemCtx<'_>,
        now: Cycle,
        vaddr: VirtAddr,
        rows: usize,
        row_bytes: u64,
        stride: u64,
        data: Option<&[u8]>,
    ) -> Result<DmaTransfer, TranslateError> {
        if let Some(d) = data {
            assert_eq!(
                d.len() as u64,
                rows as u64 * row_bytes,
                "mvout data length must equal rows * row_bytes"
            );
        }
        self.transfer(
            prof,
            ctx,
            now,
            vaddr,
            rows,
            row_bytes,
            stride,
            Access::Write,
            data,
            None,
        )
    }

    /// Moves a burst as maximal same-page runs of rows. A run's first
    /// row pays a full translation; the rest repeat its page, so they hit
    /// at a fixed latency ([`TranslationSystem::repeat_latency`]) and are
    /// booked in closed form. Translation latency alone advances the
    /// stream's issue time, so the run's rows then issue at fixed steps
    /// and go through the memory system as one
    /// [`MemorySystem::access_run`]. A page-crossing row is split at the
    /// boundary into runs of one segment each, and without repeat hits
    /// (no filter registers, zero-entry private TLB) every row is its own
    /// run. Either way the result is exactly that of translating and
    /// moving one row at a time.
    #[allow(clippy::too_many_arguments)]
    fn transfer(
        &mut self,
        prof: &mut Profiler,
        ctx: &mut MemCtx<'_>,
        now: Cycle,
        vaddr: VirtAddr,
        rows: usize,
        row_bytes: u64,
        stride: u64,
        access: Access,
        write_data: Option<&[u8]>,
        mut read_dst: Option<&mut Vec<u8>>,
    ) -> Result<DmaTransfer, TranslateError> {
        if let Some(dst) = read_dst.as_deref_mut() {
            dst.clear();
            if ctx.data.is_some() {
                dst.reserve(rows * row_bytes as usize);
            }
        }
        let mut burst = Burst {
            access,
            row_bytes,
            repeat: ctx.translation.repeat_latency(),
            issue: now,
            done: now,
            write_data,
            read_dst,
        };
        let rows = rows as u64;
        // Row `r`, `moved` bytes in.
        let (mut r, mut moved) = (0, 0);
        while r < rows && row_bytes > 0 {
            let va = vaddr.add(r * stride + moved);
            let offset = va.offset_in_page();
            let seg = (PAGE_SIZE - offset).min(row_bytes - moved);
            // Whole rows from `r` on that stay on this page form one run;
            // a page-crossing row is split into runs of one segment.
            let n = match (burst.repeat, stride) {
                _ if seg < row_bytes => 1,
                (None, _) => 1,
                (Some(_), 0) => rows - r,
                (Some(_), _) => ((PAGE_SIZE - offset - row_bytes) / stride + 1).min(rows - r),
            };
            self.run(
                prof,
                ctx,
                &mut burst,
                va,
                seg,
                n,
                stride,
                r * row_bytes + moved,
            )?;
            moved += seg;
            if moved == row_bytes {
                r += n;
                moved = 0;
            }
        }

        let bytes = rows * row_bytes;
        match access {
            Access::Read => self.stats.bytes_in += bytes,
            Access::Write => self.stats.bytes_out += bytes,
        }
        let finish = burst.done.max(burst.issue);
        if prof.tracing() {
            let name = match access {
                Access::Read => "mvin",
                Access::Write => "mvout",
            };
            prof.event(Component::Dma, name, now, finish, StallCause::None);
        }
        let metrics = prof.metrics();
        metrics.inc(MetricCounter::DmaBursts);
        metrics.add(MetricCounter::DmaBytes, bytes);
        Ok(DmaTransfer {
            done: finish,
            bytes,
        })
    }

    /// Moves one same-page run: `n` segments of `seg` bytes at `va`,
    /// `va + stride`, …, all on `va`'s page. Segment `j` is bytes
    /// `flat + j * row_bytes ..` of the packed functional data.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        prof: &mut Profiler,
        ctx: &mut MemCtx<'_>,
        burst: &mut Burst<'_>,
        va: VirtAddr,
        seg: u64,
        n: u64,
        stride: u64,
        flat: u64,
    ) -> Result<(), TranslateError> {
        let access = burst.access;
        self.stats.translations += 1;
        let tr = ctx
            .translation
            .translate(ctx.space, ctx.mem, burst.issue, va, access)?;
        self.stats.translation_stall_cycles += tr.latency;
        // The stream cannot issue the next request until this translation
        // resolves (single translation port).
        let stall_start = burst.issue;
        burst.issue += tr.latency;
        // Only a page-table walk counts as a TLB *stall* for attribution; a
        // TLB hit's small pipelined latency is part of normal streaming and
        // stays with the enclosing load/store span.
        if tr.level == HitLevel::Walk {
            prof.record(AttributionKind::TlbStall, stall_start, burst.issue);
        }
        // The rest of the run repeats the page: hits `step` cycles apart.
        let first = burst.issue;
        let step = burst.repeat.unwrap_or(0);
        if n > 1 {
            ctx.translation
                .repeat_hits(first, Vpn::of(va), access, n - 1);
            self.stats.translations += n - 1;
            self.stats.translation_stall_cycles += (n - 1) * step;
            burst.issue += (n - 1) * step;
        }

        // Up to the bus's ideal service time the stream is simply moving
        // bytes at bandwidth (charged to the enclosing load/store span);
        // anything beyond that is a stall on the bus → L2 → DRAM path.
        // Cycles a translation stall also covers are re-attributed to the
        // TLB by the log's priority rules.
        let streaming = ctx.mem.streaming_cycles(seg);
        let kind = match access {
            Access::Read => AccessKind::Read,
            Access::Write => AccessKind::Write,
        };
        ctx.mem.access_run(
            ctx.port,
            first,
            step,
            tr.paddr,
            stride,
            seg,
            n,
            kind,
            |issue, seg_done| {
                prof.record(
                    AttributionKind::Dram,
                    (issue + streaming).min(seg_done),
                    seg_done,
                );
                burst.done = burst.done.max(seg_done);
            },
        );

        // Functional bytes: the run never leaves its page, so its segments
        // are slices of one page, looked up once. Rows are short, so each
        // segment moves through `copy_row` rather than a `memcpy` call.
        if let Some(data) = ctx.data.as_deref_mut() {
            let (seg, stride) = (seg as usize, stride as usize);
            let offsets = (0..n as usize).map(|j| tr.paddr.offset_in_page() as usize + j * stride);
            match (access, burst.read_dst.as_deref_mut(), burst.write_data) {
                (Access::Read, Some(dst), _) => {
                    // Zeroed first: a never-written page reads as zeros.
                    let at = dst.len();
                    dst.resize(at + n as usize * seg, 0);
                    if let Some(page) = data.page(tr.paddr) {
                        for (d, o) in dst[at..].chunks_exact_mut(seg).zip(offsets) {
                            copy_row(d, &page[o..o + seg], |b| b);
                        }
                    }
                }
                (Access::Write, _, Some(src)) => {
                    let page = data.page_mut(tr.paddr);
                    for (j, o) in offsets.enumerate() {
                        let lo = flat as usize + j * burst.row_bytes as usize;
                        copy_row(&mut page[o..o + seg], &src[lo..lo + seg], |b| b);
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// One burst in flight: where the stream stands and where its functional
/// bytes come from or go.
struct Burst<'d> {
    access: Access,
    row_bytes: u64,
    /// [`TranslationSystem::repeat_latency`]: `None` makes every row its
    /// own run.
    repeat: Option<u64>,
    /// Cycle the next translation request issues at.
    issue: Cycle,
    /// Latest completion so far.
    done: Cycle,
    write_data: Option<&'d [u8]>,
    read_dst: Option<&'d mut Vec<u8>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemmini_mem::addr::PhysAddr;
    use gemmini_vm::page::FrameAllocator;
    use gemmini_vm::translator::TranslationConfig;

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

        fn write_virt(&mut self, va: VirtAddr, bytes: &[u8]) {
            // Write through translation page by page (test helper).
            for (i, b) in bytes.iter().enumerate() {
                let pa: PhysAddr = self.space.translate(va.add(i as u64)).unwrap();
                self.data.write_u8(pa, *b);
            }
        }
    }

    #[test]
    fn mvin_moves_functional_bytes() {
        let mut rig = rig();
        let va = rig.base;
        rig.write_virt(va, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut dma = StreamDma::new();
        let mut ctx = rig.ctx();
        let mut buf = Vec::new();
        let t = dma
            .mvin(
                &mut Profiler::default(),
                &mut ctx,
                0,
                va,
                2,
                4,
                4,
                Some(&mut buf),
            )
            .unwrap();
        assert_eq!(&buf[..4], &[1, 2, 3, 4]);
        assert_eq!(&buf[4..], &[5, 6, 7, 8]);
        assert_eq!(t.bytes, 8);
        assert!(t.done > 0);
    }

    #[test]
    fn strided_mvin_skips_between_rows() {
        let mut rig = rig();
        let va = rig.base;
        rig.write_virt(va, &[1, 2, 9, 9, 3, 4, 9, 9]);
        let mut dma = StreamDma::new();
        let mut ctx = rig.ctx();
        let mut buf = vec![77u8; 32]; // stale contents must be cleared
        dma.mvin(
            &mut Profiler::default(),
            &mut ctx,
            0,
            va,
            2,
            2,
            4,
            Some(&mut buf),
        )
        .unwrap();
        assert_eq!(buf, vec![1, 2, 3, 4]);
    }

    #[test]
    fn mvout_then_mvin_roundtrips() {
        let mut rig = rig();
        let va = rig.base.add(PAGE_SIZE);
        let mut dma = StreamDma::new();
        let payload = vec![10u8, 20, 30, 40, 50, 60];
        {
            let mut ctx = rig.ctx();
            dma.mvout(
                &mut Profiler::default(),
                &mut ctx,
                0,
                va,
                2,
                3,
                3,
                Some(&payload),
            )
            .unwrap();
        }
        let mut ctx = rig.ctx();
        let mut buf = Vec::new();
        dma.mvin(
            &mut Profiler::default(),
            &mut ctx,
            100,
            va,
            2,
            3,
            3,
            Some(&mut buf),
        )
        .unwrap();
        assert_eq!(buf, payload);
        assert_eq!(dma.stats().bytes_out, 6);
        assert_eq!(dma.stats().bytes_in, 6);
    }

    #[test]
    fn page_crossing_row_translates_twice() {
        let mut rig = rig();
        // Row starts 2 bytes before a page boundary.
        let va = rig.base.add(PAGE_SIZE - 2);
        let mut dma = StreamDma::new();
        let mut ctx = rig.ctx();
        let mut buf = Vec::new();
        dma.mvin(
            &mut Profiler::default(),
            &mut ctx,
            0,
            va,
            1,
            4,
            4,
            Some(&mut buf),
        )
        .unwrap();
        assert_eq!(dma.stats().translations, 2);
        assert_eq!(buf.len(), 4, "page-crossing row still packs contiguously");
    }

    #[test]
    fn rows_in_same_page_translate_per_row() {
        let mut rig = rig();
        let va = rig.base;
        let mut dma = StreamDma::new();
        let mut ctx = rig.ctx();
        dma.mvin(&mut Profiler::default(), &mut ctx, 0, va, 16, 16, 16, None)
            .unwrap();
        assert_eq!(dma.stats().translations, 16);
        // All rows after the first hit the (4-entry) private TLB.
        assert_eq!(ctx.translation.private_tlb().stats().hits(), 15);
    }

    #[test]
    fn timing_only_mode_produces_no_bytes_but_same_stats() {
        let mut rig1 = rig();
        let va = rig1.base;
        let mut dma_f = StreamDma::new();
        let mut buf_f = Vec::new();
        let t_f = {
            let mut ctx = rig1.ctx();
            dma_f
                .mvin(
                    &mut Profiler::default(),
                    &mut ctx,
                    0,
                    va,
                    8,
                    16,
                    16,
                    Some(&mut buf_f),
                )
                .unwrap()
        };

        // Fresh rig for identical cold state, but timing-only.
        let mut rig2 = rig();
        let va2 = rig2.base;
        let mut dma_t = StreamDma::new();
        let mut buf_t = vec![5u8; 3];
        let t_t = {
            let mut ctx = MemCtx {
                space: &rig2.space,
                translation: &mut rig2.translation,
                mem: &mut rig2.mem,
                data: None,
                port: 0,
            };
            dma_t
                .mvin(
                    &mut Profiler::default(),
                    &mut ctx,
                    0,
                    va2,
                    8,
                    16,
                    16,
                    Some(&mut buf_t),
                )
                .unwrap()
        };
        assert!(buf_t.is_empty(), "timing-only mode stores no bytes");
        assert_eq!(buf_f.len(), 8 * 16);
        assert_eq!(t_f.done, t_t.done, "timing must not depend on mode");
        assert_eq!(dma_f.stats(), dma_t.stats());
    }

    #[test]
    fn unmapped_page_faults() {
        let mut rig = rig();
        let mut dma = StreamDma::new();
        let mut ctx = rig.ctx();
        let err = dma
            .mvin(
                &mut Profiler::default(),
                &mut ctx,
                0,
                VirtAddr::new(0xdddd_0000),
                1,
                16,
                16,
                None,
            )
            .unwrap_err();
        assert!(matches!(err, TranslateError::PageFault { .. }));
    }

    #[test]
    fn translation_stalls_are_accounted() {
        let mut rig = rig();
        let va = rig.base;
        let mut dma = StreamDma::new();
        let mut ctx = rig.ctx();
        dma.mvin(&mut Profiler::default(), &mut ctx, 0, va, 1, 16, 16, None)
            .unwrap();
        // Cold access: one walk, so stall cycles are substantial.
        assert!(dma.stats().translation_stall_cycles > 0);
    }
}
