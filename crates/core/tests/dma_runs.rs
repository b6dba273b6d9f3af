//! Run-vs-row equivalence for the stream DMA.
//!
//! `StreamDma` moves a burst as same-page runs: one full translation per
//! run, the run's repeat hits booked in closed form, and the rows pushed
//! through `MemorySystem::access_run`. This file keeps the per-row loop
//! that path replaced — translate and move every row segment on its own —
//! as the reference, and checks on random bursts that the two leave every
//! observable identical: transfer results and errors, DMA statistics,
//! cycle attribution, translator, TLB and filter-register state, the
//! windowed miss-rate series, same-page rates, L2 tag and LRU state, bus,
//! DRAM and per-port traffic, live metrics, trace events and functional
//! bytes. The L2 hit latency and the bus width vary too, so rows inside
//! one line are booked both as one closed-form group (step at most the
//! hit latency) and one row at a time (a longer step), with and without
//! a bus backlog.
//!
//! The release-mode sweep with many more cases runs with
//! `cargo test --release -p gemmini-core --test dma_runs -- --include-ignored`.

use gemmini_core::dma::{DmaStats, DmaTransfer, MemCtx, StreamDma};
use gemmini_core::metrics::{Counter as MetricCounter, Metrics, MetricsRegistry};
use gemmini_core::trace::{
    AttributionKind, BufferSink, Component, Profiler, StallCause, TraceEvent, Tracer,
};
use gemmini_mem::addr::{VirtAddr, LINE_SHIFT, PAGE_SIZE};
use gemmini_mem::bus::BusConfig;
use gemmini_mem::cache::CacheConfig;
use gemmini_mem::dram::MainMemory;
use gemmini_mem::hierarchy::MemorySystemConfig;
use gemmini_mem::{Cycle, MemorySystem};
use gemmini_vm::page::FrameAllocator;
use gemmini_vm::page_table::AddressSpace;
use gemmini_vm::ptw::PtwConfig;
use gemmini_vm::tlb::TlbConfig;
use gemmini_vm::translator::{Access, HitLevel, TranslateError, TranslationConfig};
use gemmini_vm::TranslationSystem;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// The per-row DMA loop: every row is split at page boundaries and each
/// segment is translated, then moved, on its own.
#[derive(Default)]
struct RowDma {
    stats: DmaStats,
}

impl RowDma {
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
        let mut issue = now;
        let mut done = now;
        if let Some(dst) = read_dst.as_deref_mut() {
            dst.clear();
        }
        for r in 0..rows {
            let row_va = vaddr.add(r as u64 * stride);
            let mut moved = 0u64;
            while moved < row_bytes {
                let seg_va = row_va.add(moved);
                let seg = (PAGE_SIZE - seg_va.offset_in_page()).min(row_bytes - moved);
                self.stats.translations += 1;
                let tr = ctx
                    .translation
                    .translate(ctx.space, ctx.mem, issue, seg_va, access)?;
                self.stats.translation_stall_cycles += tr.latency;
                let stall_start = issue;
                issue += tr.latency;
                if tr.level == HitLevel::Walk {
                    prof.record(AttributionKind::TlbStall, stall_start, issue);
                }
                let seg_done = match access {
                    Access::Read => ctx.mem.read(ctx.port, issue, tr.paddr, seg),
                    Access::Write => ctx.mem.write(ctx.port, issue, tr.paddr, seg),
                };
                let stream_done = issue + ctx.mem.streaming_cycles(seg);
                prof.record(AttributionKind::Dram, stream_done.min(seg_done), seg_done);
                done = done.max(seg_done);
                if let Some(data) = ctx.data.as_deref_mut() {
                    match access {
                        Access::Read => {
                            if let Some(dst) = read_dst.as_deref_mut() {
                                let start = dst.len();
                                dst.resize(start + seg as usize, 0);
                                data.read(tr.paddr, &mut dst[start..]);
                            }
                        }
                        Access::Write => {
                            if let Some(flat) = write_data {
                                let lo = (r as u64 * row_bytes + moved) as usize;
                                data.write(tr.paddr, &flat[lo..lo + seg as usize]);
                            }
                        }
                    }
                }
                moved += seg;
            }
        }
        let bytes = rows as u64 * row_bytes;
        match access {
            Access::Read => self.stats.bytes_in += bytes,
            Access::Write => self.stats.bytes_out += bytes,
        }
        let finish = done.max(issue);
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
}

/// Pages mapped read-write, then read-only, per core; everything past
/// them is unmapped, so bursts that run off the end fault mid-stream.
const RW_PAGES: u64 = 16;
const RO_PAGES: u64 = 4;

/// The DMA path under test.
enum Engine {
    Runs(StreamDma),
    Rows(RowDma),
}

struct Core {
    space: AddressSpace,
    base: VirtAddr,
    translation: TranslationSystem,
    prof: Profiler,
    engine: Engine,
    clock: Cycle,
}

impl Core {
    fn dma_stats(&self) -> DmaStats {
        match &self.engine {
            Engine::Runs(dma) => *dma.stats(),
            Engine::Rows(dma) => dma.stats,
        }
    }
}

/// A snapshot of [`System::state`].
#[derive(PartialEq)]
struct State {
    text: String,
    events: Vec<TraceEvent>,
    bytes: Vec<u8>,
}

/// Two cores sharing one memory system, all instrumented.
struct System {
    cores: Vec<Core>,
    mem: MemorySystem,
    data: Option<MainMemory>,
    registry: Arc<MetricsRegistry>,
    events: Arc<Mutex<BufferSink>>,
}

#[derive(Debug, Clone)]
struct Scenario {
    filters: bool,
    private: u32,
    shared: u32,
    window: Cycle,
    l2: CacheConfig,
    bus: BusConfig,
    functional: bool,
    ops: Vec<Op>,
}

#[derive(Debug, Clone)]
struct Op {
    core: usize,
    write: bool,
    /// Byte offset of the first row from the core's buffer base.
    start: u64,
    rows: usize,
    row_bytes: u64,
    stride: u64,
    /// Idle cycles before the burst issues.
    gap: Cycle,
}

impl System {
    fn new(s: &Scenario, runs: bool) -> Self {
        let (metrics, registry) = Metrics::enabled();
        let (tracer, events) = Tracer::buffered();
        let mut mem = MemorySystem::new(MemorySystemConfig {
            l2: s.l2,
            bus: s.bus,
            ..MemorySystemConfig::default()
        });
        mem.set_metrics(metrics.clone());
        mem.set_tracer(tracer.clone());
        // Identical frame allocation in both systems, so physical
        // addresses (and L2 sets) line up.
        let mut frames = FrameAllocator::new();
        let cores = (0..2)
            .map(|_| {
                let mut space = AddressSpace::new(&mut frames);
                let base = space.alloc(&mut frames, RW_PAGES * PAGE_SIZE);
                space.alloc_readonly(&mut frames, RO_PAGES * PAGE_SIZE);
                let mut translation = TranslationSystem::new(TranslationConfig {
                    private: TlbConfig::private(s.private),
                    shared: TlbConfig::shared(s.shared),
                    filter_registers: s.filters,
                    stats_window: s.window,
                    ..TranslationConfig::default()
                });
                translation.set_metrics(metrics.clone());
                translation.set_tracer(tracer.clone());
                let mut prof = Profiler::new();
                prof.set_metrics(metrics.clone());
                prof.set_tracer(tracer.clone());
                Core {
                    space,
                    base,
                    translation,
                    prof,
                    engine: if runs {
                        Engine::Runs(StreamDma::new())
                    } else {
                        Engine::Rows(RowDma::default())
                    },
                    clock: 0,
                }
            })
            .collect();
        Self {
            cores,
            mem,
            data: s.functional.then(MainMemory::new),
            registry,
            events,
        }
    }

    /// Runs one burst; returns its result and, for an mvin, the bytes read.
    fn step(&mut self, i: usize, op: &Op) -> (Result<DmaTransfer, TranslateError>, Vec<u8>) {
        let core = &mut self.cores[op.core];
        let mut ctx = MemCtx {
            space: &core.space,
            translation: &mut core.translation,
            mem: &mut self.mem,
            data: self.data.as_mut(),
            port: op.core,
        };
        let now = core.clock + op.gap;
        let va = core.base.add(op.start);
        let len = op.rows * op.row_bytes as usize;
        let payload: Vec<u8> = (0..len).map(|b| (b * 7 + i * 13) as u8).collect();
        let mut dst = Vec::new();
        let out = match (&mut core.engine, op.write) {
            (Engine::Runs(dma), false) => dma.mvin(
                &mut core.prof,
                &mut ctx,
                now,
                va,
                op.rows,
                op.row_bytes,
                op.stride,
                Some(&mut dst),
            ),
            (Engine::Runs(dma), true) => dma.mvout(
                &mut core.prof,
                &mut ctx,
                now,
                va,
                op.rows,
                op.row_bytes,
                op.stride,
                Some(&payload),
            ),
            (Engine::Rows(dma), write) => dma.transfer(
                &mut core.prof,
                &mut ctx,
                now,
                va,
                op.rows,
                op.row_bytes,
                op.stride,
                if write { Access::Write } else { Access::Read },
                write.then_some(&payload[..]),
                (!write).then_some(&mut dst),
            ),
        };
        if let Ok(t) = out {
            core.clock = t.done;
        }
        (out, dst)
    }

    /// Every observable of the system: counters and tag state rendered as
    /// text, then the trace events and the functional bytes of every
    /// buffer page.
    fn state(&self) -> State {
        let mut out = String::new();
        // Past every interval: a burst that faults has recorded rows
        // beyond its core's clock.
        let horizon = Cycle::from(u32::MAX);
        for (port, c) in self.cores.iter().enumerate() {
            let t = &c.translation;
            out += &format!(
                "core {port}: {:?}\n requests {} filter_hits {} walks {} rates {:?} {:?}\n\
                 private {:?}\n shared {:?}\n filters {:?}\n ptw {:?}\n series {:?}\n\
                 attribution {:?}\n port {:?}\n",
                c.dma_stats(),
                t.requests(),
                t.filter_hits(),
                t.walks_taken(),
                t.consecutive_read_same_page_rate().to_bits(),
                t.consecutive_write_same_page_rate().to_bits(),
                t.private_tlb(),
                t.shared_tlb(),
                t.filters(),
                t.ptw(),
                t.miss_rate_series().series(),
                c.prof.attribution(horizon),
                self.mem.port_traffic(port),
            );
        }
        out += &format!(
            "ptw port {:?}\nbus free at {}\nl2 {:?}\ndram {:?}\nmetrics {:?}\n",
            self.mem.port_traffic(PtwConfig::default().port),
            self.mem.bus().free_at(),
            self.mem.l2(),
            self.mem.dram(),
            self.registry.snapshot(),
        );
        let mut bytes = Vec::new();
        if let Some(data) = &self.data {
            for c in &self.cores {
                for p in 0..RW_PAGES + RO_PAGES {
                    let pa = c
                        .space
                        .translate(c.base.add(p * PAGE_SIZE))
                        .expect("buffer is mapped");
                    let start = bytes.len();
                    bytes.resize(start + PAGE_SIZE as usize, 0);
                    data.read(pa, &mut bytes[start..]);
                }
            }
        }
        State {
            text: out,
            events: self
                .events
                .lock()
                .expect("no panics while tracing")
                .events()
                .to_vec(),
            bytes,
        }
    }
}

fn check(s: &Scenario) {
    let mut runs = System::new(s, true);
    let mut rows = System::new(s, false);
    for (i, op) in s.ops.iter().enumerate() {
        let (got, got_bytes) = runs.step(i, op);
        let (want, want_bytes) = rows.step(i, op);
        assert_eq!(got, want, "op {i} {op:?}: transfer result");
        assert_eq!(got_bytes, want_bytes, "op {i} {op:?}: bytes read");
        let (got, want) = (runs.state(), rows.state());
        if got.text != want.text {
            let line = got
                .text
                .lines()
                .zip(want.text.lines())
                .find(|(a, b)| a != b)
                .map(|(a, b)| format!("\n runs: {a}\n rows: {b}"))
                .unwrap_or_default();
            panic!("op {i} {op:?}: state diverged{line}");
        }
        assert_eq!(got.events, want.events, "op {i} {op:?}: trace events");
        assert!(got.bytes == want.bytes, "op {i} {op:?}: functional bytes");
    }
}

fn op() -> impl Strategy<Value = Op> {
    let start = prop_oneof![
        // Anywhere in the buffer, read-only pages and the unmapped tail
        // included.
        0..(RW_PAGES + RO_PAGES + 1) * PAGE_SIZE,
        // Just before a page boundary, so rows straddle it.
        (0..RW_PAGES, 1..200u64).prop_map(|(p, back)| (p + 1) * PAGE_SIZE - back),
    ];
    let row_bytes = prop_oneof![1..80u64, 1..700u64, (PAGE_SIZE - 64)..(2 * PAGE_SIZE + 64)];
    // Packed rows, random strides, zero, and row-major strides larger than
    // a page.
    let stride = prop_oneof![
        Just(None),
        (0..3000u64).prop_map(Some),
        Just(Some(0)),
        (1..3u64, 0..300u64).prop_map(|(p, r)| Some(p * PAGE_SIZE + r)),
    ];
    (
        (0..2usize, any::<bool>()),
        start,
        1..40usize,
        row_bytes,
        stride,
        0..3000u64,
    )
        .prop_map(|((core, write), start, rows, row_bytes, stride, gap)| {
            let rows = if row_bytes > PAGE_SIZE {
                rows % 4 + 1
            } else {
                rows
            };
            Op {
                core,
                write,
                start,
                rows,
                row_bytes,
                stride: stride.unwrap_or(row_bytes),
                gap,
            }
        })
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (any::<bool>(), prop::sample::select(vec![0u32, 1, 4, 32])),
        prop::sample::select(vec![0u32, 512]),
        prop::sample::select(vec![7u64, 64, 1000, 100_000]),
        (
            prop::sample::select(vec![(4u64 << 10, 2u32), (16 << 10, 4), (64 << 10, 8)]),
            prop::sample::select(vec![1u64, 16]),
            any::<bool>(),
        ),
        any::<bool>(),
        prop::collection::vec(op(), 1..12),
    )
        .prop_map(
            |((filters, private), shared, window, ((size, ways), hit, wide), functional, ops)| {
                Scenario {
                    filters,
                    private,
                    shared,
                    window,
                    l2: CacheConfig {
                        size_bytes: size,
                        ways,
                        hit_latency: hit,
                    },
                    // The default bus, or a narrow one whose beats outlast
                    // the translation step, so a group queues behind itself.
                    bus: if wide {
                        BusConfig::default()
                    } else {
                        BusConfig {
                            bytes_per_cycle: 4,
                            arbitration_latency: 0,
                        }
                    },
                    functional,
                    ops,
                }
            },
        )
}

proptest! {
    /// Every observable of a random burst sequence matches the per-row
    /// reference.
    #[test]
    fn runs_match_rows(s in scenario()) {
        check(&s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The same property over many more cases; run in release with
    /// `--include-ignored`.
    #[test]
    #[ignore = "slow: run with --release -- --include-ignored"]
    fn runs_match_rows_many(s in scenario()) {
        check(&s);
    }
}

/// Hand-picked bursts: long same-page runs on every translation
/// configuration, each sharing lines with its neighbours, so the closed
/// forms are exercised even when random cases fault early.
#[test]
fn long_runs_match_rows() {
    for (filters, private) in [(false, 0), (false, 1), (false, 4), (true, 0), (true, 4)] {
        for window in [7, 64] {
            let ops = vec![
                Op {
                    core: 0,
                    write: false,
                    start: 40,
                    rows: 200,
                    row_bytes: 16,
                    stride: 16,
                    gap: 0,
                },
                Op {
                    core: 0,
                    write: true,
                    start: 3 * PAGE_SIZE + 8,
                    rows: 150,
                    row_bytes: 24,
                    stride: 40,
                    gap: 5,
                },
                Op {
                    core: 1,
                    write: true,
                    start: 8,
                    rows: 300,
                    row_bytes: 12,
                    stride: 12,
                    gap: 0,
                },
                Op {
                    core: 0,
                    write: false,
                    start: 3 * PAGE_SIZE + 8,
                    rows: 150,
                    row_bytes: 24,
                    stride: 40,
                    gap: 0,
                },
            ];
            check(&Scenario {
                filters,
                private,
                shared: 0,
                window,
                l2: CacheConfig {
                    size_bytes: 16 << 10,
                    ways: 4,
                    hit_latency: 16,
                },
                bus: BusConfig::default(),
                functional: true,
                ops,
            });
        }
    }
}

/// Functional mvins from pages nothing has written read zeros and leave
/// them unmaterialized; an mvout materializes its pages, and a later mvin
/// of the same rows (on the other core's mapping too) reads its bytes.
#[test]
fn functional_runs_read_unwritten_pages_and_materialize_written_ones() {
    let fresh = |start| Op {
        core: 0,
        write: false,
        start,
        rows: 40,
        row_bytes: 48,
        stride: 100,
        gap: 0,
    };
    let written = Op {
        core: 1,
        write: true,
        start: 2 * PAGE_SIZE - 200,
        rows: 30,
        row_bytes: 32,
        stride: 64,
        gap: 0,
    };
    let reread = Op {
        write: false,
        gap: 3,
        ..written.clone()
    };
    for filters in [false, true] {
        let s = Scenario {
            filters,
            private: 4,
            shared: 0,
            window: 64,
            l2: CacheConfig::l2_mb(1),
            bus: BusConfig::default(),
            functional: true,
            ops: vec![
                fresh(8),
                fresh(5 * PAGE_SIZE - 30),
                written.clone(),
                reread.clone(),
            ],
        };
        check(&s);

        let mut sys = System::new(&s, true);
        for (i, op) in s.ops[..2].iter().enumerate() {
            let (res, bytes) = sys.step(i, op);
            res.expect("mapped");
            assert_eq!(bytes, vec![0; op.rows * op.row_bytes as usize]);
        }
        let data = sys.data.as_ref().expect("functional");
        assert_eq!(data.resident_pages(), 0, "reads materialized a page");

        sys.step(2, &written).0.expect("mapped");
        let data = sys.data.as_ref().expect("functional");
        // The rows span bytes 2·PAGE−200 .. 2·PAGE+1688: two pages.
        assert_eq!(data.resident_pages(), 2);
        let core = &sys.cores[1];
        for p in [1, 2] {
            let pa = core
                .space
                .translate(core.base.add(p * PAGE_SIZE))
                .expect("mapped");
            assert!(data.page(pa).is_some(), "page {p} not materialized");
        }
        let (res, bytes) = sys.step(3, &reread);
        res.expect("mapped");
        let payload: Vec<u8> = (0..written.rows * written.row_bytes as usize)
            .map(|b| (b * 7 + 2 * 13) as u8)
            .collect();
        assert_eq!(bytes, payload, "mvin reads what the mvout wrote");
    }
}

#[test]
fn reference_is_not_vacuous() {
    // Two different scenarios must render different states, or the
    // comparison above would pass on anything.
    let base = Scenario {
        filters: false,
        private: 4,
        shared: 0,
        window: 64,
        l2: CacheConfig::l2_mb(1),
        bus: BusConfig::default(),
        functional: true,
        ops: vec![Op {
            core: 0,
            write: true,
            start: 0,
            rows: 8,
            row_bytes: 16,
            stride: 16,
            gap: 0,
        }],
    };
    let mut a = System::new(&base, false);
    a.step(0, &base.ops[0]).0.expect("mapped");
    let mut b = System::new(&base, false);
    let mut other = base.ops[0].clone();
    other.stride = 32;
    b.step(0, &other).0.expect("mapped");
    assert!(a.state().text != b.state().text);
}

/// Which line-group paths one scenario's bursts reach, derived from the
/// burst geometry: the DMA splits a burst into same-page runs of whole
/// rows (given repeat hits), and the memory system groups a run's rows
/// that lie wholly inside the line the previous row ended in.
#[derive(Default)]
struct Reach {
    /// A group with step at most the L2 hit latency (one closed form).
    closed: bool,
    /// A row inside the previous row's line with a longer step (moved
    /// on its own, as a fresh row is).
    walked: bool,
    /// A run's row that starts in the previous row's last line and
    /// crosses into the next one.
    crossing: bool,
    /// A multi-row burst with stride 0.
    zero_stride: bool,
}

fn reach(s: &Scenario) -> Reach {
    let step = TranslationSystem::new(TranslationConfig {
        private: TlbConfig::private(s.private),
        filter_registers: s.filters,
        ..TranslationConfig::default()
    })
    .repeat_latency();
    let mut out = Reach::default();
    for op in &s.ops {
        out.zero_stride |= op.stride == 0 && op.rows > 1;
        let Some(step) = step else { continue };
        // Bursts fault at the first row past the pages they may touch;
        // the rows before it move.
        let mapped = if op.write {
            RW_PAGES
        } else {
            RW_PAGES + RO_PAGES
        } * PAGE_SIZE;
        let line = |byte: u64| byte >> LINE_SHIFT;
        for r in 1..op.rows as u64 {
            let (prev, row) = (op.start + (r - 1) * op.stride, op.start + r * op.stride);
            let (prev_last, row_last) = (prev + op.row_bytes - 1, row + op.row_bytes - 1);
            if row_last >= mapped {
                break;
            }
            let one_page = prev / PAGE_SIZE == row_last / PAGE_SIZE;
            if !one_page || line(row) != line(prev_last) {
                continue;
            }
            if line(row_last) != line(row) {
                out.crossing = true;
            } else if step <= s.l2.hit_latency {
                out.closed = true;
            } else {
                out.walked = true;
            }
        }
    }
    out
}

/// The random scenarios are not vacuous: some reach the closed-form line
/// group, some a same-line row with a longer step, some a row that
/// crosses out of the previous row's line, and some a zero stride.
#[test]
fn scenarios_cover_line_groups() {
    let mut rng = proptest::TestRng::from_name("scenarios_cover_line_groups");
    let (mut closed, mut walked, mut crossing, mut zero) = (0, 0, 0, 0);
    for _ in 0..256 {
        let r = reach(&scenario().generate(&mut rng));
        closed += r.closed as u32;
        walked += r.walked as u32;
        crossing += r.crossing as u32;
        zero += r.zero_stride as u32;
    }
    assert!(
        closed > 0 && walked > 0 && crossing > 0 && zero > 0,
        "closed {closed} walked {walked} crossing {crossing} zero stride {zero}"
    );
}
