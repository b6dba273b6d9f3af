//! Column-vs-instruction equivalence for weight-stationary tile columns.
//!
//! `Accelerator::issue_tile_column` checks a column once and runs each
//! `(Preload, ComputePreloaded)` pair through the engine's execute steps.
//! This file keeps the sequence it replaces as the reference: the same
//! instructions, from `TileColumn::instructions`, issued one at a time
//! through `Accelerator::issue`. Two identical engines run the same random
//! scenario, one per path, and every observable must agree: the column's
//! result or error, execution and DMA statistics, the current cycle, the
//! attribution at finish, accumulator contents, trace events, live
//! metrics, and the completion cycles and bytes of follow-up transfers
//! over the rows the column touched.
//!
//! The release-mode sweep with many more cases runs with
//! `cargo test --release -p gemmini-core --test tile_column -- --include-ignored`.

use gemmini_core::config::GemminiConfig;
use gemmini_core::isa::{Instruction, LocalAddr};
use gemmini_core::metrics::{Metrics, MetricsRegistry};
use gemmini_core::trace::{BufferSink, Tracer};
use gemmini_core::{AccelError, Accelerator, MemCtx, TileColumn};
use gemmini_dnn::graph::Activation;
use gemmini_mem::addr::{VirtAddr, PAGE_SIZE};
use gemmini_mem::dram::MainMemory;
use gemmini_mem::{Cycle, MemorySystem};
use gemmini_vm::page::FrameAllocator;
use gemmini_vm::page_table::AddressSpace;
use gemmini_vm::translator::{TranslationConfig, TranslationSystem};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// Mapped pages behind every scenario's DRAM operands. The follow-up
/// mvout writes the last two.
const PAGES: u64 = 32;

/// The paper's 16×16 edge array, or a 4×4 one with a 1024-row scratchpad
/// and a 64-row accumulator, where columns run past the end sooner and
/// tiles never fill one of the scoreboard's 16-row blocks.
fn config(small: bool) -> GemminiConfig {
    if small {
        GemminiConfig {
            mesh_rows: 4,
            mesh_cols: 4,
            tile_rows: 1,
            tile_cols: 1,
            sp_capacity_kb: 4,
            sp_banks: 1,
            acc_capacity_kb: 1,
            ..GemminiConfig::edge()
        }
    } else {
        GemminiConfig::edge()
    }
}

/// An earlier transfer over rows the column touches: an mvin writes them
/// (a RAW or WAW hazard for the column), an mvout reads them (WAR).
#[derive(Debug, Clone, Copy)]
struct Hazard {
    /// 0: A's scratchpad rows, 1: B's, 2: C's accumulator rows.
    region: u8,
    mvin: bool,
    /// Row offset from the region's first row, before clamping.
    offset: i64,
    rows: u16,
    /// DRAM page the transfer reads or writes.
    page: u64,
}

#[derive(Debug, Clone)]
struct Scenario {
    small: bool,
    functional: bool,
    activation: Activation,
    hazards: Vec<Hazard>,
    col: TileColumn,
}

/// A system's memory context, borrowed field by field so its accelerator
/// can be borrowed alongside.
macro_rules! ctx {
    ($sys:expr) => {
        MemCtx {
            space: &$sys.space,
            translation: &mut $sys.translation,
            mem: &mut $sys.mem,
            data: $sys.functional.then_some(&mut $sys.data),
            port: 0,
        }
    };
}

/// One engine with its memory system, trace sink and metrics registry.
struct System {
    accel: Accelerator,
    space: AddressSpace,
    translation: TranslationSystem,
    mem: MemorySystem,
    data: MainMemory,
    base: VirtAddr,
    functional: bool,
    events: Arc<Mutex<BufferSink>>,
    registry: Arc<MetricsRegistry>,
}

impl System {
    fn new(s: &Scenario) -> Self {
        let mut frames = FrameAllocator::new();
        let mut space = AddressSpace::new(&mut frames);
        let base = space.alloc(&mut frames, PAGES * PAGE_SIZE);
        let mut data = MainMemory::new();
        for p in 0..PAGES {
            let page: Vec<u8> = (0..PAGE_SIZE)
                .map(|i| ((p * PAGE_SIZE + i) * 37 % 251) as u8)
                .collect();
            data.write(space.translate(base.add(p * PAGE_SIZE)).unwrap(), &page);
        }
        let mut accel = Accelerator::new(config(s.small));
        let (tracer, events) = Tracer::buffered();
        accel.set_tracer(tracer);
        let (metrics, registry) = Metrics::enabled();
        accel.set_metrics(metrics);
        Self {
            accel,
            space,
            translation: TranslationSystem::new(TranslationConfig::default()),
            mem: MemorySystem::default(),
            data,
            base,
            functional: s.functional,
            events,
            registry,
        }
    }

    fn issue(&mut self, instr: Instruction) -> Result<Cycle, AccelError> {
        self.accel.issue(&mut ctx!(self), instr)
    }

    fn issue_column(&mut self, col: &TileColumn) -> Result<Cycle, AccelError> {
        self.accel.issue_tile_column(&mut ctx!(self), col)
    }

    fn page(&self, page: u64) -> VirtAddr {
        self.base.add(page * PAGE_SIZE)
    }

    /// Configures the engine and issues the scenario's earlier transfers.
    fn prepare(&mut self, s: &Scenario) {
        let dim = self.accel.config().dim() as u16;
        for instr in [
            Instruction::ConfigEx {
                activation: s.activation,
                acc_scale: 0.25,
            },
            Instruction::ConfigLd { stride: 0 },
            Instruction::ConfigSt { stride: 0 },
        ] {
            self.issue(instr).expect("configuration issues");
        }
        let (sp_rows, acc_rows) = (
            self.accel.config().sp_rows() as i64,
            self.accel.config().acc_rows() as i64,
        );
        let c = &s.col;
        for h in &s.hazards {
            let (first, limit) = match h.region {
                0 => (c.a_row as i64, sp_rows),
                1 => (c.b_row as i64, sp_rows),
                _ => (c.c_row as i64, acc_rows),
            };
            let row = (first + h.offset).clamp(0, limit - 1);
            let rows = (h.rows as i64).min(limit - row) as u16;
            let local = if h.region == 2 {
                LocalAddr::Acc {
                    row: row as u32,
                    accumulate: false,
                }
            } else {
                LocalAddr::Sp { row: row as u32 }
            };
            let dram_addr = self.page(h.page);
            let instr = if h.mvin {
                Instruction::Mvin {
                    dram_addr,
                    local,
                    rows,
                    cols: dim,
                }
            } else {
                Instruction::Mvout {
                    dram_addr,
                    local,
                    rows,
                    cols: dim,
                }
            };
            self.issue(instr).expect("hazard transfers stay in range");
        }
    }

    /// After the column: an mvout of C's rows and an mvin over A's rows,
    /// clamped to the local memories. Returns their completion cycles.
    fn follow_up(&mut self, col: &TileColumn) -> (Cycle, Cycle) {
        let cfg = self.accel.config().clone();
        let clamp = |row: u32, limit: usize| {
            let row = (row as usize).min(limit - 1);
            (row as u32, (col.m_rows as usize).min(limit - row) as u16)
        };
        let (c_row, c_rows) = clamp(col.c_row, cfg.acc_rows());
        let (a_row, a_rows) = clamp(col.a_row, cfg.sp_rows());
        let dim = cfg.dim() as u16;
        let stored = self
            .issue(Instruction::Mvout {
                dram_addr: self.page(PAGES - 2),
                local: LocalAddr::Acc {
                    row: c_row,
                    accumulate: false,
                },
                rows: c_rows,
                cols: dim,
            })
            .expect("follow-up mvout");
        let loaded = self
            .issue(Instruction::Mvin {
                dram_addr: self.page(0),
                local: LocalAddr::Sp { row: a_row },
                rows: a_rows,
                cols: dim,
            })
            .expect("follow-up mvin");
        (stored, loaded)
    }

    /// Every observable, rendered for comparison.
    fn state(&mut self) -> String {
        let a = &self.accel;
        let acc = a.accumulator();
        let acc: Vec<&[i32]> = (0..acc.rows()).map(|r| acc.row(r)).collect();
        let mut out = vec![0u8; 2 * PAGE_SIZE as usize];
        let pa = self.space.translate(self.page(PAGES - 2)).unwrap();
        self.data.read(pa, &mut out[..PAGE_SIZE as usize]);
        let pa = self.space.translate(self.page(PAGES - 1)).unwrap();
        self.data.read(pa, &mut out[PAGE_SIZE as usize..]);
        format!(
            "stats {:?}\nnow {}\ndma {:?}\nattribution {:?}\nmetrics {:?}\n\
             events {:?}\nacc {:?}\nout {:?}",
            a.stats(),
            a.now(),
            a.dma_stats(),
            a.attribution(),
            self.registry.snapshot(),
            self.events.lock().unwrap().take(),
            acc,
            out,
        )
    }
}

fn check(s: &Scenario) {
    let mut column = System::new(s);
    let mut each = System::new(s);
    column.prepare(s);
    each.prepare(s);

    let got = column.issue_column(&s.col);
    let dim = each.accel.config().dim();
    let want = s
        .col
        .instructions(dim)
        .try_fold(0, |_, instr| each.issue(instr));
    assert_eq!(got, want, "column result");
    assert_eq!(
        column.follow_up(&s.col),
        each.follow_up(&s.col),
        "follow-up cycles"
    );

    let (got, want) = (column.state(), each.state());
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("\n column: {a}\n   each: {b}"))
            .unwrap_or_default();
        panic!("state diverged{line}");
    }
}

/// A row for a `rows`-row run in a `limit`-row memory, picked by `raw`:
/// anywhere in range, aligned to `dim`, flush with the end, or (when
/// `past`) running past the end.
fn place(raw: u64, past: bool, rows: usize, dim: usize, limit: usize) -> u32 {
    let rows = rows.min(limit);
    if past {
        return (limit + 1 - rows.max(1) + raw as usize % rows.max(1)) as u32;
    }
    let row = raw as usize % (limit - rows + 1);
    (match raw >> 61 {
        0..=2 => row,
        3..=5 => row / dim * dim,
        _ => limit - rows,
    }) as u32
}

fn scenario() -> impl Strategy<Value = Scenario> {
    let hazard = (
        0u8..3,
        any::<bool>(),
        -20i64..120,
        1u16..40,
        0u64..PAGES - 2,
    )
        .prop_map(|(region, mvin, offset, rows, page)| Hazard {
            region,
            mvin,
            offset,
            rows,
            page,
        });
    (
        (any::<bool>(), any::<bool>(), any::<bool>()),
        prop::collection::vec(hazard, 0..6),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (0u8..24, any::<bool>()),
    )
        .prop_map(
            |(
                (small, functional, relu),
                hazards,
                (m, b_rows, b_cols, a_cols),
                (a_raw, b_raw, c_raw),
                (invalid, accumulate),
            )| {
                let cfg = config(small);
                let dim = cfg.dim();
                let m_rows = 1 + (m % (6 * dim as u64)) as usize;
                // One case in 24 per field is out of range.
                let size = |raw: u64, field: u8| {
                    if invalid == field {
                        (dim + 1 + (raw % 2) as usize) as u16
                    } else {
                        (raw % (dim as u64 + 1)) as u16
                    }
                };
                let (b_rows, b_cols, a_cols) = (size(b_rows, 0), size(b_cols, 1), size(a_cols, 2));
                let sp = cfg.sp_rows();
                let col = TileColumn {
                    b_row: place(b_raw, invalid == 3, b_rows as usize, dim, sp),
                    b_rows,
                    b_cols,
                    a_row: place(a_raw, invalid == 4, m_rows, dim, sp),
                    a_cols,
                    c_row: place(c_raw, invalid == 5, m_rows, dim, cfg.acc_rows()),
                    m_rows: m_rows as u16,
                    accumulate,
                };
                Scenario {
                    small,
                    functional,
                    activation: if relu {
                        Activation::Relu
                    } else {
                        Activation::None
                    },
                    hazards,
                    col,
                }
            },
        )
}

proptest! {
    /// Every observable of a random column matches issuing its
    /// instructions one at a time.
    #[test]
    fn column_matches_each_instruction(s in scenario()) {
        check(&s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The same property over many more cases; run in release with
    /// `--include-ignored`.
    #[test]
    #[ignore = "slow: run with --release -- --include-ignored"]
    fn column_matches_each_instruction_many(s in scenario()) {
        check(&s);
    }
}

/// The random columns are not vacuous: some run every pair, some fail at
/// a later pair after earlier ones executed, and some fail at once.
#[test]
fn scenarios_cover_valid_and_failing_columns() {
    let mut rng = proptest::TestRng::from_name("scenarios_cover_valid_and_failing_columns");
    let (mut ok, mut late, mut early) = (0, 0, 0);
    for _ in 0..256 {
        let s = scenario().generate(&mut rng);
        let mut sys = System::new(&s);
        sys.prepare(&s);
        let computes = sys.accel.stats().computes;
        let result = sys.issue_column(&s.col);
        match (result, sys.accel.stats().computes - computes) {
            (Ok(_), n) => {
                assert_eq!(n as usize, s.col.pairs(sys.accel.config().dim()));
                ok += 1;
            }
            (Err(_), 0) => early += 1,
            (Err(_), _) => late += 1,
        }
    }
    assert!(
        ok > 128 && late > 0 && early > 0,
        "ok {ok} late {late} early {early}"
    );
}
