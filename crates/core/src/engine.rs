//! The accelerator execution engine: a decoupled load / execute / store
//! scoreboard.
//!
//! Real Gemmini queues RoCC commands into a reorder buffer feeding three
//! independent units — load (mvin), execute (preload/compute), store
//! (mvout) — so DMA overlaps compute (double buffering falls out of the
//! software issuing mvins for the next tile while the current one
//! computes). [`Accelerator`] reproduces that: instructions are *issued* in
//! program order, but each lands on its unit as soon as the unit is free
//! and its scratchpad/accumulator row dependencies (RAW, WAR, WAW) have
//! resolved.
//!
//! Functional and timing state advance together: in functional mode
//! (a [`MemCtx`] with `data`), every instruction moves real bytes and the
//! matrix unit performs real arithmetic, validated against `gemmini-dnn`'s
//! reference operators; in timing-only mode the same cycle accounting runs
//! with no data movement.

use crate::config::GemminiConfig;
use crate::dma::StreamDma;
use crate::isa::{Instruction, LocalAddr};
use crate::mesh::{MatrixUnit, MeshTiming};
use crate::metrics::Counter as MetricCounter;
use crate::peripherals::readout_row_into;
use crate::scratchpad::{Accumulator, Scratchpad};
use crate::trace::{AttributionKind, Component, CycleAttribution, Profiler, StallCause, Tracer};
use gemmini_dnn::graph::Activation;
use gemmini_mem::Cycle;
use gemmini_vm::translator::TranslateError;
use row_clock::RowClock;
use std::error::Error;
use std::fmt;

mod row_clock;

pub use crate::dma::MemCtx;

/// An error raised while executing an instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum AccelError {
    /// The DMA's translation failed (page fault / permission).
    Translate(TranslateError),
    /// A local address is malformed or out of range for this configuration.
    BadLocalAddress {
        /// The offending address.
        addr: LocalAddr,
        /// Why it was rejected.
        detail: String,
    },
    /// A compute was issued with no preceding preload.
    NoPreload,
    /// The instruction is not supported by this configuration.
    Unsupported(String),
}

impl fmt::Display for AccelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Translate(e) => write!(f, "dma translation failed: {e}"),
            Self::BadLocalAddress { addr, detail } => {
                write!(f, "bad local address {addr}: {detail}")
            }
            Self::NoPreload => write!(f, "compute issued before any preload"),
            Self::Unsupported(s) => write!(f, "unsupported operation: {s}"),
        }
    }
}

impl Error for AccelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Translate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TranslateError> for AccelError {
    fn from(e: TranslateError) -> Self {
        Self::Translate(e)
    }
}

/// Execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Cycle at which the last instruction completed.
    pub finish: Cycle,
    /// Cycles the load unit was busy.
    pub load_busy: u64,
    /// Cycles the execute unit was busy.
    pub ex_busy: u64,
    /// Cycles the store unit was busy.
    pub store_busy: u64,
    /// MACs performed (counted in both functional and timing-only modes).
    pub macs: u64,
    /// mvin instructions executed.
    pub loads: u64,
    /// preload instructions executed.
    pub preloads: u64,
    /// compute instructions executed.
    pub computes: u64,
    /// mvout instructions executed.
    pub stores: u64,
}

impl ExecStats {
    /// Achieved fraction of peak MAC throughput up to `finish`.
    pub fn utilization(&self, peak_macs_per_cycle: u64) -> f64 {
        if self.finish == 0 {
            0.0
        } else {
            self.macs as f64 / (self.finish as f64 * peak_macs_per_cycle as f64)
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct CfgState {
    activation: Activation,
    acc_scale: f32,
    ld_stride: u64,
    ld_shrink: bool,
    st_stride: u64,
}

impl Default for CfgState {
    fn default() -> Self {
        Self {
            activation: Activation::None,
            acc_scale: 1.0,
            ld_stride: 0,
            ld_shrink: false,
            st_stride: 0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PendingC {
    row: u32,
    accumulate: bool,
    b_cols: u16,
}

/// One weight-stationary tile column: a `b_rows × b_cols` block of B held
/// in the array while `m_rows` rows of A stream through it, `dim` rows per
/// compute, into as many accumulator rows. A's blocks and C's blocks each
/// lie `dim` rows apart from `a_row` and `c_row`; the last may be ragged.
///
/// [`TileColumn::instructions`] spells the column out in the ISA, and
/// [`Accelerator::issue_tile_column`] executes exactly that sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileColumn {
    /// Scratchpad row of B's first row.
    pub b_row: u32,
    /// Valid rows of B.
    pub b_rows: u16,
    /// Valid cols of B.
    pub b_cols: u16,
    /// Scratchpad row of A's first block.
    pub a_row: u32,
    /// Valid cols of A.
    pub a_cols: u16,
    /// Accumulator row of C's first block.
    pub c_row: u32,
    /// Rows of A (and of C) over all blocks.
    pub m_rows: u16,
    /// Whether the computes add into C rather than overwrite it.
    pub accumulate: bool,
}

impl TileColumn {
    /// `(Preload, ComputePreloaded)` pairs the column issues on a
    /// `dim × dim` array.
    pub fn pairs(&self, dim: usize) -> usize {
        (self.m_rows as usize).div_ceil(dim)
    }

    /// Pair `i`'s preload: the first loads B, the rest keep it.
    pub fn preload(&self, i: usize, dim: usize) -> Instruction {
        let (b, b_rows) = if i == 0 {
            (LocalAddr::Sp { row: self.b_row }, self.b_rows)
        } else {
            (LocalAddr::None, 0)
        };
        Instruction::Preload {
            b,
            c: LocalAddr::Acc {
                row: block_row(self.c_row, i, dim),
                accumulate: self.accumulate,
            },
            b_rows,
            b_cols: self.b_cols,
        }
    }

    /// Pair `i`'s compute over A's block `i`.
    pub fn compute(&self, i: usize, dim: usize) -> Instruction {
        Instruction::ComputePreloaded {
            a: LocalAddr::Sp {
                row: block_row(self.a_row, i, dim),
            },
            d: LocalAddr::None,
            a_rows: self.block_rows(i, dim),
            a_cols: self.a_cols,
        }
    }

    /// Rows of A's block `i`: `dim`, or fewer in a ragged last block.
    fn block_rows(&self, i: usize, dim: usize) -> u16 {
        (self.m_rows as usize - i * dim).min(dim) as u16
    }

    /// The column as the instruction sequence it stands for.
    pub fn instructions(&self, dim: usize) -> impl Iterator<Item = Instruction> + '_ {
        (0..self.pairs(dim)).flat_map(move |i| [self.preload(i, dim), self.compute(i, dim)])
    }
}

/// Local row of block `i` of a `dim`-row-per-block run starting at `base`.
fn block_row(base: u32, i: usize, dim: usize) -> u32 {
    base.wrapping_add((i * dim) as u32)
}

/// Reusable flat buffers for the functional hot path. Each issue clears and
/// refills what it needs; capacity persists across calls, so after the first
/// few tiles the steady state performs zero heap allocations (pinned by the
/// `alloc_guard` integration test).
#[derive(Debug, Default)]
struct Scratch {
    /// mvin landing zone: DMA bytes before the local-memory deposit.
    dma: Vec<u8>,
    /// Staged bias rows for the compute path.
    d: Vec<i32>,
    /// mvout staging: read-out bytes handed to the DMA.
    store: Vec<u8>,
}

/// One generated accelerator instance: spatial array + local memories +
/// DMA + the ROB-style scoreboard.
///
/// # Example
///
/// See the crate-level integration tests and `gemmini-soc`'s kernels; a
/// minimal flow is mvin → preload → compute → mvout:
///
/// ```no_run
/// use gemmini_core::{Accelerator, Instruction, config::GemminiConfig};
/// let mut accel = Accelerator::new(GemminiConfig::edge());
/// // ... build a MemCtx and issue instructions ...
/// ```
#[derive(Debug)]
pub struct Accelerator {
    config: GemminiConfig,
    timing: MeshTiming,
    matrix_unit: MatrixUnit,
    sp: Scratchpad,
    acc: Accumulator,
    dma: StreamDma,
    state: CfgState,
    load_free: Cycle,
    ex_free: Cycle,
    store_free: Cycle,
    sp_wr: RowClock,
    sp_rd: RowClock,
    acc_wr: RowClock,
    acc_rd: RowClock,
    pending_c: Option<PendingC>,
    b_ready: Cycle,
    scratch: Scratch,
    profiler: Profiler,
    stats: ExecStats,
}

impl Accelerator {
    /// Elaborates one accelerator instance that runs functionally or
    /// timing-only.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`GemminiConfig::validate`].
    pub fn new(config: GemminiConfig) -> Self {
        Self::elaborate(config, true)
    }

    /// Elaborates an instance for timing-only runs: its scratchpad and
    /// accumulator hold no contents, so it must be issued only a
    /// [`MemCtx`] without `data`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`GemminiConfig::validate`].
    pub fn timing_only(config: GemminiConfig) -> Self {
        Self::elaborate(config, false)
    }

    fn elaborate(config: GemminiConfig, functional: bool) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid Gemmini configuration: {e}");
        }
        let dim = config.dim();
        let sp_rows = config.sp_rows();
        let acc_rows = config.acc_rows();
        Self {
            timing: MeshTiming::from_config(&config),
            matrix_unit: MatrixUnit::new(dim),
            sp: Scratchpad::new(dim, sp_rows, functional),
            acc: Accumulator::new(dim, acc_rows, functional),
            dma: StreamDma::new(),
            state: CfgState::default(),
            load_free: 0,
            ex_free: 0,
            store_free: 0,
            sp_wr: RowClock::new(sp_rows),
            sp_rd: RowClock::new(sp_rows),
            acc_wr: RowClock::new(acc_rows),
            acc_rd: RowClock::new(acc_rows),
            pending_c: None,
            b_ready: 0,
            scratch: Scratch::default(),
            profiler: Profiler::new(),
            config,
            stats: ExecStats::default(),
        }
    }

    /// Attaches a trace-event sink; pass a [`Tracer`] clone tagged with
    /// this accelerator's core id. Attribution recording is always on;
    /// this only controls span emission for the Chrome export.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.profiler.set_tracer(tracer);
    }

    /// Attaches a live-metrics handle: compute tiles and DMA bursts
    /// record into it. Pure observation — timing and results are
    /// unaffected.
    pub fn set_metrics(&mut self, metrics: crate::metrics::Metrics) {
        self.profiler.set_metrics(metrics);
    }

    /// The exact cycle-attribution of the run so far: every cycle of
    /// `[0, finish)` classified into one bucket.
    pub fn attribution(&self) -> CycleAttribution {
        self.profiler.attribution(self.stats.finish)
    }

    /// The earliest cycle any future operation can start at — every
    /// unit's next interval begins at or after its free time.
    fn attribution_frontier(&self) -> Cycle {
        self.load_free.min(self.ex_free).min(self.store_free)
    }

    /// Unconditionally folds the attribution log's settled intervals (it
    /// normally compacts itself at a size threshold). The allocation-guard
    /// test calls this between its warm-up and measured passes so the
    /// measured pass starts from the log's steady state.
    pub fn compact_attribution(&mut self) {
        self.profiler.compact(self.attribution_frontier());
    }

    /// The configuration this instance was elaborated from.
    pub fn config(&self) -> &GemminiConfig {
        &self.config
    }

    /// Current time: when every unit has drained.
    pub fn now(&self) -> Cycle {
        self.load_free.max(self.ex_free).max(self.store_free)
    }

    /// Prevents any unit from starting work before `cycle` — used when the
    /// host CPU must finish something (e.g. software im2col) first.
    pub fn advance_to(&mut self, cycle: Cycle) {
        self.load_free = self.load_free.max(cycle);
        self.ex_free = self.ex_free.max(cycle);
        self.store_free = self.store_free.max(cycle);
    }

    /// Charges peripheral work that cannot start before `not_before`
    /// (e.g. pooling that consumes a finished DMA stream). Returns the
    /// completion cycle.
    pub fn charge_execute_after(&mut self, not_before: Cycle, cycles: u64) -> Cycle {
        let start = self.ex_free.max(not_before);
        self.ex_free = start + cycles;
        self.profiler.span(
            AttributionKind::Compute,
            Component::ExecuteUnit,
            "peripheral",
            start,
            self.ex_free,
            StallCause::None,
        );
        self.stats.ex_busy += cycles;
        self.stats.finish = self.stats.finish.max(self.ex_free);
        self.ex_free
    }

    /// Streams `rows` rows from memory directly into a peripheral unit
    /// (no local-memory deposit) — the input side of the pooling block.
    /// Returns the completion cycle.
    ///
    /// # Errors
    ///
    /// Propagates DMA translation failures.
    pub fn mvin_raw(
        &mut self,
        ctx: &mut MemCtx<'_>,
        dram_addr: gemmini_mem::addr::VirtAddr,
        rows: usize,
        row_bytes: u64,
        stride: u64,
    ) -> Result<Cycle, AccelError> {
        let start = self.load_free;
        // The stream feeds the peripheral directly; nothing is deposited,
        // so no destination buffer is needed even functionally.
        let xfer = self.dma.mvin(
            &mut self.profiler,
            ctx,
            start,
            dram_addr,
            rows,
            row_bytes,
            stride,
            None,
        )?;
        self.profiler.span(
            AttributionKind::Load,
            Component::LoadUnit,
            "mvin-raw",
            start,
            xfer.done,
            StallCause::None,
        );
        self.profiler.maybe_compact(self.attribution_frontier());
        self.stats.load_busy += xfer.done - start;
        self.stats.loads += 1;
        self.stats.finish = self.stats.finish.max(xfer.done);
        self.load_free = xfer.done;
        Ok(xfer.done)
    }

    /// The on-the-fly im2col block's engine hook: streams *raw image-format
    /// bytes* from memory (`raw_rows` rows of `raw_row_bytes`, `raw_stride`
    /// apart, starting at `dram_addr`) while depositing the *expanded patch
    /// rows* into scratchpad rows `sp_row..sp_row + patch_rows`.
    ///
    /// Timing and memory traffic follow the raw stream (that is the whole
    /// point of the block: k²-fold less DRAM traffic than a materialized
    /// patch matrix); functional contents come from `patch_data` — flat,
    /// `patch_rows` equal-length rows packed back to back — when running
    /// functionally.
    ///
    /// # Errors
    ///
    /// Propagates DMA translation failures and rejects out-of-range
    /// scratchpad rows.
    ///
    /// # Panics
    ///
    /// Panics if `patch_data` is provided with a length not divisible into
    /// `patch_rows` equal rows.
    #[allow(clippy::too_many_arguments)]
    pub fn mvin_im2col(
        &mut self,
        ctx: &mut MemCtx<'_>,
        dram_addr: gemmini_mem::addr::VirtAddr,
        raw_rows: usize,
        raw_row_bytes: u64,
        raw_stride: u64,
        sp_row: u32,
        patch_rows: u16,
        patch_data: Option<&[i8]>,
    ) -> Result<Cycle, AccelError> {
        if let Some(d) = patch_data {
            assert!(
                patch_rows > 0 && d.len() % patch_rows as usize == 0,
                "patch_data length must divide into patch_rows equal rows"
            );
        }
        let local = LocalAddr::Sp { row: sp_row };
        self.check_sp_range(local, sp_row, patch_rows)?;
        let dep = self
            .sp_wr
            .range_max(sp_row, patch_rows)
            .max(self.sp_rd.range_max(sp_row, patch_rows));
        let start = self.load_free.max(dep);
        // The raw stream feeds the im2col block, not the scratchpad, so
        // the DMA needs no destination buffer.
        let xfer = self.dma.mvin(
            &mut self.profiler,
            ctx,
            start,
            dram_addr,
            raw_rows,
            raw_row_bytes,
            raw_stride,
            None,
        )?;
        // Patch generation streams at one row per cycle behind the DMA.
        let done = xfer.done + patch_rows as u64;
        self.profiler.span(
            AttributionKind::Load,
            Component::LoadUnit,
            "mvin-im2col",
            start,
            done,
            StallCause::None,
        );
        self.profiler.maybe_compact(self.attribution_frontier());
        if ctx.data.is_some() {
            if let Some(flat) = patch_data {
                let row_len = flat.len() / patch_rows as usize;
                for i in 0..patch_rows as usize {
                    self.sp
                        .write_row(sp_row as usize + i, &flat[i * row_len..(i + 1) * row_len]);
                }
            }
        }
        self.sp_wr.mark(sp_row, patch_rows, done);
        self.stats.load_busy += done - start;
        self.stats.loads += 1;
        self.stats.finish = self.stats.finish.max(done);
        self.load_free = done;
        Ok(done)
    }

    /// Streams `rows` rows of `row_bytes` bytes to memory directly from a
    /// peripheral unit (e.g. the pooling block's output), bypassing the
    /// local memories. `data` supplies the bytes when running functionally,
    /// packed `rows * row_bytes` flat.
    ///
    /// # Errors
    ///
    /// Propagates DMA translation failures.
    pub fn mvout_raw(
        &mut self,
        ctx: &mut MemCtx<'_>,
        dram_addr: gemmini_mem::addr::VirtAddr,
        rows: usize,
        row_bytes: u64,
        stride: u64,
        data: Option<&[u8]>,
    ) -> Result<Cycle, AccelError> {
        let start = self.store_free.max(self.ex_free);
        let xfer = self.dma.mvout(
            &mut self.profiler,
            ctx,
            start,
            dram_addr,
            rows,
            row_bytes,
            stride,
            data,
        )?;
        self.profiler.span(
            AttributionKind::Store,
            Component::StoreUnit,
            "mvout-raw",
            start,
            xfer.done,
            StallCause::None,
        );
        self.profiler.maybe_compact(self.attribution_frontier());
        self.stats.store_busy += xfer.done - start;
        self.stats.stores += 1;
        self.stats.finish = self.stats.finish.max(xfer.done);
        self.store_free = xfer.done;
        Ok(xfer.done)
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// The DMA engine's statistics.
    pub fn dma_stats(&self) -> &crate::dma::DmaStats {
        self.dma.stats()
    }

    /// Direct read access to the scratchpad (tests / debugging).
    pub fn scratchpad(&self) -> &Scratchpad {
        &self.sp
    }

    /// Direct read access to the accumulator (tests / debugging).
    pub fn accumulator(&self) -> &Accumulator {
        &self.acc
    }

    fn check_sp_range(&self, addr: LocalAddr, row: u32, rows: u16) -> Result<(), AccelError> {
        if (row as usize + rows as usize) > self.sp.rows() {
            return Err(AccelError::BadLocalAddress {
                addr,
                detail: format!(
                    "rows {row}..{} exceed scratchpad ({} rows)",
                    row as usize + rows as usize,
                    self.sp.rows()
                ),
            });
        }
        Ok(())
    }

    fn check_acc_range(&self, addr: LocalAddr, row: u32, rows: u16) -> Result<(), AccelError> {
        if (row as usize + rows as usize) > self.acc.rows() {
            return Err(AccelError::BadLocalAddress {
                addr,
                detail: format!(
                    "rows {row}..{} exceed accumulator ({} rows)",
                    row as usize + rows as usize,
                    self.acc.rows()
                ),
            });
        }
        Ok(())
    }

    /// Rejects block dimensions larger than the spatial array.
    fn check_dims(&self, what: &str, rows: u16, cols: u16) -> Result<(), AccelError> {
        let dim = self.config.dim() as u16;
        if rows > dim || cols > dim {
            return Err(AccelError::Unsupported(format!(
                "{what} block {rows}x{cols} exceeds the {dim}x{dim} array"
            )));
        }
        Ok(())
    }

    /// Issues one instruction; returns the cycle at which it completes.
    ///
    /// # Errors
    ///
    /// See [`AccelError`]. On error, timing state may include partially
    /// executed work (as on hardware, where a faulting DMA has already
    /// moved earlier rows).
    pub fn issue(&mut self, ctx: &mut MemCtx<'_>, instr: Instruction) -> Result<Cycle, AccelError> {
        let result = self.issue_inner(ctx, instr);
        self.profiler.maybe_compact(self.attribution_frontier());
        result
    }

    /// Issues one weight-stationary tile column: the `(Preload,
    /// ComputePreloaded)` pairs of [`TileColumn::instructions`], with B
    /// preloaded by the first pair and kept by the rest. Every pair's
    /// timing, data, statistics, attribution and trace spans equal those
    /// of issuing the same instructions one at a time through
    /// [`Self::issue`]; the column is checked once rather than per
    /// instruction. Returns the last compute's completion cycle
    /// (the execute unit's free cycle for an empty column).
    ///
    /// # Errors
    ///
    /// The error the column's first failing instruction would return from
    /// [`Self::issue`], after the instructions before it have executed.
    pub fn issue_tile_column(
        &mut self,
        ctx: &mut MemCtx<'_>,
        col: &TileColumn,
    ) -> Result<Cycle, AccelError> {
        let dim = self.config.dim();
        let pairs = col.pairs(dim);
        // Instructions that execute, and the error of the one after them.
        let (valid, error) = if self.column_fits(col) {
            (2 * pairs, None)
        } else {
            self.first_column_error(col)
        };
        let functional = ctx.data.is_some();
        let mut done = self.ex_free;
        for i in 0..valid.div_ceil(2) {
            let c = PendingC {
                row: block_row(col.c_row, i, dim),
                accumulate: col.accumulate,
                b_cols: col.b_cols,
            };
            let (b_row, b_rows) = if i == 0 {
                (Some(col.b_row), col.b_rows)
            } else {
                (None, 0)
            };
            done = self.exec_preload(functional, b_row, b_rows, c);
            if 2 * i + 1 == valid {
                break;
            }
            self.profiler.metrics().inc(MetricCounter::TilesIssued);
            let a_row = block_row(col.a_row, i, dim);
            let a_rows = col.block_rows(i, dim);
            done = self.exec_compute(functional, a_row, a_rows, col.a_cols, c, LocalAddr::None);
        }
        // The failing instruction is a compute when an odd count ran.
        if error.is_some() && valid % 2 == 1 {
            self.profiler.metrics().inc(MetricCounter::TilesIssued);
        }
        self.profiler.maybe_compact(self.attribution_frontier());
        match error {
            Some(e) => Err(e),
            None => Ok(done),
        }
    }

    /// Whether every instruction of `col` passes [`Self::issue`]'s checks,
    /// from closed-form bounds on the whole column: the widest preload and
    /// compute blocks and the last accumulator block.
    fn column_fits(&self, col: &TileColumn) -> bool {
        let dim = self.config.dim();
        let pairs = col.pairs(dim);
        if pairs == 0 {
            return true;
        }
        let (sp_rows, acc_rows) = (self.sp.rows(), self.acc.rows());
        let last_c = col.c_row as usize + (pairs - 1) * dim;
        [col.b_rows, col.b_cols, col.a_cols]
            .iter()
            .all(|&n| n as usize <= dim)
            && col.b_row as usize + col.b_rows as usize <= sp_rows
            && col.a_row as usize + col.m_rows as usize <= sp_rows
            && col.c_row as usize + col.m_rows as usize <= acc_rows
            && last_c + col.b_cols.max(1) as usize <= acc_rows
    }

    /// Runs [`Self::issue`]'s checks over `col`'s instructions in order,
    /// with each compute checked against the destination its preload
    /// names: the number that pass before the first failure, and its error.
    #[cold]
    fn first_column_error(&self, col: &TileColumn) -> (usize, Option<AccelError>) {
        let dim = self.config.dim();
        let mut pending = None;
        for (k, instr) in col.instructions(dim).enumerate() {
            let checked = match instr {
                Instruction::Preload {
                    b,
                    c,
                    b_rows,
                    b_cols,
                } => self
                    .check_dims("preload", b_rows, b_cols)
                    .and_then(|()| self.check_preload_operands(b, c, b_rows, b_cols))
                    .map(|(_, c)| pending = Some(c)),
                Instruction::ComputePreloaded {
                    a,
                    d,
                    a_rows,
                    a_cols,
                } => self
                    .check_compute(pending, a, d, a_rows, a_cols)
                    .map(|_| ()),
                _ => unreachable!("a column holds only preloads and computes"),
            };
            if let Err(e) = checked {
                return (k, Some(e));
            }
        }
        (2 * col.pairs(dim), None)
    }

    fn issue_inner(
        &mut self,
        ctx: &mut MemCtx<'_>,
        instr: Instruction,
    ) -> Result<Cycle, AccelError> {
        match instr {
            Instruction::ConfigEx {
                activation,
                acc_scale,
            } => {
                self.state.activation = activation;
                self.state.acc_scale = acc_scale;
                self.ex_free += 1;
                Ok(self.ex_free)
            }
            Instruction::ConfigLd { stride, shrink } => {
                self.state.ld_stride = stride;
                self.state.ld_shrink = shrink;
                self.load_free += 1;
                Ok(self.load_free)
            }
            Instruction::ConfigSt { stride } => {
                self.state.st_stride = stride;
                self.store_free += 1;
                Ok(self.store_free)
            }
            Instruction::Mvin {
                dram_addr,
                local,
                rows,
                cols,
            } => self.do_mvin(ctx, dram_addr, local, rows, cols),
            Instruction::Mvout {
                dram_addr,
                local,
                rows,
                cols,
            } => self.do_mvout(ctx, dram_addr, local, rows, cols),
            Instruction::Preload {
                b,
                c,
                b_rows,
                b_cols,
            } => {
                self.check_dims("preload", b_rows, b_cols)?;
                let (b_row, c) = self.check_preload_operands(b, c, b_rows, b_cols)?;
                Ok(self.exec_preload(ctx.data.is_some(), b_row, b_rows, c))
            }
            Instruction::ComputePreloaded {
                a,
                d,
                a_rows,
                a_cols,
            } => {
                self.profiler.metrics().inc(MetricCounter::TilesIssued);
                let (a_row, c) = self.check_compute(self.pending_c, a, d, a_rows, a_cols)?;
                Ok(self.exec_compute(ctx.data.is_some(), a_row, a_rows, a_cols, c, d))
            }
            Instruction::Flush => {
                let t = self.now();
                self.advance_to(t);
                Ok(t)
            }
        }
    }

    fn do_mvin(
        &mut self,
        ctx: &mut MemCtx<'_>,
        dram_addr: gemmini_mem::addr::VirtAddr,
        local: LocalAddr,
        rows: u16,
        cols: u16,
    ) -> Result<Cycle, AccelError> {
        // mvin moves up to `dim` elements per local row; row counts are
        // only bounded by the local memory itself.
        self.check_dims("mvin", 0, cols)?;
        let (elem_bytes, dep_start) = match local {
            LocalAddr::Sp { row } => {
                self.check_sp_range(local, row, rows)?;
                let dep = self
                    .sp_wr
                    .range_max(row, rows)
                    .max(self.sp_rd.range_max(row, rows));
                (1u64, dep)
            }
            LocalAddr::Acc { row, .. } => {
                self.check_acc_range(local, row, rows)?;
                let dep = self
                    .acc_wr
                    .range_max(row, rows)
                    .max(self.acc_rd.range_max(row, rows));
                (if self.state.ld_shrink { 1u64 } else { 4u64 }, dep)
            }
            LocalAddr::None => {
                return Err(AccelError::BadLocalAddress {
                    addr: local,
                    detail: "mvin needs a destination".to_string(),
                })
            }
        };
        let row_bytes = cols as u64 * elem_bytes;
        let stride = if self.state.ld_stride == 0 {
            row_bytes
        } else {
            self.state.ld_stride
        };
        let start = self.load_free.max(dep_start);
        let xfer = self.dma.mvin(
            &mut self.profiler,
            ctx,
            start,
            dram_addr,
            rows as usize,
            row_bytes,
            stride,
            Some(&mut self.scratch.dma),
        )?;
        self.profiler.span(
            AttributionKind::Load,
            Component::LoadUnit,
            "mvin",
            start,
            xfer.done,
            StallCause::None,
        );

        // Functional: deposit rows straight from the flat DMA arena.
        if ctx.data.is_some() {
            let rb = row_bytes as usize;
            match local {
                LocalAddr::Sp { row } => {
                    for i in 0..rows as usize {
                        self.sp.write_row_bytes(
                            row as usize + i,
                            &self.scratch.dma[i * rb..(i + 1) * rb],
                        );
                    }
                }
                LocalAddr::Acc { row, accumulate } => {
                    for i in 0..rows as usize {
                        let bytes = &self.scratch.dma[i * rb..(i + 1) * rb];
                        let r = row as usize + i;
                        match (self.state.ld_shrink, accumulate) {
                            // Widen int8 payload to int32 on the way in.
                            (true, false) => self.acc.write_row_widen(r, bytes),
                            (true, true) => self.acc.accumulate_row_widen(r, bytes),
                            (false, false) => self.acc.write_row_i32le(r, bytes),
                            (false, true) => self.acc.accumulate_row_i32le(r, bytes),
                        }
                    }
                }
                LocalAddr::None => unreachable!(),
            }
        }

        match local {
            LocalAddr::Sp { row } => self.sp_wr.mark(row, rows, xfer.done),
            LocalAddr::Acc { row, .. } => self.acc_wr.mark(row, rows, xfer.done),
            LocalAddr::None => unreachable!(),
        }
        self.stats.load_busy += xfer.done - start;
        self.stats.loads += 1;
        self.stats.finish = self.stats.finish.max(xfer.done);
        self.load_free = xfer.done;
        Ok(xfer.done)
    }

    /// A preload's operand checks, after its block dimensions: the
    /// accumulator destination, then the stationary operand (`None` when
    /// the preload keeps the current one).
    fn check_preload_operands(
        &self,
        b: LocalAddr,
        c: LocalAddr,
        b_rows: u16,
        b_cols: u16,
    ) -> Result<(Option<u32>, PendingC), AccelError> {
        let c_dest = match c {
            LocalAddr::Acc { row, accumulate } => {
                self.check_acc_range(c, row, b_cols.max(1))?;
                PendingC {
                    row,
                    accumulate,
                    b_cols,
                }
            }
            other => {
                return Err(AccelError::BadLocalAddress {
                    addr: other,
                    detail: "preload destination must be an accumulator address".to_string(),
                })
            }
        };
        let b_row = match b {
            LocalAddr::Sp { row } => {
                self.check_sp_range(b, row, b_rows)?;
                Some(row)
            }
            LocalAddr::None => None,
            other => {
                return Err(AccelError::BadLocalAddress {
                    addr: other,
                    detail: "preload operand must be a scratchpad address".to_string(),
                })
            }
        };
        Ok((b_row, c_dest))
    }

    /// A checked preload's execution: loads B from scratchpad row `b_row`
    /// (or keeps the current operand when `None`) and names `c` as the
    /// destination of the computes that follow. Returns the completion
    /// cycle.
    #[inline(always)]
    fn exec_preload(
        &mut self,
        functional: bool,
        b_row: Option<u32>,
        b_rows: u16,
        c: PendingC,
    ) -> Cycle {
        let mut start = self.ex_free;
        if let Some(row) = b_row {
            start = start.max(self.sp_wr.range_max(row, b_rows));
            // Functional: load B into the array, zero-copy from the
            // scratchpad's contiguous row region.
            if functional {
                let dim = self.sp.dim();
                self.matrix_unit.preload_flat(
                    self.sp.rows_flat(row as usize, b_rows as usize),
                    b_rows as usize,
                    c.b_cols as usize,
                    dim,
                );
            }
        }
        let done = start + self.timing.preload_cycles(b_rows as usize);
        if let Some(row) = b_row {
            self.sp_rd.mark(row, b_rows, done);
        }
        self.profiler.span(
            AttributionKind::Compute,
            Component::ExecuteUnit,
            "preload",
            start,
            done,
            StallCause::None,
        );
        self.b_ready = done;
        self.pending_c = Some(c);
        self.stats.ex_busy += done - start;
        self.stats.preloads += 1;
        self.stats.finish = self.stats.finish.max(done);
        self.ex_free = done;
        done
    }

    /// A compute's checks, against the destination the
    /// last preload named (`pending`). Returns A's scratchpad row and that
    /// destination.
    fn check_compute(
        &self,
        pending: Option<PendingC>,
        a: LocalAddr,
        d: LocalAddr,
        a_rows: u16,
        a_cols: u16,
    ) -> Result<(u32, PendingC), AccelError> {
        self.check_dims("compute", a_rows, a_cols)?;
        let c = pending.ok_or(AccelError::NoPreload)?;
        let a_row = match a {
            LocalAddr::Sp { row } => {
                self.check_sp_range(a, row, a_rows)?;
                row
            }
            other => {
                return Err(AccelError::BadLocalAddress {
                    addr: other,
                    detail: "compute operand A must be a scratchpad address".to_string(),
                })
            }
        };
        self.check_acc_range(
            LocalAddr::Acc {
                row: c.row,
                accumulate: c.accumulate,
            },
            c.row,
            a_rows,
        )?;
        match d {
            LocalAddr::None => {}
            LocalAddr::Acc { row, .. } => self.check_acc_range(d, row, a_rows)?,
            LocalAddr::Sp { row } => self.check_sp_range(d, row, a_rows)?,
        }
        Ok((a_row, c))
    }

    /// A checked compute's execution: streams A from
    /// scratchpad row `a_row` through the preloaded array into `c`, adding
    /// the bias `d`. Returns the completion cycle.
    #[inline(always)]
    fn exec_compute(
        &mut self,
        functional: bool,
        a_row: u32,
        a_rows: u16,
        a_cols: u16,
        c: PendingC,
        d: LocalAddr,
    ) -> Cycle {
        let mut start = self
            .ex_free
            .max(self.b_ready)
            .max(self.sp_wr.range_max(a_row, a_rows))
            .max(self.acc_wr.range_max(c.row, a_rows))
            .max(self.acc_rd.range_max(c.row, a_rows));

        // Optional bias operand: resolve hazards here; the functional view
        // is built below (accumulator-sourced bias reads zero-copy,
        // scratchpad-sourced bias widens into the reused arena).
        match d {
            LocalAddr::None => {}
            LocalAddr::Acc { row, .. } => start = start.max(self.acc_wr.range_max(row, a_rows)),
            LocalAddr::Sp { row } => start = start.max(self.sp_wr.range_max(row, a_rows)),
        }

        let done = start + self.timing.compute_cycles(a_rows as usize);
        self.profiler.span(
            AttributionKind::Compute,
            Component::Mesh,
            "compute",
            start,
            done,
            StallCause::None,
        );

        // Functional compute: the mesh accumulates straight into the
        // destination rows (zeroed first unless the accumulate bit is
        // set). The bias is staged before the destination changes, since
        // an accumulator-sourced bias may alias it; int32 wrapping adds
        // commute, so adding it last equals `C = A·B + D`.
        if functional {
            let dim = self.config.dim();
            let rows = a_rows as usize;
            let bias = match d {
                LocalAddr::None => false,
                LocalAddr::Acc { row, .. } => {
                    self.scratch.d.clear();
                    let src = self.acc.rows_flat(row as usize, rows);
                    self.scratch.d.extend_from_slice(src);
                    true
                }
                LocalAddr::Sp { row } => {
                    self.scratch.d.clear();
                    let src = self.sp.rows_flat(row as usize, rows);
                    self.scratch.d.extend(src.iter().map(|&x| x as i32));
                    true
                }
            };
            let dst = self.acc.rows_flat_mut(c.row as usize, rows);
            if !c.accumulate {
                dst.fill(0);
            }
            self.matrix_unit.accumulate_into(
                self.sp.rows_flat(a_row as usize, rows),
                rows,
                a_cols as usize,
                dim,
                dst,
                dim,
            );
            if bias {
                for (o, &b) in dst.iter_mut().zip(&self.scratch.d) {
                    *o = o.wrapping_add(b);
                }
            }
        }

        self.stats.macs += a_rows as u64 * a_cols as u64 * c.b_cols.max(1) as u64;
        self.sp_rd.mark(a_row, a_rows, done);
        self.acc_wr.mark(c.row, a_rows, done);
        self.stats.ex_busy += done - start;
        self.stats.computes += 1;
        self.stats.finish = self.stats.finish.max(done);
        self.ex_free = done;
        done
    }

    fn do_mvout(
        &mut self,
        ctx: &mut MemCtx<'_>,
        dram_addr: gemmini_mem::addr::VirtAddr,
        local: LocalAddr,
        rows: u16,
        cols: u16,
    ) -> Result<Cycle, AccelError> {
        self.check_dims("mvout", 0, cols)?;
        // Stage the read-out rows flat in the reused store arena; the
        // accumulator path applies the activation/scale datapath per value
        // on the way.
        let functional = ctx.data.is_some();
        if functional {
            self.scratch.store.clear();
        }
        let dep: Cycle = match local {
            LocalAddr::Acc { row, .. } => {
                self.check_acc_range(local, row, rows)?;
                if functional {
                    for i in 0..rows as usize {
                        readout_row_into(
                            &self.acc.row(row as usize + i)[..cols as usize],
                            self.state.activation,
                            self.state.acc_scale,
                            &mut self.scratch.store,
                        );
                    }
                }
                self.acc_wr.range_max(row, rows)
            }
            LocalAddr::Sp { row } => {
                self.check_sp_range(local, row, rows)?;
                if functional {
                    for i in 0..rows as usize {
                        self.scratch.store.extend(
                            self.sp.row(row as usize + i)[..cols as usize]
                                .iter()
                                .map(|&v| v as u8),
                        );
                    }
                }
                self.sp_wr.range_max(row, rows)
            }
            LocalAddr::None => {
                return Err(AccelError::BadLocalAddress {
                    addr: local,
                    detail: "mvout needs a source".to_string(),
                })
            }
        };

        let row_bytes = cols as u64; // outputs are int8
        let stride = if self.state.st_stride == 0 {
            row_bytes
        } else {
            self.state.st_stride
        };
        let start = self.store_free.max(dep);
        let xfer = self.dma.mvout(
            &mut self.profiler,
            ctx,
            start,
            dram_addr,
            rows as usize,
            row_bytes,
            stride,
            functional.then_some(&self.scratch.store[..]),
        )?;
        self.profiler.span(
            AttributionKind::Store,
            Component::StoreUnit,
            "mvout",
            start,
            xfer.done,
            StallCause::None,
        );

        match local {
            LocalAddr::Acc { row, .. } => self.acc_rd.mark(row, rows, xfer.done),
            LocalAddr::Sp { row } => self.sp_rd.mark(row, rows, xfer.done),
            LocalAddr::None => unreachable!(),
        }
        self.stats.store_busy += xfer.done - start;
        self.stats.stores += 1;
        self.stats.finish = self.stats.finish.max(xfer.done);
        self.store_free = xfer.done;
        Ok(xfer.done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemmini_dnn::ops::matmul;
    use gemmini_dnn::quant::{requantize_tensor, QuantParams};
    use gemmini_dnn::tensor::Tensor;
    use gemmini_mem::addr::{VirtAddr, PAGE_SIZE};
    use gemmini_mem::dram::MainMemory;
    use gemmini_mem::MemorySystem;
    use gemmini_vm::page::FrameAllocator;
    use gemmini_vm::page_table::AddressSpace;
    use gemmini_vm::translator::{TranslationConfig, TranslationSystem};

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
        let base = space.alloc(&mut frames, 256 * PAGE_SIZE);
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

        fn timing_ctx(&mut self) -> MemCtx<'_> {
            MemCtx {
                space: &self.space,
                translation: &mut self.translation,
                mem: &mut self.mem,
                data: None,
                port: 0,
            }
        }

        /// Writes an i8 matrix to virtual memory, densely packed.
        fn store_matrix(&mut self, va: VirtAddr, t: &Tensor<i8>) {
            let bytes: Vec<u8> = t.as_slice().iter().map(|&x| x as u8).collect();
            let pa = self.space.translate(va).unwrap();
            // All tests allocate page-aligned regions larger than a page;
            // write page-by-page to respect the mapping.
            let mut off = 0usize;
            while off < bytes.len() {
                let va_cur = va.add(off as u64);
                let pa_cur = self.space.translate(va_cur).unwrap();
                let in_page = (PAGE_SIZE - va_cur.offset_in_page()) as usize;
                let n = in_page.min(bytes.len() - off);
                self.data.write(pa_cur, &bytes[off..off + n]);
                off += n;
            }
            let _ = pa;
        }

        /// Reads an i8 matrix back from virtual memory.
        fn load_matrix(&self, va: VirtAddr, rows: usize, cols: usize) -> Tensor<i8> {
            let mut out = vec![0u8; rows * cols];
            let mut off = 0usize;
            while off < out.len() {
                let va_cur = va.add(off as u64);
                let pa_cur = self.space.translate(va_cur).unwrap();
                let in_page = (PAGE_SIZE - va_cur.offset_in_page()) as usize;
                let n = in_page.min(out.len() - off);
                let mut buf = vec![0u8; n];
                self.data.read(pa_cur, &mut buf);
                out[off..off + n].copy_from_slice(&buf);
                off += n;
            }
            Tensor::from_vec(&[rows, cols], out.iter().map(|&b| b as i8).collect())
        }
    }

    fn sp(row: u32) -> LocalAddr {
        LocalAddr::Sp { row }
    }
    fn acc(row: u32, accumulate: bool) -> LocalAddr {
        LocalAddr::Acc { row, accumulate }
    }

    /// Runs a full 16x16 matmul through the instruction stream and checks
    /// the result against the reference golden model.
    #[test]
    fn end_to_end_tile_matmul_matches_reference() {
        let mut r = rig();
        let dim = 16;
        let a = Tensor::<i8>::random(&[dim, dim], 100);
        let b = Tensor::<i8>::random(&[dim, dim], 200);
        let va_a = r.base;
        let va_b = r.base.add(4096);
        let va_c = r.base.add(8192);
        r.store_matrix(va_a, &a);
        r.store_matrix(va_b, &b);

        let mut accel = Accelerator::new(GemminiConfig::edge());
        let mut ctx = r.ctx();
        let prog = [
            Instruction::ConfigEx {
                activation: Activation::None,
                acc_scale: 1.0,
            },
            Instruction::Mvin {
                dram_addr: va_a,
                local: sp(0),
                rows: 16,
                cols: 16,
            },
            Instruction::Mvin {
                dram_addr: va_b,
                local: sp(16),
                rows: 16,
                cols: 16,
            },
            Instruction::Preload {
                b: sp(16),
                c: acc(0, false),
                b_rows: 16,
                b_cols: 16,
            },
            Instruction::ComputePreloaded {
                a: sp(0),
                d: LocalAddr::None,
                a_rows: 16,
                a_cols: 16,
            },
            Instruction::Mvout {
                dram_addr: va_c,
                local: acc(0, false),
                rows: 16,
                cols: 16,
            },
            Instruction::Flush,
        ];
        for i in prog {
            accel.issue(&mut ctx, i).unwrap();
        }

        let got = r.load_matrix(va_c, dim, dim);
        let want = requantize_tensor(&matmul(&a, &b), QuantParams::new(1.0));
        assert_eq!(got, want);
    }

    #[test]
    fn accumulation_across_k_tiles() {
        // C = A1*B1 + A2*B2 via two preload/compute pairs with the
        // accumulate bit on the second.
        let mut r = rig();
        let dim = 16;
        let a1 = Tensor::<i8>::random(&[dim, dim], 1);
        let b1 = Tensor::<i8>::random(&[dim, dim], 2);
        let a2 = Tensor::<i8>::random(&[dim, dim], 3);
        let b2 = Tensor::<i8>::random(&[dim, dim], 4);
        let (va_a1, va_b1) = (r.base, r.base.add(4096));
        let (va_a2, va_b2) = (r.base.add(8192), r.base.add(12288));
        let va_c = r.base.add(16384);
        r.store_matrix(va_a1, &a1);
        r.store_matrix(va_b1, &b1);
        r.store_matrix(va_a2, &a2);
        r.store_matrix(va_b2, &b2);

        let mut accel = Accelerator::new(GemminiConfig::edge());
        let mut ctx = r.ctx();
        let mv = |va, row| Instruction::Mvin {
            dram_addr: va,
            local: sp(row),
            rows: 16,
            cols: 16,
        };
        for i in [
            mv(va_a1, 0),
            mv(va_b1, 16),
            mv(va_a2, 32),
            mv(va_b2, 48),
            Instruction::Preload {
                b: sp(16),
                c: acc(0, false),
                b_rows: 16,
                b_cols: 16,
            },
            Instruction::ComputePreloaded {
                a: sp(0),
                d: LocalAddr::None,
                a_rows: 16,
                a_cols: 16,
            },
            Instruction::Preload {
                b: sp(48),
                c: acc(0, true),
                b_rows: 16,
                b_cols: 16,
            },
            Instruction::ComputePreloaded {
                a: sp(32),
                d: LocalAddr::None,
                a_rows: 16,
                a_cols: 16,
            },
            Instruction::Mvout {
                dram_addr: va_c,
                local: acc(0, false),
                rows: 16,
                cols: 16,
            },
        ] {
            accel.issue(&mut ctx, i).unwrap();
        }

        let got = r.load_matrix(va_c, dim, dim);
        let mut want = matmul(&a1, &b1);
        let second = matmul(&a2, &b2);
        for (w, s) in want.as_mut_slice().iter_mut().zip(second.as_slice()) {
            *w = w.wrapping_add(*s);
        }
        let want = requantize_tensor(&want, QuantParams::new(1.0));
        assert_eq!(got, want);
    }

    #[test]
    fn overwrite_with_aliased_bias_is_a_times_b_plus_old_rows() {
        // acc = A1·B1, then an overwriting compute whose bias is the same
        // accumulator rows: acc = A2·B2 + A1·B1. The bias must be read
        // before the destination is cleared and accumulated into. Small
        // values keep every sum inside the int8 output range.
        let mut r = rig();
        let dim = 16;
        let small = |seed| Tensor::<i8>::random(&[dim, dim], seed).map(|v| v / 32);
        let (a1, b1, a2, b2) = (small(5), small(6), small(7), small(8));
        let va = |i: u64| r.base.add(i * 4096);
        let (va_a1, va_b1, va_a2, va_b2, va_c) = (va(0), va(1), va(2), va(3), va(4));
        for (v, t) in [(va_a1, &a1), (va_b1, &b1), (va_a2, &a2), (va_b2, &b2)] {
            r.store_matrix(v, t);
        }

        let mut accel = Accelerator::new(GemminiConfig::edge());
        let mut ctx = r.ctx();
        let mv = |va, row| Instruction::Mvin {
            dram_addr: va,
            local: sp(row),
            rows: 16,
            cols: 16,
        };
        let pre = |b| Instruction::Preload {
            b: sp(b),
            c: acc(0, false),
            b_rows: 16,
            b_cols: 16,
        };
        let compute = |a, d| Instruction::ComputePreloaded {
            a: sp(a),
            d,
            a_rows: 16,
            a_cols: 16,
        };
        for i in [
            mv(va_a1, 0),
            mv(va_b1, 16),
            mv(va_a2, 32),
            mv(va_b2, 48),
            pre(16),
            compute(0, LocalAddr::None),
            pre(48),
            compute(32, acc(0, false)),
            Instruction::Mvout {
                dram_addr: va_c,
                local: acc(0, false),
                rows: 16,
                cols: 16,
            },
        ] {
            accel.issue(&mut ctx, i).unwrap();
        }

        let got = r.load_matrix(va_c, dim, dim);
        let mut want = matmul(&a2, &b2);
        for (w, s) in want
            .as_mut_slice()
            .iter_mut()
            .zip(matmul(&a1, &b1).as_slice())
        {
            *w += *s;
        }
        assert!(want.as_slice().iter().all(|v| v.abs() < 128));
        assert_eq!(got, requantize_tensor(&want, QuantParams::new(1.0)));
    }

    #[test]
    fn relu_and_scale_apply_on_mvout() {
        let mut r = rig();
        let a = Tensor::from_vec(&[1, 1], vec![10i8]);
        let b = Tensor::from_vec(&[1, 1], vec![-10i8]);
        r.store_matrix(r.base, &a);
        r.store_matrix(r.base.add(4096), &b);
        let va_c = r.base.add(8192);

        // 4x4 array is enough.
        let cfg = GemminiConfig {
            mesh_rows: 4,
            mesh_cols: 4,
            tile_rows: 1,
            tile_cols: 1,
            sp_capacity_kb: 4,
            sp_banks: 1,
            acc_capacity_kb: 1,
            ..GemminiConfig::edge()
        };
        let mut accel = Accelerator::new(cfg);
        let base = r.base;
        let mut ctx = r.ctx();
        for i in [
            Instruction::ConfigEx {
                activation: Activation::Relu,
                acc_scale: 0.5,
            },
            Instruction::Mvin {
                dram_addr: base,
                local: sp(0),
                rows: 1,
                cols: 1,
            },
            Instruction::Mvin {
                dram_addr: base.add(4096),
                local: sp(1),
                rows: 1,
                cols: 1,
            },
            Instruction::Preload {
                b: sp(1),
                c: acc(0, false),
                b_rows: 1,
                b_cols: 1,
            },
            Instruction::ComputePreloaded {
                a: sp(0),
                d: LocalAddr::None,
                a_rows: 1,
                a_cols: 1,
            },
            Instruction::Mvout {
                dram_addr: va_c,
                local: acc(0, false),
                rows: 1,
                cols: 1,
            },
        ] {
            accel.issue(&mut ctx, i).unwrap();
        }
        // 10 * -10 = -100 -> relu -> 0.
        assert_eq!(r.load_matrix(va_c, 1, 1).as_slice(), &[0]);
    }

    #[test]
    fn bias_via_accumulator_mvin() {
        let mut r = rig();
        // D (bias) as int32 little-endian.
        let bias: Vec<u8> = 5i32.to_le_bytes().to_vec();
        let pa = r.space.translate(r.base.add(2 * 4096)).unwrap();
        r.data.write(pa, &bias);

        let a = Tensor::from_vec(&[1, 1], vec![3i8]);
        let b = Tensor::from_vec(&[1, 1], vec![4i8]);
        r.store_matrix(r.base, &a);
        r.store_matrix(r.base.add(4096), &b);
        let va_c = r.base.add(3 * 4096);

        let cfg = GemminiConfig {
            mesh_rows: 4,
            mesh_cols: 4,
            tile_rows: 1,
            tile_cols: 1,
            sp_capacity_kb: 4,
            sp_banks: 1,
            acc_capacity_kb: 1,
            ..GemminiConfig::edge()
        };
        let mut accel = Accelerator::new(cfg);
        let base = r.base;
        let mut ctx = r.ctx();
        for i in [
            Instruction::Mvin {
                dram_addr: base,
                local: sp(0),
                rows: 1,
                cols: 1,
            },
            Instruction::Mvin {
                dram_addr: base.add(4096),
                local: sp(1),
                rows: 1,
                cols: 1,
            },
            // Load bias directly into the accumulator...
            Instruction::Mvin {
                dram_addr: base.add(2 * 4096),
                local: acc(0, false),
                rows: 1,
                cols: 1,
            },
            // ...then accumulate the product onto it.
            Instruction::Preload {
                b: sp(1),
                c: acc(0, true),
                b_rows: 1,
                b_cols: 1,
            },
            Instruction::ComputePreloaded {
                a: sp(0),
                d: LocalAddr::None,
                a_rows: 1,
                a_cols: 1,
            },
            Instruction::Mvout {
                dram_addr: va_c,
                local: acc(0, false),
                rows: 1,
                cols: 1,
            },
        ] {
            accel.issue(&mut ctx, i).unwrap();
        }
        // 3*4 + 5 = 17.
        assert_eq!(r.load_matrix(va_c, 1, 1).as_slice(), &[17]);
    }

    #[test]
    fn load_overlaps_compute() {
        let mut r = rig();
        let a = Tensor::<i8>::random(&[16, 16], 1);
        r.store_matrix(r.base, &a);
        r.store_matrix(r.base.add(4096), &a);
        r.store_matrix(r.base.add(8192), &a);

        let mut accel = Accelerator::new(GemminiConfig::edge());
        let base = r.base;
        let mut ctx = r.ctx();
        accel
            .issue(
                &mut ctx,
                Instruction::Mvin {
                    dram_addr: base,
                    local: sp(0),
                    rows: 16,
                    cols: 16,
                },
            )
            .unwrap();
        accel
            .issue(
                &mut ctx,
                Instruction::Mvin {
                    dram_addr: base.add(4096),
                    local: sp(16),
                    rows: 16,
                    cols: 16,
                },
            )
            .unwrap();
        accel
            .issue(
                &mut ctx,
                Instruction::Preload {
                    b: sp(16),
                    c: acc(0, false),
                    b_rows: 16,
                    b_cols: 16,
                },
            )
            .unwrap();
        let compute_done = accel
            .issue(
                &mut ctx,
                Instruction::ComputePreloaded {
                    a: sp(0),
                    d: LocalAddr::None,
                    a_rows: 16,
                    a_cols: 16,
                },
            )
            .unwrap();
        // A third mvin to an unrelated region starts before compute ends.
        let load_done = accel
            .issue(
                &mut ctx,
                Instruction::Mvin {
                    dram_addr: base.add(8192),
                    local: sp(32),
                    rows: 16,
                    cols: 16,
                },
            )
            .unwrap();
        // The load unit was free the whole time, so the third load's start
        // (done - duration) precedes the compute's completion.
        assert!(load_done > 0 && compute_done > 0);
        assert!(accel.stats().load_busy > 0);
        // Loads and computes overlapped: total wall clock is less than the
        // sum of unit busy times.
        let s = accel.stats();
        assert!(s.finish < s.load_busy + s.ex_busy + s.store_busy);
    }

    #[test]
    fn raw_hazard_is_respected() {
        // A compute reading sp rows must wait for the mvin writing them.
        let mut r = rig();
        let a = Tensor::<i8>::random(&[16, 16], 1);
        r.store_matrix(r.base, &a);
        r.store_matrix(r.base.add(4096), &a);

        let mut accel = Accelerator::new(GemminiConfig::edge());
        let base = r.base;
        let mut ctx = r.ctx();
        let b_done = accel
            .issue(
                &mut ctx,
                Instruction::Mvin {
                    dram_addr: base.add(4096),
                    local: sp(16),
                    rows: 16,
                    cols: 16,
                },
            )
            .unwrap();
        let preload_done = accel
            .issue(
                &mut ctx,
                Instruction::Preload {
                    b: sp(16),
                    c: acc(0, false),
                    b_rows: 16,
                    b_cols: 16,
                },
            )
            .unwrap();
        assert!(
            preload_done > b_done,
            "preload reads B after its mvin completes"
        );
    }

    #[test]
    fn compute_without_preload_errors() {
        let mut r = rig();
        let mut accel = Accelerator::new(GemminiConfig::edge());
        let mut ctx = r.ctx();
        let e = accel
            .issue(
                &mut ctx,
                Instruction::ComputePreloaded {
                    a: sp(0),
                    d: LocalAddr::None,
                    a_rows: 1,
                    a_cols: 1,
                },
            )
            .unwrap_err();
        assert_eq!(e, AccelError::NoPreload);
    }

    #[test]
    fn out_of_range_rows_error() {
        let mut r = rig();
        let mut accel = Accelerator::new(GemminiConfig::edge());
        let rows = accel.config().sp_rows() as u32;
        let base = r.base;
        let mut ctx = r.ctx();
        let e = accel
            .issue(
                &mut ctx,
                Instruction::Mvin {
                    dram_addr: base,
                    local: sp(rows - 1),
                    rows: 2,
                    cols: 16,
                },
            )
            .unwrap_err();
        assert!(matches!(e, AccelError::BadLocalAddress { .. }));
        assert!(e.to_string().contains("exceed scratchpad"));
    }

    #[test]
    fn page_fault_surfaces_as_translate_error() {
        let mut r = rig();
        let mut accel = Accelerator::new(GemminiConfig::edge());
        let mut ctx = r.ctx();
        let e = accel
            .issue(
                &mut ctx,
                Instruction::Mvin {
                    dram_addr: VirtAddr::new(0xbad0_0000),
                    local: sp(0),
                    rows: 1,
                    cols: 16,
                },
            )
            .unwrap_err();
        assert!(matches!(e, AccelError::Translate(_)));
    }

    #[test]
    fn timing_only_matches_functional_cycles() {
        let program = |accel: &mut Accelerator, ctx: &mut MemCtx<'_>, base: VirtAddr| {
            for i in [
                Instruction::Mvin {
                    dram_addr: base,
                    local: sp(0),
                    rows: 16,
                    cols: 16,
                },
                Instruction::Mvin {
                    dram_addr: base.add(4096),
                    local: sp(16),
                    rows: 16,
                    cols: 16,
                },
                Instruction::Preload {
                    b: sp(16),
                    c: acc(0, false),
                    b_rows: 16,
                    b_cols: 16,
                },
                Instruction::ComputePreloaded {
                    a: sp(0),
                    d: LocalAddr::None,
                    a_rows: 16,
                    a_cols: 16,
                },
                Instruction::Mvout {
                    dram_addr: base.add(8192),
                    local: acc(0, false),
                    rows: 16,
                    cols: 16,
                },
            ] {
                accel.issue(ctx, i).unwrap();
            }
        };

        let mut r1 = rig();
        let t = Tensor::<i8>::random(&[16, 16], 9);
        r1.store_matrix(r1.base, &t);
        r1.store_matrix(r1.base.add(4096), &t);
        let mut a1 = Accelerator::new(GemminiConfig::edge());
        let base1 = r1.base;
        {
            let mut ctx = r1.ctx();
            program(&mut a1, &mut ctx, base1);
        }

        let mut r2 = rig();
        let mut a2 = Accelerator::new(GemminiConfig::edge());
        let base2 = r2.base;
        {
            let mut ctx = r2.timing_ctx();
            program(&mut a2, &mut ctx, base2);
        }

        assert_eq!(a1.stats().finish, a2.stats().finish);
        assert_eq!(a1.stats().macs, a2.stats().macs);

        // The cycle-attribution breakdown is exact in both modes: the
        // buckets partition [0, finish) and do not depend on whether
        // bytes actually moved.
        let attr1 = a1.attribution();
        let attr2 = a2.attribution();
        assert_eq!(attr1, attr2, "attribution must not depend on mode");
        assert_eq!(attr1.total(), a1.stats().finish);
        assert!(
            attr1.compute > 0 && attr1.load > 0 && attr1.store > 0,
            "attr = {attr1:?}"
        );
        assert!(attr1.tlb_stall > 0, "cold TLB walks must be attributed");
    }

    #[test]
    fn traced_run_emits_component_spans() {
        let mut r = rig();
        let t = Tensor::<i8>::random(&[16, 16], 5);
        r.store_matrix(r.base, &t);
        r.store_matrix(r.base.add(4096), &t);

        let mut accel = Accelerator::new(GemminiConfig::edge());
        let (tracer, buf) = Tracer::buffered();
        accel.set_tracer(tracer);
        let base = r.base;
        let mut ctx = r.ctx();
        for i in [
            Instruction::Mvin {
                dram_addr: base,
                local: sp(0),
                rows: 16,
                cols: 16,
            },
            Instruction::Mvin {
                dram_addr: base.add(4096),
                local: sp(16),
                rows: 16,
                cols: 16,
            },
            Instruction::Preload {
                b: sp(16),
                c: acc(0, false),
                b_rows: 16,
                b_cols: 16,
            },
            Instruction::ComputePreloaded {
                a: sp(0),
                d: LocalAddr::None,
                a_rows: 16,
                a_cols: 16,
            },
            Instruction::Mvout {
                dram_addr: base.add(8192),
                local: acc(0, false),
                rows: 16,
                cols: 16,
            },
        ] {
            accel.issue(&mut ctx, i).unwrap();
        }
        let events = buf.lock().unwrap().take();
        for component in [
            Component::LoadUnit,
            Component::Mesh,
            Component::StoreUnit,
            Component::Dma,
        ] {
            assert!(
                events.iter().any(|e| e.component == component),
                "no event from {component:?}"
            );
        }
        // Every span ends at or before the run's finish cycle.
        let finish = accel.stats().finish;
        assert!(events.iter().all(|e| e.start + e.dur <= finish));
    }

    #[test]
    fn utilization_is_bounded() {
        let mut s = ExecStats::default();
        assert_eq!(s.utilization(256), 0.0);
        s.finish = 100;
        s.macs = 25600;
        assert!((s.utilization(256) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn advance_to_raises_all_units() {
        let mut accel = Accelerator::new(GemminiConfig::edge());
        accel.advance_to(1000);
        assert_eq!(accel.now(), 1000);
    }
}
