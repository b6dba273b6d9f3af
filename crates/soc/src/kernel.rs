//! The tuned kernel library — the "low level" of the paper's multi-level
//! programming interface.
//!
//! Each kernel lowers one DNN operator, or one part of it, to the
//! accelerator's instruction stream using the tile sizes from
//! [`crate::tiling`]:
//!
//! - [`TiledMatmulKernel`]: a GEMM, its A operand read from memory or
//!   streamed through the im2col block.
//! - [`ConvGroups`]: a conv or depthwise conv as one GEMM kernel per group
//!   (one group for a conv, one per channel for a depthwise conv).
//! - [`ResAddKernel`], [`PoolKernel`]: residual add and pooling.
//! - [`CpuLayerKernel`]: time the host CPU spends (host im2col, softmax,
//!   layer norm, any operator whose block the accelerator lacks).
//!
//! [`PoolKernel`] and [`CpuLayerKernel`] carry time only: in functional
//! mode the runtime writes their layer's output before they run. A GEMM
//! fed by the im2col block takes its functional patch rows from the host
//! patch matrix ([`Im2colParams::patches`]).
//!
//! The runtime runs each layer as a queue of these kernels, a host im2col
//! phase first when the accelerator has no im2col block. Kernels are
//! *resumable state machines* ([`Kernel::step`] executes roughly one output
//! tile) so that multi-core SoC simulations can interleave cores at tile
//! granularity, which is what makes the shared-L2 contention of the
//! Fig. 9 case study observable.

use crate::tiling::{blocks, plan_matmul, TilePlan};
use gemmini_core::isa::{Instruction, LocalAddr};
use gemmini_core::peripherals::PoolingUnit;
use gemmini_core::{AccelError, Accelerator, MemCtx, TileColumn};
use gemmini_cpu::CpuModel;
use gemmini_dnn::graph::{Activation, Layer};
use gemmini_dnn::ops::conv::ConvSpec;
use gemmini_dnn::ops::im2col::im2col;
use gemmini_dnn::quant::scale_for_k;
use gemmini_dnn::tensor::Tensor;
use gemmini_mem::addr::VirtAddr;

/// Everything a kernel needs from its core for one step.
#[derive(Debug)]
pub struct KernelEnv<'a> {
    /// The core's accelerator.
    pub accel: &'a mut Accelerator,
    /// The core's CPU model (for software phases).
    pub cpu: &'a CpuModel,
    /// The core's view of memory (address space, TLBs, shared L2/DRAM).
    pub ctx: MemCtx<'a>,
}

/// Result of one kernel step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// More work remains.
    Working,
    /// The kernel has finished.
    Done,
}

/// A resumable operator implementation.
pub trait Kernel {
    /// Executes roughly one tile of work.
    ///
    /// # Errors
    ///
    /// Propagates accelerator errors (page faults, bad addresses).
    fn step(&mut self, env: &mut KernelEnv<'_>) -> Result<StepOutcome, AccelError>;
}

/// Where a matmul's moving operand comes from.
#[derive(Debug)]
pub enum ASource {
    /// A is materialized in memory at `MatmulParams::a`, row stride `k`.
    Memory,
    /// A rows are convolution patches generated on the fly by the im2col
    /// block from a raw NHWC input.
    Im2col(Im2colParams),
}

/// Parameters of the on-the-fly im2col source. Activations live in memory
/// in NHWC (pixel-major) layout — the layout the accelerator's GEMM output
/// naturally produces — so patch-matrix columns are channels-fastest
/// (see `gemmini_dnn::ops::im2col::im2col`).
#[derive(Debug)]
pub struct Im2colParams {
    /// Base of the raw NHWC input region this GEMM reads.
    pub input: VirtAddr,
    /// Input channels this GEMM consumes (1 for a depthwise channel).
    pub channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Bytes between consecutive image rows in memory
    /// (`in_w * total_channels` for a shared NHWC tensor).
    pub row_pitch: usize,
    /// Kernel size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Padding.
    pub padding: usize,
    /// Output width (for mapping patch rows to input rows).
    pub out_w: usize,
    /// The functional `m × k` patch matrix (None in timing-only mode).
    pub patches: Option<Tensor<i8>>,
}

/// Packs a row-major `[k, n]` stationary operand into `dim`-column panels:
/// panel `j` holds columns `j*dim..(j+1)*dim` contiguously (zero-padded to
/// `dim`), `k` rows of `dim` bytes each. The tuned software stack pre-packs
/// static weights this way so B tiles stream as dense, page-friendly reads
/// instead of pathological `n`-strided 16-byte gathers (which would take a
/// TLB walk per row on tall FC matrices). The runtime streams seeded
/// weights into this layout without a tensor; this function is the
/// whole-matrix definition its tests compare with.
pub fn pack_b_panels(b: &Tensor<i8>, dim: usize) -> Vec<i8> {
    assert_eq!(b.shape().len(), 2, "stationary operand must be 2-D");
    let (k, n) = (b.shape()[0], b.shape()[1]);
    let panels = n.div_ceil(dim);
    let mut out = vec![0i8; panels * k * dim];
    let src = b.as_slice();
    // Row segments, four B rows per panel visit: their four output rows
    // are adjacent, so each output line fills in one pass.
    for r0 in (0..k).step_by(4) {
        for p in 0..panels {
            let (c0, w) = (p * dim, dim.min(n - p * dim));
            for r in r0..(r0 + 4).min(k) {
                let o = (p * k + r) * dim;
                out[o..o + w].copy_from_slice(&src[r * n + c0..r * n + c0 + w]);
            }
        }
    }
    out
}

/// Bytes a panel-packed `[k, n]` stationary operand occupies.
pub fn packed_b_len(k: usize, n: usize, dim: usize) -> usize {
    n.div_ceil(dim) * k * dim
}

/// Dense matmul parameters: `C[m,n] = A[m,k] · B[k,n]`, int8 operands.
#[derive(Debug, Clone, Copy)]
pub struct MatmulParams {
    /// A's base address (ignored for the im2col source).
    pub a: VirtAddr,
    /// B's base address, in the panel layout of [`pack_b_panels`].
    pub b: VirtAddr,
    /// C's base address (row stride `n`).
    pub c: VirtAddr,
    /// Output rows.
    pub m: usize,
    /// Reduction depth.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Bytes between consecutive C rows in memory (equals `n` for a dense
    /// output; the full channel count for one group's columns of an NHWC
    /// conv output).
    pub c_stride: usize,
    /// Fused activation applied on mvout.
    pub activation: Activation,
    /// Accumulator output scale.
    pub acc_scale: f32,
}

/// The tiled matrix-multiplication kernel (weight-stationary, double
/// buffered). Like the paper's `tiled_matmul_auto`, it re-mvins A and B
/// every loop iteration.
#[derive(Debug)]
pub struct TiledMatmulKernel {
    params: MatmulParams,
    source: ASource,
    plan: TilePlan,
    dim: usize,
    kb: usize,
    nb: usize,
    mi: usize,
    nj: usize,
    i0: usize,
    j0: usize,
    configured: bool,
    next_a: usize,
    next_b: usize,
    a_base: [u32; 2],
    b_base: [u32; 2],
}

impl TiledMatmulKernel {
    /// Plans and builds a matmul kernel for the accelerator configuration.
    pub fn new(
        config: &gemmini_core::config::GemminiConfig,
        params: MatmulParams,
        source: ASource,
    ) -> Self {
        Self::with_plan(
            config,
            params,
            source,
            plan_matmul(config, params.m, params.k, params.n),
        )
    }

    /// Builds a kernel with a manually chosen tile plan (the low-level
    /// API's manual tile-size override).
    ///
    /// # Panics
    ///
    /// Panics if the plan does not fit the configuration.
    pub fn with_plan(
        config: &gemmini_core::config::GemminiConfig,
        params: MatmulParams,
        source: ASource,
        plan: TilePlan,
    ) -> Self {
        assert!(plan.fits(config), "tile plan {plan:?} does not fit");
        let dim = config.dim();
        let (mb, kb, nb) = (
            blocks(params.m, dim),
            blocks(params.k, dim),
            blocks(params.n, dim),
        );
        let mi = mb.div_ceil(plan.tm);
        let a_cap = (plan.tm * plan.tk * dim) as u32;
        let b_cap = (plan.tk * plan.tn * dim) as u32;
        Self {
            params,
            source,
            plan,
            dim,
            kb,
            nb,
            mi,
            nj: nb.div_ceil(plan.tn),
            i0: 0,
            j0: 0,
            configured: false,
            next_a: 0,
            next_b: 0,
            a_base: [0, a_cap],
            b_base: [2 * a_cap, 2 * a_cap + b_cap],
        }
    }

    fn stripe_rows(&self, i0: usize) -> usize {
        let start = i0 * self.plan.tm * self.dim;
        (self.params.m - start).min(self.plan.tm * self.dim)
    }

    fn block_cols_k(&self, kblk: usize) -> usize {
        (self.params.k - kblk * self.dim).min(self.dim)
    }

    fn block_cols_n(&self, nblk: usize) -> usize {
        (self.params.n - nblk * self.dim).min(self.dim)
    }

    fn ensure_configured(&mut self, env: &mut KernelEnv<'_>) -> Result<(), AccelError> {
        if !self.configured {
            env.accel.issue(
                &mut env.ctx,
                Instruction::ConfigEx {
                    activation: self.params.activation,
                    acc_scale: self.params.acc_scale,
                },
            )?;
            self.configured = true;
        }
        Ok(())
    }

    fn load_a(
        &mut self,
        env: &mut KernelEnv<'_>,
        i0: usize,
        k0: usize,
    ) -> Result<usize, AccelError> {
        let slot = self.next_a;
        self.next_a ^= 1;
        let m_rows = self.stripe_rows(i0);
        let tk_eff = (self.kb - k0 * self.plan.tk).min(self.plan.tk);
        match &self.source {
            ASource::Memory => {
                env.accel.issue(
                    &mut env.ctx,
                    Instruction::ConfigLd {
                        stride: self.params.k as u64,
                    },
                )?;
                for kbi in 0..tk_eff {
                    let kblk = k0 * self.plan.tk + kbi;
                    let cols = self.block_cols_k(kblk);
                    let dram = self.params.a.add(
                        (i0 * self.plan.tm * self.dim * self.params.k + kblk * self.dim) as u64,
                    );
                    env.accel.issue(
                        &mut env.ctx,
                        Instruction::Mvin {
                            dram_addr: dram,
                            local: LocalAddr::Sp {
                                row: self.a_base[slot] + (kbi * self.plan.tm * self.dim) as u32,
                            },
                            rows: m_rows as u16,
                            cols: cols as u16,
                        },
                    )?;
                }
            }
            ASource::Im2col(p) => {
                let p0 = i0 * self.plan.tm * self.dim;
                let oy0 = p0 / p.out_w;
                let oy1 = (p0 + m_rows - 1) / p.out_w;
                let iy0 = (oy0 * p.stride).saturating_sub(p.padding);
                let iy1 = (oy1 * p.stride + p.kernel)
                    .saturating_sub(p.padding)
                    .min(p.in_h)
                    .max(iy0 + 1);
                let n_iy = iy1 - iy0;
                // The im2col block expands patches from scratchpad-buffered
                // raw input rows. `load_a` runs once per (stripe, k-group)
                // tile load, so raw DRAM traffic is paid per load — bigger
                // scratchpads fit bigger tiles and so fewer loads, the
                // Fig. 9 BigSP effect. The fetch covers the channels this
                // k-group's patch columns touch (channels vary fastest in
                // the NHWC column order).
                let cs_group = p.channels.min(tk_eff * self.dim);
                for kbi in 0..tk_eff {
                    let kblk = k0 * self.plan.tk + kbi;
                    let col0 = kblk * self.dim;
                    let cols = self.block_cols_k(kblk);
                    let raw_va = p.input.add((iy0 * p.row_pitch) as u64);
                    let raw_rows = if kbi == 0 { n_iy } else { 0 };
                    // The block's patch rows, as a view of the host patch
                    // matrix (functional mode only).
                    let patches = p.patches.as_ref().map(|t| {
                        let k = t.shape()[1];
                        (&t.as_slice()[p0 * k + col0..], k, cols)
                    });
                    env.accel.mvin_im2col(
                        &mut env.ctx,
                        raw_va,
                        raw_rows,
                        (p.in_w * cs_group) as u64,
                        p.row_pitch as u64,
                        self.a_base[slot] + (kbi * self.plan.tm * self.dim) as u32,
                        m_rows as u16,
                        patches,
                    )?;
                }
            }
        }
        Ok(slot)
    }

    fn load_b(
        &mut self,
        env: &mut KernelEnv<'_>,
        k0: usize,
        j0: usize,
    ) -> Result<usize, AccelError> {
        let slot = self.next_b;
        self.next_b ^= 1;
        let tn_eff = (self.nb - j0 * self.plan.tn).min(self.plan.tn);
        let k_start = k0 * self.plan.tk * self.dim;
        let k_rows = (self.params.k - k_start).min(self.plan.tk * self.dim);
        // B is panel-packed: each tile is a dense run of dim-byte rows.
        env.accel.issue(
            &mut env.ctx,
            Instruction::ConfigLd {
                stride: self.dim as u64,
            },
        )?;
        for jbi in 0..tn_eff {
            let nblk = j0 * self.plan.tn + jbi;
            let dram = self
                .params
                .b
                .add(((nblk * self.params.k + k_start) * self.dim) as u64);
            env.accel.issue(
                &mut env.ctx,
                Instruction::Mvin {
                    dram_addr: dram,
                    local: LocalAddr::Sp {
                        row: self.b_base[slot] + (jbi * self.plan.tk * self.dim) as u32,
                    },
                    rows: k_rows as u16,
                    cols: self.dim as u16,
                },
            )?;
        }
        Ok(slot)
    }
}

impl Kernel for TiledMatmulKernel {
    fn step(&mut self, env: &mut KernelEnv<'_>) -> Result<StepOutcome, AccelError> {
        if self.i0 >= self.mi {
            return Ok(StepOutcome::Done);
        }
        self.ensure_configured(env)?;
        let (i0, j0) = (self.i0, self.j0);
        let m_rows = self.stripe_rows(i0);
        let tn_eff = (self.nb - j0 * self.plan.tn).min(self.plan.tn);
        let kt = self.kb.div_ceil(self.plan.tk);

        for k0 in 0..kt {
            let aslot = self.load_a(env, i0, k0)?;
            let bslot = self.load_b(env, k0, j0)?;
            let tk_eff = (self.kb - k0 * self.plan.tk).min(self.plan.tk);
            for jbi in 0..tn_eff {
                let nblk = j0 * self.plan.tn + jbi;
                let b_cols = self.block_cols_n(nblk);
                let c_col_base = (jbi * self.plan.tm * self.dim) as u32;
                for kbi in 0..tk_eff {
                    let kblk = k0 * self.plan.tk + kbi;
                    let b_rows = self.block_cols_k(kblk) as u16;
                    // One column: B stays in the array while the stripe's
                    // A blocks stream through it.
                    env.accel.issue_tile_column(
                        &mut env.ctx,
                        &TileColumn {
                            b_row: self.b_base[bslot]
                                + (jbi * self.plan.tk * self.dim + kbi * self.dim) as u32,
                            b_rows,
                            b_cols: b_cols as u16,
                            a_row: self.a_base[aslot] + (kbi * self.plan.tm * self.dim) as u32,
                            a_cols: b_rows,
                            c_row: c_col_base,
                            m_rows: m_rows as u16,
                            accumulate: k0 > 0 || kbi > 0,
                        },
                    )?;
                }
            }
        }

        // Store the finished C tile.
        env.accel.issue(
            &mut env.ctx,
            Instruction::ConfigSt {
                stride: self.params.c_stride as u64,
            },
        )?;
        for jbi in 0..tn_eff {
            let nblk = j0 * self.plan.tn + jbi;
            let cols = self.block_cols_n(nblk);
            let dram = self.params.c.add(
                (i0 * self.plan.tm * self.dim * self.params.c_stride + nblk * self.dim) as u64,
            );
            env.accel.issue(
                &mut env.ctx,
                Instruction::Mvout {
                    dram_addr: dram,
                    local: LocalAddr::Acc {
                        row: (jbi * self.plan.tm * self.dim) as u32,
                        accumulate: false,
                    },
                    rows: m_rows as u16,
                    cols: cols as u16,
                },
            )?;
        }

        self.j0 += 1;
        if self.j0 >= self.nj {
            self.j0 = 0;
            self.i0 += 1;
        }
        Ok(if self.i0 >= self.mi {
            StepOutcome::Done
        } else {
            StepOutcome::Working
        })
    }
}

/// Residual addition: streams both operands through the accumulator with
/// 8-bit widening mvins (Gemmini's shrunk mvin, the engine's only
/// accumulator mvin) and stores the saturated sum — zero reuse, purely
/// memory bound.
#[derive(Debug)]
pub struct ResAddKernel {
    a: VirtAddr,
    b: VirtAddr,
    c: VirtAddr,
    rows_total: usize,
    dim: usize,
    chunk_rows: usize,
    row_pos: usize,
    parity: bool,
    configured: bool,
}

impl ResAddKernel {
    /// Builds a residual-add kernel over `elements` int8 values.
    /// Buffers must be padded to a multiple of the array dimension.
    pub fn new(
        config: &gemmini_core::config::GemminiConfig,
        a: VirtAddr,
        b: VirtAddr,
        c: VirtAddr,
        elements: usize,
    ) -> Self {
        let dim = config.dim();
        Self {
            a,
            b,
            c,
            rows_total: elements.div_ceil(dim),
            dim,
            chunk_rows: (config.acc_rows() / 2).max(1),
            row_pos: 0,
            parity: false,
            configured: false,
        }
    }
}

impl Kernel for ResAddKernel {
    fn step(&mut self, env: &mut KernelEnv<'_>) -> Result<StepOutcome, AccelError> {
        if self.row_pos >= self.rows_total {
            return Ok(StepOutcome::Done);
        }
        if !self.configured {
            env.accel.issue(
                &mut env.ctx,
                Instruction::ConfigEx {
                    activation: Activation::None,
                    acc_scale: 1.0,
                },
            )?;
            env.accel.issue(
                &mut env.ctx,
                Instruction::ConfigLd {
                    stride: self.dim as u64,
                },
            )?;
            env.accel.issue(
                &mut env.ctx,
                Instruction::ConfigSt {
                    stride: self.dim as u64,
                },
            )?;
            self.configured = true;
        }
        let rows = (self.rows_total - self.row_pos).min(self.chunk_rows);
        let acc_row = if self.parity {
            self.chunk_rows as u32
        } else {
            0
        };
        self.parity = !self.parity;
        let off = (self.row_pos * self.dim) as u64;
        env.accel.issue(
            &mut env.ctx,
            Instruction::Mvin {
                dram_addr: self.a.add(off),
                local: LocalAddr::Acc {
                    row: acc_row,
                    accumulate: false,
                },
                rows: rows as u16,
                cols: self.dim as u16,
            },
        )?;
        env.accel.issue(
            &mut env.ctx,
            Instruction::Mvin {
                dram_addr: self.b.add(off),
                local: LocalAddr::Acc {
                    row: acc_row,
                    accumulate: true,
                },
                rows: rows as u16,
                cols: self.dim as u16,
            },
        )?;
        env.accel.issue(
            &mut env.ctx,
            Instruction::Mvout {
                dram_addr: self.c.add(off),
                local: LocalAddr::Acc {
                    row: acc_row,
                    accumulate: false,
                },
                rows: rows as u16,
                cols: self.dim as u16,
            },
        )?;
        self.row_pos += rows;
        Ok(if self.row_pos >= self.rows_total {
            StepOutcome::Done
        } else {
            StepOutcome::Working
        })
    }
}

/// Pooling: streams the input feature map through the pooling block and
/// stores the pooled output (Gemmini pools in the store path). It only
/// carries the time: in functional mode the runtime writes the pooled
/// output before the kernel starts, as for a [`CpuLayerKernel`].
#[derive(Debug)]
pub struct PoolKernel {
    input: VirtAddr,
    output: VirtAddr,
    in_h: usize,
    in_w: usize,
    out_h: usize,
    out_w: usize,
    window: usize,
    unit: PoolingUnit,
    done: bool,
}

impl PoolKernel {
    /// Builds a pooling kernel that streams `in_hw.0` input rows of
    /// `in_hw.1` bytes and stores `out_hw.0` rows of `out_hw.1` bytes (an
    /// NHWC map is `h` rows of `w·c` bytes).
    pub fn new(
        config: &gemmini_core::config::GemminiConfig,
        input: VirtAddr,
        output: VirtAddr,
        in_hw: (usize, usize),
        out_hw: (usize, usize),
        window: usize,
    ) -> Self {
        Self {
            input,
            output,
            in_h: in_hw.0,
            in_w: in_hw.1,
            out_h: out_hw.0,
            out_w: out_hw.1,
            window,
            unit: PoolingUnit::for_dim(config.dim()),
            done: false,
        }
    }
}

impl Kernel for PoolKernel {
    fn step(&mut self, env: &mut KernelEnv<'_>) -> Result<StepOutcome, AccelError> {
        if self.done {
            return Ok(StepOutcome::Done);
        }
        let in_done = env.accel.mvin_raw(
            &mut env.ctx,
            self.input,
            self.in_h,
            self.in_w as u64,
            self.in_w as u64,
        )?;
        let cycles = self.unit.pool_cycles(self.out_h * self.out_w, self.window);
        env.accel.charge_execute_after(in_done, cycles);
        env.accel.mvout_raw(
            &mut env.ctx,
            self.output,
            self.out_h,
            self.out_w as u64,
            self.out_w as u64,
        )?;
        self.done = true;
        Ok(StepOutcome::Done)
    }
}

/// A layer executed entirely by the host CPU (softmax, layer norm, or any
/// operator on an accelerator configured without the matching block).
/// It only carries the time: in functional mode the runtime writes the
/// layer's output before the kernel starts.
#[derive(Debug)]
pub struct CpuLayerKernel {
    cycles: u64,
    done: bool,
}

impl CpuLayerKernel {
    /// Builds a CPU layer costing `cycles` host cycles.
    pub fn new(cycles: u64) -> Self {
        Self {
            cycles,
            done: false,
        }
    }
}

impl Kernel for CpuLayerKernel {
    fn step(&mut self, env: &mut KernelEnv<'_>) -> Result<StepOutcome, AccelError> {
        if !self.done {
            let now = env.accel.now();
            env.accel.advance_to(now + self.cycles);
            self.done = true;
        }
        Ok(StepOutcome::Done)
    }
}

/// A convolution over NHWC feature maps lowered as `groups` equal GEMMs,
/// one [`TiledMatmulKernel`] each: a plain conv is one group, a depthwise
/// conv one group per channel (`k = kernel²`, `n = 1`, the low-reuse
/// mapping that makes MobileNet-class layers inefficient on spatial arrays,
/// Section IV-B). Group `g` reads input channels `g·in_channels..` and
/// writes output channels `g·out_channels..` of every pixel, so its output
/// columns interleave into the NHWC output at row stride
/// `groups·out_channels`.
#[derive(Debug, Clone, Copy)]
pub struct ConvGroups {
    /// Number of groups.
    pub groups: usize,
    /// Input channels per group.
    pub in_channels: usize,
    /// Output channels per group.
    pub out_channels: usize,
    /// Input height and width.
    pub in_hw: (usize, usize),
    /// Kernel size, stride and padding.
    pub spec: ConvSpec,
    /// Fused activation applied on mvout.
    pub activation: Activation,
}

impl ConvGroups {
    /// A conv layer's groups: one for [`Layer::Conv`], one per channel for
    /// [`Layer::DwConv`]; `None` for any other layer.
    pub fn of(layer: &Layer) -> Option<Self> {
        match *layer {
            Layer::Conv {
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
                in_hw,
                activation,
            } => Some(Self {
                groups: 1,
                in_channels,
                out_channels,
                in_hw,
                spec: ConvSpec {
                    kernel,
                    stride,
                    padding,
                },
                activation,
            }),
            Layer::DwConv {
                channels,
                kernel,
                stride,
                padding,
                in_hw,
                activation,
            } => Some(Self {
                groups: channels,
                in_channels: 1,
                out_channels: 1,
                in_hw,
                spec: ConvSpec {
                    kernel,
                    stride,
                    padding,
                },
                activation,
            }),
            _ => None,
        }
    }

    /// Output pixels: the rows of every group's GEMM.
    pub fn m(&self) -> usize {
        self.spec.out_size(self.in_hw.0) * self.spec.out_size(self.in_hw.1)
    }

    /// A group's reduction depth, `kernel²·in_channels`.
    pub fn k(&self) -> usize {
        self.spec.kernel * self.spec.kernel * self.in_channels
    }

    /// Bytes of one group's panel-packed `[k, out_channels]` weights;
    /// group `g`'s panels start `g` times this past the first group's.
    pub fn group_weights_len(&self, dim: usize) -> usize {
        packed_b_len(self.k(), self.out_channels, dim)
    }

    /// Group `g`'s `m × k` patch matrix, cut from the NHWC `input`.
    pub fn patches(&self, input: &Tensor<i8>, g: usize) -> Tensor<i8> {
        let c0 = g * self.in_channels;
        im2col(input, self.spec, c0..c0 + self.in_channels)
    }

    /// One GEMM kernel per group, in group order, all on one tile plan.
    /// `input`, `weights` and `output` are the layer's buffers. With
    /// `patches`, the host has materialized group `g`'s patch matrix
    /// `g·m·k` bytes past it and the kernels read plain memory; without, the
    /// im2col block streams patches from `input`, and `data` (the
    /// functional input feature map, `None` in timing mode) supplies each
    /// group's patch bytes.
    pub fn kernels<'a>(
        self,
        config: &'a gemmini_core::config::GemminiConfig,
        [input, weights, output]: [VirtAddr; 3],
        patches: Option<VirtAddr>,
        data: Option<&'a Tensor<i8>>,
    ) -> impl Iterator<Item = TiledMatmulKernel> + 'a {
        let (m, k, n) = (self.m(), self.k(), self.out_channels);
        let plan = plan_matmul(config, m, k, n);
        (0..self.groups).map(move |g| {
            let params = MatmulParams {
                a: patches.map_or(VirtAddr::new(0), |pa| pa.add((g * m * k) as u64)),
                b: weights.add((g * self.group_weights_len(config.dim())) as u64),
                c: output.add((g * n) as u64),
                m,
                k,
                n,
                c_stride: self.groups * n,
                activation: self.activation,
                acc_scale: scale_for_k(k),
            };
            let source = match patches {
                Some(_) => ASource::Memory,
                None => ASource::Im2col(Im2colParams {
                    input: input.add((g * self.in_channels) as u64),
                    channels: self.in_channels,
                    in_h: self.in_hw.0,
                    in_w: self.in_hw.1,
                    row_pitch: self.in_hw.1 * self.groups * self.in_channels,
                    kernel: self.spec.kernel,
                    stride: self.spec.stride,
                    padding: self.spec.padding,
                    out_w: self.spec.out_size(self.in_hw.1),
                    patches: data.map(|t| self.patches(t, g)),
                }),
            };
            TiledMatmulKernel::with_plan(config, params, source, plan)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemmini_core::config::GemminiConfig;
    use gemmini_dnn::ops::matmul;
    use gemmini_dnn::quant::{requantize, QuantParams};
    use gemmini_mem::addr::PAGE_SIZE;
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
        frames: FrameAllocator,
    }

    fn rig() -> Rig {
        let mut frames = FrameAllocator::new();
        let space = AddressSpace::new(&mut frames);
        Rig {
            space,
            translation: TranslationSystem::new(TranslationConfig::default()),
            mem: MemorySystem::default(),
            data: MainMemory::new(),
            frames,
        }
    }

    impl Rig {
        fn alloc(&mut self, len: usize) -> VirtAddr {
            self.space.alloc(
                &mut self.frames,
                (len as u64).max(1).div_ceil(PAGE_SIZE) * PAGE_SIZE,
            )
        }

        fn write_i8(&mut self, va: VirtAddr, vals: &[i8]) {
            let bytes: Vec<u8> = vals.iter().map(|&x| x as u8).collect();
            let mut off = 0usize;
            while off < bytes.len() {
                let cur = va.add(off as u64);
                let pa = self.space.translate(cur).unwrap();
                let n = ((PAGE_SIZE - cur.offset_in_page()) as usize).min(bytes.len() - off);
                self.data.write(pa, &bytes[off..off + n]);
                off += n;
            }
        }

        fn read_i8(&self, va: VirtAddr, len: usize) -> Vec<i8> {
            let mut out = vec![0u8; len];
            let mut off = 0usize;
            while off < len {
                let cur = va.add(off as u64);
                let pa = self.space.translate(cur).unwrap();
                let n = ((PAGE_SIZE - cur.offset_in_page()) as usize).min(len - off);
                let mut buf = vec![0u8; n];
                self.data.read(pa, &mut buf);
                out[off..off + n].copy_from_slice(&buf);
                off += n;
            }
            out.iter().map(|&b| b as i8).collect()
        }
    }

    /// The per-element column gather `pack_b_panels` replaced.
    fn gather_b_panels(b: &Tensor<i8>, dim: usize) -> Vec<i8> {
        let (k, n) = (b.shape()[0], b.shape()[1]);
        let panels = n.div_ceil(dim);
        let mut out = vec![0i8; panels * k * dim];
        for p in 0..panels {
            for r in 0..k {
                for c in 0..dim {
                    let col = p * dim + c;
                    if col < n {
                        out[(p * k + r) * dim + c] = b[(r, col)];
                    }
                }
            }
        }
        out
    }

    #[test]
    fn pack_b_panels_equals_the_column_gather() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let mut shapes = vec![(1, 1, 16), (1, 40, 16), (7, 16, 16), (9, 33, 16), (5, 3, 4)];
        shapes.extend((0..200).map(|_| {
            let dim = [1, 3, 4, 8, 16, 32][rng.gen_range(0..6usize)];
            (rng.gen_range(1..70usize), rng.gen_range(1..90usize), dim)
        }));
        for (i, (k, n, dim)) in shapes.into_iter().enumerate() {
            let b = Tensor::<i8>::random(&[k, n], i as u64);
            assert_eq!(
                pack_b_panels(&b, dim),
                gather_b_panels(&b, dim),
                "k={k} n={n} dim={dim}"
            );
        }
    }

    fn run_kernel(rig: &mut Rig, accel: &mut Accelerator, kernel: &mut dyn Kernel) {
        let cpu = CpuModel::new(gemmini_cpu::CpuKind::Rocket);
        loop {
            let mut env = KernelEnv {
                accel,
                cpu: &cpu,
                ctx: MemCtx {
                    space: &rig.space,
                    translation: &mut rig.translation,
                    mem: &mut rig.mem,
                    data: Some(&mut rig.data),
                    port: 0,
                },
            };
            if matches!(kernel.step(&mut env).unwrap(), StepOutcome::Done) {
                break;
            }
        }
    }

    fn check_matmul(m: usize, k: usize, n: usize, seed: u64) {
        let cfg = GemminiConfig::edge();
        let mut r = rig();
        let a = Tensor::<i8>::random(&[m, k], seed);
        let b = Tensor::<i8>::random(&[k, n], seed + 1);
        let va_a = r.alloc(m * k);
        let va_b = r.alloc(packed_b_len(k, n, 16));
        let va_c = r.alloc(m * n);
        r.write_i8(va_a, a.as_slice());
        r.write_i8(va_b, &pack_b_panels(&b, 16));

        let mut accel = Accelerator::new(cfg.clone());
        let mut kernel = TiledMatmulKernel::new(
            &cfg,
            MatmulParams {
                a: va_a,
                b: va_b,
                c: va_c,
                m,
                k,
                n,
                c_stride: n,
                activation: Activation::None,
                acc_scale: 1.0,
            },
            ASource::Memory,
        );
        run_kernel(&mut r, &mut accel, &mut kernel);

        let got = r.read_i8(va_c, m * n);
        let want = matmul(&a, &b).map(|x| requantize(x, QuantParams::new(1.0)));
        assert_eq!(got, want.as_slice(), "matmul {m}x{k}x{n}");
    }

    #[test]
    fn matmul_single_tile() {
        check_matmul(16, 16, 16, 1);
    }

    #[test]
    fn matmul_multi_tile_k_reduction() {
        check_matmul(16, 128, 16, 2);
    }

    #[test]
    fn matmul_rectangular_multi_tile() {
        check_matmul(64, 48, 80, 3);
    }

    #[test]
    fn matmul_ragged_edges() {
        // Dimensions not multiples of 16 exercise partial blocks.
        check_matmul(18, 33, 21, 4);
        check_matmul(1, 100, 10, 5);
    }

    #[test]
    fn matmul_larger_than_tile_plan() {
        check_matmul(100, 70, 90, 6);
    }

    #[test]
    fn conv_via_im2col_source_matches_reference() {
        use gemmini_dnn::ops::conv::{conv2d, ConvSpec};
        use gemmini_dnn::ops::im2col::{im2col, weights_to_matrix};

        let cfg = GemminiConfig::edge();
        let mut r = rig();
        let (c_in, h, w, c_out, ksz) = (3usize, 10usize, 10usize, 8usize, 3usize);
        let spec = ConvSpec {
            kernel: ksz,
            stride: 1,
            padding: 1,
        };
        let input = Tensor::<i8>::random(&[1, h, w, c_in], 7);
        let weights = Tensor::<i8>::random(&[c_out, c_in, ksz, ksz], 8);
        let (oh, ow) = (spec.out_size(h), spec.out_size(w));
        let m = oh * ow;
        let k = ksz * ksz * c_in;

        let va_in = r.alloc(c_in * h * w);
        let va_w = r.alloc(packed_b_len(k, c_out, 16));
        let va_out = r.alloc(m * c_out);
        // Activations live in memory in NHWC layout.
        r.write_i8(va_in, input.as_slice());
        let wmat = weights_to_matrix(&weights);
        r.write_i8(va_w, &pack_b_panels(&wmat, 16));

        let patches = im2col(&input, spec, 0..c_in);
        let mut accel = Accelerator::new(cfg.clone());
        let mut kernel = TiledMatmulKernel::new(
            &cfg,
            MatmulParams {
                a: VirtAddr::new(0),
                b: va_w,
                c: va_out,
                m,
                k,
                n: c_out,
                c_stride: c_out,
                activation: Activation::None,
                acc_scale: 1.0,
            },
            ASource::Im2col(Im2colParams {
                input: va_in,
                channels: c_in,
                in_h: h,
                in_w: w,
                row_pitch: w * c_in,
                kernel: ksz,
                stride: 1,
                padding: 1,
                out_w: ow,
                patches: Some(patches),
            }),
        );
        run_kernel(&mut r, &mut accel, &mut kernel);

        // The GEMM layout is [pixel, oc], the NHWC reference's layout.
        let got = r.read_i8(va_out, m * c_out);
        let reference = conv2d(&input, &weights, spec);
        for (i, (&got, &acc)) in got.iter().zip(reference.as_slice()).enumerate() {
            let want = gemmini_dnn::quant::requantize(acc, QuantParams::new(1.0));
            assert_eq!(got, want, "pixel {} oc {}", i / c_out, i % c_out);
        }
    }

    #[test]
    fn im2col_source_moves_less_data_than_materialized_patches() {
        // The whole point of the block: raw traffic ≈ input bytes, not k².
        let cfg = GemminiConfig::edge();
        let (c_in, h, w, c_out, ksz) = (16usize, 32usize, 32usize, 16usize, 3usize);
        let m = h * w;
        let k = ksz * ksz * c_in;

        let run = |source_is_im2col: bool| -> u64 {
            let mut r = rig();
            let va_in = r.alloc(c_in * h * w);
            let va_a = r.alloc(m * k);
            let va_w = r.alloc(packed_b_len(k, c_out, 16));
            let va_out = r.alloc(m * c_out);
            let mut accel = Accelerator::new(cfg.clone());
            let params = MatmulParams {
                a: va_a,
                b: va_w,
                c: va_out,
                m,
                k,
                n: c_out,
                c_stride: c_out,
                activation: Activation::None,
                acc_scale: 1.0,
            };
            let source = if source_is_im2col {
                ASource::Im2col(Im2colParams {
                    input: va_in,
                    channels: c_in,
                    in_h: h,
                    in_w: w,
                    row_pitch: w * c_in,
                    kernel: ksz,
                    stride: 1,
                    padding: 1,
                    out_w: w,
                    patches: None,
                })
            } else {
                ASource::Memory
            };
            let mut kernel = TiledMatmulKernel::new(&cfg, params, source);
            // Timing-only run.
            let cpu = CpuModel::new(gemmini_cpu::CpuKind::Rocket);
            loop {
                let mut env = KernelEnv {
                    accel: &mut accel,
                    cpu: &cpu,
                    ctx: MemCtx {
                        space: &r.space,
                        translation: &mut r.translation,
                        mem: &mut r.mem,
                        data: None,
                        port: 0,
                    },
                };
                if matches!(kernel.step(&mut env).unwrap(), StepOutcome::Done) {
                    break;
                }
            }
            accel.dma_stats().bytes_in
        };

        let raw = run(true);
        let materialized = run(false);
        assert!(
            raw * 2 < materialized,
            "im2col source should move far less: raw={raw} materialized={materialized}"
        );
    }

    #[test]
    fn resadd_matches_saturating_reference() {
        use gemmini_dnn::ops::resadd_i8;
        let cfg = GemminiConfig::edge();
        let mut r = rig();
        let n = 1000usize;
        let padded = n.div_ceil(16) * 16;
        let a = Tensor::<i8>::random(&[padded], 10);
        let b = Tensor::<i8>::random(&[padded], 11);
        let va_a = r.alloc(padded);
        let va_b = r.alloc(padded);
        let va_c = r.alloc(padded);
        r.write_i8(va_a, a.as_slice());
        r.write_i8(va_b, b.as_slice());

        let mut accel = Accelerator::new(cfg.clone());
        let mut kernel = ResAddKernel::new(&cfg, va_a, va_b, va_c, n);
        run_kernel(&mut r, &mut accel, &mut kernel);

        let got = r.read_i8(va_c, n);
        let want = resadd_i8(&a, &b);
        assert_eq!(&got[..], &want.as_slice()[..n]);
    }

    #[test]
    fn resadd_with_saturation_values() {
        let cfg = GemminiConfig::edge();
        let mut r = rig();
        let vals_a = vec![127i8; 32];
        let vals_b = vec![127i8; 32];
        let va_a = r.alloc(32);
        let va_b = r.alloc(32);
        let va_c = r.alloc(32);
        r.write_i8(va_a, &vals_a);
        r.write_i8(va_b, &vals_b);
        let mut accel = Accelerator::new(cfg.clone());
        let mut kernel = ResAddKernel::new(&cfg, va_a, va_b, va_c, 32);
        run_kernel(&mut r, &mut accel, &mut kernel);
        assert_eq!(r.read_i8(va_c, 32), vec![127i8; 32]);
    }

    #[test]
    fn pool_kernel_streams_input_and_output() {
        let cfg = GemminiConfig::edge();
        let mut r = rig();
        let va_in = r.alloc(4 * 8 * 8);
        let va_out = r.alloc(4 * 4 * 4);
        // Four 8×8 maps streamed as 32 rows of 8 bytes; pooled rows: 16
        // rows of 4 bytes.
        let mut accel = Accelerator::new(cfg.clone());
        let mut kernel = PoolKernel::new(&cfg, va_in, va_out, (4 * 8, 8), (4 * 4, 4), 2);
        run_kernel(&mut r, &mut accel, &mut kernel);
        assert!(accel.stats().finish > 0);
        assert_eq!(accel.dma_stats().bytes_in, 4 * 8 * 8);
        assert_eq!(accel.dma_stats().bytes_out, 4 * 4 * 4);
    }

    #[test]
    fn cpu_layer_kernel_advances_time() {
        let cfg = GemminiConfig::edge();
        let mut r = rig();
        let mut accel = Accelerator::new(cfg);
        let mut kernel = CpuLayerKernel::new(12345);
        run_kernel(&mut r, &mut accel, &mut kernel);
        assert_eq!(accel.now(), 12345);
    }

    /// Runs a depthwise conv through its per-channel group kernels (im2col
    /// block source, functional patches) and checks every output byte
    /// against `dwconv2d`.
    fn check_dwconv(stride: usize, seed: u64) {
        use gemmini_dnn::ops::conv::dwconv2d;

        let cfg = GemminiConfig::edge();
        let mut r = rig();
        let (c, h, w, ksz) = (4usize, 7usize, 6usize, 3usize);
        let layer = Layer::DwConv {
            channels: c,
            kernel: ksz,
            stride,
            padding: 1,
            in_hw: (h, w),
            activation: Activation::None,
        };
        let conv = ConvGroups::of(&layer).expect("depthwise is a grouped conv");
        assert_eq!(
            (conv.groups, conv.in_channels, conv.out_channels),
            (c, 1, 1)
        );
        let input = Tensor::<i8>::random(&[1, h, w, c], seed);
        let weights = Tensor::<i8>::random(&[c, ksz, ksz], seed + 1);
        let m = conv.m();

        let va_in = r.alloc(c * h * w);
        let va_w = r.alloc(c * conv.group_weights_len(16));
        let va_out = r.alloc(c * m);
        r.write_i8(va_in, input.as_slice());
        // Group `ch`'s weights: the panels of its [k², 1] column.
        let mut panels = Vec::new();
        for col in weights.as_slice().chunks_exact(ksz * ksz) {
            panels.extend(pack_b_panels(
                &Tensor::from_vec(&[ksz * ksz, 1], col.to_vec()),
                16,
            ));
        }
        assert_eq!(panels.len(), c * conv.group_weights_len(16));
        r.write_i8(va_w, &panels);

        let mut accel = Accelerator::new(cfg.clone());
        let kernels: Vec<_> = conv
            .kernels(&cfg, [va_in, va_w, va_out], None, Some(&input))
            .collect();
        assert_eq!(kernels.len(), c);
        for mut kernel in kernels {
            run_kernel(&mut r, &mut accel, &mut kernel);
        }

        // Output is NHWC: pixel-major, channels interleaved.
        let got = r.read_i8(va_out, c * m);
        let spec = conv.spec;
        let reference = dwconv2d(&input, &weights, spec);
        assert_eq!(reference.len(), got.len());
        let scale = QuantParams::new(scale_for_k(ksz * ksz));
        for (i, (&got, &acc)) in got.iter().zip(reference.as_slice()).enumerate() {
            let want = requantize(acc, scale);
            assert_eq!(got, want, "stride {stride} pixel {} ch {}", i / c, i % c);
        }
    }

    #[test]
    fn dwconv_matches_reference() {
        check_dwconv(1, 20);
    }

    #[test]
    fn strided_dwconv_matches_reference() {
        check_dwconv(2, 22);
    }

    #[test]
    fn relu_activation_applies_through_kernel() {
        let cfg = GemminiConfig::edge();
        let mut r = rig();
        // A = [-1], B = [1] -> product -1 -> relu -> 0.
        let va_a = r.alloc(16);
        let va_b = r.alloc(16);
        let va_c = r.alloc(16);
        r.write_i8(va_a, &[-1]);
        // 1x1 B, panel-padded to 16 columns.
        r.write_i8(
            va_b,
            &pack_b_panels(&Tensor::from_vec(&[1, 1], vec![1i8]), 16),
        );
        let mut accel = Accelerator::new(cfg.clone());
        let mut kernel = TiledMatmulKernel::new(
            &cfg,
            MatmulParams {
                a: va_a,
                b: va_b,
                c: va_c,
                m: 1,
                k: 1,
                n: 1,
                c_stride: 1,
                activation: Activation::Relu,
                acc_scale: 1.0,
            },
            ASource::Memory,
        );
        run_kernel(&mut r, &mut accel, &mut kernel);
        assert_eq!(r.read_i8(va_c, 1), vec![0i8]);
    }
}
