//! The push-button software flow (the "high level" of the multi-level
//! programming interface).
//!
//! A [`NetworkExecution`] takes a [`Network`] description (parsed from the
//! textual format or built by the zoo — our ONNX stand-in), allocates every
//! buffer in the process's virtual address space, and executes the layers
//! in order, "mapping as many kernels as possible onto the Gemmini-generated
//! accelerator": conv/matmul/residual-add/pool run on the accelerator
//! (subject to which optional blocks the instance has), softmax/layer-norm
//! stay on the host CPU.
//!
//! Data layout: activations are NHWC (pixel-major) in memory because that
//! is what GEMM-lowered convolutions naturally produce; the reference
//! executor ([`reference_forward`]) mirrors the exact arithmetic (same
//! scales, same read-out path) so functional runs can be checked
//! bit-for-bit.

use crate::kernel::{
    packed_b_len, ASource, ConvGroups, CpuLayerKernel, Kernel, KernelEnv, MatmulParams, PoolKernel,
    ResAddKernel, StepOutcome, TiledMatmulKernel,
};
use gemmini_core::config::GemminiConfig;
use gemmini_core::peripherals::readout_row;
use gemmini_core::scratchpad::copy_row;
use gemmini_core::AccelError;
use gemmini_dnn::graph::{Layer, LayerClass, Network};
use gemmini_dnn::ops::conv::{conv2d, dwconv2d, ConvSpec};
use gemmini_dnn::ops::matmul;
use gemmini_dnn::ops::pool::pool2d_i8;
use gemmini_dnn::ops::resadd_i8;
use gemmini_dnn::quant::scale_for_k;
use gemmini_dnn::tensor::{RandomI8, Tensor};
use gemmini_mem::addr::{VirtAddr, PAGE_SIZE};
use gemmini_mem::dram::MainMemory;
use gemmini_mem::Cycle;
use gemmini_vm::page::FrameAllocator;
use gemmini_vm::page_table::AddressSpace;
use std::collections::{HashMap, VecDeque};

/// Recorded timing of one executed layer.
#[derive(Debug, Clone)]
pub struct LayerTiming {
    /// Layer name.
    pub name: String,
    /// Layer class (for the Fig. 9 per-class aggregation).
    pub class: LayerClass,
    /// Core-local start cycle.
    pub start: Cycle,
    /// Core-local end cycle.
    pub end: Cycle,
}

impl LayerTiming {
    /// Cycles this layer took.
    pub fn cycles(&self) -> Cycle {
        self.end - self.start
    }
}

#[derive(Debug, Clone, Copy)]
struct Placement {
    weights: Option<VirtAddr>,
    output: VirtAddr,
    patch: Option<VirtAddr>,
    out_elements: usize,
}

/// Deterministic per-layer weight seed.
pub fn weight_seed(seed: u64, layer: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(1000 + layer as u64)
}

fn round_up(bytes: usize, to: usize) -> usize {
    bytes.div_ceil(to) * to
}

/// Calls `f(off, page)` for each page slice of the `len` bytes at `va`, in
/// address order, `off` being the slice's offset from `va`: one
/// translation per page.
fn for_each_page_mut(
    space: &AddressSpace,
    data: &mut MainMemory,
    va: VirtAddr,
    len: usize,
    mut f: impl FnMut(usize, &mut [u8]),
) {
    let mut off = 0usize;
    while off < len {
        let cur = va.add(off as u64);
        let pa = space
            .translate(cur)
            .expect("runtime buffers are always mapped");
        let in_page = cur.offset_in_page() as usize;
        let n = (PAGE_SIZE as usize - in_page).min(len - off);
        f(off, &mut data.page_mut(pa)[in_page..in_page + n]);
        off += n;
    }
}

/// Writes int8 values to virtual memory through the page table
/// (functional path), one page slice at a time.
pub fn write_virt(space: &AddressSpace, data: &mut MainMemory, va: VirtAddr, vals: &[i8]) {
    for_each_page_mut(space, data, va, vals.len(), |off, page| {
        for (b, &v) in page.iter_mut().zip(&vals[off..]) {
            *b = v as u8;
        }
    });
}

/// Writes a row-major `[rows, dim]` byte panel to `va` straight into its
/// pages, with no panel buffer: `fill(r, lane, dst)` writes lanes
/// `lane..lane + dst.len()` of row `r` (never empty, all below `live`),
/// and the pad lanes from `live` on are zeroed. A row that straddles a
/// page boundary comes in two parts.
fn write_panel_rows(
    space: &AddressSpace,
    mem: &mut MainMemory,
    va: VirtAddr,
    [rows, dim, live]: [usize; 3],
    mut fill: impl FnMut(usize, usize, &mut [u8]),
) {
    for_each_page_mut(space, mem, va, rows * dim, |off, mut page| {
        let (mut r, mut lane) = (off / dim, off % dim);
        while !page.is_empty() {
            let (row, rest) = page.split_at_mut((dim - lane).min(page.len()));
            let (head, pad) = row.split_at_mut(live.saturating_sub(lane).min(row.len()));
            if !head.is_empty() {
                fill(r, lane, head);
            }
            if !pad.is_empty() {
                pad.fill(0);
            }
            (r, lane, page) = (r + 1, 0, rest);
        }
    });
}

/// Writes the seeded `[k, n]` stationary operand, `k·n` values of `stream`
/// in row-major order, to `va` in the panel layout of
/// [`pack_b_panels`](crate::kernel::pack_b_panels), pad lanes zeroed,
/// without holding the matrix: each block of `PAGE_SIZE / dim` rows fills
/// one page per panel, written row by row straight into the page.
fn write_b_panels(
    space: &AddressSpace,
    mem: &mut MainMemory,
    va: VirtAddr,
    k: usize,
    n: usize,
    dim: usize,
    stream: &mut RandomI8,
) {
    let block_rows = (PAGE_SIZE as usize / dim).clamp(1, k);
    let mut block = vec![0i8; block_rows * n];
    for r0 in (0..k).step_by(block_rows) {
        let rows = block_rows.min(k - r0);
        let block = &mut block[..rows * n];
        stream.fill(block);
        for p in 0..n.div_ceil(dim) {
            let (c0, w) = (p * dim, dim.min(n - p * dim));
            let at = va.add(((p * k + r0) * dim) as u64);
            write_panel_rows(space, mem, at, [rows, dim, w], |r, lane, dst| {
                let src = &block[r * n + c0 + lane..][..dst.len()];
                copy_row(dst, src, |v| v as u8);
            });
        }
    }
}

/// Writes a conv's seeded `[groups·oc, ic, kernel, kernel]` weights to `va`,
/// group after group, as the panels of each group's `[kernel²·ic, oc]`
/// matrix: the bytes of
/// [`weights_to_matrix`](gemmini_dnn::ops::im2col::weights_to_matrix)
/// then [`pack_b_panels`](crate::kernel::pack_b_panels) per group. A
/// panel's `dim` output channels are drawn first, then its rows are
/// gathered from them straight into the pages.
fn write_conv_panels(
    space: &AddressSpace,
    mem: &mut MainMemory,
    va: VirtAddr,
    conv: &ConvGroups,
    dim: usize,
    stream: &mut RandomI8,
) {
    let (oc, ic) = (conv.out_channels, conv.in_channels);
    let taps = conv.spec.kernel * conv.spec.kernel;
    let kdim = conv.k();
    let panels = oc.div_ceil(dim);
    let mut channels = vec![0i8; kdim * dim];
    // The layer's panel `p` is panel `p % panels` of group `p / panels`.
    for p in 0..conv.groups * panels {
        let w = dim.min(oc - p % panels * dim);
        // The panel's output channel `lane` is the stream's next `kdim`
        // values in [ic][kh][kw] order; tap `j` of input channel `ci` is
        // matrix row `j·ic + ci`.
        let channels = &mut channels[..w * kdim];
        stream.fill(channels);
        let at = va.add((p * kdim * dim) as u64);
        write_panel_rows(space, mem, at, [kdim, dim, w], |r, lane, dst| {
            let (j, ci) = (r / ic, r % ic);
            for (d, ch) in dst.iter_mut().zip(channels.chunks_exact(kdim).skip(lane)) {
                *d = ch[ci * taps + j] as u8;
            }
        });
    }
}

/// Reads bytes from virtual memory through the page table (functional path).
pub fn read_virt(space: &AddressSpace, data: &MainMemory, va: VirtAddr, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    let mut off = 0usize;
    while off < len {
        let cur = va.add(off as u64);
        let pa = space
            .translate(cur)
            .expect("runtime buffers are always mapped");
        let in_page = cur.offset_in_page() as usize;
        let n = (PAGE_SIZE as usize - in_page).min(len - off);
        if let Some(page) = data.page(pa) {
            out[off..off + n].copy_from_slice(&page[in_page..in_page + n]);
        }
        off += n;
    }
    out
}

/// Reinterprets bytes as int8 values, reusing the allocation.
fn into_i8(bytes: Vec<u8>) -> Vec<i8> {
    bytes.into_iter().map(|b| b as i8).collect()
}

/// How many int8 elements a layer's (primary) input holds.
fn layer_input_elements(layer: &Layer) -> usize {
    match *layer {
        Layer::Conv {
            in_channels, in_hw, ..
        } => in_channels * in_hw.0 * in_hw.1,
        Layer::DwConv {
            channels, in_hw, ..
        } => channels * in_hw.0 * in_hw.1,
        Layer::Matmul { m, k, .. } => m * k,
        Layer::ResAdd { elements } => elements,
        Layer::Pool {
            channels, in_hw, ..
        } => channels * in_hw.0 * in_hw.1,
        Layer::LayerNorm { rows, cols } | Layer::Softmax { rows, cols } => rows * cols,
    }
}

/// The network's seeded input in the runtime's layout. The one NCHW
/// tensor left: a spatial first layer's input is drawn as `[c, h, w]`,
/// the order the pinned digests rest on, and stored NHWC; any other
/// input is drawn flat.
fn seeded_input(net: &Network, seed: u64) -> Vec<i8> {
    let Some(first) = net.layers().first().map(|l| &l.layer) else {
        return Vec::new();
    };
    let vals = Tensor::<i8>::random(&[layer_input_elements(first)], seed).into_vec();
    match *first {
        Layer::Conv {
            in_channels: c,
            in_hw: (h, w),
            ..
        }
        | Layer::DwConv {
            channels: c,
            in_hw: (h, w),
            ..
        } => {
            let nchw = &vals;
            (0..h * w)
                .flat_map(|pix| (0..c).map(move |ci| nchw[ci * h * w + pix]))
                .collect()
        }
        _ => vals,
    }
}

/// Writes a layer output the host computed up front (functional mode
/// only; `vals` is `None` in timing mode).
fn write_host_output(env: &mut KernelEnv<'_>, va: VirtAddr, vals: Option<Vec<i8>>) {
    if let (Some(vals), Some(data)) = (vals, env.ctx.data.as_deref_mut()) {
        write_virt(env.ctx.space, data, va, &vals);
    }
}

/// Executes one network on one core, layer by layer, as a resumable state
/// machine.
pub struct NetworkExecution {
    net: Network,
    accel_cfg: GemminiConfig,
    input_va: VirtAddr,
    input_elements: usize,
    placements: Vec<Placement>,
    current: usize,
    /// The current layer's kernels still to run, front first (empty
    /// between layers).
    queue: VecDeque<Box<dyn Kernel>>,
    layer_start: Cycle,
    timings: Vec<LayerTiming>,
    seed: u64,
}

impl std::fmt::Debug for NetworkExecution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkExecution")
            .field("net", &self.net.name())
            .field("current", &self.current)
            .finish()
    }
}

impl NetworkExecution {
    /// Allocates every buffer for `net` in `space` and, when `data` is
    /// provided, initializes input and weights with deterministic synthetic
    /// values derived from `seed`.
    pub fn new(
        net: Network,
        accel_cfg: GemminiConfig,
        space: &mut AddressSpace,
        frames: &mut FrameAllocator,
        mut data: Option<&mut MainMemory>,
        seed: u64,
    ) -> Self {
        let dim = accel_cfg.dim();
        let pad = dim.max(64);
        let input_elements = net
            .layers()
            .first()
            .map(|l| layer_input_elements(&l.layer))
            .unwrap_or(1);
        let input_va = space.alloc(frames, round_up(input_elements, pad) as u64);

        let mut placements = Vec::with_capacity(net.len());
        // Room for the longest layer queue (a conv's groups and its host
        // im2col), so starting a layer never grows the queue.
        let mut queue_len = 1;
        for (i, nl) in net.layers().iter().enumerate() {
            let l = &nl.layer;
            let conv = ConvGroups::of(l);
            queue_len = conv.map_or(queue_len, |c| queue_len.max(c.groups + 1));
            // Stationary operands are stored panel-packed (see
            // `pack_b_panels`), which pads each panel to `dim` columns.
            let weights_len = match *l {
                Layer::Matmul { k, n, .. } => packed_b_len(k, n, dim),
                _ => conv.map_or(0, |c| c.groups * c.group_weights_len(dim)),
            };
            let weights =
                (weights_len > 0).then(|| space.alloc(frames, round_up(weights_len, pad) as u64));
            let out_elements = l.output_bytes() as usize;
            let output = space.alloc(frames, round_up(out_elements.max(1), pad) as u64);
            // Patch scratch for CPU-side im2col: every group's patch matrix.
            let patch = conv
                .filter(|_| !accel_cfg.has_im2col)
                .map(|c| space.alloc(frames, round_up(c.groups * c.m() * c.k(), pad) as u64));
            placements.push(Placement {
                weights,
                output,
                patch,
                out_elements,
            });

            // Functional weight initialization, streamed straight into the
            // packed pages.
            if let (Some(mem), Some(va)) = (data.as_deref_mut(), weights) {
                let mut stream = RandomI8::new(weight_seed(seed, i));
                if let Some(conv) = &conv {
                    write_conv_panels(space, mem, va, conv, dim, &mut stream);
                } else if let Layer::Matmul { k, n, .. } = *l {
                    write_b_panels(space, mem, va, k, n, dim, &mut stream);
                }
            }
        }

        if let Some(mem) = data {
            write_virt(space, mem, input_va, &seeded_input(&net, seed));
        }

        Self {
            net,
            accel_cfg,
            input_va,
            input_elements,
            placements,
            current: 0,
            queue: VecDeque::with_capacity(queue_len),
            layer_start: 0,
            timings: Vec::new(),
            seed,
        }
    }

    /// The network being executed.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Per-layer timings recorded so far.
    pub fn timings(&self) -> &[LayerTiming] {
        &self.timings
    }

    /// The final layer's output buffer.
    pub fn output_va(&self) -> VirtAddr {
        self.placements
            .last()
            .map(|p| p.output)
            .unwrap_or(self.input_va)
    }

    /// Element count of the final output.
    pub fn output_elements(&self) -> usize {
        self.placements
            .last()
            .map(|p| p.out_elements)
            .unwrap_or(self.input_elements)
    }

    /// Whether every layer has completed.
    pub fn is_finished(&self) -> bool {
        self.current >= self.net.len()
    }

    fn input_of(&self, i: usize) -> VirtAddr {
        if i == 0 {
            self.input_va
        } else {
            self.placements[i - 1].output
        }
    }

    /// The second residual operand: the most recent earlier buffer with a
    /// matching element count (the block input for identity shortcuts, the
    /// projection output for projection shortcuts).
    fn resadd_second_operand(&self, i: usize, elements: usize) -> VirtAddr {
        for j in (0..i.saturating_sub(1)).rev() {
            if self.placements[j].out_elements == elements {
                return self.placements[j].output;
            }
        }
        if self.input_elements == elements {
            return self.input_va;
        }
        // Degenerate fallback: reuse the primary operand.
        self.input_of(i)
    }

    /// Layer `i`'s `[1, h, w, c]` input feature map (functional mode
    /// only).
    fn read_input(
        &self,
        env: &KernelEnv<'_>,
        i: usize,
        c: usize,
        (h, w): (usize, usize),
    ) -> Option<Tensor<i8>> {
        let data = env.ctx.data.as_deref()?;
        let bytes = read_virt(env.ctx.space, data, self.input_of(i), h * w * c);
        Some(Tensor::from_vec(&[1, h, w, c], into_i8(bytes)))
    }

    /// Queues the kernels that run the current layer, in order.
    fn prepare_layer(&mut self, env: &mut KernelEnv<'_>) {
        let i = self.current;
        let layer = self.net.layers()[i].layer.clone();
        let place = self.placements[i];
        let cfg = self.accel_cfg.clone();
        let kernel: Box<dyn Kernel> = match layer {
            Layer::Conv { .. } | Layer::DwConv { .. } => {
                let conv = ConvGroups::of(&layer).expect("a conv layer has groups");
                let input = self.read_input(env, i, conv.groups * conv.in_channels, conv.in_hw);
                if let Some(patch_va) = place.patch {
                    // CPU im2col: the host expands every group's patches
                    // into memory up front (functional mode), then the
                    // accelerator consumes plain matrices; the
                    // CpuLayerKernel carries the host's time.
                    if let Some(t) = &input {
                        let len = conv.m() * conv.k();
                        for g in 0..conv.groups {
                            let vals = conv.patches(t, g).into_vec();
                            write_host_output(env, patch_va.add((g * len) as u64), Some(vals));
                        }
                    }
                    let cycles = env.cpu.im2col_cycles(&layer);
                    self.queue.push_back(Box::new(CpuLayerKernel::new(cycles)));
                }
                let buffers = [
                    self.input_of(i),
                    place.weights.expect("conv has weights"),
                    place.output,
                ];
                let groups = conv.kernels(&cfg, buffers, place.patch, input.as_ref());
                self.queue
                    .extend(groups.map(|k| Box::new(k) as Box<dyn Kernel>));
                return;
            }
            Layer::Matmul {
                m,
                k,
                n,
                activation,
            } => Box::new(TiledMatmulKernel::new(
                &cfg,
                MatmulParams {
                    a: self.input_of(i),
                    b: place.weights.expect("matmul has weights"),
                    c: place.output,
                    m,
                    k,
                    n,
                    c_stride: n,
                    activation,
                    acc_scale: scale_for_k(k),
                },
                ASource::Memory,
            )),
            Layer::ResAdd { elements } => {
                let a = self.input_of(i);
                let b = self.resadd_second_operand(i, elements);
                Box::new(ResAddKernel::new(&cfg, a, b, place.output, elements))
            }
            Layer::Pool {
                kind,
                size,
                stride,
                padding,
                channels,
                in_hw,
            } => {
                let spec = ConvSpec {
                    kernel: size,
                    stride,
                    padding,
                };
                // Functionally the pooled NHWC map is written up front,
                // on the pooling unit or not; the kernel carries the time.
                let out = self
                    .read_input(env, i, channels, in_hw)
                    .map(|t| pool2d_i8(&t, kind, spec).into_vec());
                write_host_output(env, place.output, out);
                if cfg.has_pooling {
                    let (oh, ow) = (spec.out_size(in_hw.0), spec.out_size(in_hw.1));
                    // Stream NHWC rows: h rows of w·c bytes.
                    Box::new(PoolKernel::new(
                        &cfg,
                        self.input_of(i),
                        place.output,
                        (in_hw.0, in_hw.1 * channels),
                        (oh, ow * channels),
                        size,
                    ))
                } else {
                    Box::new(CpuLayerKernel::new(env.cpu.layer_cycles(&layer)))
                }
            }
            Layer::LayerNorm { rows, cols } | Layer::Softmax { rows, cols } => {
                // Functionally the identity (as in `reference_forward`):
                // copy the input up front; the CpuLayerKernel carries the
                // time.
                let src = self.input_of(i);
                let input = env
                    .ctx
                    .data
                    .as_deref()
                    .map(|data| into_i8(read_virt(env.ctx.space, data, src, rows * cols)));
                write_host_output(env, place.output, input);
                Box::new(CpuLayerKernel::new(env.cpu.layer_cycles(&layer)))
            }
        };
        self.queue.push_back(kernel);
    }

    /// Executes one step of the current layer's front kernel; the layer
    /// ends with its last kernel.
    ///
    /// # Errors
    ///
    /// Propagates accelerator errors.
    pub fn step(&mut self, env: &mut KernelEnv<'_>) -> Result<StepOutcome, AccelError> {
        if self.is_finished() {
            return Ok(StepOutcome::Done);
        }
        if self.queue.is_empty() {
            self.layer_start = env.accel.now();
            self.prepare_layer(env);
        }
        let front = self
            .queue
            .front_mut()
            .expect("a layer lowers to at least one kernel");
        if front.step(env)? == StepOutcome::Done {
            self.queue.pop_front();
        }
        if self.queue.is_empty() {
            let nl = &self.net.layers()[self.current];
            self.timings.push(LayerTiming {
                name: nl.name.clone(),
                class: nl.layer.class(),
                start: self.layer_start,
                end: env.accel.now(),
            });
            self.current += 1;
        }
        Ok(if self.is_finished() {
            StepOutcome::Done
        } else {
            StepOutcome::Working
        })
    }

    /// Seed used for synthetic tensors.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Golden-model execution of `net` with the same synthetic tensors, layouts,
/// scales and read-out arithmetic as [`NetworkExecution`]; returns the final
/// output bytes (in the runtime's memory layout) for bit-exact comparison.
///
/// Norm-class layers (softmax, layer norm) pass their input through
/// unchanged, here and in [`NetworkExecution`]; their cost is CPU time
/// only.
pub fn reference_forward(net: &Network, seed: u64) -> Vec<i8> {
    // A residual add reads the latest tensor of its length from before the
    // previous layer (the network input counts as the oldest), so only
    // that tensor per length is kept, one layer behind `prev`.
    let mut skips: HashMap<usize, Vec<i8>> = HashMap::new();
    let mut prev = seeded_input(net, seed);
    for (i, nl) in net.layers().iter().enumerate() {
        let wseed = weight_seed(seed, i);
        let out: Vec<i8> = match &nl.layer {
            Layer::Conv {
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
                in_hw,
                activation,
            } => {
                let spec = ConvSpec {
                    kernel: *kernel,
                    stride: *stride,
                    padding: *padding,
                };
                let input = Tensor::from_vec(&[1, in_hw.0, in_hw.1, *in_channels], prev.clone());
                let w =
                    Tensor::<i8>::random(&[*out_channels, *in_channels, *kernel, *kernel], wseed);
                let acc = conv2d(&input, &w, spec);
                let scale = scale_for_k(kernel * kernel * in_channels);
                // The read-out is elementwise, so one call covers every
                // pixel's [oc] row of the NHWC accumulators.
                readout_row(acc.as_slice(), *activation, scale)
            }
            Layer::DwConv {
                channels,
                kernel,
                stride,
                padding,
                in_hw,
                activation,
            } => {
                let spec = ConvSpec {
                    kernel: *kernel,
                    stride: *stride,
                    padding: *padding,
                };
                let input = Tensor::from_vec(&[1, in_hw.0, in_hw.1, *channels], prev.clone());
                let w = Tensor::<i8>::random(&[*channels, *kernel, *kernel], wseed);
                let acc = dwconv2d(&input, &w, spec);
                let scale = scale_for_k(kernel * kernel);
                readout_row(acc.as_slice(), *activation, scale)
            }
            Layer::Matmul {
                m,
                k,
                n,
                activation,
            } => {
                let a = Tensor::from_vec(&[*m, *k], std::mem::take(&mut prev));
                let b = Tensor::<i8>::random(&[*k, *n], wseed);
                let acc = matmul(&a, &b);
                prev = a.into_vec();
                let scale = scale_for_k(*k);
                let mut out = Vec::with_capacity(m * n);
                for r in 0..*m {
                    out.extend(readout_row(
                        &acc.as_slice()[r * n..(r + 1) * n],
                        *activation,
                        scale,
                    ));
                }
                out
            }
            Layer::ResAdd { elements } => {
                let b_bytes = skips.get(elements).unwrap_or(&prev).clone();
                let a = Tensor::from_vec(&[*elements], std::mem::take(&mut prev));
                let b = Tensor::from_vec(&[*elements], b_bytes);
                let sum = resadd_i8(&a, &b).into_vec();
                prev = a.into_vec();
                sum
            }
            Layer::Pool {
                kind,
                size,
                stride,
                padding,
                channels,
                in_hw,
            } => {
                let spec = ConvSpec {
                    kernel: *size,
                    stride: *stride,
                    padding: *padding,
                };
                let input = Tensor::from_vec(&[1, in_hw.0, in_hw.1, *channels], prev.clone());
                pool2d_i8(&input, *kind, spec).into_vec()
            }
            Layer::LayerNorm { .. } | Layer::Softmax { .. } => prev.clone(),
        };
        let done = std::mem::replace(&mut prev, out);
        skips.insert(done.len(), done);
    }
    prev
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::pack_b_panels;
    use gemmini_dnn::graph::Activation;
    use gemmini_dnn::ops::im2col::weights_to_matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A functional accelerator whose array multiplies `dim × dim` blocks.
    fn config_with_dim(dim: usize) -> GemminiConfig {
        GemminiConfig {
            mesh_rows: dim,
            mesh_cols: dim,
            tile_rows: 1,
            tile_cols: 1,
            ..GemminiConfig::edge()
        }
    }

    /// The weight bytes of layer `l` the unstreamed way: the whole seeded
    /// tensor, its NHWC matrix for a conv, then `pack_b_panels`, or a
    /// depthwise weight at the head of every `dim`-wide row.
    fn reference_weights(l: &Layer, wseed: u64, dim: usize) -> Option<Vec<i8>> {
        match *l {
            Layer::Conv {
                in_channels,
                out_channels,
                kernel,
                ..
            } => {
                let w = Tensor::<i8>::random(&[out_channels, in_channels, kernel, kernel], wseed);
                Some(pack_b_panels(&weights_to_matrix(&w), dim))
            }
            Layer::DwConv {
                channels, kernel, ..
            } => {
                let w = Tensor::<i8>::random(&[channels, kernel, kernel], wseed);
                let mut panels = vec![0i8; channels * kernel * kernel * dim];
                for (row, &v) in panels.chunks_exact_mut(dim).zip(w.as_slice()) {
                    row[0] = v;
                }
                Some(panels)
            }
            Layer::Matmul { k, n, .. } => {
                Some(pack_b_panels(&Tensor::<i8>::random(&[k, n], wseed), dim))
            }
            _ => None,
        }
    }

    /// Sets `net` up in functional memory and compares every byte of every
    /// weight page, pad lanes and the page tail included, with the
    /// reference bytes written through the same page table.
    fn check_weight_pages(net: &Network, dim: usize, seed: u64) {
        let mut frames = FrameAllocator::new();
        let mut space = AddressSpace::new(&mut frames);
        let mut mem = MainMemory::new();
        let exec = NetworkExecution::new(
            net.clone(),
            config_with_dim(dim),
            &mut space,
            &mut frames,
            Some(&mut mem),
            seed,
        );
        let mut want_mem = MainMemory::new();
        for (i, nl) in net.layers().iter().enumerate() {
            let want = reference_weights(&nl.layer, weight_seed(seed, i), dim);
            let va = exec.placements[i].weights;
            assert_eq!(va.is_some(), want.is_some(), "layer {}", nl.name);
            let (Some(va), Some(want)) = (va, want) else {
                continue;
            };
            write_virt(&space, &mut want_mem, va, &want);
            let len = round_up(want.len(), PAGE_SIZE as usize);
            assert!(
                read_virt(&space, &mem, va, len) == read_virt(&space, &want_mem, va, len),
                "layer {} ({:?}) dim={dim} seed={seed}",
                nl.name,
                nl.layer
            );
        }
    }

    fn matmul(k: usize, n: usize) -> Layer {
        Layer::Matmul {
            m: 2,
            k,
            n,
            activation: Activation::None,
        }
    }

    fn conv(in_channels: usize, out_channels: usize, kernel: usize) -> Layer {
        Layer::Conv {
            in_channels,
            out_channels,
            kernel,
            stride: 1,
            padding: 0,
            in_hw: (kernel + 1, kernel + 2),
            activation: Activation::Relu,
        }
    }

    fn dwconv(channels: usize, kernel: usize) -> Layer {
        Layer::DwConv {
            channels,
            kernel,
            stride: 1,
            padding: kernel / 2,
            in_hw: (kernel + 2, kernel + 1),
            activation: Activation::None,
        }
    }

    /// A net of one to four weight layers with random shapes: `n` and
    /// channel counts on both sides of multiples of `dim`, reduction depths
    /// past one row block (`PAGE_SIZE / dim` rows).
    fn random_net(rng: &mut StdRng, dim: usize) -> Network {
        let mut net = Network::new("random");
        for i in 0..rng.gen_range(1..5usize) {
            let layer = match rng.gen_range(0..3u32) {
                0 => matmul(
                    rng.gen_range(1..3 * PAGE_SIZE as usize / dim),
                    rng.gen_range(1..5 * dim),
                ),
                1 => conv(
                    rng.gen_range(1..40usize),
                    rng.gen_range(1..5 * dim),
                    [1, 3, 5][rng.gen_range(0..3usize)],
                ),
                _ => dwconv(rng.gen_range(1..5 * dim), [3, 5][rng.gen_range(0..2usize)]),
            };
            net.push(format!("l{i}"), layer);
        }
        net
    }

    fn check_random_nets(cases: usize) {
        let mut rng = StdRng::seed_from_u64(20);
        for _ in 0..cases {
            let dim = [4, 8, 12, 16][rng.gen_range(0..4usize)];
            let seed = rng.gen::<u64>();
            check_weight_pages(&random_net(&mut rng, dim), dim, seed);
        }
    }

    #[test]
    fn streamed_weights_equal_the_packed_tensors() {
        // 12 does not divide `PAGE_SIZE`: panels start mid-page and rows
        // straddle page boundaries.
        for dim in [4, 8, 12, 16] {
            let block = PAGE_SIZE as usize / dim;
            let mut net = Network::new("edges");
            // `n` and channel counts one short of, at and past a panel
            // boundary (fc8's n = 1000 leaves 8 of 16 lanes as padding in
            // its last panel); `k` inside, at and past one row block.
            net.push("fc_short", matmul(block - 1, 2 * dim - 1));
            net.push("fc_block", matmul(block, dim));
            net.push("fc_long", matmul(2 * block + 3, 3 * dim + dim / 2));
            net.push("fc_col", matmul(block + 1, 1));
            net.push("conv_pad", conv(3, 2 * dim + 1, 3));
            net.push("conv_full", conv(dim + 1, dim, 1));
            net.push("conv_narrow", conv(2, dim - 1, 5));
            net.push("dw_pad", dwconv(dim + 3, 3));
            net.push("dw_long", dwconv(block / 9 + 5, 3));
            check_weight_pages(&net, dim, 7);
            check_weight_pages(&net, dim, 0xdead_beef);
        }
        check_random_nets(24);
    }

    /// The same comparison over many more random nets; run in release with
    /// `--include-ignored`.
    #[test]
    #[ignore = "slow: run with --release -- --include-ignored"]
    fn streamed_weights_equal_the_packed_tensors_many() {
        check_random_nets(2048);
    }

    #[test]
    fn weight_seeds_are_distinct_per_layer() {
        let a = weight_seed(42, 0);
        let b = weight_seed(42, 1);
        let c = weight_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn input_element_counts() {
        use gemmini_dnn::graph::Activation;
        assert_eq!(
            layer_input_elements(&Layer::Matmul {
                m: 2,
                k: 3,
                n: 4,
                activation: Activation::None
            }),
            6
        );
        assert_eq!(layer_input_elements(&Layer::ResAdd { elements: 7 }), 7);
    }
}
