//! Per-operation CPU cycle costs.
//!
//! Calibration anchors (documented per constant) come from Fig. 7:
//! ResNet50 at 2,670× over Rocket / 1,130× over BOOM with the accelerator
//! at 22.8 FPS @ 1 GHz, plus the ≈2.0× end-to-end effect of BOOM when the
//! CPU performs im2col.

use gemmini_dnn::graph::Layer;

/// Which host core the model represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuKind {
    /// Low-power, in-order, single-issue Rocket.
    Rocket,
    /// High-performance, out-of-order BOOM.
    Boom,
}

impl CpuKind {
    /// Throughput multiple over Rocket.
    ///
    /// Calibrated to Fig. 7: 2,670 / 1,130 ≈ 2.36 (the paper's text quotes
    /// "2.0x across all CNNs" for the end-to-end im2col-on-CPU effect,
    /// which this multiple reproduces once the accelerator fraction is
    /// added back in).
    pub fn speedup_over_rocket(self) -> f64 {
        match self {
            Self::Rocket => 1.0,
            Self::Boom => 2.36,
        }
    }
}

// Rocket-calibrated per-operation costs (cycles); BOOM divides each by
// its IPC multiple. They model a *straightforward scalar baseline*: the
// paper's CPU baseline is an un-tuned port, not a hand-vectorized BLAS.

/// Cycles per convolution MAC (nested-loop direct convolution with its
/// poor locality; calibrated so ResNet50 lands at ≈2,670× the
/// accelerator's 43.9 M cycles).
const CONV_CYCLES_PER_MAC: f64 = 28.0;
/// Cycles per matmul MAC (tight three-loop GEMM: two loads, MAC, index
/// arithmetic on a single-issue core).
const MATMUL_CYCLES_PER_MAC: f64 = 3.0;
/// Cycles per residual-add element (two loads, add, store).
const RESADD_CYCLES_PER_ELEM: f64 = 4.0;
/// Cycles per pooling *window element* (compare/accumulate per element
/// in each window).
const POOL_CYCLES_PER_WINDOW_ELEM: f64 = 2.0;
/// Cycles per softmax element (exp + normalize, scalar).
const SOFTMAX_CYCLES_PER_ELEM: f64 = 25.0;
/// Cycles per layer-norm element (two passes + scale).
const LAYERNORM_CYCLES_PER_ELEM: f64 = 10.0;
/// Cycles per im2col element (gather + store with index arithmetic and
/// cache-unfriendly strides; calibrated so the BOOM-vs-Rocket
/// end-to-end effect with CPU-side im2col lands at the paper's ≈2.0x).
const IM2COL_CYCLES_PER_ELEM: f64 = 11.5;
/// Cycles to take and return from a context switch (used by the OS
/// noise model).
const CONTEXT_SWITCH_CYCLES: f64 = 5_000.0;

/// A host-CPU timing model.
///
/// # Example
///
/// ```
/// use gemmini_cpu::model::{CpuKind, CpuModel};
/// use gemmini_dnn::graph::{Layer, Activation};
/// let m = CpuModel::new(CpuKind::Rocket);
/// let fc = Layer::Matmul { m: 1, k: 1024, n: 1000, activation: Activation::None };
/// assert!(m.layer_cycles(&fc) > 1024 * 1000); // ≥1 cycle per MAC
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    kind: CpuKind,
}

impl CpuModel {
    /// A model of `kind` with the calibrated cost table.
    pub fn new(kind: CpuKind) -> Self {
        Self { kind }
    }

    /// Which core this models.
    pub fn kind(&self) -> CpuKind {
        self.kind
    }

    #[inline]
    fn scale(&self, rocket_cycles: f64) -> u64 {
        (rocket_cycles / self.kind.speedup_over_rocket()).ceil() as u64
    }

    /// Cycles for this CPU to execute `layer` entirely in software.
    pub fn layer_cycles(&self, layer: &Layer) -> u64 {
        let rocket = match layer {
            Layer::Conv { .. } | Layer::DwConv { .. } => layer.macs() as f64 * CONV_CYCLES_PER_MAC,
            Layer::Matmul { .. } => layer.macs() as f64 * MATMUL_CYCLES_PER_MAC,
            Layer::ResAdd { elements } => *elements as f64 * RESADD_CYCLES_PER_ELEM,
            Layer::Pool { size, .. } => {
                let outs = layer.output_bytes() as f64;
                outs * (size * size) as f64 * POOL_CYCLES_PER_WINDOW_ELEM
            }
            Layer::Softmax { rows, cols } => (rows * cols) as f64 * SOFTMAX_CYCLES_PER_ELEM,
            Layer::LayerNorm { rows, cols } => (rows * cols) as f64 * LAYERNORM_CYCLES_PER_ELEM,
        };
        self.scale(rocket)
    }

    /// Cycles for this CPU to perform im2col for a convolution layer
    /// (zero for anything else).
    pub fn im2col_cycles(&self, layer: &Layer) -> u64 {
        let elems = match layer {
            Layer::Conv {
                in_channels,
                kernel,
                ..
            } => {
                let (oh, ow) = layer.out_hw().expect("conv has spatial output");
                (oh * ow * kernel * kernel * in_channels) as f64
            }
            Layer::DwConv {
                channels, kernel, ..
            } => {
                let (oh, ow) = layer.out_hw().expect("dwconv has spatial output");
                (oh * ow * kernel * kernel * channels) as f64
            }
            _ => return 0,
        };
        self.scale(elems * IM2COL_CYCLES_PER_ELEM)
    }

    /// Cost of one OS context switch on this core.
    pub fn context_switch_cycles(&self) -> u64 {
        self.scale(CONTEXT_SWITCH_CYCLES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemmini_dnn::graph::{Activation, PoolKind};

    fn conv_layer() -> Layer {
        Layer::Conv {
            in_channels: 64,
            out_channels: 64,
            kernel: 3,
            stride: 1,
            padding: 1,
            in_hw: (56, 56),
            activation: Activation::Relu,
        }
    }

    #[test]
    fn boom_is_uniformly_faster() {
        let rocket = CpuModel::new(CpuKind::Rocket);
        let boom = CpuModel::new(CpuKind::Boom);
        let l = conv_layer();
        let ratio = rocket.layer_cycles(&l) as f64 / boom.layer_cycles(&l) as f64;
        assert!((ratio - 2.36).abs() < 0.01);
        assert!(boom.context_switch_cycles() < rocket.context_switch_cycles());
    }

    #[test]
    fn conv_is_much_more_expensive_per_mac_than_matmul() {
        let m = CpuModel::new(CpuKind::Rocket);
        let conv = conv_layer();
        let mm = Layer::Matmul {
            m: 56 * 56,
            k: 64 * 9,
            n: 64,
            activation: Activation::None,
        };
        assert_eq!(conv.macs(), mm.macs());
        assert!(m.layer_cycles(&conv) > 5 * m.layer_cycles(&mm));
    }

    #[test]
    fn im2col_cost_scales_with_patch_volume() {
        let m = CpuModel::new(CpuKind::Rocket);
        let c = conv_layer();
        // 56*56 outputs * 9 * 64 channels * 11.5 cycles.
        assert_eq!(
            m.im2col_cycles(&c),
            (56.0 * 56.0 * 9.0 * 64.0 * 11.5f64).ceil() as u64
        );
        // Non-conv layers have no im2col.
        assert_eq!(m.im2col_cycles(&Layer::ResAdd { elements: 100 }), 0);
    }

    /// CPU im2col cycles over every layer of `net`.
    fn total_im2col_cycles(m: &CpuModel, net: &gemmini_dnn::graph::Network) -> u64 {
        net.layers().iter().map(|l| m.im2col_cycles(&l.layer)).sum()
    }

    #[test]
    fn resnet50_im2col_is_hundreds_of_megacycles_on_rocket() {
        // This is the dominant term in the "no im2col unit" Fig. 7 bars:
        // it must dwarf the accelerator's ~44 M cycles.
        use gemmini_dnn::zoo;
        let rocket = CpuModel::new(CpuKind::Rocket);
        let cycles = total_im2col_cycles(&rocket, &zoo::resnet50());
        let mcycles = cycles as f64 / 1e6;
        assert!(mcycles > 100.0, "im2col = {mcycles:.0} M cycles");
        let boom = total_im2col_cycles(&CpuModel::new(CpuKind::Boom), &zoo::resnet50());
        assert!((cycles as f64 / boom as f64 - 2.36).abs() < 0.05);
        // Depthwise layers pay im2col too.
        assert!(total_im2col_cycles(&rocket, &zoo::mobilenetv2()) > 0);
    }

    #[test]
    fn pool_cost_counts_window_elements() {
        let m = CpuModel::new(CpuKind::Rocket);
        let p = Layer::Pool {
            kind: PoolKind::Max,
            size: 2,
            stride: 2,
            padding: 0,
            channels: 1,
            in_hw: (4, 4),
        };
        // 4 outputs * 4 window elems * 2 cycles.
        assert_eq!(m.layer_cycles(&p), 32);
    }

    #[test]
    fn matmul_cost_is_per_mac() {
        let m = CpuModel::new(CpuKind::Rocket);
        let mm = Layer::Matmul {
            m: 10,
            k: 10,
            n: 10,
            activation: Activation::None,
        };
        // 1,000 MACs * 3 cycles.
        assert_eq!(m.layer_cycles(&mm), 3_000);
    }
}
