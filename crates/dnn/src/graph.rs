//! The layer-trace IR.
//!
//! A [`Network`] is an ordered list of dimensioned layers — the form in
//! which the runtime (in `gemmini-soc`) consumes workloads. Each layer is
//! self-contained (it records its own input geometry), which is exactly the
//! information the data-staging heuristics and the timing model need, and it
//! carries the layer-class taxonomy (convolution / matrix multiplication /
//! residual addition / …) that the Fig. 9 case study aggregates over.

use std::fmt;

/// Activation fused onto a layer's output, performed by the accelerator's
/// peripheral circuitry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// No activation.
    #[default]
    None,
    /// `max(0, x)`.
    Relu,
    /// `min(max(0, x), 6)`.
    Relu6,
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::None => write!(f, "none"),
            Self::Relu => write!(f, "relu"),
            Self::Relu6 => write!(f, "relu6"),
        }
    }
}

/// Pooling flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Window maximum.
    Max,
    /// Window average.
    Avg,
}

impl fmt::Display for PoolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Max => write!(f, "max"),
            Self::Avg => write!(f, "avg"),
        }
    }
}

/// The coarse layer taxonomy of Section V-B: "ResNet50 includes
/// convolutions, matrix multiplications, and residual additions, which all
/// exhibit quite different computational patterns."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerClass {
    /// Direct or depthwise convolution (high arithmetic intensity).
    Conv,
    /// Matrix multiplication (moderate arithmetic intensity).
    Matmul,
    /// Residual addition (no data reuse; memory bound).
    ResAdd,
    /// Pooling.
    Pool,
    /// Normalization / softmax vector work.
    Norm,
}

impl fmt::Display for LayerClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Conv => write!(f, "conv"),
            Self::Matmul => write!(f, "matmul"),
            Self::ResAdd => write!(f, "resadd"),
            Self::Pool => write!(f, "pool"),
            Self::Norm => write!(f, "norm"),
        }
    }
}

/// One dimensioned layer of a network trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Layer {
    /// Standard 2-D convolution.
    Conv {
        /// Input channels.
        in_channels: usize,
        /// Output channels.
        out_channels: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding per edge.
        padding: usize,
        /// Input spatial size (height, width).
        in_hw: (usize, usize),
        /// Fused output activation.
        activation: Activation,
    },
    /// Depthwise 2-D convolution (one filter per channel).
    DwConv {
        /// Channels (input == output).
        channels: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding per edge.
        padding: usize,
        /// Input spatial size (height, width).
        in_hw: (usize, usize),
        /// Fused output activation.
        activation: Activation,
    },
    /// Dense matrix multiplication `[m,k] @ [k,n]`.
    Matmul {
        /// Output rows.
        m: usize,
        /// Inner (reduction) dimension.
        k: usize,
        /// Output columns.
        n: usize,
        /// Fused output activation.
        activation: Activation,
    },
    /// Elementwise residual addition of two `elements`-long operands.
    ResAdd {
        /// Number of elements in each operand.
        elements: usize,
    },
    /// 2-D pooling.
    Pool {
        /// Max or average.
        kind: PoolKind,
        /// Window size.
        size: usize,
        /// Stride.
        stride: usize,
        /// Zero padding per edge.
        padding: usize,
        /// Channels.
        channels: usize,
        /// Input spatial size (height, width).
        in_hw: (usize, usize),
    },
    /// Row-wise layer normalization over a `[rows, cols]` operand.
    LayerNorm {
        /// Rows.
        rows: usize,
        /// Columns (normalized axis).
        cols: usize,
    },
    /// Row-wise softmax over a `[rows, cols]` operand.
    Softmax {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
}

fn conv_out(in_size: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    (in_size + 2 * padding - kernel) / stride + 1
}

impl Layer {
    /// The coarse class this layer belongs to.
    pub fn class(&self) -> LayerClass {
        match self {
            Self::Conv { .. } | Self::DwConv { .. } => LayerClass::Conv,
            Self::Matmul { .. } => LayerClass::Matmul,
            Self::ResAdd { .. } => LayerClass::ResAdd,
            Self::Pool { .. } => LayerClass::Pool,
            Self::LayerNorm { .. } | Self::Softmax { .. } => LayerClass::Norm,
        }
    }

    /// Output spatial size for convolution/pooling layers, `None` otherwise.
    pub fn out_hw(&self) -> Option<(usize, usize)> {
        match *self {
            Self::Conv {
                kernel,
                stride,
                padding,
                in_hw,
                ..
            }
            | Self::DwConv {
                kernel,
                stride,
                padding,
                in_hw,
                ..
            } => Some((
                conv_out(in_hw.0, kernel, stride, padding),
                conv_out(in_hw.1, kernel, stride, padding),
            )),
            Self::Pool {
                size,
                stride,
                padding,
                in_hw,
                ..
            } => Some((
                conv_out(in_hw.0, size, stride, padding),
                conv_out(in_hw.1, size, stride, padding),
            )),
            _ => None,
        }
    }

    /// Multiply-accumulate operations this layer performs (batch 1).
    pub fn macs(&self) -> u64 {
        match *self {
            Self::Conv {
                in_channels,
                out_channels,
                kernel,
                ..
            } => {
                let (oh, ow) = self.out_hw().expect("conv has spatial output");
                (out_channels * oh * ow * kernel * kernel * in_channels) as u64
            }
            Self::DwConv {
                channels, kernel, ..
            } => {
                let (oh, ow) = self.out_hw().expect("dwconv has spatial output");
                (channels * oh * ow * kernel * kernel) as u64
            }
            Self::Matmul { m, k, n, .. } => (m * k * n) as u64,
            // Elementwise/pool/norm work performs no MACs in the spatial
            // array sense.
            Self::ResAdd { .. }
            | Self::Pool { .. }
            | Self::LayerNorm { .. }
            | Self::Softmax { .. } => 0,
        }
    }

    /// Bytes of activation input this layer streams in (int8 elements;
    /// both operands for residual adds).
    pub fn input_bytes(&self) -> u64 {
        match *self {
            Self::Conv {
                in_channels, in_hw, ..
            } => (in_channels * in_hw.0 * in_hw.1) as u64,
            Self::DwConv {
                channels, in_hw, ..
            } => (channels * in_hw.0 * in_hw.1) as u64,
            Self::Matmul { m, k, .. } => (m * k) as u64,
            Self::ResAdd { elements } => 2 * elements as u64,
            Self::Pool {
                channels, in_hw, ..
            } => (channels * in_hw.0 * in_hw.1) as u64,
            Self::LayerNorm { rows, cols } | Self::Softmax { rows, cols } => (rows * cols) as u64,
        }
    }

    /// Bytes of weights this layer reads (int8 elements).
    pub fn weight_bytes(&self) -> u64 {
        match *self {
            Self::Conv {
                in_channels,
                out_channels,
                kernel,
                ..
            } => (out_channels * in_channels * kernel * kernel) as u64,
            Self::DwConv {
                channels, kernel, ..
            } => (channels * kernel * kernel) as u64,
            Self::Matmul { k, n, .. } => (k * n) as u64,
            _ => 0,
        }
    }

    /// Bytes of output this layer produces (int8 elements).
    pub fn output_bytes(&self) -> u64 {
        match *self {
            Self::Conv { out_channels, .. } => {
                let (oh, ow) = self.out_hw().expect("conv has spatial output");
                (out_channels * oh * ow) as u64
            }
            Self::DwConv { channels, .. } => {
                let (oh, ow) = self.out_hw().expect("dwconv has spatial output");
                (channels * oh * ow) as u64
            }
            Self::Matmul { m, n, .. } => (m * n) as u64,
            Self::ResAdd { elements } => elements as u64,
            Self::Pool { channels, .. } => {
                let (oh, ow) = self.out_hw().expect("pool has spatial output");
                (channels * oh * ow) as u64
            }
            Self::LayerNorm { rows, cols } | Self::Softmax { rows, cols } => (rows * cols) as u64,
        }
    }

    /// Arithmetic intensity in MACs per byte moved — the quantity Section
    /// V-B reasons about ("convolutions have high arithmetic intensity;
    /// matrix multiplications have less; residual additions almost no data
    /// re-use at all").
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.input_bytes() + self.weight_bytes() + self.output_bytes();
        if bytes == 0 {
            0.0
        } else {
            self.macs() as f64 / bytes as f64
        }
    }

    /// The equivalent matrix-multiplication dimensions `(m, k, n)` after
    /// im2col lowering, for layers the spatial array executes; `None` for
    /// layers it does not (pool/norm).
    pub fn as_gemm(&self) -> Option<(usize, usize, usize)> {
        match *self {
            Self::Conv {
                in_channels,
                out_channels,
                kernel,
                ..
            } => {
                let (oh, ow) = self.out_hw()?;
                Some((oh * ow, kernel * kernel * in_channels, out_channels))
            }
            Self::DwConv {
                channels, kernel, ..
            } => {
                // Depthwise lowering: each channel is an independent tiny
                // GEMM; represent as one GEMM with unit output width per
                // channel (poor reuse — the paper's MobileNet observation).
                let (oh, ow) = self.out_hw()?;
                Some((oh * ow * channels, kernel * kernel, 1))
            }
            Self::Matmul { m, k, n, .. } => Some((m, k, n)),
            Self::ResAdd { .. }
            | Self::Pool { .. }
            | Self::LayerNorm { .. }
            | Self::Softmax { .. } => None,
        }
    }
}

/// A named layer within a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedLayer {
    /// Human-readable layer name (e.g. `conv2_1_3x3`).
    pub name: String,
    /// The layer's dimensions.
    pub layer: Layer,
}

/// An ordered network trace.
///
/// # Example
///
/// ```
/// use gemmini_dnn::graph::{Network, Layer, Activation};
/// let mut net = Network::new("tiny");
/// net.push("fc", Layer::Matmul { m: 4, k: 8, n: 16, activation: Activation::Relu });
/// assert_eq!(net.total_macs(), 4 * 8 * 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    name: String,
    layers: Vec<NamedLayer>,
}

impl Network {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// The network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a named layer.
    pub fn push(&mut self, name: impl Into<String>, layer: Layer) {
        self.layers.push(NamedLayer {
            name: name.into(),
            layer,
        });
    }

    /// The layers, in execution order.
    pub fn layers(&self) -> &[NamedLayer] {
        &self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total MACs across all layers (batch 1).
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.layer.macs()).sum()
    }

    /// Number of layers of one class.
    pub fn count_of_class(&self, class: LayerClass) -> usize {
        self.layers
            .iter()
            .filter(|l| l.layer.class() == class)
            .count()
    }

    /// Total bytes moved (inputs + weights + outputs) across all layers.
    pub fn total_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.layer.input_bytes() + l.layer.weight_bytes() + l.layer.output_bytes())
            .sum()
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} layers, {:.2} GMACs)",
            self.name,
            self.layers.len(),
            self.total_macs() as f64 / 1e9
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(ic: usize, oc: usize, k: usize, s: usize, p: usize, hw: usize) -> Layer {
        Layer::Conv {
            in_channels: ic,
            out_channels: oc,
            kernel: k,
            stride: s,
            padding: p,
            in_hw: (hw, hw),
            activation: Activation::Relu,
        }
    }

    #[test]
    fn conv_macs_match_hand_count() {
        // ResNet50 stem: 7x7/2, 3->64, 224 -> 112.
        let l = conv(3, 64, 7, 2, 3, 224);
        assert_eq!(l.out_hw(), Some((112, 112)));
        assert_eq!(l.macs(), 64 * 112 * 112 * 7 * 7 * 3);
    }

    #[test]
    fn dwconv_macs_lack_channel_reduction() {
        let l = Layer::DwConv {
            channels: 32,
            kernel: 3,
            stride: 1,
            padding: 1,
            in_hw: (16, 16),
            activation: Activation::Relu6,
        };
        assert_eq!(l.macs(), 32 * 16 * 16 * 9);
        assert_eq!(l.class(), LayerClass::Conv);
    }

    #[test]
    fn matmul_macs() {
        let l = Layer::Matmul {
            m: 128,
            k: 768,
            n: 768,
            activation: Activation::None,
        };
        assert_eq!(l.macs(), 128 * 768 * 768);
        assert_eq!(l.class(), LayerClass::Matmul);
    }

    #[test]
    fn resadd_has_zero_macs_and_double_input() {
        let l = Layer::ResAdd { elements: 1000 };
        assert_eq!(l.macs(), 0);
        assert_eq!(l.input_bytes(), 2000);
        assert_eq!(l.output_bytes(), 1000);
        assert_eq!(l.class(), LayerClass::ResAdd);
        assert_eq!(l.arithmetic_intensity(), 0.0);
    }

    #[test]
    fn arithmetic_intensity_ordering_matches_paper() {
        // conv >> matmul >> resadd: the Section V-B premise.
        let c = conv(256, 256, 3, 1, 1, 14);
        let m = Layer::Matmul {
            m: 196,
            k: 256,
            n: 256,
            activation: Activation::None,
        };
        let r = Layer::ResAdd { elements: 200_000 };
        assert!(c.arithmetic_intensity() > m.arithmetic_intensity());
        assert!(m.arithmetic_intensity() > r.arithmetic_intensity());
    }

    #[test]
    fn conv_as_gemm_dimensions() {
        let l = conv(3, 64, 7, 2, 3, 224);
        assert_eq!(l.as_gemm(), Some((112 * 112, 7 * 7 * 3, 64)));
        // GEMM MACs equal direct conv MACs.
        let (m, k, n) = l.as_gemm().unwrap();
        assert_eq!((m * k * n) as u64, l.macs());
    }

    #[test]
    fn pool_and_norm_have_no_gemm() {
        let p = Layer::Pool {
            kind: PoolKind::Max,
            size: 3,
            stride: 2,
            padding: 1,
            channels: 64,
            in_hw: (112, 112),
        };
        assert_eq!(p.as_gemm(), None);
        assert_eq!(p.out_hw(), Some((56, 56)));
        let n = Layer::Softmax {
            rows: 12,
            cols: 128,
        };
        assert_eq!(n.as_gemm(), None);
        assert_eq!(n.class(), LayerClass::Norm);
        let ln = Layer::LayerNorm { rows: 1, cols: 1 };
        assert_eq!(ln.class(), LayerClass::Norm);
    }

    #[test]
    fn network_aggregation() {
        let mut net = Network::new("t");
        net.push("c", conv(3, 8, 3, 1, 1, 8));
        net.push(
            "m",
            Layer::Matmul {
                m: 2,
                k: 3,
                n: 4,
                activation: Activation::None,
            },
        );
        net.push("r", Layer::ResAdd { elements: 10 });
        assert_eq!(net.len(), 3);
        assert_eq!(net.count_of_class(LayerClass::Conv), 1);
        assert_eq!(net.layers()[1].layer.macs(), 24);
        assert_eq!(net.total_macs(), net.layers()[0].layer.macs() + 24);
        assert!(net.total_bytes() > 0);
        assert!(net.to_string().contains("3 layers"));
    }
}
