#![warn(missing_docs)]
#![deny(unsafe_code)]

//! DNN substrate for the Gemmini reproduction.
//!
//! Everything the workloads side of the paper needs, implemented from
//! scratch:
//!
//! * [`tensor`] — a dense N-dimensional tensor (`i8` data, `i32`
//!   accumulators) with deterministic pseudo-random int8 fills (our
//!   substitute for real ImageNet/BERT weights; performance depends on
//!   shapes, not values).
//! * [`quant`] — symmetric quantization utilities matching the accelerator's
//!   int8-in / int32-accumulate / scale-requantize pipeline.
//! * [`ops`] — int8 reference (golden-model) operators over NHWC feature
//!   maps: direct and im2col convolution, depthwise convolution, matmul,
//!   pooling and residual addition. Softmax and layer norm have no
//!   reference op: the CPU model times them and the functional path
//!   passes their input through.
//! * [`graph`] — the layer-trace IR: a [`graph::Network`] is an ordered list
//!   of dimensioned layers with MAC/byte accounting and the layer-class
//!   taxonomy (conv / matmul / residual-add) used by the Fig. 9 case study.
//! * [`loader`] — a minimal textual network format (the reproduction's
//!   stand-in for the paper's ONNX front-end) with parser and serializer.
//! * [`zoo`] — the five evaluated networks with their real layer dimensions:
//!   ResNet50, AlexNet, SqueezeNet v1.1, MobileNetV2 and BERT-base.
//!
//! # Example
//!
//! ```
//! use gemmini_dnn::zoo;
//!
//! let net = zoo::resnet50();
//! // ResNet50 at 224x224 is ~4.1 GMACs of conv+matmul work.
//! let gmacs = net.total_macs() as f64 / 1e9;
//! assert!(gmacs > 3.5 && gmacs < 4.5);
//! ```

pub mod graph;
pub mod loader;
pub mod ops;
pub mod quant;
pub mod tensor;
pub mod zoo;

pub use graph::{Layer, LayerClass, Network};
pub use tensor::Tensor;
