//! Property-based tests for the DNN substrate's core invariants.

use gemmini_dnn::graph::{Activation, Layer};
use gemmini_dnn::ops::conv::{conv2d, dwconv2d, ConvSpec};
use gemmini_dnn::ops::im2col::{im2col, weights_to_matrix};
use gemmini_dnn::ops::{matmul, resadd_i8};
use gemmini_dnn::quant::{requantize, QuantParams};
use gemmini_dnn::tensor::Tensor;
use proptest::prelude::*;

fn small_dim() -> impl Strategy<Value = usize> {
    1usize..6
}

proptest! {
    /// Requantization always lands in i8 and is monotonic in the input.
    #[test]
    fn requantize_is_bounded_and_monotonic(a in any::<i32>(), b in any::<i32>(), scale in 0.001f32..4.0) {
        let p = QuantParams::new(scale);
        let qa = requantize(a, p);
        let qb = requantize(b, p);
        if a <= b {
            prop_assert!(qa <= qb);
        }
        // Values are inherently bounded by i8 — this documents intent.
        prop_assert!((-128..=127).contains(&(qa as i32)));
    }

    /// Residual addition saturates instead of wrapping.
    #[test]
    fn resadd_saturates(a in proptest::collection::vec(any::<i8>(), 1..64)) {
        let b: Vec<i8> = a.iter().copied().rev().collect();
        let n = a.len();
        let ta = Tensor::from_vec(&[n], a.clone());
        let tb = Tensor::from_vec(&[n], b.clone());
        let out = resadd_i8(&ta, &tb);
        for i in 0..n {
            let wide = a[i] as i32 + b[i] as i32;
            prop_assert_eq!(out.as_slice()[i] as i32, wide.clamp(-128, 127));
        }
    }

    /// Matmul distributes over identity: A·I = A.
    #[test]
    fn matmul_identity(rows in small_dim(), cols in small_dim(), seed in any::<u64>()) {
        let a = Tensor::<i8>::random(&[rows, cols], seed);
        let mut eye = Tensor::<i8>::zeros(&[cols, cols]);
        for i in 0..cols {
            eye[(i, i)] = 1;
        }
        let c = matmul(&a, &eye);
        for r in 0..rows {
            for q in 0..cols {
                prop_assert_eq!(c[(r, q)], a[(r, q)] as i32);
            }
        }
    }

    /// im2col times the weight matrix is exactly direct convolution: the
    /// GEMM's `[pixel, oc]` output is the NHWC conv output.
    #[test]
    fn im2col_equals_direct_conv(
        c_in in 1usize..4,
        c_out in 1usize..4,
        hw in 3usize..8,
        k in prop::sample::select(vec![1usize, 3]),
        stride in 1usize..3,
        seed in any::<u64>(),
    ) {
        let spec = ConvSpec { kernel: k, stride, padding: k / 2 };
        let input = Tensor::<i8>::random(&[1, hw, hw, c_in], seed);
        let weights = Tensor::<i8>::random(&[c_out, c_in, k, k], seed ^ 0xdead);
        let direct = conv2d(&input, &weights, spec);
        let gemm = matmul(&im2col(&input, spec, 0..c_in), &weights_to_matrix(&weights));
        prop_assert_eq!(gemm.as_slice(), direct.as_slice());
    }

    /// The depthwise lowering the runtime uses: channel `ch`'s patches
    /// times its `[k², 1]` weight column, written at stride `channels`
    /// from offset `ch`, interleave into the NHWC depthwise output.
    #[test]
    fn per_channel_im2col_equals_dwconv(
        channels in 1usize..9,
        h in 1usize..8,
        w in 1usize..8,
        k in prop::sample::select(vec![1usize, 3]),
        stride in 1usize..3,
        seed in any::<u64>(),
    ) {
        let spec = ConvSpec { kernel: k, stride, padding: k / 2 };
        let input = Tensor::<i8>::random(&[1, h, w, channels], seed);
        let weights = Tensor::<i8>::random(&[channels, k, k], seed ^ 0xbeef);
        let direct = dwconv2d(&input, &weights, spec);
        let mut lowered = vec![0i32; direct.len()];
        for (ch, filter) in weights.as_slice().chunks_exact(k * k).enumerate() {
            let column = Tensor::from_vec(&[k * k, 1], filter.to_vec());
            let gemm = matmul(&im2col(&input, spec, ch..ch + 1), &column);
            for (pixel, &v) in gemm.as_slice().iter().enumerate() {
                lowered[pixel * channels + ch] = v;
            }
        }
        prop_assert_eq!(lowered, direct.into_vec());
    }

    /// A conv layer's GEMM lowering preserves the MAC count exactly.
    #[test]
    fn conv_gemm_macs_match(
        ic in 1usize..64,
        oc in 1usize..64,
        k in prop::sample::select(vec![1usize, 3, 5]),
        hw in 7usize..32,
    ) {
        let l = Layer::Conv {
            in_channels: ic,
            out_channels: oc,
            kernel: k,
            stride: 1,
            padding: k / 2,
            in_hw: (hw, hw),
            activation: Activation::None,
        };
        let (m, kk, n) = l.as_gemm().unwrap();
        prop_assert_eq!((m * kk * n) as u64, l.macs());
    }

    /// Serialization round-trips arbitrary matmul/resadd networks.
    #[test]
    fn loader_roundtrip(dims in proptest::collection::vec((1usize..512, 1usize..512, 1usize..512), 1..8)) {
        use gemmini_dnn::graph::Network;
        use gemmini_dnn::loader::{parse_network, serialize_network};
        let mut net = Network::new("prop");
        for (i, (m, k, n)) in dims.iter().enumerate() {
            net.push(format!("l{i}"), Layer::Matmul { m: *m, k: *k, n: *n, activation: Activation::Relu });
            net.push(format!("r{i}"), Layer::ResAdd { elements: m * n });
        }
        let text = serialize_network(&net);
        prop_assert_eq!(parse_network(&text).unwrap(), net);
    }
}
