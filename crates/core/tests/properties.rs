//! Property-based bit-identity tests of the matrix unit's flat hot path.
//!
//! The flat path is `MatrixUnit::compute_into` /
//! `MatrixUnit::preload_flat` on strided buffers, through the k-pair SSE2
//! int8 kernel. It must agree bit-for-bit with a straight per-element
//! triple loop across randomized shapes, strides, and bias
//! configurations.

use gemmini_core::mesh::MatrixUnit;
use proptest::prelude::*;

/// Dense `dim×dim` B from a flat strided `b_rows×b_cols` block (zeros
/// outside the block) — the same semantics as `preload_flat`.
fn dense_b(b: &[i8], b_rows: usize, b_cols: usize, stride: usize, dim: usize) -> Vec<i8> {
    let mut out = vec![0; dim * dim];
    for r in 0..b_rows {
        for c in 0..b_cols {
            out[r * dim + c] = b[r * stride + c];
        }
    }
    out
}

/// The specification: `C[i][j] = Σ_k A[i][k]·B[k][j] (+ D[i][j])`, products
/// accumulated in ascending `k`, bias added last — one element at a time,
/// no loop-structure cleverness.
fn naive(
    a: &[i8],
    a_rows: usize,
    a_cols: usize,
    a_stride: usize,
    b_dense: &[i8],
    d: Option<(&[i32], usize)>,
    dim: usize,
) -> Vec<i32> {
    let mut out = vec![0; a_rows * dim];
    for i in 0..a_rows {
        for j in 0..dim {
            let mut acc = 0i32;
            for k in 0..a_cols {
                acc = acc.wrapping_add(a[i * a_stride + k] as i32 * b_dense[k * dim + j] as i32);
            }
            if let Some((dbuf, dstride)) = d {
                acc = acc.wrapping_add(dbuf[i * dstride + j]);
            }
            out[i * dim + j] = acc;
        }
    }
    out
}

/// Shared driver: builds operands from a value stream, runs the flat hot
/// path and the naive specification, and returns both results for
/// comparison.
#[allow(clippy::too_many_arguments)]
fn run_case(
    dim: usize,
    a_rows: usize,
    a_cols: usize,
    b_rows: usize,
    b_cols: usize,
    a_pad: usize,
    b_pad: usize,
    has_bias: bool,
    mut next: impl FnMut() -> i8,
    mut next_acc: impl FnMut() -> i32,
) -> (Vec<i32>, Vec<i32>) {
    let a_stride = a_cols + a_pad;
    let b_stride = b_cols + b_pad;
    let a_len = if a_rows == 0 {
        0
    } else {
        (a_rows - 1) * a_stride + a_cols
    };
    let b_len = if b_rows == 0 {
        0
    } else {
        (b_rows - 1) * b_stride + b_cols
    };
    let a: Vec<i8> = (0..a_len).map(|_| next()).collect();
    let b: Vec<i8> = (0..b_len).map(|_| next()).collect();
    let d_stride = dim + a_pad;
    let d_len = if a_rows == 0 {
        0
    } else {
        (a_rows - 1) * d_stride + dim
    };
    let d: Vec<i32> = (0..d_len).map(|_| next_acc()).collect();
    let d_view = has_bias.then_some((d.as_slice(), d_stride));

    let mut mu = MatrixUnit::new(dim);
    mu.preload_flat(&b, b_rows, b_cols, b_stride);
    let mut flat = vec![0; a_rows * dim];
    mu.compute_into(&a, a_rows, a_cols, a_stride, d_view, &mut flat);

    let b_dense = dense_b(&b, b_rows, b_cols, b_stride, dim);
    let reference = naive(&a, a_rows, a_cols, a_stride, &b_dense, d_view, dim);
    (flat, reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// int8/int32: the flat hot path and the naive specification agree
    /// exactly across randomized shapes and strides.
    #[test]
    fn flat_compute_matches_naive_i8(
        dim in 1usize..9,
        ra in any::<u8>(),
        ca in any::<u8>(),
        rb in any::<u8>(),
        cb in any::<u8>(),
        a_pad in 0usize..4,
        b_pad in 0usize..4,
        has_bias in any::<bool>(),
        vals in proptest::collection::vec(any::<i8>(), 64..256),
        accs in proptest::collection::vec(any::<i32>(), 64..256),
    ) {
        let a_rows = ra as usize % (dim + 1);
        let a_cols = ca as usize % (dim + 1);
        let b_rows = rb as usize % (dim + 1);
        let b_cols = cb as usize % (dim + 1);
        let mut vi = 0usize;
        let mut ai = 0usize;
        let (flat, reference) = run_case(
            dim, a_rows, a_cols, b_rows, b_cols, a_pad, b_pad, has_bias,
            || { let v = vals[vi % vals.len()]; vi += 1; v },
            || { let v = accs[ai % accs.len()]; ai += 1; v },
        );
        prop_assert_eq!(&flat, &reference);
    }

    /// An identity preload passes each A row through unchanged.
    #[test]
    fn identity_preload_passes_rows_through(dim in 1usize..9, seed in any::<i8>()) {
        let mut mu = MatrixUnit::new(dim);
        let ident: Vec<i8> = (0..dim * dim)
            .map(|i| if i % (dim + 1) == 0 { 1 } else { 0 })
            .collect();
        mu.preload_flat(&ident, dim, dim, dim);
        let a: Vec<i8> = (0..dim).map(|i| seed.wrapping_add(i as i8)).collect();
        let mut out = vec![0i32; dim];
        mu.compute_into(&a, 1, dim, dim, None, &mut out);
        let want: Vec<i32> = a.iter().map(|&x| x as i32).collect();
        prop_assert_eq!(out, want);

    }
}
