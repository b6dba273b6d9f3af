//! Property-based bit-identity tests of the matrix unit's flat hot path.
//!
//! The flat path is [`MatrixUnitOf::compute_into`] /
//! [`MatrixUnitOf::preload_flat`] on strided buffers, through each element
//! type's kernel (int8: the k-pair SSE2 kernel; f32: a k-outer/j-inner
//! loop). It must agree bit-for-bit — not merely numerically — with a
//! straight per-element triple loop across randomized shapes, strides,
//! and bias configurations, for the int8/int32 datapath and the f32
//! instance alike (the f32 case is what pins the accumulation *order*,
//! since float addition does not commute in bits).

use gemmini_core::mesh::MeshElement;
use gemmini_core::mesh::{MatrixUnit, MatrixUnitF32};
use proptest::prelude::*;

/// Dense `dim×dim` B from a flat strided `b_rows×b_cols` block (zeros
/// outside the block) — the same semantics as `preload_flat`.
fn dense_b<T: MeshElement>(
    b: &[T],
    b_rows: usize,
    b_cols: usize,
    stride: usize,
    dim: usize,
) -> Vec<T> {
    let mut out = vec![T::default(); dim * dim];
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
fn naive<T: MeshElement>(
    a: &[T],
    a_rows: usize,
    a_cols: usize,
    a_stride: usize,
    b_dense: &[T],
    d: Option<(&[T::Acc], usize)>,
    dim: usize,
) -> Vec<T::Acc> {
    let mut out = vec![T::Acc::default(); a_rows * dim];
    for i in 0..a_rows {
        for j in 0..dim {
            let mut acc = T::Acc::default();
            for k in 0..a_cols {
                acc = T::mac(acc, a[i * a_stride + k], b_dense[k * dim + j]);
            }
            if let Some((dbuf, dstride)) = d {
                acc = T::acc_add(acc, dbuf[i * dstride + j]);
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
fn run_case<T: MeshElement>(
    dim: usize,
    a_rows: usize,
    a_cols: usize,
    b_rows: usize,
    b_cols: usize,
    a_pad: usize,
    b_pad: usize,
    has_bias: bool,
    mut next: impl FnMut() -> T,
    mut next_acc: impl FnMut() -> T::Acc,
) -> (Vec<T::Acc>, Vec<T::Acc>)
where
    T::Acc: Copy,
{
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
    let a: Vec<T> = (0..a_len).map(|_| next()).collect();
    let b: Vec<T> = (0..b_len).map(|_| next()).collect();
    let d_stride = dim + a_pad;
    let d_len = if a_rows == 0 {
        0
    } else {
        (a_rows - 1) * d_stride + dim
    };
    let d: Vec<T::Acc> = (0..d_len).map(|_| next_acc()).collect();
    let d_view = has_bias.then_some((d.as_slice(), d_stride));

    let mut mu = MatrixUnitOf::<T>::new(dim);
    mu.preload_flat(&b, b_rows, b_cols, b_stride);
    let mut flat = vec![T::Acc::default(); a_rows * dim];
    mu.compute_into(&a, a_rows, a_cols, a_stride, d_view, &mut flat);

    let b_dense = dense_b(&b, b_rows, b_cols, b_stride, dim);
    let reference = naive::<T>(&a, a_rows, a_cols, a_stride, &b_dense, d_view, dim);
    (flat, reference)
}

use gemmini_core::mesh::MatrixUnitOf;

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
        let (flat, reference) = run_case::<i8>(
            dim, a_rows, a_cols, b_rows, b_cols, a_pad, b_pad, has_bias,
            || { let v = vals[vi % vals.len()]; vi += 1; v },
            || { let v = accs[ai % accs.len()]; ai += 1; v },
        );
        prop_assert_eq!(&flat, &reference);
    }

    /// f32: bit-identical results (compared via `to_bits`), pinning the
    /// ascending-k / bias-last accumulation order of the reordered loops.
    #[test]
    fn flat_compute_is_bit_identical_f32(
        dim in 1usize..9,
        ra in any::<u8>(),
        ca in any::<u8>(),
        rb in any::<u8>(),
        cb in any::<u8>(),
        a_pad in 0usize..4,
        b_pad in 0usize..4,
        has_bias in any::<bool>(),
        vals in proptest::collection::vec(any::<i16>(), 64..256),
    ) {
        let a_rows = ra as usize % (dim + 1);
        let a_cols = ca as usize % (dim + 1);
        let b_rows = rb as usize % (dim + 1);
        let b_cols = cb as usize % (dim + 1);
        let mut vi = 0usize;
        let mut ai = 0usize;
        // Finite, noncommutative-under-reassociation values: scaled i16s
        // span enough magnitude that float addition order matters.
        let (flat, reference) = run_case::<f32>(
            dim, a_rows, a_cols, b_rows, b_cols, a_pad, b_pad, has_bias,
            || { let v = vals[vi % vals.len()]; vi += 1; v as f32 * 0.125 },
            || { let v = vals[ai % vals.len()]; ai += 1; v as f32 * 3.1875 },
        );
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&flat), bits(&reference));
    }

    /// The engine-facing int8 aliases behave like the generic instance.
    #[test]
    fn aliases_compute_identity(dim in 1usize..9, seed in any::<i8>()) {
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

        let mut muf = MatrixUnitF32::new(dim);
        let identf: Vec<f32> = ident.iter().map(|&x| x as f32).collect();
        muf.preload_flat(&identf, dim, dim, dim);
        let af: Vec<f32> = a.iter().map(|&x| x as f32).collect();
        let mut outf = vec![0f32; dim];
        muf.compute_into(&af, 1, dim, dim, None, &mut outf);
        prop_assert_eq!(outf, af);
    }
}
