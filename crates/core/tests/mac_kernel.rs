//! The int8 MAC kernel against a scalar reference.
//!
//! The weight-stationary unit computes through one kernel: through
//! `MatrixUnit::compute_into` (`out = A·B + D`) and its in-place
//! `accumulate_into` (`out += A·B`), both over the kernel's accumulate
//! form `PairPanel::mac_rows`, which is also checked directly. On random
//! shapes
//! — widths 1..=64 including non-multiples of four, odd and even k, odd
//! and even A row counts (the kernel's two-row pass and its one-row tail),
//! padded strides, short B blocks — both must equal a plain per-element
//! wrapping loop and `gemmini_dnn::ops::matmul`, bit for bit. Operands span the full
//! i8 range, and some cases force (−128)·(−128) pairs, the products whose
//! pairwise sum (2^15) is the largest the kernel's 16-bit multiply-add sees.
//!
//! The release-mode sweep with many more cases runs with
//! `cargo test --release -p gemmini-core --test mac_kernel -- --include-ignored`.

use gemmini_core::mesh::{MatrixUnit, PairPanel};
use gemmini_dnn::ops::matmul;
use gemmini_dnn::tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One random case: shapes, strides and the operand values.
#[derive(Debug)]
struct Case {
    dim: usize,
    a_rows: usize,
    a_cols: usize,
    a_stride: usize,
    b_rows: usize,
    b_cols: usize,
    b_stride: usize,
    out_stride: usize,
    a: Vec<i8>,
    b: Vec<i8>,
    /// Bias (WS) or prior partial sums (OS), `out_stride` apart.
    init: Vec<i32>,
}

/// Values drawn from the whole i8 range, or — in a third of the cases —
/// mostly −128 so that adjacent k pairs multiply (−128)·(−128) twice.
fn values(rng: &mut StdRng, len: usize, extreme: bool) -> Vec<i8> {
    (0..len)
        .map(|_| {
            if extreme && rng.gen_range(0..4u32) != 0 {
                i8::MIN
            } else {
                rng.gen::<i8>()
            }
        })
        .collect()
}

fn case(dim: usize, seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let a_rows = rng.gen_range(0..dim + 1);
    let a_cols = rng.gen_range(0..dim + 1);
    let b_rows = rng.gen_range(0..dim + 1);
    let b_cols = rng.gen_range(0..dim + 1);
    let a_stride = a_cols + rng.gen_range(0..5usize);
    let b_stride = b_cols + rng.gen_range(0..5usize);
    let out_stride = dim + rng.gen_range(0..5usize);
    let extreme = rng.gen_range(0..3u32) == 0;
    let span = |rows: usize, stride: usize, cols: usize| {
        if rows == 0 {
            0
        } else {
            (rows - 1) * stride + cols
        }
    };
    let a = values(&mut rng, span(a_rows, a_stride, a_cols), extreme);
    let b = values(&mut rng, span(b_rows, b_stride, b_cols), extreme);
    let init = (0..span(a_rows, out_stride, dim))
        .map(|_| match rng.gen_range(0..4u32) {
            // Near the wrap points, so the sum must wrap like i32.
            0 => i32::MAX - rng.gen_range(0..1000),
            1 => i32::MIN + rng.gen_range(0..1000),
            _ => rng.gen(),
        })
        .collect();
    Case {
        dim,
        a_rows,
        a_cols,
        a_stride,
        b_rows,
        b_cols,
        b_stride,
        out_stride,
        a,
        b,
        init,
    }
}

impl Case {
    fn a_at(&self, i: usize, k: usize) -> i8 {
        if k < self.a_cols {
            self.a[i * self.a_stride + k]
        } else {
            0
        }
    }

    fn b_at(&self, k: usize, j: usize) -> i8 {
        if k < self.b_rows && j < self.b_cols {
            self.b[k * self.b_stride + j]
        } else {
            0
        }
    }

    /// The scalar reference: `A·B` over the zero-padded `dim × dim`
    /// operands, one element at a time, `a_rows × dim` dense.
    fn scalar(&self) -> Vec<i32> {
        let mut out = vec![0i32; self.a_rows * self.dim];
        for i in 0..self.a_rows {
            for j in 0..self.dim {
                let mut acc = 0i32;
                for k in 0..self.dim {
                    acc = acc.wrapping_add(self.a_at(i, k) as i32 * self.b_at(k, j) as i32);
                }
                out[i * self.dim + j] = acc;
            }
        }
        out
    }

    /// The same product through `gemmini_dnn::ops::matmul` (which takes
    /// no empty tensors).
    fn dnn(&self) -> Vec<i32> {
        if self.a_rows == 0 {
            return Vec::new();
        }
        let a: Vec<i8> = (0..self.a_rows * self.dim)
            .map(|x| self.a_at(x / self.dim, x % self.dim))
            .collect();
        let b: Vec<i8> = (0..self.dim * self.dim)
            .map(|x| self.b_at(x / self.dim, x % self.dim))
            .collect();
        matmul(
            &Tensor::from_vec(&[self.a_rows, self.dim], a),
            &Tensor::from_vec(&[self.dim, self.dim], b),
        )
        .into_vec()
    }

    fn init_at(&self, i: usize, j: usize) -> i32 {
        self.init[i * self.out_stride + j]
    }

    /// Weight-stationary: `MatrixUnit::compute_into`, with or without the
    /// bias.
    fn ws(&self, bias: bool) -> Vec<i32> {
        let mut mu = MatrixUnit::new(self.dim);
        mu.preload_flat(&self.b, self.b_rows, self.b_cols, self.b_stride);
        let mut out = vec![0i32; self.a_rows * self.dim];
        let d = bias.then_some((self.init.as_slice(), self.out_stride));
        mu.compute_into(
            &self.a,
            self.a_rows,
            self.a_cols,
            self.a_stride,
            d,
            &mut out,
        );
        out
    }

    /// The accumulate form into a strided block of prior partial sums (or
    /// zeros), returned dense: through `MatrixUnit::accumulate_into` (the
    /// engine's in-place accumulator update) when `ws`, else directly
    /// through `PairPanel::mac_rows`.
    fn accumulate(&self, ws: bool, accumulate: bool) -> Vec<i32> {
        let mut block = if accumulate {
            self.init.clone()
        } else {
            vec![0; self.init.len()]
        };
        let before = block.clone();
        let (a, rows, cols, stride) = (&self.a, self.a_rows, self.a_cols, self.a_stride);
        if ws {
            let mut mu = MatrixUnit::new(self.dim);
            mu.preload_flat(&self.b, self.b_rows, self.b_cols, self.b_stride);
            mu.accumulate_into(a, rows, cols, stride, &mut block, self.out_stride);
        } else {
            let mut panel = PairPanel::default();
            panel.load(&self.b, self.b_rows, self.b_cols, self.b_stride);
            panel.mac_rows(a, rows, cols, stride, &mut block, self.out_stride);
        }
        // The gaps between output rows are untouched.
        for (x, (&got, &was)) in block.iter().zip(&before).enumerate() {
            if x % self.out_stride >= self.dim {
                assert_eq!(got, was, "gap element {x} changed");
            }
        }
        (0..self.a_rows * self.dim)
            .map(|x| block[(x / self.dim) * self.out_stride + x % self.dim])
            .collect()
    }
}

fn check(dim: usize, seed: u64) {
    let c = case(dim, seed);
    let want = c.scalar();
    assert_eq!(
        c.dnn(),
        want,
        "matmul disagrees with the scalar loop: {c:?}"
    );
    let plus_init: Vec<i32> = want
        .iter()
        .enumerate()
        .map(|(x, &v)| v.wrapping_add(c.init_at(x / dim, x % dim)))
        .collect();
    assert_eq!(c.ws(false), want, "WS without bias: {c:?}");
    assert_eq!(c.ws(true), plus_init, "WS with bias: {c:?}");
    for ws in [false, true] {
        assert_eq!(c.accumulate(ws, false), want, "from zero, WS {ws}: {c:?}");
        assert_eq!(
            c.accumulate(ws, true),
            plus_init,
            "accumulating, WS {ws}: {c:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random shapes, strides and values agree with both references.
    #[test]
    fn kernel_matches_scalar_and_matmul(dim in 1usize..65, seed in any::<u64>()) {
        check(dim, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The same property over many more cases; run in release with
    /// `--include-ignored`.
    #[test]
    #[ignore = "slow: run with --release -- --include-ignored"]
    fn kernel_matches_scalar_and_matmul_many(dim in 1usize..65, seed in any::<u64>()) {
        check(dim, seed);
    }
}

/// Every width up to 64 with full blocks of −128: each k pair sums to
/// exactly 2^15 per lane, and odd widths exercise the column tail.
#[test]
fn extreme_products_at_every_width() {
    for dim in 1..=64 {
        let a = vec![i8::MIN; dim * dim];
        let mut mu = MatrixUnit::new(dim);
        mu.preload_flat(&a, dim, dim, dim);
        let mut out = vec![0i32; dim * dim];
        mu.compute_into(&a, dim, dim, dim, None, &mut out);
        assert!(out.iter().all(|&v| v == (dim as i32) << 14), "dim {dim}");

        // Odd k: the last pair's upper half must contribute nothing.
        let k = dim - (dim + 1) % 2;
        mu.compute_into(&a, dim, k, dim, None, &mut out);
        assert!(
            out.iter().all(|&v| v == (k as i32) << 14),
            "dim {dim} k {k}"
        );
    }
}

#[test]
fn reference_is_not_vacuous() {
    // Distinct operands give distinct products, or the comparisons above
    // would pass on anything.
    let c = case(16, 3);
    assert!(c.a_rows > 0 && c.a_cols > 0 && c.b_rows > 0 && c.b_cols > 0);
    assert!(c.scalar().iter().any(|&v| v != 0));
}
