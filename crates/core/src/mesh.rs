//! The two-level spatial array: functional matrix unit + pipeline timing.
//!
//! Functionally, one Gemmini compute step multiplies a `rows × dim` moving
//! operand A against the `dim × dim` stationary operand B and adds an
//! optional bias D: `C = A·B + D`. Both the weight-stationary and the
//! output-stationary dataflows compute exactly this; they differ in *which*
//! operand stays resident and therefore in timing and energy, not in the
//! produced values. The simulator exploits that: [`MatrixUnit`] is one
//! functional model of the int8 datapath the paper evaluates (an fp32
//! configuration still computes through it; its datatype sizes the memory
//! rows and the synthesis model), and [`MeshTiming`] charges cycles
//! according to the tile/PE hierarchy (Fig. 2) — tiles are
//! pipeline-registered, PEs within a tile are combinational, so the
//! pipeline depth seen by a wavefront is the number of tile boundaries,
//! while the *clock period* consequences of long combinational chains are
//! the synthesis model's domain (`gemmini-synth`).

use crate::config::GemminiConfig;

mod int8;

pub use int8::PairPanel;

/// Functional model of the spatial array on the paper's evaluated datapath
/// (int8 operands, int32 accumulation): holds the stationary operand,
/// widened for the int8 kernel ([`PairPanel`]), and performs `C = A·B + D`.
///
/// # Example
///
/// ```
/// use gemmini_core::mesh::MatrixUnit;
/// let mut mu = MatrixUnit::new(2);
/// mu.preload_flat(&[1, 0, 0, 1], 2, 2, 2); // identity, rows 2 apart
/// let mut c = [0i32; 2];
/// mu.compute_into(&[3, 4], 1, 2, 2, None, &mut c); // one A row, no bias
/// assert_eq!(c, [3, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct MatrixUnit {
    dim: usize,
    b: PairPanel,
    macs: u64,
}

impl MatrixUnit {
    /// Creates a unit of width `dim` with a zero stationary operand.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "matrix unit dimension must be non-zero");
        Self {
            dim,
            b: PairPanel::default(),
            macs: 0,
        }
    }

    /// Array width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Loads the stationary operand from a flat strided buffer (`b_rows`
    /// rows of `b_cols` live elements, rows `stride` apart), so a
    /// scratchpad region is consumed zero-copy. Positions outside the
    /// block are zeroed.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds `dim` in either direction or the buffer
    /// is too short for its row count and stride.
    pub fn preload_flat(&mut self, b: &[i8], b_rows: usize, b_cols: usize, stride: usize) {
        assert!(b_rows <= self.dim, "too many stationary rows");
        assert!(b_cols <= self.dim, "stationary row too long");
        self.b.load(b, b_rows, b_cols, stride);
    }

    /// Streams a flat A block through the array, writing `C = A·B (+ D)`
    /// into the caller-provided `out` buffer, without allocating. `a`
    /// holds `a_rows` rows of `a_cols` live elements, rows `a_stride`
    /// elements apart (so a scratchpad region is consumed zero-copy);
    /// `d`, when present, is `(rows, stride)` with `dim` live bias
    /// elements per row; `out` receives `a_rows` rows of `dim`
    /// elements, densely packed.
    ///
    /// The block goes through the int8 kernel ([`PairPanel::mac_rows`])
    /// with the bias added last, wrapping like every accumulation.
    ///
    /// # Panics
    ///
    /// Panics if `a_cols > dim`, a buffer is too short for its
    /// row-count/stride, or `out` is not exactly `a_rows * dim` elements.
    pub fn compute_into(
        &mut self,
        a: &[i8],
        a_rows: usize,
        a_cols: usize,
        a_stride: usize,
        d: Option<(&[i32], usize)>,
        out: &mut [i32],
    ) {
        if let (Some((dbuf, dstride)), true) = (d, a_rows > 0) {
            assert!(dstride >= self.dim, "D stride shorter than its rows");
            assert!(
                dbuf.len() >= (a_rows - 1) * dstride + self.dim,
                "D buffer too short"
            );
        }
        assert_eq!(out.len(), a_rows * self.dim, "output buffer size mismatch");
        out.fill(0);
        self.accumulate_into(a, a_rows, a_cols, a_stride, out, self.dim);
        if let Some((dbuf, dstride)) = d {
            for (i, row) in out.chunks_exact_mut(self.dim).enumerate() {
                let bias = &dbuf[i * dstride..i * dstride + self.dim];
                for (o, &dv) in row.iter_mut().zip(bias) {
                    *o = o.wrapping_add(dv);
                }
            }
        }
    }

    /// The accumulate form of [`Self::compute_into`]: `out[i] += A[i]·B`
    /// for each A row, into output rows of `dim` elements `out_stride`
    /// apart (so an accumulator region is updated in place).
    ///
    /// # Panics
    ///
    /// Panics if `a_cols > dim` or a buffer is too short for its
    /// row-count/stride.
    pub fn accumulate_into(
        &mut self,
        a: &[i8],
        a_rows: usize,
        a_cols: usize,
        a_stride: usize,
        out: &mut [i32],
        out_stride: usize,
    ) {
        assert!(a_cols <= self.dim, "moving row too long");
        assert!(a_stride >= a_cols, "A stride shorter than its rows");
        assert!(
            out_stride >= self.dim,
            "output stride shorter than its rows"
        );
        if a_rows > 0 {
            assert!(
                a.len() >= (a_rows - 1) * a_stride + a_cols,
                "A buffer too short"
            );
            assert!(
                out.len() >= (a_rows - 1) * out_stride + self.dim,
                "output buffer too short"
            );
        }
        self.b
            .mac_rows(a, a_rows, a_cols, a_stride, out, out_stride);
        self.macs += (a_rows * a_cols * self.dim) as u64;
    }

    /// Total MACs performed since construction.
    pub fn macs(&self) -> u64 {
        self.macs
    }
}

/// Cycle costs of the spatial array derived from the tile/PE hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshTiming {
    /// Array width (`dim × dim` PEs).
    pub dim: usize,
    /// Pipeline stages a wavefront crosses: one per tile row (tiles are
    /// registered; PEs within a tile are combinational).
    pub pipeline_depth: usize,
}

impl MeshTiming {
    /// Derives timing from a generator configuration.
    pub fn from_config(config: &GemminiConfig) -> Self {
        Self {
            dim: config.dim(),
            pipeline_depth: config.mesh_rows,
        }
    }

    /// Cycles a preload occupies the execute unit. The stationary operand
    /// streams into a *shadow* register plane while the previous compute
    /// drains, so back-to-back preload/compute pairs cost only the
    /// handshake here; the data cycles were already paid by the mvin.
    pub fn preload_cycles(&self, b_rows: usize) -> u64 {
        if b_rows == 0 {
            1 // keep-current-operand preload: address update only
        } else {
            2
        }
    }

    /// Cycles one compute step occupies the execute unit: one row enters
    /// per cycle, and the final wavefront drains through the tile pipeline
    /// before the accumulator's read-modify-write of this block completes
    /// and the next block may target the same bank. (The drain is the
    /// pipeline depth — one register stage per tile row — so deeper
    /// hierarchies pay more per block but reach a higher clock, see
    /// `gemmini-synth`.)
    pub fn compute_cycles(&self, a_rows: usize) -> u64 {
        a_rows.max(1) as u64 + self.pipeline_depth as u64
    }

    /// Cycles for the last wavefront to drain through the tile pipeline —
    /// the latency penalty a dependent reader of the final rows observes.
    pub fn drain_cycles(&self) -> u64 {
        self.pipeline_depth as u64
    }

    /// Peak MACs per cycle (every PE active).
    pub fn peak_macs_per_cycle(&self) -> u64 {
        (self.dim * self.dim) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemmini_dnn::ops::matmul;
    use gemmini_dnn::tensor::Tensor;

    /// `C = A·B (+ D)` through the flat API for A of dense `a_cols`-wide
    /// rows and D of dense `dim`-wide rows.
    fn run(mu: &mut MatrixUnit, a: &[i8], a_cols: usize, d: Option<&[i32]>) -> Vec<i32> {
        let dim = mu.dim();
        let rows = a.len() / a_cols;
        let mut out = vec![0; rows * dim];
        mu.compute_into(a, rows, a_cols, a_cols, d.map(|d| (d, dim)), &mut out);
        out
    }

    #[test]
    fn identity_preload_passes_a_through() {
        let mut mu = MatrixUnit::new(4);
        let eye: Vec<i8> = (0..16).map(|i| (i % 5 == 0) as i8).collect();
        mu.preload_flat(&eye, 4, 4, 4);
        let c = run(&mut mu, &[1, 2, 3, 4, 5, 6, 7, 8], 4, None);
        assert_eq!(c, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn matches_reference_matmul() {
        let dim = 8;
        let a = Tensor::<i8>::random(&[dim, dim], 1);
        let b = Tensor::<i8>::random(&[dim, dim], 2);
        let reference = matmul(&a, &b);

        let mut mu = MatrixUnit::new(dim);
        mu.preload_flat(b.as_slice(), dim, dim, dim);
        let c = run(&mut mu, a.as_slice(), dim, None);
        for i in 0..dim {
            for j in 0..dim {
                assert_eq!(c[i * dim + j], reference[(i, j)], "({i},{j})");
            }
        }
    }

    #[test]
    fn bias_is_added() {
        let mut mu = MatrixUnit::new(2);
        mu.preload_flat(&[1, 0, 0, 1], 2, 2, 2);
        let c = run(&mut mu, &[1, 2], 2, Some(&[10, 20]));
        assert_eq!(c, vec![11, 22]);
    }

    #[test]
    fn short_rows_are_zero_padded() {
        let mut mu = MatrixUnit::new(4);
        mu.preload_flat(&[1, 1, 1, 1], 1, 4, 4); // only first B row set; rest zero
        let c = run(&mut mu, &[2], 1, None); // A = [2, 0, 0, 0]
        assert_eq!(c, vec![2, 2, 2, 2]);
    }

    #[test]
    fn preload_replaces_previous_operand() {
        let mut mu = MatrixUnit::new(2);
        mu.preload_flat(&[1, 1, 1, 1], 2, 2, 2);
        mu.preload_flat(&[2, 0, 0, 2], 2, 2, 2);
        let c = run(&mut mu, &[1, 1], 2, None);
        assert_eq!(c, vec![2, 2]);
    }

    #[test]
    fn mac_counter_accumulates() {
        let mut mu = MatrixUnit::new(4);
        mu.preload_flat(&[1, 0, 0, 0], 1, 4, 4);
        run(&mut mu, &[1, 2, 3, 4], 4, None);
        assert_eq!(mu.macs(), 16);
    }

    #[test]
    fn flat_compute_honours_stride_and_bias() {
        let dim = 8;
        let a = Tensor::<i8>::random(&[dim, dim], 3);
        let b = Tensor::<i8>::random(&[dim, dim], 4);
        let d: Vec<i32> = (0..dim * dim).map(|i| i as i32 * 7 - 100).collect();
        let reference = matmul(&a, &b);

        let mut mu = MatrixUnit::new(dim);
        mu.preload_flat(b.as_slice(), dim, dim, dim);
        let mut out = vec![0i32; dim * dim];
        mu.compute_into(a.as_slice(), dim, dim, dim, Some((&d, dim)), &mut out);
        for i in 0..dim {
            for j in 0..dim {
                let want = reference[(i, j)] + d[i * dim + j];
                assert_eq!(out[i * dim + j], want, "({i},{j})");
            }
        }

        // A non-trivial A view: stride dim with only 5 live columns per
        // row, as for a ragged block; the rest of each row is ignored.
        let a_cols = 5;
        let mut a_ragged = a.clone();
        for (idx, v) in a_ragged.as_mut_slice().iter_mut().enumerate() {
            if idx % dim >= a_cols {
                *v = 0;
            }
        }
        let reference_ragged = matmul(&a_ragged, &b);
        mu.compute_into(a.as_slice(), dim, a_cols, dim, None, &mut out);
        for i in 0..dim {
            for j in 0..dim {
                assert_eq!(
                    out[i * dim + j],
                    reference_ragged[(i, j)],
                    "ragged ({i},{j})"
                );
            }
        }
        assert_eq!(mu.macs(), (dim * dim * dim + dim * a_cols * dim) as u64);
    }

    #[test]
    fn timing_reflects_hierarchy() {
        let pipelined = MeshTiming::from_config(&GemminiConfig::tpu_like_256());
        let vector = MeshTiming::from_config(&GemminiConfig::nvdla_like_256());
        assert_eq!(pipelined.pipeline_depth, 16);
        assert_eq!(vector.pipeline_depth, 1);
        // Same peak throughput in MACs/cycle...
        assert_eq!(
            pipelined.peak_macs_per_cycle(),
            vector.peak_macs_per_cycle()
        );
        // ...but the pipelined design pays a deeper per-block drain (and
        // runs at a much higher clock — gemmini-synth).
        assert!(pipelined.compute_cycles(16) > vector.compute_cycles(16));
        assert!(pipelined.drain_cycles() > vector.drain_cycles());
    }

    #[test]
    fn compute_cycles_floor_at_one_row() {
        let t = MeshTiming {
            dim: 16,
            pipeline_depth: 16,
        };
        assert_eq!(t.compute_cycles(0), 17);
        assert_eq!(t.compute_cycles(16), 32);
        assert_eq!(t.preload_cycles(0), 1);
        assert_eq!(t.preload_cycles(16), 2);
    }

    #[test]
    #[should_panic(expected = "too many stationary rows")]
    fn oversized_preload_panics() {
        let mut mu = MatrixUnit::new(2);
        mu.preload_flat(&[1; 6], 3, 2, 2);
    }
}
