//! The pooling block: max/average pooling applied as data streams out of
//! the accumulator (Gemmini performs pooling during mvout).

/// Cost model of the pooling block; the functional result is
/// [`gemmini_dnn::ops::pool2d_i8`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolingUnit {
    /// Output elements produced per cycle (`dim` comparator lanes).
    pub lanes: usize,
}

impl PoolingUnit {
    /// A unit matched to a `dim`-wide array.
    pub fn for_dim(dim: usize) -> Self {
        Self { lanes: dim }
    }

    /// Cycles to pool one feature map: each output element consumes its
    /// window serially, `lanes` outputs in parallel.
    pub fn pool_cycles(&self, out_elements: usize, window: usize) -> u64 {
        let per_lane = (out_elements as u64).div_ceil(self.lanes as u64);
        per_lane * (window * window) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_scale_with_window_and_lanes() {
        let u = PoolingUnit::for_dim(16);
        // 3x3 windows over 256 outputs with 16 lanes: 16 * 9 cycles.
        assert_eq!(u.pool_cycles(256, 3), 144);
        let wide = PoolingUnit::for_dim(64);
        assert!(wide.pool_cycles(256, 3) < u.pool_cycles(256, 3));
    }
}
