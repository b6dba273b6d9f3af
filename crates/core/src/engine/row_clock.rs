//! The engine scoreboard's per-row clocks.

use gemmini_mem::spare::ZeroedU64s;
use gemmini_mem::Cycle;
use std::ops::Range;

/// Rows per summary block.
const BLOCK: usize = 16;

/// One clock per local-memory row that only moves forward: the cycle the
/// row's last write (or read) completes.
///
/// Both operations cost one step per whole aligned 16-row block a range
/// covers, plus one per row at its ragged edges. A row's clock is
/// `max(rows[i], tag[i / 16])`: `mark` over a whole block raises only the
/// block's `tag`, and `block_max` holds the largest clock in each block,
/// which `range_max` reads instead of the block's rows. Both summaries are
/// exact, so the answers equal those of a plain per-row vector. A range
/// that is exactly one aligned block, a whole tile on a 16-row array, is
/// answered inline without the split into pieces.
#[derive(Debug, Clone)]
pub(super) struct RowClock {
    rows: ZeroedU64s,
    tag: Vec<Cycle>,
    block_max: Vec<Cycle>,
}

impl RowClock {
    /// `len` rows, every clock at cycle 0.
    pub(super) fn new(len: usize) -> Self {
        let blocks = len.div_ceil(BLOCK);
        Self {
            rows: ZeroedU64s::new(len),
            tag: vec![0; blocks],
            block_max: vec![0; blocks],
        }
    }

    /// The latest clock over rows `[lo, lo + n)`; 0 when `n` is 0.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the last row.
    #[inline]
    pub(super) fn range_max(&self, lo: u32, n: u16) -> Cycle {
        match self.whole_block(lo, n) {
            Some(b) => self.block_max[b],
            None => self.range_max_pieces(lo, n),
        }
    }

    /// Raises the clocks of rows `[lo, lo + n)` to at least `t`.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the last row.
    #[inline]
    pub(super) fn mark(&mut self, lo: u32, n: u16, t: Cycle) {
        match self.whole_block(lo, n) {
            Some(b) => {
                self.tag[b] = self.tag[b].max(t);
                self.block_max[b] = self.block_max[b].max(t);
            }
            None => self.mark_pieces(lo, n, t),
        }
    }

    /// `range_max` over pieces; this and `mark_pieces` stay out of line so
    /// the whole-block test inlines at every call site.
    #[inline(never)]
    fn range_max_pieces(&self, lo: u32, n: u16) -> Cycle {
        pieces(self.rows.len(), lo, n)
            .map(|(b, rows, whole)| {
                if whole {
                    self.block_max[b]
                } else {
                    self.rows[rows].iter().fold(self.tag[b], |m, &r| m.max(r))
                }
            })
            .max()
            .unwrap_or(0)
    }

    #[inline(never)]
    fn mark_pieces(&mut self, lo: u32, n: u16, t: Cycle) {
        for (b, rows, whole) in pieces(self.rows.len(), lo, n) {
            if whole {
                self.tag[b] = self.tag[b].max(t);
            } else {
                for r in &mut self.rows[rows] {
                    *r = (*r).max(t);
                }
            }
            self.block_max[b] = self.block_max[b].max(t);
        }
    }

    /// The block that rows `[lo, lo + n)` fill exactly, when they are one
    /// whole aligned `BLOCK`-row block.
    #[inline]
    fn whole_block(&self, lo: u32, n: u16) -> Option<usize> {
        let lo = lo as usize;
        (n as usize == BLOCK && lo.is_multiple_of(BLOCK) && lo + BLOCK <= self.rows.len())
            .then_some(lo / BLOCK)
    }
}

/// Splits rows `[lo, lo + n)` of a `len`-row clock at block boundaries:
/// `(block, rows, whole)` per non-empty piece, where `whole` means the
/// piece is the entire block (a partial last block counts when the range
/// covers all of it).
fn pieces(len: usize, lo: u32, n: u16) -> impl Iterator<Item = (usize, Range<usize>, bool)> {
    let mut at = lo as usize;
    let hi = at + n as usize;
    assert!(hi <= len, "rows {at}..{hi} run past the {len}-row clock");
    std::iter::from_fn(move || {
        (at < hi).then(|| {
            let b = at / BLOCK;
            let block = b * BLOCK..((b + 1) * BLOCK).min(len);
            let piece = at..hi.min(block.end);
            at = piece.end;
            (b, piece.clone(), piece == block)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `RowClock` answers every `range_max` exactly like a plain per-row
        /// vector, over random `mark`/`range_max` sequences: unaligned starts,
        /// empty ranges, clocks with a partial last block, ranges that end
        /// at the last row, and single whole blocks.
        #[test]
        fn row_clock_matches_a_per_row_vector(
            len in 1usize..80,
            ops in proptest::collection::vec((0u8..6, 0usize..100, 0usize..100, 0u64..1000), 0..120),
        ) {
            let mut clock = RowClock::new(len);
            let mut naive: Vec<Cycle> = vec![0; len];
            for &(op, a, b, t) in &ops {
                let (lo, n) = match op / 2 {
                    // Ops 0 and 1 may be empty.
                    0 => {
                        let lo = a % (len + 1);
                        (lo, b % (len - lo + 1))
                    }
                    // Ops 2 and 3 run to the last row.
                    1 => {
                        let lo = a % (len + 1);
                        (lo, len - lo)
                    }
                    // Ops 4 and 5 cover one block, partial if it is the last.
                    _ => {
                        let lo = a % len.div_ceil(BLOCK) * BLOCK;
                        (lo, BLOCK.min(len - lo))
                    }
                };
                let range = lo..lo + n;
                let (lo, n) = (lo as u32, n as u16);
                if op % 2 == 0 {
                    clock.mark(lo, n, t);
                    for r in &mut naive[range] {
                        *r = (*r).max(t);
                    }
                } else {
                    let want = naive[range].iter().copied().max().unwrap_or(0);
                    prop_assert_eq!(clock.range_max(lo, n), want);
                }
            }
            for lo in 0..len {
                for n in 0..=len - lo {
                    let want = naive[lo..lo + n].iter().copied().max().unwrap_or(0);
                    prop_assert_eq!(clock.range_max(lo as u32, n as u16), want);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "run past")]
    fn ranges_past_the_last_row_panic() {
        RowClock::new(20).range_max(10, 11);
    }
}
