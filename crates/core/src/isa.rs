//! The accelerator's RoCC-style custom instruction set.
//!
//! Gemmini is programmed through RISC-V custom instructions carrying two
//! 64-bit operand registers plus a 7-bit funct field. This module defines
//! the instruction forms the execution engine implements — the same core
//! set as the real generator's weight-stationary programs use: `CONFIG`
//! (EX/LD/ST), `MVIN`, `MVOUT`, `PRELOAD`, `COMPUTE_PRELOADED`, `FLUSH`.
//! The kernels issue these as typed values; no binary encoding is
//! modelled. Operand forms the kernel library never issues are left out:
//! a compute has no bias operand, and an accumulator mvin always carries
//! int8 data that it widens.

use gemmini_dnn::graph::Activation;
use gemmini_mem::addr::VirtAddr;
use std::fmt;

/// An address in the accelerator's private memories.
///
/// Mirrors what Gemmini's 32-bit local address selects: a scratchpad row,
/// an accumulator row that is overwritten or accumulated into, or
/// "garbage" (no operand).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LocalAddr {
    /// A scratchpad row.
    Sp {
        /// Row index.
        row: u32,
    },
    /// An accumulator row.
    Acc {
        /// Row index.
        row: u32,
        /// Whether to accumulate into the row instead of overwriting it.
        accumulate: bool,
    },
    /// No operand (Gemmini's "garbage" address).
    None,
}

impl fmt::Display for LocalAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Sp { row } => write!(f, "sp[{row}]"),
            Self::Acc { row, accumulate } => {
                write!(f, "acc[{row}]{}", if *accumulate { "+" } else { "" })
            }
            Self::None => write!(f, "garbage"),
        }
    }
}

/// One decoded accelerator instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instruction {
    /// Configures the execute pipeline: fused activation and the
    /// accumulator's output scale.
    ConfigEx {
        /// Activation applied on accumulator read-out.
        activation: Activation,
        /// Scale applied when narrowing int32 accumulators to int8.
        acc_scale: f32,
    },
    /// Configures the load (mvin) stream: main-memory stride between rows.
    ConfigLd {
        /// Bytes between consecutive rows in main memory.
        stride: u64,
    },
    /// Configures the store (mvout) stream: main-memory stride between rows.
    ConfigSt {
        /// Bytes between consecutive rows in main memory.
        stride: u64,
    },
    /// Moves `rows`×`cols` int8 elements from main memory into a local
    /// memory. An accumulator destination widens them to int32 on the way
    /// in (Gemmini's "shrunk" mvin, the one residual additions use).
    Mvin {
        /// Source virtual address.
        dram_addr: VirtAddr,
        /// Destination local address (scratchpad or accumulator).
        local: LocalAddr,
        /// Rows to move.
        rows: u16,
        /// Elements per row.
        cols: u16,
    },
    /// Moves `rows`×`cols` elements from a local memory to main memory,
    /// applying the configured scale and activation when reading the
    /// accumulator.
    Mvout {
        /// Destination virtual address.
        dram_addr: VirtAddr,
        /// Source local address.
        local: LocalAddr,
        /// Rows to move.
        rows: u16,
        /// Elements per row.
        cols: u16,
    },
    /// Loads the stationary operand B into the array and names the
    /// accumulator destination for subsequent computes.
    Preload {
        /// Stationary operand location (or `None` to keep the current one).
        b: LocalAddr,
        /// Result destination.
        c: LocalAddr,
        /// Valid rows of B.
        b_rows: u16,
        /// Valid cols of B.
        b_cols: u16,
    },
    /// Streams A through the array using the operand loaded by the last
    /// `Preload`.
    ComputePreloaded {
        /// Moving operand location.
        a: LocalAddr,
        /// Valid rows of A.
        a_rows: u16,
        /// Valid cols of A.
        a_cols: u16,
    },
    /// Fence: waits for all in-flight work to drain.
    Flush,
}
