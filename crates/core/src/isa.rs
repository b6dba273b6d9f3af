//! The accelerator's RoCC-style custom instruction set.
//!
//! Gemmini is programmed through RISC-V custom instructions carrying two
//! 64-bit operand registers plus a 7-bit funct field. This module defines
//! the instruction forms the execution engine implements — the same core
//! set as the real generator: `CONFIG` (EX/LD/ST), `MVIN`, `MVOUT`,
//! `PRELOAD`, `COMPUTE_PRELOADED`, `COMPUTE_ACCUMULATED`, `FLUSH`. The
//! kernels issue these as typed values; no binary encoding is modelled.

use crate::config::Dataflow;
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
    /// Configures the execute pipeline: dataflow, fused activation, and the
    /// accumulator's output scale.
    ConfigEx {
        /// Dataflow to use for subsequent computes.
        dataflow: Dataflow,
        /// Activation applied on accumulator read-out.
        activation: Activation,
        /// Scale applied when narrowing int32 accumulators to int8.
        acc_scale: f32,
    },
    /// Configures the load (mvin) stream: main-memory stride between rows
    /// and whether accumulator mvins carry 8-bit data to be widened to
    /// int32 on the way in (Gemmini's "shrunk" mvin, used by residual
    /// additions).
    ConfigLd {
        /// Bytes between consecutive rows in main memory.
        stride: u64,
        /// Accumulator mvins read int8 elements and widen them.
        shrink: bool,
    },
    /// Configures the store (mvout) stream: main-memory stride between rows.
    ConfigSt {
        /// Bytes between consecutive rows in main memory.
        stride: u64,
    },
    /// Moves `rows`×`cols` elements from main memory into a local memory.
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
    /// Loads the stationary operand (B for weight-stationary) into the
    /// array and names the accumulator destination for subsequent computes.
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
    /// Streams A (and bias D) through the array using the operand loaded by
    /// the last `Preload`.
    ComputePreloaded {
        /// Moving operand location.
        a: LocalAddr,
        /// Bias operand location (or `None`).
        d: LocalAddr,
        /// Valid rows of A.
        a_rows: u16,
        /// Valid cols of A.
        a_cols: u16,
    },
    /// Streams A through the array, reusing the stationary operand from an
    /// earlier preload (Gemmini's `COMPUTE_ACCUMULATED`).
    ComputeAccumulated {
        /// Moving operand location.
        a: LocalAddr,
        /// Bias operand location (or `None`).
        d: LocalAddr,
        /// Valid rows of A.
        a_rows: u16,
        /// Valid cols of A.
        a_cols: u16,
    },
    /// Fence: waits for all in-flight work to drain.
    Flush,
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ConfigEx {
                dataflow,
                activation,
                acc_scale,
            } => write!(
                f,
                "config_ex df={dataflow} act={activation} scale={acc_scale}"
            ),
            Self::ConfigLd { stride, shrink } => {
                write!(f, "config_ld stride={stride} shrink={shrink}")
            }
            Self::ConfigSt { stride } => write!(f, "config_st stride={stride}"),
            Self::Mvin {
                dram_addr,
                local,
                rows,
                cols,
            } => write!(f, "mvin {dram_addr} -> {local} ({rows}x{cols})"),
            Self::Mvout {
                dram_addr,
                local,
                rows,
                cols,
            } => write!(f, "mvout {local} -> {dram_addr} ({rows}x{cols})"),
            Self::Preload {
                b,
                c,
                b_rows,
                b_cols,
            } => {
                write!(f, "preload B={b} C={c} ({b_rows}x{b_cols})")
            }
            Self::ComputePreloaded {
                a,
                d,
                a_rows,
                a_cols,
            } => {
                write!(f, "compute.preloaded A={a} D={d} ({a_rows}x{a_cols})")
            }
            Self::ComputeAccumulated {
                a,
                d,
                a_rows,
                a_cols,
            } => {
                write!(f, "compute.accumulated A={a} D={d} ({a_rows}x{a_cols})")
            }
            Self::Flush => write!(f, "flush"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let s = Instruction::Mvin {
            dram_addr: VirtAddr::new(0x1000),
            local: LocalAddr::Sp { row: 4 },
            rows: 16,
            cols: 16,
        }
        .to_string();
        assert_eq!(s, "mvin 0x1000 -> sp[4] (16x16)");
    }
}
