//! System-bus timing model.
//!
//! The bus connects each accelerator's DMA and each CPU to the shared L2.
//! It is a single shared channel with a configurable width in bytes per
//! cycle; transfers from different requestors serialize, which is the first
//! of the two contention points (the other being the DRAM channel) in the
//! multi-core case study of Section V-B.

use crate::Cycle;

/// Bus configuration. The default (16 B/cycle, 1-cycle arbitration) matches
/// the TileLink SBus width used by the paper's edge SoC configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusConfig {
    /// Transfer width in bytes per cycle.
    pub bytes_per_cycle: u64,
    /// Fixed arbitration/routing latency per transaction, in cycles.
    pub arbitration_latency: u64,
}

impl BusConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.bytes_per_cycle == 0 {
            return Err("bus width must be non-zero".to_string());
        }
        Ok(())
    }

    /// Cycles an uncontended transfer of `bytes` occupies the bus
    /// (beats plus arbitration) — the ideal streaming time a requestor
    /// pays even when the rest of the memory path is free.
    pub fn service_cycles(&self, bytes: u64) -> u64 {
        self.beats(bytes) + self.arbitration_latency
    }

    /// Data beats a transfer of `bytes` takes (at least one).
    pub fn beats(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.bytes_per_cycle).max(1)
    }
}

impl Default for BusConfig {
    fn default() -> Self {
        Self {
            bytes_per_cycle: 16,
            arbitration_latency: 1,
        }
    }
}

/// A shared bus: transfers occupy the bus for `bytes / width` cycles and
/// serialize in arrival order.
///
/// # Example
///
/// ```
/// use gemmini_mem::bus::{Bus, BusConfig};
/// let mut bus = Bus::new(BusConfig { bytes_per_cycle: 16, arbitration_latency: 1 });
/// assert_eq!(bus.transfer(0, 64), 5); // 1 arb + 4 beats
/// assert_eq!(bus.transfer(0, 64), 9); // queued behind the first
/// ```
#[derive(Debug, Clone)]
pub struct Bus {
    config: BusConfig,
    free_at: Cycle,
}

impl Bus {
    /// Builds a bus from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`BusConfig::validate`].
    pub fn new(config: BusConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid bus configuration: {e}");
        }
        Self { config, free_at: 0 }
    }

    /// The configuration this bus was built with.
    pub fn config(&self) -> &BusConfig {
        &self.config
    }

    /// Schedules a transfer of `bytes` requested at `now`; returns its
    /// completion cycle.
    pub fn transfer(&mut self, now: Cycle, bytes: u64) -> Cycle {
        self.transfer_beats(now, self.config.beats(bytes))
    }

    /// [`Self::transfer`] for a transfer already sized in beats, so a run
    /// of equal rows sizes them once.
    pub(crate) fn transfer_beats(&mut self, now: Cycle, beats: u64) -> Cycle {
        let start = now.max(self.free_at);
        self.free_at = start + beats;
        self.free_at + self.config.arbitration_latency
    }

    /// `m` transfers of `beats` each, requested at `issue`, `issue +
    /// step`, …; returns the last one's completion cycle. The queue
    /// recurrence (each transfer starts when it is requested or the bus
    /// frees, whichever is later) in closed form: the bus frees after
    /// the whole backlog, after the first request's `m` back-to-back
    /// transfers, or after the last request's own transfer.
    pub(crate) fn transfer_run(&mut self, issue: Cycle, step: Cycle, beats: u64, m: u64) -> Cycle {
        debug_assert!(m > 0, "a run moves at least one transfer");
        self.free_at = (self.free_at + m * beats)
            .max(issue + m * beats)
            .max(issue + (m - 1) * step + beats);
        self.free_at + self.config.arbitration_latency
    }

    /// Cycle at which the bus next becomes free.
    pub fn free_at(&self) -> Cycle {
        self.free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_beats_plus_arbitration() {
        let mut b = Bus::new(BusConfig {
            bytes_per_cycle: 16,
            arbitration_latency: 2,
        });
        assert_eq!(b.transfer(0, 32), 4); // 2 beats + 2 arb
    }

    #[test]
    fn transfers_serialize() {
        let mut b = Bus::new(BusConfig::default());
        let a = b.transfer(0, 160); // 10 beats
        let c = b.transfer(5, 16); // queued: starts at 10
        assert_eq!(a, 11);
        assert_eq!(c, 12);
    }

    #[test]
    fn idle_bus_starts_at_request_time() {
        let mut b = Bus::new(BusConfig::default());
        assert_eq!(b.transfer(100, 16), 102);
    }

    #[test]
    fn partial_beat_rounds_up() {
        let mut b = Bus::new(BusConfig {
            bytes_per_cycle: 16,
            arbitration_latency: 0,
        });
        assert_eq!(b.transfer(0, 17), 2);
    }

    #[test]
    fn transfer_run_equals_one_transfer_per_request() {
        for arbitration_latency in [0, 1] {
            let config = BusConfig {
                bytes_per_cycle: 16,
                arbitration_latency,
            };
            // An idle bus, and one still busy from an earlier transfer.
            for backlog in [0, 1, 30] {
                for step in [0, 1, 2, 3, 5, 16] {
                    for beats in [1, 2, 3, 4, 8] {
                        for m in [1, 2, 3, 7] {
                            let mut run = Bus::new(config);
                            run.transfer_beats(0, backlog);
                            let mut rows = run.clone();
                            let issue = 4;
                            let got = run.transfer_run(issue, step, beats, m);
                            let want = (0..m)
                                .map(|i| rows.transfer_beats(issue + i * step, beats))
                                .last();
                            let case = format!("arb {arbitration_latency} backlog {backlog} step {step} beats {beats} m {m}");
                            assert_eq!(Some(got), want, "{case}");
                            assert_eq!(run.free_at(), rows.free_at(), "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid bus configuration")]
    fn zero_width_panics() {
        let _ = Bus::new(BusConfig {
            bytes_per_cycle: 0,
            arbitration_latency: 0,
        });
    }
}
