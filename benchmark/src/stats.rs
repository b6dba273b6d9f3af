//! Medians, the best-of-R estimators, report digests and peak RSS.

use gemmini_mem::json::ToJson;
use gemmini_soc::checkpoint::fnv1a;
use gemmini_soc::SocReport;

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("sample holds no NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest value.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn best(values: &[f64]) -> f64 {
    values
        .iter()
        .copied()
        .reduce(f64::min)
        .expect("best of an empty sample")
}

/// One measured round of one workload: per-point simulation walls and the
/// wall of the whole sweep call around them.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundWalls {
    /// `SweepResult::wall` of every point, in submission order.
    pub points: Vec<f64>,
    /// Wall of the `run_sweep_with` call.
    pub round: f64,
}

impl RoundWalls {
    /// Executor and checkpoint time: round wall minus the point walls.
    pub fn overhead(&self) -> f64 {
        self.round - self.points.iter().sum::<f64>()
    }
}

/// Best-of-R wall: the sum over points of each point's fastest round,
/// plus the smallest executor overhead of any round. Taking each point's
/// best separately discards a slow host phase that hit only part of a
/// round.
///
/// # Panics
///
/// Panics if `rounds` is empty or the rounds disagree on the point count.
pub fn best_of_wall(rounds: &[RoundWalls]) -> f64 {
    let n = rounds.first().expect("at least one round").points.len();
    assert!(rounds.iter().all(|r| r.points.len() == n), "ragged rounds");
    let points: f64 = (0..n)
        .map(|p| best(&rounds.iter().map(|r| r.points[p]).collect::<Vec<_>>()))
        .sum();
    let overhead = best(&rounds.iter().map(RoundWalls::overhead).collect::<Vec<_>>());
    points + overhead
}

/// How far a statistic over rounds rests on any single round: the largest
/// relative change of `stat` when one round is left out. With one round
/// there is nothing to leave out and the spread is infinite.
pub fn leave_one_out_spread<T: Clone>(rounds: &[T], stat: impl Fn(&[T]) -> f64) -> f64 {
    if rounds.len() < 2 {
        return f64::INFINITY;
    }
    let all = stat(rounds);
    (0..rounds.len())
        .map(|skip| {
            let rest: Vec<T> = rounds
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, r)| r.clone())
                .collect();
            (stat(&rest) - all).abs() / all.abs()
        })
        .fold(0.0, f64::max)
}

/// Digest of a report: FNV-1a of its canonical JSON encoding, the same
/// text a checkpoint line carries.
pub fn report_digest(report: &SocReport) -> u64 {
    fnv1a(report.to_json().encode().as_bytes())
}

/// Renders a digest as it is pinned in `expected.json`.
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// This process's peak resident set (`VmHWM`) in KiB, if the kernel
/// reports it.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}
