//! Parallel design-space sweep executor with per-point fault isolation.
//!
//! The paper's whole evaluation is a design-space sweep: many
//! [`SocConfig`] points, each simulated independently (Figs. 3–4, 7–9,
//! Table 1). Every point owns its SoC, memory system and address space,
//! so points are embarrassingly parallel — this module executes a batch
//! of named points across a [`std::thread::scope`] worker pool and
//! returns results in deterministic submission order regardless of
//! scheduling.
//!
//! Properties:
//!
//! * **One executor**: [`sweep_map`] is the only execution path.
//!   Checkpoint serving and the checkpoint writer are optional stages
//!   inside it, switched on by [`SweepOptions`]; [`run_sweep_with`] is
//!   its [`DesignPoint`] instantiation.
//! * **Worker count** comes from the `GEMMINI_THREADS` environment
//!   variable; unset (or `0`) defaults to
//!   [`std::thread::available_parallelism`]. `GEMMINI_THREADS=1` forces
//!   fully serial execution on the caller's thread — bit-identical to
//!   the pre-sweep per-binary loops. The figure binaries reject a value
//!   [`parse_threads`] refuses before any point runs.
//! * **Fault isolation**: a panic or [`AccelError`] inside one point
//!   becomes an `Err` entry carrying the point's label; the other
//!   points still complete.
//! * **Observability**: each completion emits one progress line to
//!   stderr (`[12/32] private=16 shared=256 4.1s | 53.2s elapsed,
//!   0.23 pts/s, eta 1m27s` — the ETA comes from the p50 of a live
//!   per-point wall histogram) so long sweeps show liveness, throughput
//!   and time remaining. Per-point cycle attribution rides along in
//!   every [`SocReport`] (and therefore in each checkpoint line).
//! * **Resume**: with a checkpoint file every completed point is
//!   persisted as it finishes, so a killed sweep re-run with `resume`
//!   executes only the points it lost (see [`crate::checkpoint`]).
//! * **Exact aggregation**: [`merge_memory_stats`] folds per-point
//!   memory counters through [`HitMissStats::merge`] and
//!   [`TrafficStats::merge`], so totals across parallel workers equal
//!   the serial run's totals exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::checkpoint::{
    compact, debug_fingerprint, Checkpoint, CheckpointEntry, CheckpointWriter,
};
use crate::run::{run_networks_observed, RunOptions, SocReport};
use crate::soc::SocConfig;
use gemmini_core::metrics::Metrics;
use gemmini_core::trace::Tracer;
use gemmini_core::AccelError;
use gemmini_dnn::graph::Network;
use gemmini_mem::json::{FromJson, ToJson};
use gemmini_mem::stats::{HitMissStats, TrafficStats};

/// Environment variable naming the worker count (`0`/unset = all cores).
pub const THREADS_ENV: &str = "GEMMINI_THREADS";

/// One named point of a design-space sweep: an SoC configuration, the
/// networks to run on it (one per core), and the run options.
#[derive(Debug, Clone)]
pub struct DesignPoint {
    /// Human-readable label, used in progress lines and error entries.
    pub label: String,
    /// The SoC to build.
    pub config: SocConfig,
    /// One network per configured core.
    pub networks: Vec<Network>,
    /// Functional/timing switch and seed.
    pub options: RunOptions,
}

impl DesignPoint {
    /// Creates a point running one network per core of `config`.
    pub fn new(
        label: impl Into<String>,
        config: SocConfig,
        networks: Vec<Network>,
        options: RunOptions,
    ) -> Self {
        Self {
            label: label.into(),
            config,
            networks,
            options,
        }
    }

    /// Creates a timing-mode point replicating `net` across every core
    /// of `config` — the common shape of the figure sweeps.
    pub fn timing(label: impl Into<String>, config: SocConfig, net: &Network) -> Self {
        let nets = vec![net.clone(); config.cores.len()];
        Self::new(label, config, nets, RunOptions::timing())
    }

    /// Stable fingerprint of the point's full configuration (SoC config,
    /// networks, run options — everything except the label). Checkpoint
    /// resume skips a completed point only when both its label and this
    /// fingerprint match, so any edit to the design forces a re-run.
    pub fn fingerprint(&self) -> u64 {
        debug_fingerprint(&(&self.config, &self.networks, &self.options))
    }

    /// Simulates the point, observed by `tracer` and `metrics` (see
    /// [`run_networks_observed`]; pass the disabled handles for a plain
    /// run).
    ///
    /// # Errors
    ///
    /// Propagates the first accelerator error from any core.
    pub fn run(&self, tracer: &Tracer, metrics: &Metrics) -> Result<SocReport, AccelError> {
        run_networks_observed(&self.config, &self.networks, &self.options, tracer, metrics)
    }
}

/// Why one sweep point failed. The rest of the sweep is unaffected.
#[derive(Debug, Clone)]
pub enum SweepError {
    /// The simulation returned a typed accelerator error.
    Accel(AccelError),
    /// The point panicked; the payload's message is preserved.
    Panicked(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Accel(e) => write!(f, "accelerator error: {e}"),
            Self::Panicked(msg) => write!(f, "panicked: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// Outcome of one sweep point, in submission order.
#[derive(Debug, Clone)]
pub struct SweepResult<T> {
    /// The submitting point's label.
    pub label: String,
    /// The point's report, or why it failed.
    pub outcome: Result<T, SweepError>,
    /// Pure simulation wall-clock: the time `f(item)` took on its
    /// worker, excluding checkpoint encoding and I/O — identical to the
    /// `wall_nanos` persisted in the checkpoint line, so a run and its
    /// later cached replay report the same wall for the same point.
    pub wall: Duration,
    /// Whether the result was served from a checkpoint instead of run.
    pub cached: bool,
}

impl<T> SweepResult<T> {
    /// The successful report, if any.
    pub fn ok(&self) -> Option<&T> {
        self.outcome.as_ref().ok()
    }

    /// Unwraps the report, panicking with the point's label on failure.
    ///
    /// # Panics
    ///
    /// Panics if the point failed.
    pub fn expect_ok(&self) -> &T {
        match &self.outcome {
            Ok(t) => t,
            Err(e) => panic!("sweep point '{}' failed: {e}", self.label),
        }
    }
}

/// Execution knobs for a sweep.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads; `0` means "resolve from `GEMMINI_THREADS`, then
    /// available parallelism".
    pub threads: usize,
    /// Whether to emit per-point progress lines on stderr.
    pub progress: bool,
    /// Where to persist per-point results as newline-delimited JSON
    /// (flushed as points complete); `None` disables persistence.
    pub checkpoint: Option<PathBuf>,
    /// Whether to load `checkpoint` first and skip points it already
    /// holds (matching label + fingerprint). Without `resume`, an
    /// existing checkpoint file is truncated and rewritten.
    pub resume: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            threads: 0,
            progress: true,
            checkpoint: None,
            resume: false,
        }
    }
}

impl SweepOptions {
    /// Default options plus a checkpoint file and resume mode.
    pub fn checkpointed(path: impl Into<PathBuf>, resume: bool) -> Self {
        Self {
            checkpoint: Some(path.into()),
            resume,
            ..Self::default()
        }
    }
}

/// Parses a `GEMMINI_THREADS` value: a worker count, or `None` for `0`
/// (every core).
///
/// # Errors
///
/// A one-line message when the value is not a non-negative integer.
pub fn parse_threads(value: &str) -> Result<Option<usize>, String> {
    match value.trim().parse::<usize>() {
        Ok(n) => Ok((n > 0).then_some(n)),
        Err(_) => Err(format!(
            "{THREADS_ENV} must be a worker count, 0 for every core (got '{value}')"
        )),
    }
}

/// Resolves the worker count for `n_points` work items: an explicit
/// `threads` wins, then `GEMMINI_THREADS`, then available parallelism —
/// always clamped to `[1, n_points]`. A `GEMMINI_THREADS` value
/// [`parse_threads`] refuses counts as unset here; the figure binaries
/// reject it before they sweep.
pub fn worker_count(threads: usize, n_points: usize) -> usize {
    let configured = if threads > 0 {
        threads
    } else {
        std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| parse_threads(&v).ok().flatten())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    };
    configured.clamp(1, n_points.max(1))
}

/// Estimated seconds until `remaining` points finish on `workers`
/// parallel workers: `ceil(remaining / workers)` waves of the mean point
/// wall so far. Clamped to 30 days so one pathological point cannot
/// print a nonsense year.
fn eta_secs(mean_wall: Duration, remaining: usize, workers: usize) -> f64 {
    const MAX_ETA_SECS: f64 = 30.0 * 24.0 * 3600.0;
    let waves = remaining.div_ceil(workers.max(1)) as f64;
    (waves * mean_wall.as_secs_f64()).min(MAX_ETA_SECS)
}

/// Renders an ETA compactly for progress lines: `3s`, `2m05s`,
/// `1h12m`, `4d07h`.
fn format_eta(secs: f64) -> String {
    let s = secs.max(0.0).round() as u64;
    if s < 60 {
        format!("{s}s")
    } else if s < 3600 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else if s < 86_400 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else {
        format!("{}d{:02}h", s / 86_400, (s % 86_400) / 3600)
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The sweep executor: applies `f` to every `(label, fingerprint, item)`
/// triple on a worker pool, isolating failures per item, and returns the
/// results in submission order. [`run_sweep_with`] is the
/// [`DesignPoint`] instantiation; binaries with bespoke per-point work
/// (e.g. instruction-level ablations) call this directly.
///
/// Optional stages, each switched on by `opts`:
///
/// * **Checkpoint serve** (`checkpoint` + `resume`): points whose
///   `(label, fingerprint)` already appear in the file are served from
///   it without running, so a resumed sweep re-executes only stale or
///   missing points.
/// * **Checkpoint writer** (`checkpoint`): every completed point is
///   appended as a flushed JSON line, so a killed sweep loses at most
///   its in-flight points; a resumed completion compacts the file,
///   dropping shadowed and damaged lines.
pub fn sweep_map<I, T, F>(
    items: Vec<(String, u64, I)>,
    opts: SweepOptions,
    f: F,
) -> Vec<SweepResult<T>>
where
    I: Send,
    T: ToJson + FromJson + Send,
    F: Fn(I) -> Result<T, AccelError> + Sync,
{
    let total = items.len();
    let path = opts.checkpoint.as_deref();

    // An undecodable line (torn write, CRC mismatch) is counted as stale
    // and its point simply re-runs; the closing compaction drops it.
    let mut checkpoint = match path.filter(|_| opts.resume) {
        Some(path) => match Checkpoint::<T>::load(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!(
                    "sweep: cannot read checkpoint {}: {e}; running every point",
                    path.display()
                );
                Checkpoint::default()
            }
        },
        None => Checkpoint::default(),
    };

    // Serve completed points from the checkpoint; queue the rest.
    let mut slots: Vec<Option<SweepResult<T>>> = (0..total).map(|_| None).collect();
    let mut to_run = Vec::new();
    for (idx, (label, fingerprint, item)) in items.into_iter().enumerate() {
        match checkpoint.take(&label, fingerprint) {
            Some(entry) => {
                slots[idx] = Some(SweepResult {
                    label,
                    outcome: Ok(entry.payload),
                    wall: entry.wall,
                    cached: true,
                });
            }
            None => to_run.push((idx, label, fingerprint, item)),
        }
    }
    let cached = total - to_run.len();
    if let (Some(path), true) = (path, opts.resume) {
        let stale = checkpoint.stale_lines;
        eprintln!(
            "sweep: resume from {}: skipped {cached}/{total} completed points{}",
            path.display(),
            if stale > 0 {
                format!(" ({stale} stale/partial lines ignored)")
            } else {
                String::new()
            }
        );
    }

    // Fresh runs truncate; resumes append (re-run entries shadow stale
    // ones on the next load). A checkpoint the filesystem refuses to
    // open degrades to an unpersisted sweep rather than losing the run.
    let writer = path.and_then(|path| {
        let opened = if opts.resume {
            CheckpointWriter::append_to(path)
        } else {
            CheckpointWriter::create(path)
        };
        match opened {
            Ok(w) => Some(w),
            Err(e) => {
                eprintln!(
                    "sweep: cannot write checkpoint {}: {e}; results will not be persisted",
                    path.display()
                );
                None
            }
        }
    });

    // Progress lines report true grid position: the first fresh point of
    // a 27-cached/32-point resume prints `[28/32, 27 cached]`, so a
    // resumed sweep is honest about how much real simulation is
    // happening; fresh sweeps keep the plain `[k/n]` form. The pts/s rate
    // stays execution throughput (cached points cost ~0s and would
    // inflate it into a lie of the opposite kind).
    let provenance = if cached > 0 {
        format!(", {cached} cached")
    } else {
        String::new()
    };
    let workers = worker_count(opts.threads, to_run.len());
    // The sum and count of point walls behind the progress lines' ETA
    // column, a running mean.
    let walls = Mutex::new((Duration::ZERO, 0u32));
    let done = AtomicUsize::new(0);
    let sweep_start = Instant::now();
    let run_one = |label: String, fingerprint: u64, item: I| -> SweepResult<T> {
        let attempt_start = Instant::now();
        let attempt = || -> Result<(T, Duration), SweepError> {
            let start = Instant::now();
            let payload = f(item).map_err(SweepError::Accel)?;
            // The persisted wall and the returned wall are the same pure
            // simulation measurement; JSON encoding and the flushed
            // append below are excluded from both.
            let wall = start.elapsed();
            let Some(w) = &writer else {
                return Ok((payload, wall));
            };
            let entry = CheckpointEntry {
                label: label.clone(),
                fingerprint,
                wall,
                payload,
            };
            if let Err(e) = w.append(&entry) {
                eprintln!("sweep: checkpoint append failed for '{label}': {e}");
            }
            Ok((entry.payload, wall))
        };
        let (outcome, wall) = match catch_unwind(AssertUnwindSafe(attempt)) {
            Ok(Ok((t, wall))) => (Ok(t), wall),
            Ok(Err(e)) => (Err(e), attempt_start.elapsed()),
            Err(payload) => (
                Err(SweepError::Panicked(panic_message(payload))),
                attempt_start.elapsed(),
            ),
        };
        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
        if opts.progress {
            let status = if outcome.is_ok() { "" } else { "FAILED " };
            let elapsed = sweep_start.elapsed().as_secs_f64();
            let rate = finished as f64 / elapsed.max(1e-9);
            let eta = {
                let mut walls = walls.lock().expect("point walls lock");
                walls.0 += wall;
                walls.1 += 1;
                format_eta(eta_secs(
                    walls.0 / walls.1,
                    total - cached - finished,
                    workers,
                ))
            };
            eprintln!(
                "[{}/{total}{provenance}] {label} {status}{:.1}s | {elapsed:.1}s elapsed, {rate:.2} pts/s, eta {eta}",
                finished + cached,
                wall.as_secs_f64()
            );
        }
        SweepResult {
            label,
            outcome,
            wall,
            cached: false,
        }
    };

    if workers == 1 {
        // Fully serial on the caller's thread: identical scheduling to
        // the historical per-binary loops.
        for (idx, label, fingerprint, item) in to_run {
            slots[idx] = Some(run_one(label, fingerprint, item));
        }
    } else {
        // Workers claim points by atomic index; each result carries its
        // grid slot, so output order is submission order regardless of
        // which thread finishes when.
        let work: Vec<_> = to_run
            .into_iter()
            .map(|point| Mutex::new(Some(point)))
            .collect();
        let ran = Mutex::new(Vec::with_capacity(work.len()));
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    while let Some(cell) = work.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let (idx, label, fingerprint, item) = cell
                            .lock()
                            .expect("work slot lock")
                            .take()
                            .expect("each index is claimed exactly once");
                        let result = run_one(label, fingerprint, item);
                        ran.lock().expect("result list lock").push((idx, result));
                    }
                });
            }
        });
        for (idx, result) in ran.into_inner().expect("result list lock") {
            slots[idx] = Some(result);
        }
    }

    // A resumed completion has appended re-run entries over stale ones;
    // reclaim the shadowed lines so repeated resume cycles cannot grow
    // the file without bound, and drop damaged ones so the next resume
    // finds a fully valid file. (Fresh runs truncate on open, so every
    // label is already unique.)
    if let (Some(path), Some(_), true) = (path, &writer, opts.resume) {
        match compact(path) {
            Ok(c) if c.dropped > 0 && opts.progress => eprintln!(
                "sweep: compacted checkpoint {}: kept {}, reclaimed {} shadowed or damaged lines",
                path.display(),
                c.kept,
                c.dropped
            ),
            Ok(_) => {}
            Err(e) => eprintln!(
                "sweep: checkpoint compaction failed for {}: {e}",
                path.display()
            ),
        }
    }

    slots
        .into_iter()
        .map(|slot| slot.expect("every point is either served or executed"))
        .collect()
}

/// Runs a batch of [`DesignPoint`]s with explicit options through
/// [`sweep_map`]. With `opts.checkpoint` set, completed reports persist
/// as JSON lines; with `opts.resume` as well, points already in the file
/// are skipped.
pub fn run_sweep_with(points: Vec<DesignPoint>, opts: SweepOptions) -> Vec<SweepResult<SocReport>> {
    let items = points
        .into_iter()
        .map(|p| (p.label.clone(), p.fingerprint(), p))
        .collect();
    sweep_map(items, opts, |p| {
        p.run(&Tracer::disabled(), &Metrics::disabled())
    })
}

/// Exact cross-point rollup of the memory-system counters, folded
/// through the substrate's own `merge` operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryRollup {
    /// Shared-L2 hit/miss counters summed over every report.
    pub l2: HitMissStats,
    /// Dirty L2 writebacks summed over every report.
    pub l2_writebacks: u64,
    /// DRAM-channel traffic summed over every report.
    pub dram: TrafficStats,
    /// Reports folded in.
    pub reports: usize,
}

/// Merges the memory statistics of every successful report. Because the
/// fold uses [`HitMissStats::merge`]/[`TrafficStats::merge`], the result
/// is bit-equal to a serial accumulation in any order.
pub fn merge_memory_stats<'a, I>(reports: I) -> MemoryRollup
where
    I: IntoIterator<Item = &'a SocReport>,
{
    let mut rollup = MemoryRollup::default();
    for r in reports {
        rollup.l2.merge(&r.l2_stats);
        rollup.l2_writebacks += r.l2.writebacks;
        rollup.dram.merge(&r.dram_traffic);
        rollup.reports += 1;
    }
    rollup
}

#[cfg(test)]
mod tests {
    use super::*;

    // Explicit thread count so these tests never read GEMMINI_THREADS
    // (env mutation would race with parallel test execution).
    fn quiet() -> SweepOptions {
        SweepOptions {
            threads: 2,
            progress: false,
            ..SweepOptions::default()
        }
    }

    /// `n` labelled items whose fingerprint and payload are their index.
    fn indexed(n: u64) -> Vec<(String, u64, u64)> {
        (0..n).map(|i| (format!("p{i}"), i, i)).collect()
    }

    #[test]
    fn results_arrive_in_submission_order() {
        let results = sweep_map(
            indexed(16),
            SweepOptions {
                threads: 4,
                progress: false,
                ..SweepOptions::default()
            },
            |i| {
                // Earlier items sleep longer, so completion order is the
                // reverse of submission order.
                std::thread::sleep(Duration::from_millis(2 * (16 - i)));
                Ok(i * 10)
            },
        );
        let got: Vec<u64> = results.iter().map(|r| *r.expect_ok()).collect();
        assert_eq!(got, (0..16).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(results[3].label, "p3");
    }

    #[test]
    fn panicking_item_is_isolated() {
        let results = sweep_map(
            indexed(6),
            SweepOptions {
                threads: 3,
                progress: false,
                ..SweepOptions::default()
            },
            |i| {
                if i == 2 {
                    panic!("deliberate failure at point {i}");
                }
                Ok(i)
            },
        );
        assert_eq!(results.len(), 6);
        for (i, r) in results.iter().enumerate() {
            if i == 2 {
                match &r.outcome {
                    Err(SweepError::Panicked(msg)) => {
                        assert!(msg.contains("deliberate failure"), "got: {msg}");
                    }
                    other => panic!("expected panic entry, got {other:?}"),
                }
            } else {
                assert_eq!(*r.expect_ok(), i as u64);
            }
        }
    }

    #[test]
    fn accel_error_is_isolated() {
        let items = vec![
            ("ok".to_string(), 1, 1u64),
            ("bad".to_string(), 2, 2),
            ("ok2".to_string(), 3, 3),
        ];
        let results = sweep_map(items, quiet(), |i| {
            if i == 2 {
                Err(AccelError::NoPreload)
            } else {
                Ok(i)
            }
        });
        assert!(results[0].outcome.is_ok());
        assert!(matches!(
            results[1].outcome,
            Err(SweepError::Accel(AccelError::NoPreload))
        ));
        assert!(results[2].outcome.is_ok());
    }

    #[test]
    fn worker_count_resolution() {
        // Explicit threads win and are clamped to the point count.
        assert_eq!(worker_count(8, 3), 3);
        assert_eq!(worker_count(2, 100), 2);
        // Zero points still yields a sane value.
        assert_eq!(worker_count(4, 0), 1);
    }

    #[test]
    fn threads_env_values_parse_or_are_rejected() {
        assert_eq!(parse_threads("3"), Ok(Some(3)));
        assert_eq!(parse_threads(" 1 "), Ok(Some(1)));
        assert_eq!(parse_threads("0"), Ok(None), "0 means every core");
        for bad in ["two", "-1", "", "1.5"] {
            let err = parse_threads(bad).unwrap_err();
            assert!(err.contains(THREADS_ENV), "{err}");
        }
    }

    #[test]
    fn empty_sweep_is_empty() {
        let results = sweep_map(indexed(0), quiet(), |_| Ok(0u64));
        assert!(results.is_empty());
    }

    #[test]
    fn eta_derivation_and_clamp() {
        let second = Duration::from_secs(1);
        // 5 waves of 1 s points; a partial last wave counts as a wave.
        assert_eq!(eta_secs(second, 10, 2), 5.0);
        assert_eq!(eta_secs(second, 11, 2), 6.0);
        assert_eq!(eta_secs(second, 0, 2), 0.0);
        // Clamp: absurd per-point walls cannot produce an absurd ETA.
        assert_eq!(eta_secs(Duration::MAX, 1_000_000, 1), 30.0 * 24.0 * 3600.0);
    }

    #[test]
    fn eta_formats_compactly() {
        assert_eq!(format_eta(3.4), "3s");
        assert_eq!(format_eta(125.0), "2m05s");
        assert_eq!(format_eta(4321.0), "1h12m");
        assert_eq!(format_eta(370_000.0), "4d06h");
    }
}
