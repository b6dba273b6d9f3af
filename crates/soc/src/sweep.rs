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
//!   and time remaining. With `opts.status`/`opts.prometheus` set the
//!   executor also maintains a JSON heartbeat file and a Prometheus
//!   exposition (see [`crate::telemetry`]). Per-point
//!   cycle attribution rides along in every [`SocReport`] (and therefore
//!   in each checkpoint line).
//! * **Exact aggregation**: [`merge_memory_stats`] folds per-point
//!   memory counters through [`HitMissStats::merge`] and
//!   [`TrafficStats::merge`], so totals across N parallel shards equal
//!   the serial run's totals exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::checkpoint::{
    compact, debug_fingerprint, Checkpoint, CheckpointEntry, CheckpointWriter,
};
use crate::fault::{self, FaultAction};
use crate::run::{run_networks_observed, RunOptions, SocReport};
use crate::soc::SocConfig;
use crate::telemetry::{
    eta_secs, format_eta, wall_micros, write_heartbeat, write_prometheus, Heartbeat,
    HEARTBEAT_VERSION,
};
use gemmini_core::metrics::{Counter, Gauge, HistKind, Log2Histogram, Metrics};
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
    /// Live-metrics handle: shared with every executed point's
    /// simulation (engine, DMA, scratchpad, TLB, DRAM counters) and with
    /// the executor's own point counters and wall histogram.
    /// [`Metrics::disabled`] (the default) records nothing. Pure
    /// observation — results are bit-identical either way.
    pub metrics: Metrics,
    /// Where to write the live JSON heartbeat ([`Heartbeat`], atomic
    /// temp-file + rename, refreshed on every point completion and every
    /// ~2 s); `None` disables it.
    pub status: Option<PathBuf>,
    /// Where to write the final registry snapshot as Prometheus text
    /// exposition when the sweep ends; `None` disables it.
    pub prometheus: Option<PathBuf>,
    /// Hung-shard watchdog budget (`--watchdog`), consumed by the
    /// `--shards` supervisor (see [`crate::shard`]): a worker whose
    /// heartbeat `done` count does not advance for this long is killed
    /// and retried from its shard checkpoint, exactly like a crash — the
    /// one answer to a wedged point. Ignored outside supervise mode;
    /// `None` (the default) disables the watchdog.
    pub watchdog: Option<Duration>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            threads: 0,
            progress: true,
            checkpoint: None,
            resume: false,
            metrics: Metrics::disabled(),
            status: None,
            prometheus: None,
            watchdog: None,
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

/// Shared live-telemetry state for one sweep call: the per-point wall
/// histogram behind the progress lines' ETA column (always on — it is
/// cheap and local), the executor's point counters, and heartbeat
/// bookkeeping when `opts.status` names a file.
struct Pulse {
    status: Option<PathBuf>,
    prometheus: Option<PathBuf>,
    metrics: Metrics,
    grid_total: usize,
    start: Instant,
    workers: AtomicUsize,
    /// Points served from the checkpoint: completions that did not
    /// execute in this call.
    cached: usize,
    /// Points actually simulated here (successes and failures).
    executed: AtomicUsize,
    failed: AtomicUsize,
    wall_hist: Mutex<Log2Histogram>,
    last_beat: Mutex<Instant>,
    stop: AtomicBool,
}

impl Pulse {
    fn start(opts: &SweepOptions, grid_total: usize, cached: usize) -> Arc<Self> {
        let pulse = Arc::new(Self {
            status: opts.status.clone(),
            prometheus: opts.prometheus.clone(),
            metrics: opts.metrics.clone(),
            grid_total,
            start: Instant::now(),
            workers: AtomicUsize::new(1),
            cached,
            executed: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            wall_hist: Mutex::new(Log2Histogram::new()),
            last_beat: Mutex::new(Instant::now()),
            stop: AtomicBool::new(false),
        });
        pulse.beat("run");
        pulse
    }

    fn done_total(&self) -> usize {
        self.cached + self.executed.load(Ordering::Relaxed)
    }

    /// Folds one executed point in: wall histogram (local + registry),
    /// point counters, and a heartbeat refresh.
    fn record_point(&self, wall: Duration, ok: bool) {
        let micros = wall_micros(wall);
        self.wall_hist
            .lock()
            .expect("wall histogram lock")
            .record(micros);
        self.metrics.observe(HistKind::PointWallMicros, micros);
        if ok {
            self.metrics.inc(Counter::PointsCompleted);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
            self.metrics.inc(Counter::PointsFailed);
        }
        self.executed.fetch_add(1, Ordering::Relaxed);
        self.beat("run");
    }

    /// Current p50-based ETA over the remaining grid, if any point has
    /// been timed yet.
    fn eta(&self) -> Option<f64> {
        let hist = self.wall_hist.lock().expect("wall histogram lock");
        eta_secs(
            &hist,
            self.grid_total.saturating_sub(self.done_total()),
            self.workers.load(Ordering::Relaxed),
        )
    }

    fn heartbeat(&self, phase: &str) -> Heartbeat {
        let executed = self.executed.load(Ordering::Relaxed);
        let elapsed = self.start.elapsed().as_secs_f64();
        let point_wall = self.wall_hist.lock().expect("wall histogram lock").clone();
        let done = self.done_total();
        let eta = if phase == "done" {
            None
        } else {
            eta_secs(
                &point_wall,
                self.grid_total.saturating_sub(done),
                self.workers.load(Ordering::Relaxed),
            )
        };
        Heartbeat {
            version: HEARTBEAT_VERSION,
            phase: phase.to_string(),
            done,
            total: self.grid_total,
            cached: self.cached,
            failed: self.failed.load(Ordering::Relaxed),
            elapsed_secs: elapsed,
            rate_pts_per_sec: executed as f64 / elapsed.max(1e-9),
            eta_secs: eta,
            retries: 0,
            point_wall,
            metrics: self.metrics.snapshot(),
        }
    }

    /// Rewrites the heartbeat file (no-op without a status path).
    fn beat(&self, phase: &str) {
        let Some(path) = &self.status else { return };
        let hb = self.heartbeat(phase);
        if let Err(e) = write_heartbeat(path, &hb) {
            eprintln!("sweep: heartbeat write failed for {}: {e}", path.display());
        }
        *self.last_beat.lock().expect("last beat lock") = Instant::now();
    }

    /// Monitor-thread tick: refresh the heartbeat when the last write is
    /// older than ~2 s (long points and idle phases stay visible).
    fn beat_if_stale(&self) {
        let stale =
            self.last_beat.lock().expect("last beat lock").elapsed() >= Duration::from_secs(2);
        if stale {
            self.beat("run");
        }
    }

    /// Final exports: the `done` heartbeat and — when requested — the
    /// Prometheus exposition of the registry snapshot.
    fn finalize(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.beat("done");
        if let Some(path) = &self.prometheus {
            let snap = self.metrics.snapshot().unwrap_or_default();
            if let Err(e) = write_prometheus(path, &snap) {
                eprintln!("sweep: metrics write failed for {}: {e}", path.display());
            }
        }
    }
}

/// Owns the background heartbeat thread for one sweep call; dropping it
/// stops and joins the thread. No thread is spawned without a status
/// path.
struct PulseMonitor {
    pulse: Arc<Pulse>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl PulseMonitor {
    fn spawn(pulse: &Arc<Pulse>) -> Self {
        let handle = pulse.status.is_some().then(|| {
            let p = Arc::clone(pulse);
            std::thread::spawn(move || {
                while !p.stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(250));
                    p.beat_if_stale();
                }
            })
        });
        Self {
            pulse: Arc::clone(pulse),
            handle,
        }
    }
}

impl Drop for PulseMonitor {
    fn drop(&mut self) {
        self.pulse.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
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

/// The `sweep.point` failpoint ([`crate::fault`]), evaluated as a point
/// begins: `abort` kills the process the way a segfault would, `hang`
/// wedges the worker (the watchdog's prey), and `delay:<ms>` slows the
/// point down.
fn point_failpoint(label: &str) {
    match fault::fire("sweep.point") {
        Some(FaultAction::Abort) => {
            eprintln!("fault: aborting at failpoint 'sweep.point' before '{label}'");
            std::process::abort();
        }
        Some(FaultAction::Hang) => fault::hang_forever("sweep.point"),
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        _ => {}
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
///   its in-flight points; a resumed completion compacts the file.
///
/// The `sweep.point` failpoint is evaluated only in a *fresh* sweep —
/// one that served no point from its checkpoint. A supervisor retries a
/// crashed or hung shard with `--resume`, so `sweep.point=abort@N` kills
/// the first attempt and the retry, serving the persisted points, runs
/// to completion.
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

    // Resume loads *quarantine*: an undecodable line (torn write, CRC
    // mismatch) is moved to the `.bad` sidecar and the file rewritten
    // without it, so damage is reported exactly once and the named point
    // simply re-runs.
    let mut checkpoint = match path.filter(|_| opts.resume) {
        Some(path) => match Checkpoint::<T>::load_quarantining(path) {
            Ok((c, _quarantine)) => c,
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

    let pulse = Pulse::start(&opts, total, cached);
    let monitor = PulseMonitor::spawn(&pulse);
    opts.metrics.add(Counter::PointsCached, cached as u64);

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
    let fresh = cached == 0;
    let done = AtomicUsize::new(0);
    let sweep_start = Instant::now();
    let run_one = |label: String, fingerprint: u64, item: I| -> SweepResult<T> {
        let attempt_start = Instant::now();
        pulse.metrics.gauge_add(Gauge::PointsInFlight, 1);
        let attempt = || -> Result<(T, Duration), SweepError> {
            if fresh {
                point_failpoint(&label);
            }
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
        pulse.metrics.gauge_sub(Gauge::PointsInFlight, 1);
        pulse.record_point(wall, outcome.is_ok());
        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
        if opts.progress {
            let status = if outcome.is_ok() { "" } else { "FAILED " };
            let elapsed = sweep_start.elapsed().as_secs_f64();
            let rate = finished as f64 / elapsed.max(1e-9);
            // The ETA column comes from the shared per-point wall
            // histogram: p50 bucket bound × remaining waves, clamped.
            let eta = pulse
                .eta()
                .map(|s| format!(", eta {}", format_eta(s)))
                .unwrap_or_default();
            eprintln!(
                "[{}/{total}{provenance}] {label} {status}{:.1}s | {elapsed:.1}s elapsed, {rate:.2} pts/s{eta}",
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

    let workers = worker_count(opts.threads, to_run.len());
    if !to_run.is_empty() {
        pulse.workers.store(workers, Ordering::Relaxed);
        pulse.metrics.set_gauge(Gauge::SweepWorkers, workers as u64);
    }
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
    drop(monitor);
    pulse.finalize();

    // A resumed completion has appended re-run entries over stale ones;
    // reclaim the shadowed lines so repeated resume cycles cannot grow
    // the file without bound. (Fresh runs truncate on open, so every
    // label is already unique.)
    if let (Some(path), Some(_), true) = (path, &writer, opts.resume) {
        match compact(path) {
            Ok(c) if c.dropped > 0 && opts.progress => eprintln!(
                "sweep: compacted checkpoint {}: kept {}, reclaimed {} shadowed lines",
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
    let metrics = opts.metrics.clone();
    let items = points
        .into_iter()
        .map(|p| (p.label.clone(), p.fingerprint(), p))
        .collect();
    sweep_map(items, opts, move |p| p.run(&Tracer::disabled(), &metrics))
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
/// over N parallel shards is bit-equal to a serial accumulation.
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
}
