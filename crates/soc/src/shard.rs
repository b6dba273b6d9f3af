//! Sharded, multi-process sweep execution: strided shard planning, a
//! crash-resilient child-process supervisor, and an exact shard merge.
//!
//! The in-process worker pool in [`crate::sweep`] parallelises one
//! process; it cannot survive a hard crash (an abort, OOM kill or
//! segfault takes every in-flight point with it) and cannot span
//! processes or hosts. This module layers process-level resilience on
//! top of the checkpoint substrate:
//!
//! * **Shard planning** — [`ShardSpec`] names one strided slice of a
//!   point list (`--shard i/N`): point `p` belongs to shard `p mod N`.
//!   Striding (rather than chunking) balances grids whose expensive
//!   points cluster, and the plan is a pure function of the grid order,
//!   so every process — workers, supervisor, merge — derives the same
//!   partition independently. [`shard_path`] derives the per-shard
//!   checkpoint file from the sweep's base `--json` path the same way.
//! * **Supervision** — [`supervise`] spawns one child process per shard
//!   (normally the current binary re-invoked with `--shard i/N
//!   --resume`), streams each child's output tagged `[shard i/N]`, and
//!   on a *crashed* child (non-zero exit or death by signal) retries
//!   that shard with bounded exponential backoff, deterministically
//!   jittered per shard so a fleet that died together does not retry in
//!   lock-step. With a `--watchdog` budget, the supervisor also detects
//!   *hung* children: a worker whose heartbeat `done` count has not
//!   advanced for the budget is killed and retried exactly like a
//!   crash — the one answer to a wedged point (`--shards 1 --watchdog`
//!   protects a single-process sweep). Because the child resumes from
//!   its shard checkpoint, completed points are never re-simulated: a
//!   crash loses at most the in-flight points of one shard. With `--status`, the
//!   supervisor also reads each child's heartbeat file (at the
//!   [`shard_path`] of the status base) every ~2 s, renders a one-line
//!   `fleet:` view — per-shard phase, progress, throughput, ETA and
//!   retry count, with dead workers' frozen heartbeats rendered
//!   `stale` — and rewrites the absorbed aggregate [`Heartbeat`] at
//!   the base status path, so one `watch cat` covers the whole fleet.
//! * **Merge** — [`merge_shards`] loads the shard checkpoints
//!   (quarantining any damaged lines to `.bad` sidecars, see
//!   [`Checkpoint::load_quarantining`]), validates every expected
//!   `(label, fingerprint)` pair against them (reporting points that
//!   are missing or stale), and stitches the lines back in grid
//!   submission order. Downstream totals fold through
//!   `merge_memory_stats`, whose stat types are exact merge monoids, so
//!   the merged output is bit-identical to a single-process run.
//!
//! [`run_sharded`] ties the three together behind the sweep binaries'
//! shared CLI (`--shard` / `--shards` / `--merge`, parsed into a
//! [`ShardMode`]).

use std::fmt;
use std::io::{self, BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::checkpoint::{sidecar_path, Checkpoint, CheckpointEntry, CheckpointWriter};
use crate::sweep::{sweep_map, SweepOptions, SweepResult};
use crate::telemetry::{
    format_eta, heartbeat_age, read_heartbeat, write_heartbeat, write_prometheus, Heartbeat,
};
use gemmini_core::metrics::Counter;
use gemmini_core::AccelError;
use gemmini_mem::json::{FromJson, ToJson};

/// One strided shard of a sweep partition: `index` in `0..count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    /// This shard's position in the partition.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl ShardSpec {
    /// Validated constructor: `count` must be positive and `index` in
    /// range.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for a zero count or an
    /// out-of-range index.
    pub fn new(index: usize, count: usize) -> Result<Self, String> {
        if count == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range for {count} shard(s) (expected 0..{count})"
            ));
        }
        Ok(Self { index, count })
    }

    /// Parses the CLI form `i/N` (e.g. `0/4`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for anything that is not a valid
    /// `index/count` pair.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (index, count) = s
            .split_once('/')
            .ok_or_else(|| format!("invalid shard spec '{s}' (expected i/N, e.g. 0/4)"))?;
        let index = index
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("invalid shard index in '{s}'"))?;
        let count = count
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("invalid shard count in '{s}'"))?;
        Self::new(index, count)
    }

    /// Whether grid position `position` belongs to this shard.
    pub fn owns(&self, position: usize) -> bool {
        position % self.count == self.index
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The strided slice of `items` owned by `spec`, preserving grid order.
/// Deterministic for any list: every shard derives its own slice from
/// the full grid, no coordination needed.
pub fn shard_items<X>(items: Vec<X>, spec: ShardSpec) -> Vec<X> {
    items
        .into_iter()
        .enumerate()
        .filter(|(position, _)| spec.owns(*position))
        .map(|(_, item)| item)
        .collect()
}

/// The per-shard checkpoint path derived from the sweep's base path:
/// `sweep.jsonl` → `sweep.shard0of4.jsonl` (extension preserved; a path
/// without one gets the suffix appended). Workers, the supervisor and
/// the merge all derive the same name independently.
pub fn shard_path(base: &Path, spec: ShardSpec) -> PathBuf {
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("sweep");
    let suffix = format!("shard{}of{}", spec.index, spec.count);
    let name = match base.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{stem}.{suffix}.{ext}"),
        None => format!("{stem}.{suffix}"),
    };
    base.with_file_name(name)
}

/// Supervisor retry policy.
#[derive(Debug, Clone)]
pub struct SupervisorOptions {
    /// Total attempts per shard, including the first run.
    pub max_attempts: usize,
    /// Backoff before the first retry; doubles per subsequent retry,
    /// plus a deterministic per-shard jitter (see [`backoff_delay`]).
    pub backoff: Duration,
    /// Per-shard crash-retry counters, indexed by shard index and bumped
    /// the moment a retry is scheduled (not when it recovers), so the
    /// fleet monitor can render live retry counts. `None` skips the
    /// bookkeeping.
    pub retry_counts: Option<Arc<Vec<AtomicU64>>>,
    /// Hung-shard watchdog budget: a child whose heartbeat `done` count
    /// has not advanced for this long is killed and retried like a
    /// crash. Requires `status_base` (the watchdog reads the child
    /// heartbeat at its [`shard_path`]); `None` disables the watchdog.
    pub watchdog: Option<Duration>,
    /// The base `--status` path whose [`shard_path`] locates each
    /// child's heartbeat file for the watchdog.
    pub status_base: Option<PathBuf>,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff: Duration::from_millis(250),
            retry_counts: None,
            watchdog: None,
            status_base: None,
        }
    }
}

/// How one supervised shard concluded (successfully).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOutcome {
    /// The shard.
    pub spec: ShardSpec,
    /// Attempts it took, `1` meaning no crash.
    pub attempts: usize,
}

/// Why supervision failed. Every shard still runs to completion or
/// retry-exhaustion before this is returned; the error describes the
/// first shard (by index) that exhausted its attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisorError {
    /// The shard's child process could not be spawned at all.
    Spawn {
        /// The shard whose child failed to spawn.
        spec: ShardSpec,
        /// The OS error text.
        message: String,
    },
    /// Waiting on the child failed.
    Wait {
        /// The shard whose child could not be waited on.
        spec: ShardSpec,
        /// The OS error text.
        message: String,
    },
    /// The shard crashed on every attempt.
    Exhausted {
        /// The shard that kept crashing.
        spec: ShardSpec,
        /// Attempts made.
        attempts: usize,
        /// Description of the final exit status (code or signal).
        last_status: String,
    },
}

impl fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Spawn { spec, message } => {
                write!(f, "cannot spawn worker for shard {spec}: {message}")
            }
            Self::Wait { spec, message } => {
                write!(f, "cannot wait on worker for shard {spec}: {message}")
            }
            Self::Exhausted {
                spec,
                attempts,
                last_status,
            } => write!(
                f,
                "shard {spec} crashed on all {attempts} attempt(s); last status: {last_status}"
            ),
        }
    }
}

impl std::error::Error for SupervisorError {}

/// Forwards every line of a child stream to our stderr under the
/// shard's tag, so N children interleave legibly in one terminal.
fn forward_lines<R: Read + Send + 'static>(
    prefix: String,
    stream: R,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        for line in BufReader::new(stream).lines() {
            match line {
                Ok(line) => eprintln!("{prefix}{line}"),
                Err(_) => break,
            }
        }
    })
}

/// Deterministic per-shard jitter in `[0, 1)`: a splitmix64-style bit
/// mix of the shard index and the attempt number. Desynchronises the
/// retry stampede of a fleet that crashed together (e.g. a shared
/// filesystem blip taking every worker down at once) without
/// introducing real randomness — the same `(shard, attempt)` always
/// backs off for exactly the same duration, so supervised runs stay
/// reproducible.
fn jitter_fraction(shard_index: usize, completed_attempts: usize) -> f64 {
    let mut z = (shard_index as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(completed_attempts as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // Top 53 bits map exactly onto the double mantissa: uniform [0, 1).
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The supervisor's retry delay: exponential in the number of completed
/// attempts, plus up to +50% deterministic per-shard jitter, capped at
/// 10 s overall.
fn backoff_delay(base: Duration, completed_attempts: usize, shard_index: usize) -> Duration {
    const CAP: Duration = Duration::from_secs(10);
    let factor = 1u32 << completed_attempts.saturating_sub(1).min(8);
    let exponential = (base * factor).min(CAP);
    let jitter = exponential.mul_f64(0.5 * jitter_fraction(shard_index, completed_attempts));
    (exponential + jitter).min(CAP)
}

fn run_one_shard<C>(
    spec: ShardSpec,
    make_child: &C,
    opts: &SupervisorOptions,
) -> Result<ShardOutcome, SupervisorError>
where
    C: Fn(ShardSpec) -> Command,
{
    let max_attempts = opts.max_attempts.max(1);
    // The watchdog needs both a budget and a heartbeat to read.
    let heartbeat_path = match (&opts.watchdog, &opts.status_base) {
        (Some(_), Some(base)) => Some(shard_path(base, spec)),
        _ => None,
    };
    let mut last_status = String::new();
    for attempt in 1..=max_attempts {
        let mut cmd = make_child(spec);
        cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
        let mut child = cmd.spawn().map_err(|e| SupervisorError::Spawn {
            spec,
            message: e.to_string(),
        })?;
        let forwarders: Vec<_> = [
            child
                .stdout
                .take()
                .map(|s| forward_lines(format!("[shard {spec}] "), s)),
            child
                .stderr
                .take()
                .map(|s| forward_lines(format!("[shard {spec}] "), s)),
        ]
        .into_iter()
        .flatten()
        .collect();
        // Poll rather than block so the watchdog can act while the child
        // lives. Progress is the heartbeat's `done` count advancing, not
        // the file's freshness: a worker wedged inside one point keeps
        // rewriting its heartbeat (its monitor thread is alive) while
        // `done` stays frozen.
        let mut watchdog_fired = false;
        let mut last_done: Option<usize> = None;
        let mut last_progress = Instant::now();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) => {}
                Err(e) => {
                    return Err(SupervisorError::Wait {
                        spec,
                        message: e.to_string(),
                    })
                }
            }
            if let (Some(budget), Some(path)) = (opts.watchdog, &heartbeat_path) {
                if let Some(hb) = read_heartbeat(path) {
                    if last_done != Some(hb.done) {
                        last_done = Some(hb.done);
                        last_progress = Instant::now();
                    }
                }
                if last_progress.elapsed() >= budget {
                    eprintln!(
                        "supervisor: shard {spec} hung (no heartbeat progress for {:.0}s); killing it",
                        last_progress.elapsed().as_secs_f64()
                    );
                    watchdog_fired = true;
                    let _ = child.kill();
                    break child.wait().map_err(|e| SupervisorError::Wait {
                        spec,
                        message: e.to_string(),
                    })?;
                }
            }
            std::thread::sleep(Duration::from_millis(100));
        };
        for handle in forwarders {
            let _ = handle.join();
        }
        if status.success() {
            if attempt > 1 {
                eprintln!("supervisor: shard {spec} recovered on attempt {attempt}");
            }
            return Ok(ShardOutcome {
                spec,
                attempts: attempt,
            });
        }
        last_status = if watchdog_fired {
            format!("killed by watchdog: {status}")
        } else {
            status.to_string()
        };
        if attempt < max_attempts {
            if let Some(counts) = &opts.retry_counts {
                if let Some(slot) = counts.get(spec.index) {
                    slot.fetch_add(1, Ordering::Relaxed);
                }
            }
            let delay = backoff_delay(opts.backoff, attempt, spec.index);
            eprintln!(
                "supervisor: shard {spec} crashed ({last_status}); retrying from its checkpoint in {:.2}s (attempt {}/{max_attempts})",
                delay.as_secs_f64(),
                attempt + 1
            );
            std::thread::sleep(delay);
        }
    }
    Err(SupervisorError::Exhausted {
        spec,
        attempts: max_attempts,
        last_status,
    })
}

/// Runs `count` shard worker processes to completion, retrying crashed
/// shards (non-zero exit or death by signal) with bounded exponential
/// backoff, deterministically jittered per shard. With a watchdog
/// budget and a status base in `opts`, a child whose heartbeat `done`
/// count does not advance for the budget is killed and retried like a
/// crash. `make_child` builds the command for one shard — normally
/// the current binary re-invoked with `--shard i/N --resume`, so a
/// retried shard resumes from its checkpoint and never re-simulates
/// completed points. All shards run concurrently; each child's stdout
/// and stderr stream to our stderr tagged `[shard i/N]`.
///
/// Every shard runs to completion or retry-exhaustion even when another
/// shard fails permanently (their checkpoints remain valid for a later
/// resume); the first failure (by shard index) is then returned.
///
/// # Errors
///
/// Returns [`SupervisorError`] if any shard cannot be spawned, cannot be
/// waited on, or crashes on every attempt.
///
/// # Panics
///
/// Panics if `count` is zero or an internal supervisor thread panics.
pub fn supervise<C>(
    count: usize,
    make_child: C,
    opts: &SupervisorOptions,
) -> Result<Vec<ShardOutcome>, SupervisorError>
where
    C: Fn(ShardSpec) -> Command + Sync,
{
    assert!(count > 0, "cannot supervise zero shards");
    let results: Vec<Result<ShardOutcome, SupervisorError>> = std::thread::scope(|scope| {
        let make_child = &make_child;
        let handles: Vec<_> = (0..count)
            .map(|index| {
                let spec = ShardSpec { index, count };
                scope.spawn(move || run_one_shard(spec, make_child, opts))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard supervisor thread panicked"))
            .collect()
    });
    results.into_iter().collect()
}

/// How old a child heartbeat may grow before the fleet view renders the
/// shard `stale` (used when no `--watchdog` budget overrides it). A
/// live worker rewrites its heartbeat every ~2 s even when wedged, so a
/// file this old means the writer is gone.
const DEFAULT_STALENESS: Duration = Duration::from_secs(10);

/// One child heartbeat read for the fleet view: `None` until the shard
/// writes its first heartbeat, then the heartbeat plus its file age
/// (`None` when the filesystem withholds an mtime).
type ChildRead = Option<(Heartbeat, Option<Duration>)>;

/// Reads every child heartbeat (at the [`shard_path`] of the status
/// base) and folds them into one fleet [`Heartbeat`], stamping in the
/// supervisor's retry counters. Children that have not written yet read
/// as `None` and contribute nothing — the aggregate grows as the fleet
/// comes up. Returns the aggregate plus the per-child reads (each with
/// its heartbeat file's age) for rendering.
fn fleet_snapshot(
    status_base: &Path,
    specs: &[ShardSpec],
    retry_counts: &[AtomicU64],
) -> (Heartbeat, Vec<ChildRead>) {
    let children: Vec<ChildRead> = specs
        .iter()
        .map(|spec| {
            let path = shard_path(status_base, *spec);
            read_heartbeat(&path).map(|hb| (hb, heartbeat_age(&path)))
        })
        .collect();
    let mut fleet = Heartbeat::starting(0);
    for (child, _) in children.iter().flatten() {
        fleet.absorb(child);
    }
    fleet.retries = retry_counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    (fleet, children)
}

/// One `fleet:` progress line: a bracketed segment per shard (phase,
/// position, throughput, ETA, retries) followed by the aggregate. A
/// shard whose heartbeat says `run` but whose file has not been
/// rewritten within the staleness budget is rendered `stale`: its
/// writer is gone (killed or crashed mid-run), so the frozen rate and
/// ETA would be lies and are suppressed.
fn fleet_line(
    specs: &[ShardSpec],
    children: &[ChildRead],
    retry_counts: &[AtomicU64],
    fleet: &Heartbeat,
    staleness: Duration,
) -> String {
    let mut segments = Vec::with_capacity(specs.len());
    for (spec, child) in specs.iter().zip(children) {
        let mut seg = match child {
            Some((hb, age)) => {
                let stale = hb.phase == "run" && age.is_some_and(|a| a > staleness);
                let phase = if stale { "stale" } else { hb.phase.as_str() };
                let mut s = format!("{} {phase} {}/{}", spec.index, hb.done, hb.total);
                if hb.phase == "run" && !stale {
                    s.push_str(&format!(" {:.2}pts/s", hb.rate_pts_per_sec));
                    if let Some(eta) = hb.eta_secs {
                        s.push_str(&format!(" eta {}", format_eta(eta)));
                    }
                }
                s
            }
            None => format!("{} starting", spec.index),
        };
        let retries = retry_counts
            .get(spec.index)
            .map_or(0, |c| c.load(Ordering::Relaxed));
        if retries > 0 {
            seg.push_str(&format!(" r{retries}"));
        }
        segments.push(format!("[{seg}]"));
    }
    let mut line = format!(
        "fleet: {} | {}/{} pts",
        segments.join(" "),
        fleet.done,
        fleet.total
    );
    if fleet.rate_pts_per_sec > 0.0 {
        line.push_str(&format!(", {:.2} pts/s", fleet.rate_pts_per_sec));
    }
    if let Some(eta) = fleet.eta_secs {
        line.push_str(&format!(", eta {}", format_eta(eta)));
    }
    if fleet.retries > 0 {
        line.push_str(&format!(
            ", {} retr{}",
            fleet.retries,
            if fleet.retries == 1 { "y" } else { "ies" }
        ));
    }
    line
}

/// Background thread behind the supervisor's fleet view: every ~2 s it
/// absorbs the children's heartbeats into an aggregate written at the
/// base status path and prints a `fleet:` line (once at least one child
/// has reported — silence instead of a wall of `starting` brackets).
/// Dropping it stops and joins the thread; the supervisor then writes
/// the final `done`/`failed` aggregate itself so the monitor can never
/// overwrite the terminal state.
struct FleetMonitor {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl FleetMonitor {
    fn spawn(
        status_base: Option<PathBuf>,
        specs: &[ShardSpec],
        retry_counts: &Arc<Vec<AtomicU64>>,
        staleness: Duration,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let Some(base) = status_base else {
            return Self { stop, handle: None };
        };
        let thread_stop = Arc::clone(&stop);
        let specs = specs.to_vec();
        let retry_counts = Arc::clone(retry_counts);
        let handle = std::thread::spawn(move || {
            loop {
                // Check before the read-render pass so that after stop is
                // raised we render exactly once more: the children have
                // exited and written their final heartbeats by then, so a
                // fleet too fast for the 2 s cadence still gets one line.
                let stopping = thread_stop.load(Ordering::Relaxed);
                let (fleet, children) = fleet_snapshot(&base, &specs, &retry_counts);
                let _ = write_heartbeat(&base, &fleet);
                if children.iter().any(Option::is_some) {
                    eprintln!(
                        "{}",
                        fleet_line(&specs, &children, &retry_counts, &fleet, staleness)
                    );
                }
                if stopping {
                    break;
                }
                // Sleep in short slices so shutdown stays prompt.
                for _ in 0..8 {
                    if thread_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(250));
                }
            }
        });
        Self {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for FleetMonitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Writes the supervisor's terminal heartbeat (`done` or `failed`): the
/// absorbed children with the final retry totals, ETA cleared. On
/// success with `--metrics`, also renders the fleet's merged registry
/// snapshot as Prometheus exposition at the base metrics path.
fn finalize_fleet(
    opts: &SweepOptions,
    specs: &[ShardSpec],
    retry_counts: &[AtomicU64],
    phase: &str,
) {
    let Some(status) = &opts.status else { return };
    let (mut fleet, _) = fleet_snapshot(status, specs, retry_counts);
    fleet.phase = phase.to_string();
    fleet.eta_secs = None;
    let _ = write_heartbeat(status, &fleet);
    if phase == "done" {
        if let Some(prom) = &opts.prometheus {
            let _ = write_prometheus(prom, &fleet.metrics.clone().unwrap_or_default());
        }
    }
}

/// Why a shard merge could not produce the full grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// A shard checkpoint file could not be read.
    Io {
        /// The unreadable file.
        path: PathBuf,
        /// The OS error text.
        message: String,
    },
    /// The shard checkpoints do not cover the grid exactly.
    Incomplete {
        /// Grid labels with no entry in any shard checkpoint.
        missing: Vec<String>,
        /// Grid labels whose entries carry a stale fingerprint (the
        /// design point changed since the shard ran).
        stale: Vec<String>,
    },
}

fn preview(labels: &[String]) -> String {
    const SHOW: usize = 5;
    let mut s = labels
        .iter()
        .take(SHOW)
        .map(String::as_str)
        .collect::<Vec<_>>()
        .join(", ");
    if labels.len() > SHOW {
        s.push_str(&format!(", … {} more", labels.len() - SHOW));
    }
    s
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, message } => {
                write!(
                    f,
                    "cannot read shard checkpoint {}: {message}",
                    path.display()
                )
            }
            Self::Incomplete { missing, stale } => {
                write!(f, "shard checkpoints do not cover the grid:")?;
                if !missing.is_empty() {
                    write!(
                        f,
                        " {} point(s) missing ({})",
                        missing.len(),
                        preview(missing)
                    )?;
                }
                if !stale.is_empty() {
                    write!(f, " {} point(s) stale ({})", stale.len(), preview(stale))?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// The product of a successful shard merge: one entry per expected grid
/// point in submission order, and the per-shard quarantine tallies from
/// loading the checkpoint files.
#[derive(Debug)]
pub struct MergedGrid<T> {
    /// One entry per grid point, in submission order.
    pub lines: Vec<CheckpointEntry<T>>,
    /// For each shard checkpoint loaded (in the order given), how many
    /// damaged lines were quarantined to its `.bad` sidecar.
    pub quarantined: Vec<(PathBuf, usize)>,
}

impl<T> MergedGrid<T> {
    /// Total damaged lines quarantined across all shard files.
    pub fn total_quarantined(&self) -> usize {
        self.quarantined.iter().map(|(_, n)| n).sum()
    }
}

/// Loads shard checkpoint files and stitches one line per expected
/// `(label, fingerprint)` pair, in the order given — grid submission
/// order — regardless of which shard ran which point or in what order
/// points completed. Damaged lines are quarantined to each file's
/// `.bad` sidecar while loading (see [`Checkpoint::load_quarantining`])
/// and tallied per shard in the result. Validation is exact: a grid
/// point with no entry is reported missing, and one whose entry's
/// fingerprint no longer matches is reported stale (either means the
/// shards must run again before the merge can succeed).
///
/// # Errors
///
/// Returns [`MergeError::Io`] for an unreadable shard file (a missing
/// file reads as empty, surfacing as missing points instead) and
/// [`MergeError::Incomplete`] listing every missing or stale label.
pub fn merge_shards<T: FromJson>(
    expected: &[(String, u64)],
    paths: &[PathBuf],
) -> Result<MergedGrid<T>, MergeError> {
    let mut combined = Checkpoint::<T>::default();
    let mut quarantined = Vec::with_capacity(paths.len());
    for path in paths {
        let (loaded, quarantine) =
            Checkpoint::load_quarantining(path).map_err(|e| MergeError::Io {
                path: path.clone(),
                message: e.to_string(),
            })?;
        quarantined.push((path.clone(), quarantine.lines));
        combined.absorb(loaded);
    }
    let mut lines = Vec::with_capacity(expected.len());
    let mut missing = Vec::new();
    let mut stale = Vec::new();
    for (label, fingerprint) in expected {
        if let Some(entry) = combined.take(label, *fingerprint) {
            lines.push(entry);
        } else if combined.entries().iter().any(|e| &e.label == label) {
            stale.push(label.clone());
        } else {
            missing.push(label.clone());
        }
    }
    if !missing.is_empty() || !stale.is_empty() {
        return Err(MergeError::Incomplete { missing, stale });
    }
    Ok(MergedGrid { lines, quarantined })
}

/// Writes merged lines to `path` as a fresh checkpoint file — the
/// supervisor's final step, leaving the base `--json` path holding the
/// same submission-ordered lines a single-process serial run would have
/// produced (modulo each point's recorded wall-clock).
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_entries<T: ToJson>(path: &Path, entries: &[CheckpointEntry<T>]) -> io::Result<()> {
    let writer = CheckpointWriter::create(path)?;
    for entry in entries {
        writer.append(entry)?;
    }
    Ok(())
}

/// Converts a merged checkpoint entry into the sweep result shape the
/// figure binaries consume (`cached: true` — the point was simulated in
/// a worker process, not here).
pub fn entry_result<T>(entry: CheckpointEntry<T>) -> SweepResult<T> {
    SweepResult {
        label: entry.label,
        outcome: Ok(entry.payload),
        wall: entry.wall,
        cached: true,
    }
}

/// How a sweep binary runs its grid: in this process, as one shard
/// worker, as the supervisor of a worker fleet, or by stitching existing
/// shard checkpoints. The worker and supervisor modes need the sweep's
/// `--json` base path to locate shard checkpoints; the command-line
/// parser rejects them without one.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum ShardMode {
    /// No sharding flag: a plain (possibly checkpointed) in-process sweep.
    #[default]
    Local,
    /// `--shard i/N`: run only that strided slice of the grid.
    Worker(ShardSpec),
    /// `--shards N`: supervise N worker processes of this binary.
    Supervise(usize),
    /// `--merge <file>…`: stitch existing shard checkpoints; no
    /// simulation.
    Merge(Vec<PathBuf>),
}

/// Why a sharded sweep failed.
#[derive(Debug)]
pub enum ShardError {
    /// The supervisor gave up on a shard.
    Supervisor(SupervisorError),
    /// The shard checkpoints could not be stitched into the full grid.
    Merge(MergeError),
    /// A filesystem operation on a checkpoint path failed.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The OS error text.
        message: String,
    },
    /// This shard worker finished, but some of its points failed
    /// (simulation error or panic); they were not persisted, so a retry
    /// or resume will re-run exactly them.
    PointsFailed {
        /// The shard that ran.
        spec: ShardSpec,
        /// Labels of the failed points.
        labels: Vec<String>,
    },
    /// Post-flight verification failed: points this worker completed are
    /// missing from (or damaged in) its own checkpoint file — a torn
    /// write or an injected I/O fault swallowed them. Exiting non-zero
    /// lets a supervisor retry resume, quarantine any damaged lines, and
    /// re-run exactly these points.
    Unpersisted {
        /// The shard that ran.
        spec: ShardSpec,
        /// Labels of the unpersisted points.
        labels: Vec<String>,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Supervisor(e) => write!(f, "{e}"),
            Self::Merge(e) => write!(f, "{e}"),
            Self::Io { path, message } => write!(f, "{}: {message}", path.display()),
            Self::PointsFailed { spec, labels } => write!(
                f,
                "shard {spec}: {} point(s) failed ({}); they were not persisted and will re-run on resume",
                labels.len(),
                preview(labels)
            ),
            Self::Unpersisted { spec, labels } => write!(
                f,
                "shard {spec}: {} completed point(s) missing or damaged in its checkpoint ({}); \
                 a resume will quarantine any damaged lines and re-run exactly them",
                labels.len(),
                preview(labels)
            ),
        }
    }
}

impl std::error::Error for ShardError {}

fn expected_of<I>(items: &[(String, u64, I)]) -> Vec<(String, u64)> {
    items
        .iter()
        .map(|(label, fingerprint, _)| (label.clone(), *fingerprint))
        .collect()
}

/// Runs `items` under `mode`:
///
/// * **merge** — stitch the named shard checkpoints into full-grid
///   results; nothing is simulated. Returns `Some(results)`.
/// * **worker** — run only this worker's strided slice, checkpointing to
///   the [`shard_path`] derived from `opts.checkpoint`. Returns `None`
///   (a worker has nothing to render); failed points surface as
///   [`ShardError::PointsFailed`] so the process exits non-zero and a
///   supervisor retry re-runs them.
/// * **supervise** — spawn one `make_child(spec)` process per shard,
///   retry crashed shards from their checkpoints, merge the shard files,
///   and write the stitched entries back to the base path (leaving it
///   exactly as a single-process run would have, modulo wall-clock).
///   Returns `Some(results)`.
/// * **local** — a plain (possibly checkpointed) in-process sweep.
///   Returns `Some(results)`.
///
/// # Errors
///
/// Returns [`ShardError`] when the supervisor exhausts a shard's
/// retries, the merge finds missing or stale points, or shard
/// bookkeeping I/O fails.
///
/// # Panics
///
/// Panics if the worker or supervise mode runs without
/// `opts.checkpoint` (the command-line parser rejects that mode without
/// `--json`).
pub fn run_sharded<I, T, F, C>(
    items: Vec<(String, u64, I)>,
    mode: &ShardMode,
    opts: SweepOptions,
    make_child: C,
    f: F,
) -> Result<Option<Vec<SweepResult<T>>>, ShardError>
where
    I: Send,
    T: ToJson + FromJson + Send,
    F: Fn(I) -> Result<T, AccelError> + Sync,
    C: Fn(ShardSpec) -> Command + Sync,
{
    let checkpoint_base = || {
        opts.checkpoint
            .clone()
            .expect("sharded sweep modes need a checkpoint base path")
    };
    if let ShardMode::Merge(paths) = mode {
        let expected = expected_of(&items);
        let merged = merge_shards::<T>(&expected, paths).map_err(ShardError::Merge)?;
        for (path, count) in &merged.quarantined {
            if *count > 0 {
                eprintln!(
                    "merge: quarantined {count} damaged line(s) from {} (kept in its .bad sidecar)",
                    path.display()
                );
            }
        }
        eprintln!(
            "merge: stitched {} point(s) from {} shard checkpoint(s)",
            merged.lines.len(),
            paths.len()
        );
        return Ok(Some(merged.lines.into_iter().map(entry_result).collect()));
    }

    if let &ShardMode::Worker(spec) = mode {
        let base = checkpoint_base();
        // A fleet-wide fault schedule scoped with GEMMINI_FAULTS_SHARD
        // arms in exactly one worker; everyone else disarms here.
        crate::fault::scope_to_shard(Some(spec.index));
        let grid_total = items.len();
        let slice = shard_items(items, spec);
        let slice_len = slice.len();
        let slice_expected = expected_of(&slice);
        let shard_file = shard_path(&base, spec);
        // Telemetry files shard alongside the checkpoint: the supervisor
        // reads each child's heartbeat at the shard path of the base
        // status path, and per-shard Prometheus files never collide.
        let run_opts = SweepOptions {
            checkpoint: Some(shard_file.clone()),
            status: opts.status.as_ref().map(|p| shard_path(p, spec)),
            prometheus: opts.prometheus.as_ref().map(|p| shard_path(p, spec)),
            ..opts
        };
        let failed: Vec<String> = sweep_map(slice, run_opts, f)
            .into_iter()
            .filter(|result| result.outcome.is_err())
            .map(|result| result.label)
            .collect();
        eprintln!(
            "shard {spec}: {}/{slice_len} point(s) complete (slice of grid {grid_total}) -> {}",
            slice_len - failed.len(),
            shard_file.display()
        );
        if !failed.is_empty() {
            return Err(ShardError::PointsFailed {
                spec,
                labels: failed,
            });
        }
        // Post-flight verification: re-load our own checkpoint and
        // require every slice point to be covered by a decodable line.
        // A line damaged on the way to disk (torn write, injected I/O
        // fault) surfaces here as missing; exiting non-zero lets the
        // supervisor retry resume, quarantine the damage, and re-run
        // exactly the affected points.
        let written = Checkpoint::<T>::load(&shard_file).map_err(|e| ShardError::Io {
            path: shard_file.clone(),
            message: e.to_string(),
        })?;
        let unpersisted: Vec<String> = slice_expected
            .iter()
            .filter(|(label, fingerprint)| written.lookup(label, *fingerprint).is_none())
            .map(|(label, _)| label.clone())
            .collect();
        if !unpersisted.is_empty() {
            return Err(ShardError::Unpersisted {
                spec,
                labels: unpersisted,
            });
        }
        return Ok(None);
    }

    if let &ShardMode::Supervise(count) = mode {
        let base = checkpoint_base();
        // The supervisor never takes faults itself when the schedule is
        // scoped to a worker (whenever GEMMINI_FAULTS_SHARD is set);
        // children inherit the environment and make their own scoping
        // decision.
        crate::fault::scope_to_shard(None);
        let specs: Vec<ShardSpec> = (0..count).map(|index| ShardSpec { index, count }).collect();
        if !opts.resume {
            // A fresh supervised sweep must not resurrect earlier shard
            // runs; workers are always spawned with --resume so that
            // crash *retries* pick up mid-shard. Quarantine sidecars from
            // earlier fleets go too, so `.bad` files always describe the
            // current run.
            for spec in &specs {
                let path = shard_path(&base, *spec);
                let sidecar = sidecar_path(&path);
                if let Err(e) = std::fs::remove_file(&path) {
                    if e.kind() != io::ErrorKind::NotFound {
                        return Err(ShardError::Io {
                            path,
                            message: e.to_string(),
                        });
                    }
                }
                let _ = std::fs::remove_file(sidecar);
            }
        }
        // Stale heartbeats from an earlier fleet (possibly with a
        // different shard count) must not leak into this fleet's view.
        if let Some(status) = &opts.status {
            for spec in &specs {
                let _ = std::fs::remove_file(shard_path(status, *spec));
            }
        }
        let retry_counts: Arc<Vec<AtomicU64>> =
            Arc::new((0..count).map(|_| AtomicU64::new(0)).collect());
        let staleness = opts.watchdog.unwrap_or(DEFAULT_STALENESS);
        let monitor = FleetMonitor::spawn(opts.status.clone(), &specs, &retry_counts, staleness);
        let sup_opts = SupervisorOptions {
            retry_counts: Some(Arc::clone(&retry_counts)),
            watchdog: opts.watchdog,
            status_base: opts.status.clone(),
            ..SupervisorOptions::default()
        };
        let supervision = supervise(count, make_child, &sup_opts);
        drop(monitor);
        let total_retries: u64 = retry_counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        opts.metrics.add(Counter::ShardRetries, total_retries);
        let outcomes = match supervision {
            Ok(outcomes) => outcomes,
            Err(e) => {
                finalize_fleet(&opts, &specs, &retry_counts, "failed");
                return Err(ShardError::Supervisor(e));
            }
        };
        let retried = outcomes.iter().filter(|o| o.attempts > 1).count();
        let expected = expected_of(&items);
        let shard_files: Vec<PathBuf> = specs.iter().map(|s| shard_path(&base, *s)).collect();
        let merged = match merge_shards::<T>(&expected, &shard_files) {
            Ok(merged) => merged,
            Err(e) => {
                finalize_fleet(&opts, &specs, &retry_counts, "failed");
                return Err(ShardError::Merge(e));
            }
        };
        for (path, quarantined) in &merged.quarantined {
            if *quarantined > 0 {
                eprintln!(
                    "supervisor: quarantined {quarantined} damaged line(s) from {} \
                     (kept in its .bad sidecar)",
                    path.display()
                );
            }
        }
        write_entries(&base, &merged.lines).map_err(|e| ShardError::Io {
            path: base.clone(),
            message: e.to_string(),
        })?;
        finalize_fleet(&opts, &specs, &retry_counts, "done");
        if opts.status.is_none() {
            if let (Some(prom), Some(snapshot)) = (&opts.prometheus, opts.metrics.snapshot()) {
                // Without heartbeats there is no fleet snapshot to merge;
                // expose at least the supervisor's own registry.
                let _ = write_prometheus(prom, &snapshot);
            }
        }
        eprintln!(
            "supervisor: {count} shard(s) complete ({retried} retried); \
             merged {} point(s) into {}",
            merged.lines.len(),
            base.display()
        );
        return Ok(Some(merged.lines.into_iter().map(entry_result).collect()));
    }

    Ok(Some(sweep_map(items, opts, f)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gemmini_shard_{}_{name}", std::process::id()))
    }

    #[test]
    fn spec_parsing_and_validation() {
        assert_eq!(
            ShardSpec::parse("0/4").unwrap(),
            ShardSpec { index: 0, count: 4 }
        );
        assert_eq!(ShardSpec::parse("3/4").unwrap().to_string(), "3/4");
        assert!(ShardSpec::parse("4/4").is_err(), "index out of range");
        assert!(ShardSpec::parse("0/0").is_err(), "zero count");
        assert!(ShardSpec::parse("1").is_err());
        assert!(ShardSpec::parse("a/b").is_err());
    }

    #[test]
    fn strided_slices_partition_the_grid() {
        let items: Vec<usize> = (0..10).collect();
        let s0 = shard_items(items.clone(), ShardSpec { index: 0, count: 3 });
        let s1 = shard_items(items.clone(), ShardSpec { index: 1, count: 3 });
        let s2 = shard_items(items.clone(), ShardSpec { index: 2, count: 3 });
        assert_eq!(s0, vec![0, 3, 6, 9]);
        assert_eq!(s1, vec![1, 4, 7]);
        assert_eq!(s2, vec![2, 5, 8]);
        // Exact partition: every item lands in exactly one shard.
        let mut all: Vec<usize> = s0.into_iter().chain(s1).chain(s2).collect();
        all.sort_unstable();
        assert_eq!(all, items);
    }

    #[test]
    fn shard_paths_embed_the_spec() {
        let spec = ShardSpec { index: 1, count: 4 };
        assert_eq!(
            shard_path(Path::new("/tmp/sweep.jsonl"), spec),
            Path::new("/tmp/sweep.shard1of4.jsonl")
        );
        assert_eq!(
            shard_path(Path::new("results"), spec),
            Path::new("results.shard1of4")
        );
    }

    #[test]
    fn merge_reports_missing_and_stale_points() {
        use crate::checkpoint::CheckpointWriter;
        let path = temp_path("merge_validation.jsonl");
        let writer = CheckpointWriter::create(&path).unwrap();
        for entry in [
            CheckpointEntry {
                label: "a".into(),
                fingerprint: 1,
                wall: Duration::ZERO,
                payload: 10u64,
            },
            CheckpointEntry {
                label: "b".into(),
                fingerprint: 99,
                wall: Duration::ZERO,
                payload: 20u64,
            },
        ] {
            writer.append(&entry).unwrap();
        }
        drop(writer);

        let expected = vec![
            ("a".to_string(), 1u64),
            ("b".to_string(), 2u64), // on disk with fingerprint 99: stale
            ("c".to_string(), 3u64), // nowhere: missing
        ];
        match merge_shards::<u64>(&expected, std::slice::from_ref(&path)) {
            Err(MergeError::Incomplete { missing, stale }) => {
                assert_eq!(missing, vec!["c".to_string()]);
                assert_eq!(stale, vec!["b".to_string()]);
            }
            other => panic!("expected incomplete merge, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn merge_stitches_submission_order_across_shards() {
        use crate::checkpoint::CheckpointWriter;
        let p0 = temp_path("merge_s0.jsonl");
        let p1 = temp_path("merge_s1.jsonl");
        // Shard files hold interleaved halves, each in its own order.
        let w0 = CheckpointWriter::create(&p0).unwrap();
        let w1 = CheckpointWriter::create(&p1).unwrap();
        for i in (0..8).rev() {
            let entry = CheckpointEntry {
                label: format!("p{i}"),
                fingerprint: i,
                wall: Duration::from_micros(i),
                payload: i * 100,
            };
            if i % 2 == 0 {
                w0.append(&entry).unwrap();
            } else {
                w1.append(&entry).unwrap();
            }
        }
        drop((w0, w1));

        let expected: Vec<(String, u64)> = (0..8).map(|i| (format!("p{i}"), i)).collect();
        let merged = merge_shards::<u64>(&expected, &[p0.clone(), p1.clone()]).unwrap();
        assert_eq!(merged.total_quarantined(), 0);
        let entries = merged.lines;
        let labels: Vec<&str> = entries.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, vec!["p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"]);
        assert!(entries
            .iter()
            .enumerate()
            .all(|(i, e)| e.payload == i as u64 * 100));
        std::fs::remove_file(&p0).unwrap();
        std::fs::remove_file(&p1).unwrap();
    }

    #[test]
    fn merge_quarantines_damage_exactly_once() {
        use crate::checkpoint::CheckpointWriter;
        let path = temp_path("merge_quarantine.jsonl");
        let _ = std::fs::remove_file(sidecar_path(&path));
        let writer = CheckpointWriter::create(&path).unwrap();
        for (label, fingerprint, payload) in [("a", 1, 10u64), ("b", 2, 20)] {
            writer
                .append(&CheckpointEntry {
                    label: label.to_string(),
                    fingerprint,
                    wall: Duration::ZERO,
                    payload,
                })
                .unwrap();
        }
        drop(writer);
        // Damage the file the way a torn write would: a truncated line.
        {
            use std::io::Write as _;
            let mut fh = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            writeln!(fh, "{{\"version\":2,\"label\":\"torn").unwrap();
        }

        let expected = vec![("a".to_string(), 1u64), ("b".to_string(), 2u64)];
        let merged = merge_shards::<u64>(&expected, std::slice::from_ref(&path)).unwrap();
        assert_eq!(merged.total_quarantined(), 1);
        assert_eq!(merged.quarantined[0].1, 1);
        assert_eq!(merged.lines[1].payload, 20);

        // A second merge finds a clean file: the damage was quarantined
        // exactly once.
        let again = merge_shards::<u64>(&expected, std::slice::from_ref(&path)).unwrap();
        assert_eq!(again.total_quarantined(), 0);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(sidecar_path(&path)).unwrap();
    }

    #[test]
    fn supervisor_retries_a_crashed_shard() {
        let marker = temp_path("retry_marker");
        let _ = std::fs::remove_file(&marker);
        let retry_counts: Arc<Vec<AtomicU64>> =
            Arc::new((0..2).map(|_| AtomicU64::new(0)).collect());
        let opts = SupervisorOptions {
            max_attempts: 3,
            backoff: Duration::from_millis(1),
            retry_counts: Some(Arc::clone(&retry_counts)),
            ..SupervisorOptions::default()
        };
        let marker_str = marker.display().to_string();
        let outcomes = supervise(
            2,
            |spec| {
                let mut cmd = Command::new("sh");
                if spec.index == 0 {
                    // First attempt "crashes" (and leaves a marker, the
                    // way a real shard leaves its checkpoint); the retry
                    // finds the marker and completes.
                    cmd.arg("-c").arg(format!(
                        "if [ -e '{marker_str}' ]; then echo resumed; else touch '{marker_str}'; echo 'dying' >&2; exit 42; fi"
                    ));
                } else {
                    cmd.arg("-c").arg("echo ok");
                }
                cmd
            },
            &opts,
        )
        .expect("supervision recovers the crashed shard");
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].attempts, 2, "shard 0 needed one retry");
        assert_eq!(outcomes[1].attempts, 1);
        assert_eq!(retry_counts[0].load(Ordering::Relaxed), 1);
        assert_eq!(retry_counts[1].load(Ordering::Relaxed), 0);
        let _ = std::fs::remove_file(&marker);
    }

    #[test]
    fn supervisor_exhaustion_counts_every_retry() {
        let retry_counts: Arc<Vec<AtomicU64>> = Arc::new(vec![AtomicU64::new(0)]);
        let opts = SupervisorOptions {
            max_attempts: 3,
            backoff: Duration::from_millis(1),
            retry_counts: Some(Arc::clone(&retry_counts)),
            ..SupervisorOptions::default()
        };
        let err = supervise(
            1,
            |_| {
                let mut cmd = Command::new("sh");
                cmd.arg("-c").arg("exit 9");
                cmd
            },
            &opts,
        )
        .expect_err("always-crashing shard exhausts");
        assert!(matches!(
            err,
            SupervisorError::Exhausted { attempts: 3, .. }
        ));
        // The final crash exhausts rather than retries: 2 retries, not 3.
        assert_eq!(retry_counts[0].load(Ordering::Relaxed), 2);
    }

    #[test]
    fn fleet_snapshot_absorbs_child_heartbeats() {
        let base = temp_path("fleet_status.json");
        let specs = [
            ShardSpec { index: 0, count: 2 },
            ShardSpec { index: 1, count: 2 },
        ];
        // Only shard 1 has reported so far.
        let mut child = Heartbeat::starting(16);
        child.done = 6;
        child.cached = 2;
        child.rate_pts_per_sec = 1.5;
        child.eta_secs = Some(40.0);
        child.point_wall.record(2_000);
        write_heartbeat(&shard_path(&base, specs[1]), &child).unwrap();
        let retry_counts = [AtomicU64::new(1), AtomicU64::new(0)];

        let (fleet, children) = fleet_snapshot(&base, &specs, &retry_counts);
        assert!(children[0].is_none(), "shard 0 has not started");
        assert_eq!(children[1].as_ref().unwrap().0.done, 6);
        assert!(
            children[1].as_ref().unwrap().1.is_some(),
            "a freshly written heartbeat has an age"
        );
        assert_eq!(fleet.done, 6);
        assert_eq!(fleet.total, 16);
        assert_eq!(fleet.cached, 2);
        assert_eq!(fleet.retries, 1, "supervisor retries stamp the aggregate");
        assert_eq!(fleet.point_wall.count, 1);

        let line = fleet_line(&specs, &children, &retry_counts, &fleet, DEFAULT_STALENESS);
        assert!(line.starts_with("fleet: "), "line: {line}");
        assert!(line.contains("[0 starting r1]"), "line: {line}");
        assert!(line.contains("[1 run 6/16"), "line: {line}");
        assert!(line.contains("6/16 pts"), "line: {line}");
        assert!(line.contains("1 retry"), "line: {line}");
        std::fs::remove_file(shard_path(&base, specs[1])).unwrap();
    }

    #[test]
    fn fleet_line_marks_dead_workers_stale() {
        let specs = [
            ShardSpec { index: 0, count: 2 },
            ShardSpec { index: 1, count: 2 },
        ];
        let mut dead = Heartbeat::starting(8);
        dead.phase = "run".to_string();
        dead.done = 3;
        dead.rate_pts_per_sec = 2.0;
        dead.eta_secs = Some(10.0);
        let mut live = Heartbeat::starting(8);
        live.phase = "run".to_string();
        live.done = 5;
        live.rate_pts_per_sec = 2.0;
        // Shard 0's heartbeat file is two minutes old — its writer is
        // gone; shard 1's was just rewritten.
        let children = vec![
            Some((dead.clone(), Some(Duration::from_secs(120)))),
            Some((live.clone(), Some(Duration::from_secs(1)))),
        ];
        let mut fleet = Heartbeat::starting(0);
        fleet.absorb(&dead);
        fleet.absorb(&live);
        let retry_counts = [AtomicU64::new(0), AtomicU64::new(0)];
        let line = fleet_line(&specs, &children, &retry_counts, &fleet, DEFAULT_STALENESS);
        assert!(line.contains("[0 stale 3/8]"), "line: {line}");
        assert!(
            !line.contains("eta") || !line.contains("[0 stale 3/8 "),
            "a stale shard's frozen rate and ETA must be suppressed: {line}"
        );
        assert!(line.contains("[1 run 5/8 2.00pts/s"), "line: {line}");
        // A terminal phase never reads as stale, however old the file.
        let mut done = dead.clone();
        done.phase = "done".to_string();
        let children = vec![
            Some((done, Some(Duration::from_secs(3600)))),
            Some((live, Some(Duration::from_secs(1)))),
        ];
        let line = fleet_line(&specs, &children, &retry_counts, &fleet, DEFAULT_STALENESS);
        assert!(line.contains("[0 done 3/8]"), "line: {line}");
    }

    #[test]
    fn watchdog_kills_and_retries_a_hung_shard() {
        let marker = temp_path("hang_marker");
        let _ = std::fs::remove_file(&marker);
        let status_base = temp_path("hang_status.json");
        let opts = SupervisorOptions {
            max_attempts: 2,
            backoff: Duration::from_millis(1),
            watchdog: Some(Duration::from_millis(400)),
            status_base: Some(status_base),
            ..SupervisorOptions::default()
        };
        let marker_str = marker.display().to_string();
        let outcomes = supervise(
            1,
            |_| {
                // First attempt wedges (no heartbeat ever advances);
                // the watchdog kills it and the retry completes.
                let mut cmd = Command::new("sh");
                cmd.arg("-c").arg(format!(
                    "if [ -e '{marker_str}' ]; then echo resumed; \
                     else touch '{marker_str}'; sleep 30; fi"
                ));
                cmd
            },
            &opts,
        )
        .expect("watchdog recovers the hung shard");
        assert_eq!(outcomes[0].attempts, 2, "one watchdog kill, one retry");
        let _ = std::fs::remove_file(&marker);
    }

    #[test]
    fn supervisor_reports_exhaustion_with_last_status() {
        let opts = SupervisorOptions {
            max_attempts: 2,
            backoff: Duration::from_millis(1),
            ..SupervisorOptions::default()
        };
        let err = supervise(
            1,
            |_| {
                let mut cmd = Command::new("sh");
                cmd.arg("-c").arg("exit 7");
                cmd
            },
            &opts,
        )
        .expect_err("a shard that always crashes must exhaust");
        match err {
            SupervisorError::Exhausted {
                spec,
                attempts,
                last_status,
            } => {
                assert_eq!(spec, ShardSpec { index: 0, count: 1 });
                assert_eq!(attempts, 2);
                assert!(last_status.contains('7'), "status: {last_status}");
            }
            other => panic!("expected exhaustion, got {other}"),
        }
    }

    #[test]
    fn backoff_is_bounded() {
        let base = Duration::from_millis(250);
        for shard in 0..8 {
            // Exponential floor, at most +50% jitter, 10 s hard cap.
            assert!(backoff_delay(base, 1, shard) >= Duration::from_millis(250));
            assert!(backoff_delay(base, 1, shard) <= Duration::from_millis(375));
            assert!(backoff_delay(base, 2, shard) >= Duration::from_millis(500));
            assert!(backoff_delay(base, 2, shard) <= Duration::from_millis(750));
            assert!(backoff_delay(base, 3, shard) >= Duration::from_secs(1));
            assert!(backoff_delay(base, 3, shard) <= Duration::from_millis(1500));
            assert!(backoff_delay(base, 64, shard) <= Duration::from_secs(10));
        }
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_per_shard() {
        let base = Duration::from_millis(250);
        // Same (shard, attempt) → exactly the same delay, every time.
        for shard in 0..8 {
            for attempt in 1..6 {
                assert_eq!(
                    backoff_delay(base, attempt, shard),
                    backoff_delay(base, attempt, shard)
                );
            }
        }
        // Different shards desynchronise: for the same attempt, the 8
        // delays are not all identical (the whole point of the jitter).
        let delays: std::collections::HashSet<Duration> =
            (0..8).map(|shard| backoff_delay(base, 2, shard)).collect();
        assert!(delays.len() > 1, "jitter must separate shard delays");
        // The fraction itself is well-formed for a broad range of seeds.
        for shard in 0..64 {
            for attempt in 1..8 {
                let f = jitter_fraction(shard, attempt);
                assert!((0.0..1.0).contains(&f), "fraction {f} out of range");
            }
        }
    }
}
