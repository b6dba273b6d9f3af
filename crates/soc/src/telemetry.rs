//! Sweep heartbeats and metric exposition files.
//!
//! A long sharded sweep is a black box without live output. This module
//! gives every sweep process two export surfaces, both plain files so
//! they work on any machine with no server and no new dependencies:
//!
//! * a **heartbeat**: one JSON document ([`Heartbeat`]) rewritten
//!   atomically (temp file + rename, the checkpoint-compaction helper) on
//!   every point completion and every ~2 s, carrying phase, progress
//!   counts, throughput, a p50-derived ETA, the per-point wall-clock
//!   histogram and — when live metrics are enabled — a full
//!   [`MetricsSnapshot`]. `watch cat sweep.status.json` is the intended
//!   consumer; the `--shards` supervisor reads its children's heartbeats
//!   to render the fleet view.
//! * a **Prometheus text exposition** ([`write_prometheus`]): the
//!   registry snapshot rendered in exposition format 0.0.4 for scraping
//!   or offline inspection.
//!
//! Readers must tolerate a heartbeat that does not exist yet (the child
//! has not started) — [`read_heartbeat`] returns `None` rather than an
//! error for a missing or torn file, which the atomic rename makes
//! impossible to observe on POSIX anyway.

use crate::checkpoint::replace_atomically;
use gemmini_core::metrics::{prometheus_text, Log2Histogram, MetricsSnapshot};
use gemmini_mem::json::{FromJson, Json, JsonError, ToJson};
use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// Schema version of the heartbeat document; bump on breaking change
/// (version 2 dropped the `pruned` count).
pub const HEARTBEAT_VERSION: u32 = 2;

/// One live-status snapshot of a sweep process (or of a whole fleet,
/// when written by the shard supervisor with merged children).
#[derive(Debug, Clone, PartialEq)]
pub struct Heartbeat {
    /// Schema version ([`HEARTBEAT_VERSION`]).
    pub version: u32,
    /// What the process is doing: `run`, `done`, or `failed`.
    pub phase: String,
    /// Points finished (simulated + cached + failed).
    pub done: usize,
    /// Total points in this process's slice of the grid.
    pub total: usize,
    /// Of `done`, how many were served from a checkpoint.
    pub cached: usize,
    /// Of `done`, how many failed (error or panic).
    pub failed: usize,
    /// Seconds since this sweep started.
    pub elapsed_secs: f64,
    /// Fresh simulations per second of elapsed time.
    pub rate_pts_per_sec: f64,
    /// Estimated seconds to completion (p50-based, clamped); `None`
    /// until at least one point has been simulated, and when done.
    pub eta_secs: Option<f64>,
    /// Shard-child retries (only the supervisor increments this).
    pub retries: u64,
    /// Wall-clock microseconds per simulated point.
    pub point_wall: Log2Histogram,
    /// Full live-metrics snapshot, when a registry is enabled.
    pub metrics: Option<MetricsSnapshot>,
}

impl Heartbeat {
    /// An empty heartbeat in phase `run` over a `total`-point slice.
    pub fn starting(total: usize) -> Self {
        Self {
            version: HEARTBEAT_VERSION,
            phase: "run".to_string(),
            done: 0,
            total,
            cached: 0,
            failed: 0,
            elapsed_secs: 0.0,
            rate_pts_per_sec: 0.0,
            eta_secs: None,
            retries: 0,
            point_wall: Log2Histogram::new(),
            metrics: None,
        }
    }

    /// Folds another process's heartbeat into this one: counts add,
    /// histograms merge, elapsed takes the max (the fleet is as old as
    /// its oldest member), rates add (aggregate throughput), ETA takes
    /// the max (the fleet finishes with its slowest shard), and metric
    /// snapshots merge exactly.
    pub fn absorb(&mut self, other: &Heartbeat) {
        self.done += other.done;
        self.total += other.total;
        self.cached += other.cached;
        self.failed += other.failed;
        self.elapsed_secs = self.elapsed_secs.max(other.elapsed_secs);
        self.rate_pts_per_sec += other.rate_pts_per_sec;
        self.eta_secs = match (self.eta_secs, other.eta_secs) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.retries += other.retries;
        self.point_wall.merge(&other.point_wall);
        match (&mut self.metrics, &other.metrics) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (mine @ None, Some(theirs)) => *mine = Some(theirs.clone()),
            _ => {}
        }
    }
}

impl ToJson for Heartbeat {
    fn to_json(&self) -> Json {
        Json::obj([
            ("version", Json::from(u64::from(self.version))),
            ("phase", Json::from(self.phase.clone())),
            ("done", Json::from(self.done)),
            ("total", Json::from(self.total)),
            ("cached", Json::from(self.cached)),
            ("failed", Json::from(self.failed)),
            ("elapsed_secs", Json::from(self.elapsed_secs)),
            ("rate_pts_per_sec", Json::from(self.rate_pts_per_sec)),
            (
                "eta_secs",
                match self.eta_secs {
                    Some(s) => Json::from(s),
                    None => Json::Null,
                },
            ),
            ("retries", Json::from(self.retries)),
            ("point_wall", self.point_wall.to_json()),
            (
                "metrics",
                match &self.metrics {
                    Some(snap) => snap.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }
}

impl FromJson for Heartbeat {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let eta_secs = match value.field("eta_secs")? {
            Json::Null => None,
            v => Some(v.as_f64()?),
        };
        let metrics = match value.field("metrics")? {
            Json::Null => None,
            v => Some(MetricsSnapshot::from_json(v)?),
        };
        Ok(Self {
            version: u32::try_from(value.field("version")?.as_u64()?)
                .map_err(|_| JsonError::new("heartbeat version out of range"))?,
            phase: value.field("phase")?.as_str()?.to_string(),
            done: value.field("done")?.as_u64()? as usize,
            total: value.field("total")?.as_u64()? as usize,
            cached: value.field("cached")?.as_u64()? as usize,
            failed: value.field("failed")?.as_u64()? as usize,
            elapsed_secs: value.field("elapsed_secs")?.as_f64()?,
            rate_pts_per_sec: value.field("rate_pts_per_sec")?.as_f64()?,
            eta_secs,
            retries: value.field("retries")?.as_u64()?,
            point_wall: Log2Histogram::from_json(value.field("point_wall")?)?,
            metrics,
        })
    }
}

/// Writes `heartbeat` to `path` atomically: a concurrent reader sees
/// either the old complete document or the new one — never a torn
/// write — and concurrent writers (every sweep worker beats on each
/// point it finishes) never clobber each other's temp file.
///
/// # Errors
///
/// Returns the first I/O error from creating, writing, or renaming.
pub fn write_heartbeat(path: &Path, heartbeat: &Heartbeat) -> std::io::Result<()> {
    // Failpoints (`heartbeat.write`): `skip` silently suppresses the
    // write — a frozen heartbeat the watchdog and staleness marking must
    // tolerate — and `fail` injects the I/O error path.
    match crate::fault::fire("heartbeat.write") {
        Some(crate::fault::FaultAction::Skip) => return Ok(()),
        Some(crate::fault::FaultAction::Fail) => {
            return Err(std::io::Error::other(
                "injected fault at failpoint 'heartbeat.write'",
            ))
        }
        _ => {}
    }
    replace_atomically(path, |out| {
        writeln!(out, "{}", heartbeat.to_json().encode())
    })
}

/// Reads a heartbeat back, returning `None` when the file does not
/// exist yet or does not parse (a child that has not started, or a
/// file from an older schema) — fleet rendering degrades gracefully
/// instead of failing the supervisor.
pub fn read_heartbeat(path: &Path) -> Option<Heartbeat> {
    let text = std::fs::read_to_string(path).ok()?;
    let json = Json::parse(&text).ok()?;
    Heartbeat::from_json(&json).ok()
}

/// Writes a registry snapshot as Prometheus text exposition (atomic,
/// like the heartbeat).
///
/// # Errors
///
/// Returns the first I/O error from creating, writing, or renaming.
pub fn write_prometheus(path: &Path, snapshot: &MetricsSnapshot) -> std::io::Result<()> {
    replace_atomically(path, |out| {
        out.write_all(prometheus_text(snapshot).as_bytes())
    })
}

/// Age of a heartbeat file: how long ago it was last rewritten, from
/// filesystem mtime. `None` when the file does not exist (the worker
/// has not started) or the clock arithmetic fails. The fleet view uses
/// this to mark shards whose *writer is gone* — a killed worker leaves
/// its last heartbeat behind forever, and without an age check the
/// fleet line would report its stale progress as live.
pub fn heartbeat_age(path: &Path) -> Option<Duration> {
    let modified = std::fs::metadata(path).ok()?.modified().ok()?;
    std::time::SystemTime::now().duration_since(modified).ok()
}

/// Estimated seconds until `remaining` points finish on `workers`
/// parallel workers, from the per-point wall histogram's p50 (the bucket
/// upper bound, so a mild over-estimate — the honest direction for an
/// ETA). `None` until at least one point has been timed. Clamped to 30
/// days so one pathological bucket cannot print a nonsense year.
pub fn eta_secs(point_wall: &Log2Histogram, remaining: usize, workers: usize) -> Option<f64> {
    if point_wall.is_empty() {
        return None;
    }
    if remaining == 0 {
        return Some(0.0);
    }
    let p50_micros = point_wall.quantile(0.5) as f64;
    let waves = (remaining as f64 / workers.max(1) as f64).ceil();
    const MAX_ETA_SECS: f64 = 30.0 * 24.0 * 3600.0;
    Some((waves * p50_micros / 1e6).min(MAX_ETA_SECS))
}

/// Renders an ETA compactly for progress lines: `3s`, `2m05s`,
/// `1h12m`, `4d07h`.
pub fn format_eta(secs: f64) -> String {
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

/// The wall [`Duration`] of one point as heartbeat-histogram
/// microseconds (saturating; 30+ minute points all land in the top
/// buckets anyway).
pub fn wall_micros(wall: Duration) -> u64 {
    u64::try_from(wall.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemmini_core::metrics::{Counter, Metrics};

    #[test]
    fn heartbeat_round_trips_through_json() {
        let (m, registry) = Metrics::enabled();
        m.add(Counter::PointsCompleted, 3);
        let mut hb = Heartbeat::starting(32);
        hb.done = 5;
        hb.cached = 2;
        hb.elapsed_secs = 1.25;
        hb.rate_pts_per_sec = 2.4;
        hb.eta_secs = Some(11.0);
        hb.point_wall.record(1500);
        hb.metrics = Some(registry.snapshot());
        let text = hb.to_json().encode();
        let back = Heartbeat::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, hb);
    }

    #[test]
    fn heartbeat_file_round_trips_and_replaces_atomically() {
        let dir = std::env::temp_dir().join(format!("gemmini-hb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("status.json");
        let mut hb = Heartbeat::starting(4);
        write_heartbeat(&path, &hb).unwrap();
        assert_eq!(read_heartbeat(&path).unwrap(), hb);
        hb.done = 4;
        hb.phase = "done".to_string();
        write_heartbeat(&path, &hb).unwrap();
        assert_eq!(read_heartbeat(&path).unwrap().done, 4);
        // No temp litter left behind.
        let litter = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with('.')
            })
            .count();
        assert_eq!(litter, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_heartbeat_writers_never_tear_the_file() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Every sweep worker beats on each point it finishes, and the
        // monitor thread beats too: concurrent writes of one path must
        // all succeed, and a reader must only ever see whole documents.
        let dir = std::env::temp_dir().join(format!("gemmini-hb-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("status.json");
        write_heartbeat(&path, &Heartbeat::starting(0)).unwrap();
        let writing = AtomicUsize::new(4);
        let start = std::sync::Barrier::new(4);
        let (errors, torn_reads) = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..4)
                .map(|writer| {
                    let (path, writing, start) = (&path, &writing, &start);
                    scope.spawn(move || {
                        let mut errors = Vec::new();
                        start.wait();
                        for i in 0..200 {
                            let mut hb = Heartbeat::starting(writer);
                            hb.done = i;
                            hb.point_wall.record(i as u64 + 1);
                            if let Err(e) = write_heartbeat(path, &hb) {
                                errors.push(format!("writer {writer}, beat {i}: {e}"));
                            }
                        }
                        writing.fetch_sub(1, Ordering::Relaxed);
                        errors
                    })
                })
                .collect();
            let mut torn_reads = 0;
            while writing.load(Ordering::Relaxed) > 0 {
                torn_reads += usize::from(read_heartbeat(&path).is_none());
            }
            let errors: Vec<String> = writers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect();
            (errors, torn_reads)
        });
        assert!(
            errors.is_empty(),
            "{} failed writes, first: {:?}",
            errors.len(),
            errors.first()
        );
        assert_eq!(torn_reads, 0, "every read must parse");
        let litter = std::fs::read_dir(&dir).unwrap().count() - 1;
        assert_eq!(litter, 0, "no temp files left behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn heartbeat_age_tracks_rewrites() {
        assert!(heartbeat_age(Path::new("/nonexistent/definitely/not.json")).is_none());
        let path = std::env::temp_dir().join(format!("gemmini-hb-age-{}.json", std::process::id()));
        write_heartbeat(&path, &Heartbeat::starting(1)).unwrap();
        let age = heartbeat_age(&path).unwrap();
        assert!(
            age < Duration::from_secs(60),
            "fresh file, small age: {age:?}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_or_garbage_heartbeat_reads_as_none() {
        assert!(read_heartbeat(Path::new("/nonexistent/definitely/not.json")).is_none());
        let dir = std::env::temp_dir();
        let path = dir.join(format!("gemmini-garbage-{}.json", std::process::id()));
        std::fs::write(&path, "{not json").unwrap();
        assert!(read_heartbeat(&path).is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fleet_absorb_adds_counts_and_merges_histograms() {
        let mut a = Heartbeat::starting(16);
        a.done = 4;
        a.elapsed_secs = 10.0;
        a.rate_pts_per_sec = 0.4;
        a.eta_secs = Some(30.0);
        a.point_wall.record(1000);
        let mut b = Heartbeat::starting(16);
        b.done = 8;
        b.failed = 1;
        b.elapsed_secs = 12.0;
        b.rate_pts_per_sec = 0.66;
        b.eta_secs = Some(12.0);
        b.point_wall.record(9000);
        a.absorb(&b);
        assert_eq!(a.done, 12);
        assert_eq!(a.total, 32);
        assert_eq!(a.failed, 1);
        assert_eq!(a.elapsed_secs, 12.0);
        assert_eq!(a.eta_secs, Some(30.0), "fleet ETA is the slowest shard");
        assert_eq!(a.point_wall.count, 2);
    }

    #[test]
    fn eta_derivation_and_clamp() {
        assert_eq!(eta_secs(&Log2Histogram::new(), 10, 2), None);
        let mut h = Log2Histogram::new();
        // ~1 s points: bucket upper bound 2^20 - 1 us ≈ 1.05 s.
        for _ in 0..8 {
            h.record(1_000_000);
        }
        let eta = eta_secs(&h, 10, 2).unwrap();
        // 5 waves of ~1.05 s.
        assert!(eta > 4.0 && eta < 7.0, "eta {eta}");
        assert_eq!(eta_secs(&h, 0, 2), Some(0.0));
        // Clamp: absurd per-point walls cannot produce an absurd ETA.
        let mut worst = Log2Histogram::new();
        worst.record(u64::MAX);
        let clamped = eta_secs(&worst, 1_000_000, 1).unwrap();
        assert_eq!(clamped, 30.0 * 24.0 * 3600.0);
    }

    #[test]
    fn eta_formats_compactly() {
        assert_eq!(format_eta(3.4), "3s");
        assert_eq!(format_eta(125.0), "2m05s");
        assert_eq!(format_eta(4321.0), "1h12m");
        assert_eq!(format_eta(370_000.0), "4d06h");
    }
}
