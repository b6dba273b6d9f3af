//! Deterministic fault injection ("failpoints") for robustness testing.
//!
//! Long sharded sweeps must survive crashed and hung workers, torn
//! checkpoint writes and corrupted lines — failure modes that are
//! essentially untestable without a way to *cause* them on demand. This
//! module is the one mechanism for causing them: a process-wide registry
//! of named failpoint sites, armed from the sweep binaries' `--faults`
//! flag or, without it, the `GEMMINI_FAULTS` environment variable. Each
//! site in the checkpoint writer, telemetry heartbeat and sweep executor
//! asks the registry what to do; with nothing armed — the default — every site is exactly one
//! untaken branch on a relaxed atomic load, and results are
//! bit-identical to a build without the registry.
//!
//! # Spec grammar
//!
//! ```text
//! GEMMINI_FAULTS = entry ( "," entry )*
//! entry          = site "=" action [ "@" hit ]
//! action         = "fail" | "hang" | "abort" | "corrupt" | "skip" | "delay:" millis
//! ```
//!
//! `site` names one instrumented point in dotted lower-case
//! (`checkpoint.flush`, `checkpoint.corrupt`, `heartbeat.write`,
//! `sweep.point`). `@hit` restricts the action to exactly the N-th
//! evaluation of that site in this process (1-based), so a schedule like
//! `checkpoint.flush=fail@3` injects one I/O error on the third
//! checkpoint append and nothing else — fully deterministic, no clocks
//! and no randomness. Without `@hit` the action fires on every
//! evaluation. A schedule that does not parse is an error ([`arm`]); the
//! sweep binaries exit 2 on it before any point runs.
//!
//! # The `sweep.point` site
//!
//! The sweep executor evaluates `sweep.point` as each point begins, and
//! only in a *fresh* sweep — one that served no point from its
//! checkpoint. With one worker, `sweep.point=abort@N` kills the process
//! after N-1 persisted points, the way a segfault would, and
//! `sweep.point=hang@N` wedges it there. Hit counters restart in every
//! process, so the rule is what lets a supervisor retry converge: the
//! retry resumes from the shard checkpoint, serves the persisted points
//! and skips the site. (Pick N ≥ 2, so the first attempt persists
//! something.)
//!
//! # Per-shard scoping
//!
//! A supervised sweep shares one environment between the supervisor and
//! its worker children. `GEMMINI_FAULTS_SHARD=<index>` restricts the
//! schedule to one worker: every other shard worker — and, whenever the
//! variable is set, the supervisor itself — calls [`disarm`] on startup,
//! so exactly one process in the fleet takes the faults. A value that
//! is not a shard index is an error ([`arm`]), like a bad schedule.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Environment variable holding the fault schedule.
pub const FAULTS_ENV: &str = "GEMMINI_FAULTS";

/// Environment variable restricting the schedule to one shard worker
/// (see the module docs).
pub const FAULTS_SHARD_ENV: &str = "GEMMINI_FAULTS_SHARD";

/// What an armed failpoint tells its site to do. Sites interpret only
/// the actions that make sense for them and ignore the rest (an ignored
/// action is reported once on stderr so a typo'd schedule is visible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the operation with an injected error.
    Fail,
    /// Hang: sleep effectively forever. Nothing in the process notices;
    /// the `--watchdog` supervisor kills the worker and retries it from
    /// its checkpoint, exactly like a crash.
    Hang,
    /// Abort the process with `SIGABRT`, the way a segfault or an OOM
    /// kill ends it (the crash-retry supervisor's prey).
    Abort,
    /// Corrupt the bytes the site was about to write.
    Corrupt,
    /// Silently skip the operation (e.g. suppress a heartbeat write).
    Skip,
    /// Delay the operation by the given duration, then proceed.
    Delay(Duration),
}

impl FaultAction {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "fail" => Ok(Self::Fail),
            "hang" => Ok(Self::Hang),
            "abort" => Ok(Self::Abort),
            "corrupt" => Ok(Self::Corrupt),
            "skip" => Ok(Self::Skip),
            _ => {
                if let Some(ms) = s.strip_prefix("delay:") {
                    let ms = ms
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| format!("invalid delay millis in fault action '{s}'"))?;
                    Ok(Self::Delay(Duration::from_millis(ms)))
                } else {
                    Err(format!(
                        "unknown fault action '{s}' (expected fail|hang|abort|corrupt|skip|delay:<ms>)"
                    ))
                }
            }
        }
    }
}

/// One armed failpoint: a site name, an action, an optional 1-based hit
/// index, and the site's evaluation counter.
#[derive(Debug)]
struct Failpoint {
    site: String,
    action: FaultAction,
    /// `Some(n)`: fire only on the n-th evaluation (1-based).
    /// `None`: fire on every evaluation.
    hit: Option<u64>,
    evaluations: AtomicU64,
}

/// The parsed schedule. Empty (the overwhelmingly common case) means
/// every site is a single untaken branch.
#[derive(Debug, Default)]
struct Registry {
    points: Vec<Failpoint>,
}

impl Registry {
    fn parse(spec: &str) -> Result<Self, String> {
        let mut points = Vec::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (site, rest) = entry
                .split_once('=')
                .ok_or_else(|| format!("invalid fault entry '{entry}' (expected site=action)"))?;
            let (action, hit) = match rest.split_once('@') {
                Some((action, hit)) => {
                    let hit = hit
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| format!("invalid hit index in fault entry '{entry}'"))?;
                    if hit == 0 {
                        return Err(format!(
                            "hit index in '{entry}' is 1-based and must be positive"
                        ));
                    }
                    (action.trim(), Some(hit))
                }
                None => (rest.trim(), None),
            };
            points.push(Failpoint {
                site: site.trim().to_string(),
                action: FaultAction::parse(action)?,
                hit,
                evaluations: AtomicU64::new(0),
            });
        }
        Ok(Self { points })
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);
static REGISTRY: OnceLock<Result<Registry, String>> = OnceLock::new();

fn registry(schedule: Option<&str>) -> &'static Result<Registry, String> {
    REGISTRY.get_or_init(|| {
        let (source, spec) = match schedule {
            Some(spec) => ("--faults", spec.to_string()),
            None => (FAULTS_ENV, std::env::var(FAULTS_ENV).unwrap_or_default()),
        };
        let parsed = Registry::parse(&spec)
            .map_err(|msg| format!("invalid {source} schedule '{spec}': {msg}"));
        if let Ok(reg) = &parsed {
            if !reg.points.is_empty() {
                eprintln!("fault: armed {} failpoint(s): {spec}", reg.points.len());
            }
        }
        parsed
    })
}

/// The shard index `GEMMINI_FAULTS_SHARD` scopes the schedule to, or
/// `None` when it is unset.
fn scoped_shard() -> Result<Option<usize>, String> {
    match std::env::var(FAULTS_SHARD_ENV) {
        Err(_) => Ok(None),
        Ok(v) => v.trim().parse::<usize>().map(Some).map_err(|_| {
            format!("invalid {FAULTS_SHARD_ENV} '{v}' (expected a shard index such as 0)")
        }),
    }
}

/// Arms the registry for this process with `schedule` (`--faults`) or,
/// if `None`, `GEMMINI_FAULTS`; the first call fixes the schedule.
/// Called lazily by the first [`fire`]; the sweep binaries call it
/// eagerly, right after CLI parsing, and exit 2 on an error, so a
/// typo'd schedule or shard scope fails before any point runs rather
/// than quietly testing nothing.
///
/// # Errors
///
/// Returns the parse error of an unparsable schedule or
/// `GEMMINI_FAULTS_SHARD`; the registry then stays disarmed.
pub fn arm(schedule: Option<&str>) -> Result<(), String> {
    let reg = registry(schedule).as_ref().map_err(Clone::clone)?;
    scoped_shard()?;
    if !reg.points.is_empty() {
        ARMED.store(true, Ordering::Release);
    }
    Ok(())
}

/// Permanently disarms every failpoint in this process (child processes
/// still get the schedule from their own `--faults` flag or inherited
/// environment). Used by the shard supervisor — and by workers whose
/// index does not match `GEMMINI_FAULTS_SHARD` — so a fleet-wide
/// schedule arms exactly one process.
pub fn disarm() {
    // Initialize-then-drain: fire() consults ARMED first, so flipping it
    // off makes every later evaluation the plain untaken branch. A bad
    // schedule arms nothing, so its error is moot here.
    let _ = arm(None);
    ARMED.store(false, Ordering::Release);
}

/// Disarms this process unless `GEMMINI_FAULTS_SHARD` is unset or names
/// `shard_index`. A `None` index is "not a shard worker" (the
/// supervisor), which never takes scoped faults.
pub fn scope_to_shard(shard_index: Option<usize>) {
    match scoped_shard() {
        Ok(None) => {}
        Ok(Some(scoped)) if Some(scoped) == shard_index => {}
        _ => disarm(),
    }
}

/// Evaluates the failpoint `site`: returns the armed action when the
/// schedule says this evaluation should take a fault, `None` otherwise.
/// The disabled path (no schedule, or disarmed) is a single relaxed
/// atomic load and an untaken branch — call it freely from hot paths.
pub fn fire(site: &str) -> Option<FaultAction> {
    if !ARMED.load(Ordering::Relaxed) {
        // Lazily arm on first evaluation so call sites need no setup.
        if REGISTRY.get().is_some() {
            return None;
        }
        if let Err(msg) = arm(None) {
            eprintln!("fault: ignoring {msg}");
        }
        if !ARMED.load(Ordering::Relaxed) {
            return None;
        }
    }
    let Ok(reg) = registry(None) else {
        return None;
    };
    for point in &reg.points {
        if point.site != site {
            continue;
        }
        let n = point.evaluations.fetch_add(1, Ordering::Relaxed) + 1;
        match point.hit {
            Some(hit) if hit != n => continue,
            _ => {
                eprintln!("fault: {site} -> {:?} (evaluation {n})", point.action);
                return Some(point.action);
            }
        }
    }
    None
}

/// Convenience for I/O sites: an injected [`std::io::Error`] when `site`
/// fires with [`FaultAction::Fail`]. [`FaultAction::Delay`] sleeps and
/// returns `None`; other actions are ignored here (the site handles
/// corrupt/hang/skip itself if it supports them).
pub fn fail_io(site: &str) -> Option<std::io::Error> {
    match fire(site)? {
        FaultAction::Fail => Some(std::io::Error::other(format!(
            "injected fault at failpoint '{site}'"
        ))),
        FaultAction::Delay(d) => {
            std::thread::sleep(d);
            None
        }
        _ => None,
    }
}

/// Sleeps effectively forever — what a site does on
/// [`FaultAction::Hang`]. Never returns; the process is expected to be
/// killed by a watchdog or supervisor.
pub fn hang_forever(site: &str) -> ! {
    eprintln!("fault: hanging at failpoint '{site}'");
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests exercise the parser and the pure decision logic
    // directly; the process-global registry is covered end-to-end by the
    // chaos CI job (environment mutation in unit tests would race with
    // parallel test execution).

    #[test]
    fn parses_a_full_schedule() {
        let reg = Registry::parse(
            "checkpoint.flush=fail@3, checkpoint.corrupt=corrupt@5,sweep.point=delay:250,\
             sweep.point=abort@4",
        )
        .unwrap();
        assert_eq!(reg.points.len(), 4);
        assert_eq!(reg.points[0].site, "checkpoint.flush");
        assert_eq!(reg.points[0].action, FaultAction::Fail);
        assert_eq!(reg.points[0].hit, Some(3));
        assert_eq!(reg.points[1].action, FaultAction::Corrupt);
        assert_eq!(
            reg.points[2].action,
            FaultAction::Delay(Duration::from_millis(250))
        );
        assert_eq!(reg.points[2].hit, None);
        assert_eq!(reg.points[3].site, "sweep.point");
        assert_eq!(reg.points[3].action, FaultAction::Abort);
        assert_eq!(reg.points[3].hit, Some(4));
    }

    #[test]
    fn rejects_malformed_entries() {
        assert!(Registry::parse("no-equals-sign").is_err());
        assert!(Registry::parse("site=explode").is_err());
        assert!(Registry::parse("sweep.point=abrot@3").is_err());
        assert!(Registry::parse("site=fail@0").is_err(), "hits are 1-based");
        assert!(Registry::parse("site=fail@x").is_err());
        assert!(Registry::parse("site=delay:abc").is_err());
        assert!(Registry::parse("").unwrap().points.is_empty());
        assert!(Registry::parse(" , ,").unwrap().points.is_empty());
    }

    #[test]
    fn hit_counting_is_per_site_and_one_based() {
        let reg = Registry::parse("a=fail@2,b=skip").unwrap();
        let eval = |reg: &Registry, site: &str| -> Option<FaultAction> {
            for p in &reg.points {
                if p.site != site {
                    continue;
                }
                let n = p.evaluations.fetch_add(1, Ordering::Relaxed) + 1;
                match p.hit {
                    Some(hit) if hit != n => continue,
                    _ => return Some(p.action),
                }
            }
            None
        };
        assert_eq!(eval(&reg, "a"), None, "first evaluation passes");
        assert_eq!(eval(&reg, "a"), Some(FaultAction::Fail), "second fires");
        assert_eq!(eval(&reg, "a"), None, "third passes again");
        assert_eq!(eval(&reg, "b"), Some(FaultAction::Skip), "unconditional");
        assert_eq!(eval(&reg, "b"), Some(FaultAction::Skip));
        assert_eq!(eval(&reg, "unknown"), None);
    }
}
