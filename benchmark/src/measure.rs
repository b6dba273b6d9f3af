//! The two kinds of child process: a measured round of one workload, and
//! the traced pass over it. Each child prints one JSON line for the
//! parent, which only orchestrates and never simulates.

use crate::stats::{peak_rss_kib, report_digest, RoundWalls};
use crate::trace::{
    chrome_trace, drive_point, self_times, step_group, Counts, Recorder, Span, STEP_GROUPS,
};
use crate::workload::{setup_probe, Workload};
use crate::{calibrate, micro};
use gemmini_dnn::graph::Network;
use gemmini_mem::json::{Json, JsonError};
use gemmini_soc::runtime::reference_forward;
use gemmini_soc::{run_sweep_with, SocReport, SweepOptions, SweepResult};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up probes per round; `setup_s` is the best of all of them. The count
/// is fixed, not timed, so that the allocation history, and with it the
/// peak RSS, is the same in every round.
pub const SETUP_PROBES: usize = 3;

/// What became of one point in one child.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOutcome {
    /// The point's label.
    pub label: String,
    /// Why the point failed, if it did.
    pub error: Option<String>,
    /// [`report_digest`] of the report (0 on failure).
    pub digest: u64,
    /// Each core's total cycles.
    pub core_cycles: Vec<u64>,
    /// Whether the functional output equalled `reference_forward`, when
    /// that was checked.
    pub reference_ok: Option<bool>,
}

impl PointOutcome {
    /// Summarizes one sweep result; with `reference` set, also checks the
    /// functional output of core 0 against the golden model.
    pub fn of(result: &SweepResult<SocReport>, reference: Option<&(Network, u64)>) -> Self {
        match &result.outcome {
            Ok(report) => Self {
                label: result.label.clone(),
                error: None,
                digest: report_digest(report),
                core_cycles: report.cores.iter().map(|c| c.total_cycles).collect(),
                reference_ok: reference.map(|(net, seed)| {
                    report.cores[0].output.as_deref() == Some(&reference_forward(net, *seed)[..])
                }),
            },
            Err(e) => Self {
                label: result.label.clone(),
                error: Some(e.to_string()),
                digest: 0,
                core_cycles: Vec::new(),
                reference_ok: None,
            },
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::from(self.label.clone())),
            ("error", self.error.clone().map_or(Json::Null, Json::from)),
            ("digest", Json::from(self.digest)),
            (
                "core_cycles",
                Json::Arr(self.core_cycles.iter().map(|&c| Json::from(c)).collect()),
            ),
            (
                "reference_ok",
                self.reference_ok.map_or(Json::Null, Json::from),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            label: v.field("label")?.as_str()?.to_string(),
            error: match v.field("error")? {
                Json::Null => None,
                e => Some(e.as_str()?.to_string()),
            },
            digest: v.field("digest")?.as_u64()?,
            core_cycles: v
                .field("core_cycles")?
                .as_arr()?
                .iter()
                .map(Json::as_u64)
                .collect::<Result<_, _>>()?,
            reference_ok: match v.field("reference_ok")? {
                Json::Null => None,
                b => Some(b.as_bool()?),
            },
        })
    }
}

fn points_to_json(points: &[PointOutcome]) -> Json {
    Json::Arr(points.iter().map(PointOutcome::to_json).collect())
}

fn points_from_json(v: &Json) -> Result<Vec<PointOutcome>, JsonError> {
    v.as_arr()?.iter().map(PointOutcome::from_json).collect()
}

fn f64s_from_json(v: &Json) -> Result<Vec<f64>, JsonError> {
    v.as_arr()?.iter().map(Json::as_f64).collect()
}

/// One measured round of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// Seconds each set-up probe took.
    pub setup_s: Vec<f64>,
    /// Point and round walls.
    pub walls: RoundWalls,
    /// The child's `VmHWM`, KiB, read before calibrating.
    pub peak_rss_kib: u64,
    /// Seconds of each host-speed calibration sample.
    pub calib_s: Vec<f64>,
    /// Every point's outcome, in submission order.
    pub points: Vec<PointOutcome>,
}

impl RoundReport {
    /// Encodes the report as the child's output line.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "setup_s",
                Json::Arr(self.setup_s.iter().map(|&s| Json::from(s)).collect()),
            ),
            (
                "point_walls_s",
                Json::Arr(self.walls.points.iter().map(|&s| Json::from(s)).collect()),
            ),
            ("round_wall_s", Json::from(self.walls.round)),
            ("peak_rss_kib", Json::from(self.peak_rss_kib)),
            (
                "calib_s",
                Json::Arr(self.calib_s.iter().map(|&s| Json::from(s)).collect()),
            ),
            ("points", points_to_json(&self.points)),
        ])
    }

    /// Decodes a child's output line.
    ///
    /// # Errors
    ///
    /// Returns the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            setup_s: f64s_from_json(v.field("setup_s")?)?,
            walls: RoundWalls {
                points: f64s_from_json(v.field("point_walls_s")?)?,
                round: v.field("round_wall_s")?.as_f64()?,
            },
            peak_rss_kib: v.field("peak_rss_kib")?.as_u64()?,
            calib_s: f64s_from_json(v.field("calib_s")?)?,
            points: points_from_json(v.field("points")?)?,
        })
    }
}

/// Sweep options for one serial, quiet pass, checkpointing to `checkpoint`.
fn serial(checkpoint: Option<PathBuf>, resume: bool) -> SweepOptions {
    SweepOptions {
        threads: 1,
        progress: false,
        checkpoint,
        resume,
        ..SweepOptions::default()
    }
}

fn outcomes(
    results: &[SweepResult<SocReport>],
    references: &[Option<(Network, u64)>],
) -> Vec<PointOutcome> {
    results
        .iter()
        .zip(references)
        .map(|(r, reference)| PointOutcome::of(r, reference.as_ref()))
        .collect()
}

/// A fresh checkpoint path in `work_dir`, unique to this process.
fn checkpoint_path(work_dir: &Path, workload: Workload, pass: &str) -> PathBuf {
    work_dir.join(format!(
        "{}-{pass}-{}.jsonl",
        workload.name(),
        std::process::id()
    ))
}

/// Runs one measured round: [`SETUP_PROBES`] set-up probes, one serial
/// `run_sweep_with` over the workload's points, then the host-speed
/// calibration samples (after the peak RSS is read, so the kernel's
/// buffers do not count). With `verify`, the functional outputs are
/// finally checked against `reference_forward`.
pub fn round(workload: Workload, seed: u64, verify: bool, work_dir: &Path) -> RoundReport {
    let mut setup_s = Vec::with_capacity(SETUP_PROBES);
    let mut points = Vec::new();
    for _ in 0..SETUP_PROBES {
        let (took, built) = setup_probe(workload, seed);
        setup_s.push(took.as_secs_f64());
        points = built;
    }
    // Core 0's network and seed of each functional point, for the
    // `reference_forward` check.
    let refs: Vec<Option<(Network, u64)>> = points
        .iter()
        .map(|p| (verify && p.options.functional).then(|| (p.networks[0].clone(), p.options.seed)))
        .collect();
    let checkpoint = workload
        .checkpointed()
        .then(|| checkpoint_path(work_dir, workload, "round"));

    let start = Instant::now();
    let results = run_sweep_with(points, serial(checkpoint.clone(), false));
    let round = start.elapsed().as_secs_f64();
    let peak_rss_kib = peak_rss_kib().unwrap_or(0);
    let calib_s = calibrate::samples(calibrate::SAMPLES);

    if let Some(path) = checkpoint {
        let _ = std::fs::remove_file(path);
    }
    RoundReport {
        setup_s,
        walls: RoundWalls {
            points: results.iter().map(|r| r.wall.as_secs_f64()).collect(),
            round,
        },
        peak_rss_kib,
        calib_s,
        points: outcomes(&results, &refs),
    }
}

/// What the traced pass measured.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Per-layer metrics the child can derive alone, by name.
    pub metrics: Vec<(String, f64)>,
    /// Host seconds of the traced points (their spans summed).
    pub traced_wall_s: f64,
    /// Outcomes of the untraced sweep the traced pass is checked against.
    pub points: Vec<PointOutcome>,
    /// Every disagreement found: traced vs untraced cycles, and resumed
    /// vs simulated reports.
    pub mismatches: Vec<String>,
}

impl TraceReport {
    /// Encodes the report as the child's output line.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "metrics",
                Json::obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v))),
                ),
            ),
            ("traced_wall_s", Json::from(self.traced_wall_s)),
            ("points", points_to_json(&self.points)),
            (
                "mismatches",
                Json::Arr(
                    self.mismatches
                        .iter()
                        .map(|m| Json::from(m.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Decodes a child's output line.
    ///
    /// # Errors
    ///
    /// Returns the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        let Json::Obj(metrics) = v.field("metrics")? else {
            return Err(JsonError::new("metrics is not an object"));
        };
        Ok(Self {
            metrics: metrics
                .iter()
                .map(|(k, v)| Ok((k.clone(), v.as_f64()?)))
                .collect::<Result<_, JsonError>>()?,
            traced_wall_s: v.field("traced_wall_s")?.as_f64()?,
            points: points_from_json(v.field("points")?)?,
            mismatches: v
                .field("mismatches")?
                .as_arr()?
                .iter()
                .map(|m| Ok(m.as_str()?.to_string()))
                .collect::<Result<_, JsonError>>()?,
        })
    }
}

/// The per-layer metrics a traced pass derives alone: build, construction
/// and step self times, step time split by layer-class group, work counts,
/// step host ns per unit of work, then the microbenchmark results
/// (`micro`, named as in [`micro::BENCHES`]) and the resume time.
pub fn trace_metrics(
    spans: &[Span],
    counts: &Counts,
    resume_s: f64,
    micro: &[(&str, f64)],
) -> Vec<(String, f64)> {
    let own = self_times(spans);
    let sum = |name: &str| -> f64 {
        spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t as f64)
            .sum::<f64>()
    };
    let mut groups = [0.0f64; STEP_GROUPS.len()];
    for (span, &t) in spans.iter().zip(&own) {
        if let (Some(class), "soc.step") = (span.class, span.name) {
            groups[step_group(class)] += t as f64;
        }
    }
    let step_ns = sum("soc.step");
    let per = |n: u64| step_ns / n.max(1) as f64;
    let mut metrics = vec![
        ("dnn.build_s".to_string(), sum("dnn.build") / 1e9),
        ("soc.soc_new_s".to_string(), sum("soc.soc_new") / 1e9),
        ("soc.exec_new_s".to_string(), sum("soc.exec_new") / 1e9),
    ];
    metrics.extend(
        STEP_GROUPS
            .iter()
            .zip(groups)
            .map(|(name, ns)| (name.to_string(), ns / 1e9)),
    );
    metrics.extend([
        ("soc.steps".to_string(), counts.steps as f64),
        ("soc.step_us".to_string(), per(counts.steps) / 1e3),
        ("sim.cycles".to_string(), counts.sim_cycles as f64),
        ("core.macs".to_string(), counts.macs as f64),
        ("core.tiles".to_string(), counts.tiles as f64),
        ("core.dma_bursts".to_string(), counts.dma_bursts as f64),
        ("core.dma_bytes".to_string(), counts.dma_bytes as f64),
        ("vm.translations".to_string(), counts.translations as f64),
        ("vm.tlb_misses".to_string(), counts.tlb_misses as f64),
        ("mem.l2_accesses".to_string(), counts.l2_accesses as f64),
        ("mem.l2_misses".to_string(), counts.l2_misses as f64),
        ("mem.dram_bytes".to_string(), counts.dram_bytes as f64),
        ("core.host_ns_per_tile".to_string(), per(counts.tiles)),
        (
            "vm.host_ns_per_translation".to_string(),
            per(counts.translations),
        ),
        (
            "mem.host_ns_per_l2_access".to_string(),
            per(counts.l2_accesses),
        ),
    ]);
    metrics.extend(micro.iter().map(|&(name, v)| (name.to_string(), v)));
    metrics.push(("checkpoint.resume_s".to_string(), resume_s));
    metrics
}

/// The traced pass: an untraced checkpointed sweep (the reference the
/// trace is checked against), a resume pass over that checkpoint with
/// every point cached, the traced re-drive of every point, and the
/// microbenchmarks. With `chrome_out`, the spans are written there as
/// Chrome `trace_event` JSON.
pub fn traced(
    workload: Workload,
    seed: u64,
    work_dir: &Path,
    chrome_out: Option<&Path>,
) -> TraceReport {
    let (_, points) = setup_probe(workload, seed);
    let checkpoint = checkpoint_path(work_dir, workload, "trace");
    let results = run_sweep_with(points.clone(), serial(Some(checkpoint.clone()), false));
    let mut mismatches = Vec::new();

    let start = Instant::now();
    let resumed = run_sweep_with(points, serial(Some(checkpoint.clone()), true));
    let resume_s = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&checkpoint);
    for (fresh, cached) in results.iter().zip(&resumed) {
        let same = match (fresh.ok(), cached.ok()) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        };
        if !cached.cached || !same {
            mismatches.push(format!("{}: resumed report differs", fresh.label));
        }
    }

    let mut rec = Recorder::new();
    let root = rec.open("workload", None, None, None);
    let build = rec.open("dnn.build", Some(root), None, None);
    let nets = workload.networks();
    let points = workload.points(&nets, seed);
    rec.close(build);
    let mut counts = Counts::default();
    for (i, (point, fresh)) in points.iter().zip(&results).enumerate() {
        match (drive_point(point, i, &mut rec, root), fresh.ok()) {
            (Ok(trace), Some(report)) => {
                counts.add(&trace.counts);
                if !trace.matches(report) {
                    mismatches.push(format!("{}: traced cycles differ", point.label));
                }
            }
            (Err(e), _) => mismatches.push(format!("{}: traced pass failed: {e}", point.label)),
            (_, None) => mismatches.push(format!("{}: untraced run failed", point.label)),
        }
    }
    rec.close(root);

    let spans = rec.spans();
    let traced_wall_s = spans
        .iter()
        .filter(|s| s.name == "point")
        .map(|s| s.duration() as f64 / 1e9)
        .sum();
    if let Some(path) = chrome_out {
        let labels: Vec<String> = points.iter().map(|p| p.label.clone()).collect();
        let doc = chrome_trace(spans, workload.name(), &labels).encode();
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }

    let micro: Vec<(&str, f64)> = micro::BENCHES
        .iter()
        .map(|&(name, bench)| (name, bench()))
        .collect();
    TraceReport {
        metrics: trace_metrics(spans, &counts, resume_s, &micro),
        traced_wall_s,
        points: outcomes(&results, &vec![None; results.len()]),
        mismatches,
    }
}
