//! From child outputs to metrics: the metric catalogue (`BENCHMARK.json`),
//! the correctness check against pinned digests, the end-to-end and
//! per-layer estimators, results files and their comparison.

use crate::calibrate::REFERENCE_S;
use crate::measure::{RoundReport, TraceReport};
use crate::stats::{best, best_of_wall, digest_hex, leave_one_out_spread, median};
use crate::workload::{Workload, DEFAULT_SEED};
use gemmini_mem::json::{Json, JsonError};
use std::collections::BTreeMap;

/// The benchmark definition: workloads, metrics, units and bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The pinned report digests.
pub const EXPECTED_JSON: &str = include_str!("../expected.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a smaller value is better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the base (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// Every metric `BENCHMARK.json` declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalogue {
    /// The end-to-end metrics, measured untraced.
    pub end_to_end: Vec<MetricDef>,
    /// The per-layer metrics, from the traced pass.
    pub per_layer: Vec<MetricDef>,
}

impl Catalogue {
    /// Parses a benchmark definition.
    ///
    /// # Errors
    ///
    /// Returns the first malformed metric entry.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        let doc = Json::parse(text)?;
        let defs = |key: &str| -> Result<Vec<MetricDef>, JsonError> {
            doc.field(key)?
                .as_arr()?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: m.field("name")?.as_str()?.to_string(),
                        unit: m.field("unit")?.as_str()?.to_string(),
                        lower_is_better: m.field("better")?.as_str()? == "lower",
                        bound: m.get("bound").map(Json::as_f64).transpose()?,
                    })
                })
                .collect()
        };
        Ok(Self {
            end_to_end: defs("end_to_end")?,
            per_layer: defs("per_layer")?,
        })
    }

    /// The catalogue compiled into this binary.
    ///
    /// # Panics
    ///
    /// Panics if the embedded `BENCHMARK.json` is malformed.
    pub fn embedded() -> Self {
        Self::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    /// Looks a metric up by name in either list.
    pub fn get(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// The unit of metric `name`, or `""` if it is not declared.
    pub fn unit(&self, name: &str) -> &str {
        self.get(name).map_or("", |m| m.unit.as_str())
    }
}

/// One pinned point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pinned {
    /// Point label.
    pub label: String,
    /// Report digest at [`DEFAULT_SEED`].
    pub digest: u64,
    /// Each core's total cycles (independent of the seed).
    pub cycles: Vec<u64>,
}

/// The pinned digests of every workload (`expected.json`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Expected {
    workloads: BTreeMap<String, Vec<Pinned>>,
}

impl Expected {
    /// Parses `expected.json`.
    ///
    /// # Errors
    ///
    /// Returns the first malformed entry.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        let doc = Json::parse(text)?;
        let Json::Obj(entries) = doc.field("workloads")? else {
            return Err(JsonError::new("workloads is not an object"));
        };
        let mut workloads = BTreeMap::new();
        for (name, pins) in entries {
            let pins = pins
                .as_arr()?
                .iter()
                .map(|p| {
                    Ok(Pinned {
                        label: p.field("label")?.as_str()?.to_string(),
                        digest: u64::from_str_radix(p.field("digest")?.as_str()?, 16)
                            .map_err(|e| JsonError::new(format!("bad digest: {e}")))?,
                        cycles: p
                            .field("cycles")?
                            .as_arr()?
                            .iter()
                            .map(Json::as_u64)
                            .collect::<Result<_, _>>()?,
                    })
                })
                .collect::<Result<_, JsonError>>()?;
            workloads.insert(name.clone(), pins);
        }
        Ok(Self { workloads })
    }

    /// The file's JSON text.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::from(DEFAULT_SEED)),
            (
                "workloads",
                Json::obj(self.workloads.iter().map(|(name, pins)| {
                    let pins = pins
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("label", Json::from(p.label.clone())),
                                ("digest", Json::from(digest_hex(p.digest))),
                                (
                                    "cycles",
                                    Json::Arr(p.cycles.iter().map(|&c| Json::from(c)).collect()),
                                ),
                            ])
                        })
                        .collect();
                    (name.clone(), Json::Arr(pins))
                })),
            ),
        ])
    }

    /// The pinned points of `workload`.
    pub fn pins(&self, workload: Workload) -> &[Pinned] {
        self.workloads
            .get(workload.name())
            .map_or(&[], Vec::as_slice)
    }

    /// Pins `workload` to the outcomes of its rounds, after checking that
    /// every round agrees and that every functional output equalled
    /// `reference_forward`.
    ///
    /// # Errors
    ///
    /// Returns why the outcomes cannot be pinned.
    pub fn bless(&mut self, workload: Workload, rounds: &[RoundReport]) -> Result<(), String> {
        let first = &rounds.first().ok_or("no rounds to bless")?.points;
        for round in rounds {
            for (a, b) in first.iter().zip(&round.points) {
                if let Some(e) = &b.error {
                    return Err(format!("{}: {e}", b.label));
                }
                if a.digest != b.digest {
                    return Err(format!("{}: rounds disagree", a.label));
                }
            }
        }
        if let Some(p) = first.iter().find(|p| p.reference_ok == Some(false)) {
            return Err(format!(
                "{}: output differs from reference_forward",
                p.label
            ));
        }
        if workload == Workload::Functional && first.iter().any(|p| p.reference_ok.is_none()) {
            return Err("functional outputs were not checked".into());
        }
        let pins = first
            .iter()
            .map(|p| Pinned {
                label: p.label.clone(),
                digest: p.digest,
                cycles: p.core_cycles.clone(),
            })
            .collect();
        self.workloads.insert(workload.name().to_string(), pins);
        Ok(())
    }
}

/// Everything measured for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRun {
    /// The workload.
    pub workload: Workload,
    /// Its measured rounds, in the order they ran.
    pub rounds: Vec<RoundReport>,
    /// Its traced pass, if one ran.
    pub trace: Option<TraceReport>,
}

/// The outcome of checking a workload's outputs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Check {
    /// Point runs checked.
    pub attempted: u64,
    /// Point runs that failed or whose digest was wrong, plus traced-pass
    /// disagreements.
    pub failed: u64,
    /// What went wrong, one line each.
    pub problems: Vec<String>,
}

impl WorkloadRun {
    /// Checks every point run against `expected`. At [`DEFAULT_SEED`], and
    /// for timing points at any seed, a report must match its pinned
    /// digest. A functional point at another seed must reproduce its
    /// pinned cycles, equal `reference_forward` in the first round, and
    /// give the same digest in every run.
    pub fn check(&self, seed: u64, expected: &Expected) -> Check {
        let pins = expected.pins(self.workload);
        let Some(first) = self.rounds.first() else {
            return Check::default();
        };
        let want: Vec<Option<u64>> = first
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let pin = pins.get(i).filter(|pin| pin.label == p.label)?;
                if seed == DEFAULT_SEED || self.workload != Workload::Functional {
                    Some(pin.digest)
                } else {
                    (p.reference_ok == Some(true) && p.core_cycles == pin.cycles)
                        .then_some(p.digest)
                }
            })
            .collect();
        let mut check = Check::default();
        let runs = self
            .rounds
            .iter()
            .map(|r| &r.points)
            .chain(self.trace.as_ref().map(|t| &t.points));
        for points in runs {
            if points.len() != want.len() {
                check.failed += 1;
                check
                    .problems
                    .push("point count changed between runs".into());
            }
            for (p, want) in points.iter().zip(&want) {
                check.attempted += 1;
                let problem = match (&p.error, want) {
                    (Some(e), _) => Some(format!("{}: {e}", p.label)),
                    (None, None) => Some(format!("{}: no verified digest to check", p.label)),
                    (None, Some(d)) if *d != p.digest => Some(format!(
                        "{}: digest {} != expected {}",
                        p.label,
                        digest_hex(p.digest),
                        digest_hex(*d)
                    )),
                    _ => None,
                };
                if let Some(problem) = problem {
                    check.failed += 1;
                    check.problems.push(problem);
                }
            }
        }
        if let Some(trace) = &self.trace {
            check.failed += trace.mismatches.len() as u64;
            check.problems.extend(trace.mismatches.iter().cloned());
        }
        check
    }

    /// Simulated cycles of one round: every core of every point.
    fn sim_cycles(&self) -> u64 {
        self.rounds
            .first()
            .map_or(0, |r| r.points.iter().flat_map(|p| &p.core_cycles).sum())
    }

    /// The end-to-end metrics, each with its leave-one-round-out spread.
    /// Times are rescaled to the reference host speed by the best
    /// calibration sample of the same rounds (see [`crate::calibrate`]).
    ///
    /// # Panics
    ///
    /// Panics if no round ran.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, f64)> {
        let cycles = self.sim_cycles() as f64;
        let wall = |r: &[RoundReport]| raw_wall(r) * speed_factor(r);
        type Stat<'a> = (&'static str, &'a dyn Fn(&[RoundReport]) -> f64);
        let stats: [Stat; 4] = [
            ("wall_s", &wall),
            ("sim_mcycles_per_s", &|r| cycles / wall(r) / 1e6),
            ("setup_s", &|r| {
                let setup: Vec<f64> = r.iter().flat_map(|r| r.setup_s.clone()).collect();
                best(&setup) * speed_factor(r)
            }),
            ("peak_rss_mb", &|r| {
                r.iter().map(|r| r.peak_rss_kib).max().unwrap_or(0) as f64 / 1024.0
            }),
        ];
        stats
            .iter()
            .map(|(name, stat)| {
                let spread = leave_one_out_spread(&self.rounds, |r| stat(r));
                (*name, stat(&self.rounds), spread)
            })
            .collect()
    }

    /// The per-layer metrics: the traced pass's own, plus those that need
    /// the untraced rounds. Empty without a traced pass.
    pub fn per_layer(&self) -> Vec<(String, f64)> {
        let Some(trace) = &self.trace else {
            return Vec::new();
        };
        let rounds: Vec<f64> = self.rounds.iter().map(|r| r.walls.round).collect();
        let overheads: Vec<f64> = self.rounds.iter().map(|r| r.walls.overhead()).collect();
        let mut metrics = trace.metrics.clone();
        metrics.extend([
            ("sweep.overhead_s".to_string(), best(&overheads)),
            ("noise.raw_wall_s".to_string(), raw_wall(&self.rounds)),
            (
                "noise.host_slowdown".to_string(),
                1.0 / speed_factor(&self.rounds),
            ),
            ("noise.wall_p50_s".to_string(), median(&rounds)),
            (
                "noise.wall_max_s".to_string(),
                rounds.iter().copied().fold(f64::MIN, f64::max),
            ),
            (
                "trace.overhead".to_string(),
                trace.traced_wall_s / best(&rounds) - 1.0,
            ),
        ]);
        metrics
    }
}

/// Best-of-R wall as measured, before rescaling.
fn raw_wall(rounds: &[RoundReport]) -> f64 {
    best_of_wall(&rounds.iter().map(|r| r.walls.clone()).collect::<Vec<_>>())
}

/// Reference host speed over the speed of `rounds`: the calibration
/// kernel's reference time over its best time in those rounds.
fn speed_factor(rounds: &[RoundReport]) -> f64 {
    let calib: Vec<f64> = rounds.iter().flat_map(|r| r.calib_s.clone()).collect();
    REFERENCE_S / best(&calib)
}

fn finite(v: f64) -> Json {
    if v.is_finite() {
        Json::from(v)
    } else {
        Json::Null
    }
}

/// A results file: host facts, the seed, and per workload the check
/// outcome, every metric and each point's digest and best wall.
pub fn results_json(
    host: Json,
    seed: u64,
    runs: &[(WorkloadRun, Check)],
    catalogue: &Catalogue,
) -> Json {
    let workloads = runs
        .iter()
        .map(|(run, check)| {
            let points = run.rounds.first().map_or(Vec::new(), |r| {
                r.points
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        Json::obj([
                            ("label", Json::from(p.label.clone())),
                            ("digest", Json::from(digest_hex(p.digest))),
                            (
                                "best_wall_s",
                                Json::from(best(
                                    &run.rounds
                                        .iter()
                                        .map(|r| r.walls.points[i])
                                        .collect::<Vec<_>>(),
                                )),
                            ),
                        ])
                    })
                    .collect()
            });
            Json::obj([
                ("name", Json::from(run.workload.name())),
                ("rounds", Json::from(run.rounds.len())),
                ("attempted", Json::from(check.attempted)),
                ("failed", Json::from(check.failed)),
                (
                    "error_rate",
                    Json::from(check.failed as f64 / check.attempted.max(1) as f64),
                ),
                (
                    "end_to_end",
                    Json::obj(run.end_to_end().into_iter().map(|(name, v, spread)| {
                        (
                            name,
                            Json::obj([
                                ("value", Json::from(v)),
                                ("unit", Json::from(catalogue.unit(name))),
                                ("spread", finite(spread)),
                            ]),
                        )
                    })),
                ),
                (
                    "per_layer",
                    Json::obj(run.per_layer().into_iter().map(|(name, v)| {
                        let unit = Json::from(catalogue.unit(&name));
                        (name, Json::obj([("value", finite(v)), ("unit", unit)]))
                    })),
                ),
                ("points", Json::Arr(points)),
            ])
        })
        .collect();
    Json::obj([
        ("host", host),
        ("seed", Json::from(seed)),
        ("workloads", Json::Arr(workloads)),
    ])
}

/// How a metric moved between two results files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worsened by more than the bound.
    Worse,
    /// Either side's leave-one-round-out spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    /// Classifies `new` against `base` for a metric with `bound`.
    pub fn of(base: f64, new: f64, lower_is_better: bool, bound: f64, spreads: (f64, f64)) -> Self {
        if !(spreads.0 <= bound && spreads.1 <= bound) {
            return Verdict::Unresolved;
        }
        let ratio = new / base;
        let worsening = if lower_is_better {
            ratio - 1.0
        } else {
            1.0 - ratio
        };
        if worsening > bound {
            Verdict::Worse
        } else if worsening < -bound {
            Verdict::Better
        } else {
            Verdict::Same
        }
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The `--compare` table: for each workload present in both results and
/// each end-to-end metric, both values, the ratio to `base` and the
/// verdict against the metric's bound; then each side's error rate, where
/// any increase is worse.
///
/// # Errors
///
/// Returns the first malformed field of either file.
pub fn compare(base: &Json, new: &Json, catalogue: &Catalogue) -> Result<String, JsonError> {
    let mut out = format!(
        "{:<14} {:<18} {:>12} {:>12} {:>8} {:>6}  verdict\n",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    for b in base.field("workloads")?.as_arr()? {
        let name = b.field("name")?.as_str()?;
        let Some(n) = new
            .field("workloads")?
            .as_arr()?
            .iter()
            .find(|w| w.get("name").and_then(|v| v.as_str().ok()) == Some(name))
        else {
            continue;
        };
        for def in &catalogue.end_to_end {
            let (bm, nm) = (
                b.field("end_to_end")?.field(&def.name)?,
                n.field("end_to_end")?.field(&def.name)?,
            );
            let spread = |m: &Json| {
                m.field("spread")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::INFINITY)
            };
            let (bv, nv) = (bm.field("value")?.as_f64()?, nm.field("value")?.as_f64()?);
            let bound = def.bound.unwrap_or(0.0);
            let verdict = Verdict::of(bv, nv, def.lower_is_better, bound, (spread(bm), spread(nm)));
            out.push_str(&format!(
                "{:<14} {:<18} {:>12.6} {:>12.6} {:>8.4} {:>5.0}%  {}\n",
                name,
                def.name,
                bv,
                nv,
                nv / bv,
                bound * 100.0,
                verdict.label()
            ));
        }
        let (be, ne) = (
            b.field("error_rate")?.as_f64()?,
            n.field("error_rate")?.as_f64()?,
        );
        out.push_str(&format!(
            "{:<14} {:<18} {:>12.6} {:>12.6} {:>8} {:>6}  {}\n",
            name,
            "error_rate",
            be,
            ne,
            "-",
            "any",
            if ne > be { "worse" } else { "same" }
        ));
    }
    Ok(out)
}
