//! Shared helpers for the figure/table regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation (see `DESIGN.md`'s per-experiment index). This library holds
//! the bits they share: simple table/series printing and the common
//! command-line conventions (`--quick` runs a scaled-down workload so the
//! binary finishes in seconds; the default reproduces the full experiment).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;
use std::time::Duration;

use gemmini_core::metrics::Metrics;
use gemmini_core::trace::{export_chrome_trace, Tracer};
use gemmini_core::AccelError;
use gemmini_dnn::graph::{Activation, Layer, Network, PoolKind};
use gemmini_mem::json::{FromJson, Json, ToJson};
use gemmini_soc::run::{
    run_networks, run_networks_metered, run_networks_traced, RunOptions, SocReport,
};
use gemmini_soc::shard::{run_sharded, ShardCli, ShardError, ShardSpec};
use gemmini_soc::sweep::EXIT_RECORDED_FAILURES;
use gemmini_soc::SocConfig;

pub mod figures;

/// The shared design-space sweep executor (re-exported so the figure
/// binaries have one import path for both printing helpers and sweeps).
pub use gemmini_soc::shard;
pub use gemmini_soc::sweep;
pub use gemmini_soc::sweep::{run_sweep, DesignPoint, SweepOptions, SweepResult};

/// Prints a named section header.
pub fn section(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints a two-column table of (label, value) rows.
pub fn table2(header: (&str, &str), rows: &[(String, String)]) {
    let w = rows
        .iter()
        .map(|(a, _)| a.len())
        .chain([header.0.len()])
        .max()
        .unwrap_or(10)
        + 2;
    println!("{:<w$} {}", header.0, header.1);
    println!("{}", "-".repeat(w + header.1.len() + 8));
    for (a, b) in rows {
        println!("{a:<w$} {b}");
    }
}

/// Renders a horizontal ASCII bar of `value` relative to `max`.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round().max(0.0) as usize;
    "#".repeat(n.min(width))
}

/// Whether `--quick` was passed (scaled-down workloads for smoke runs).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Returns the argument following `flag`, if present.
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The `--json <path>` argument: where to persist machine-readable
/// per-point results (the sweep checkpoint file).
pub fn json_path() -> Option<PathBuf> {
    arg_value("--json").map(PathBuf::from)
}

/// Whether `--resume` was passed (skip points already completed in the
/// `--json` checkpoint file).
pub fn resume_flag() -> bool {
    std::env::args().any(|a| a == "--resume")
}

/// The `--trace <path>` argument: where to write a Chrome `trace_event`
/// JSON file for one representative run (open it in `chrome://tracing`
/// or Perfetto).
pub fn trace_path() -> Option<PathBuf> {
    arg_value("--trace").map(PathBuf::from)
}

/// The `--status <path>` argument: where the sweep rewrites its live
/// JSON heartbeat ([`gemmini_soc::telemetry::Heartbeat`]) — atomically,
/// on every point completion and every ~2 s. `watch cat <path>` is the
/// intended consumer; under `--shards` the supervisor aggregates its
/// children's heartbeats here.
pub fn status_path() -> Option<PathBuf> {
    arg_value("--status").map(PathBuf::from)
}

/// The `--metrics <path>` argument: where to write the final live-metrics
/// registry snapshot as Prometheus text exposition when the sweep ends.
pub fn metrics_path() -> Option<PathBuf> {
    arg_value("--metrics").map(PathBuf::from)
}

/// Parses a `--flag <secs>` duration argument (fractional seconds
/// allowed). Exits with status `2` on a non-positive or unparseable
/// value — a mistyped budget must not silently disable the feature.
fn duration_flag(flag: &str) -> Option<Duration> {
    let v = arg_value(flag)?;
    match v.trim().parse::<f64>() {
        Ok(secs) if secs > 0.0 && secs.is_finite() => Some(Duration::from_secs_f64(secs)),
        _ => {
            eprintln!("error: {flag} requires a positive number of seconds (got '{v}')");
            std::process::exit(2);
        }
    }
}

/// The `--point-timeout <secs>` argument: per-point wall-clock budget.
/// A point exceeding it is recorded as a first-class `failed:timeout`
/// checkpoint entry and the sweep finishes with a failure summary and a
/// non-zero exit (see [`gemmini_soc::sweep::SweepOptions`]).
pub fn point_timeout_flag() -> Option<Duration> {
    duration_flag("--point-timeout")
}

/// The `--watchdog <secs>` argument: the `--shards` supervisor kills and
/// retries any worker whose heartbeat `done` count does not advance for
/// this long (see [`gemmini_soc::shard::SupervisorOptions`]).
pub fn watchdog_flag() -> Option<Duration> {
    duration_flag("--watchdog")
}

/// The status base the watchdog falls back to when `--watchdog` is given
/// without `--status`: `sweep.jsonl` → `sweep.status.json` next to the
/// checkpoint. Workers and the supervisor both derive this from the
/// forwarded `--json`/`--watchdog` flags, so they agree on where the
/// heartbeats live without any extra plumbing.
fn derived_status_path(json: &Path) -> PathBuf {
    let stem = json.file_stem().and_then(|s| s.to_str()).unwrap_or("sweep");
    json.with_file_name(format!("{stem}.status.json"))
}

/// The process-wide live-metrics handle: one shared registry, enabled
/// iff `--status` or `--metrics` was passed; otherwise the disabled
/// (free) handle. Shared so the sweep executor's point counters and
/// every simulated point's engine/DMA/TLB/DRAM instrumentation land in
/// the same registry that the heartbeat and exposition files export.
pub fn cli_metrics() -> Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS
        .get_or_init(|| {
            if status_path().is_some() || metrics_path().is_some() {
                Metrics::enabled().0
            } else {
                Metrics::disabled()
            }
        })
        .clone()
}

/// Re-runs one design point in timing mode with a buffered tracer and
/// writes the collected events to `path` as Chrome `trace_event` JSON —
/// the shared implementation behind every figure binary's `--trace`.
///
/// # Panics
///
/// Panics if the simulation fails or the file cannot be written — a run
/// asked to produce a trace must not silently drop it.
pub fn export_trace_run(path: &Path, label: &str, config: &SocConfig, nets: &[Network]) {
    let (tracer, sink) = Tracer::buffered();
    run_networks_traced(config, nets, &RunOptions::timing(), &tracer).expect("trace run succeeds");
    let events = sink.lock().expect("trace sink lock").take();
    export_chrome_trace(path, &events)
        .unwrap_or_else(|e| panic!("cannot write trace {}: {e}", path.display()));
    eprintln!(
        "trace: wrote {} events for '{label}' to {}",
        events.len(),
        path.display()
    );
}

/// Sweep options resolved from the shared CLI conventions: `--json`
/// wires the checkpoint path, `--resume` enables skip-completed mode,
/// `--status`/`--metrics` the telemetry files, and `--point-timeout` /
/// `--watchdog` the robustness budgets.
///
/// `--faults <schedule>` is exported as `GEMMINI_FAULTS` so shard worker
/// children inherit it. The schedule — from the flag or an inherited
/// environment — is parsed here, and one that does not parse exits the
/// process with status `2` before any point runs: a typo'd schedule must
/// not quietly run fault-free and test nothing.
pub fn sweep_cli_options() -> SweepOptions {
    let checkpoint = json_path();
    let resume = resume_flag();
    if resume && checkpoint.is_none() {
        eprintln!("warning: --resume has no effect without --json <path>");
    }
    if let Some(schedule) = arg_value("--faults") {
        std::env::set_var(gemmini_soc::fault::FAULTS_ENV, &schedule);
    }
    if let Err(msg) = gemmini_soc::fault::arm() {
        eprintln!("error: {msg}");
        std::process::exit(2);
    }
    let watchdog = watchdog_flag();
    let mut status = status_path();
    if watchdog.is_some() && status.is_none() {
        // The watchdog reads worker heartbeats; without --status it
        // derives a status base from the checkpoint path. Workers derive
        // the same base from their forwarded flags, so supervisor and
        // children agree without extra plumbing.
        status = checkpoint.as_deref().map(derived_status_path);
        match &status {
            Some(path) => eprintln!(
                "watchdog: no --status given; deriving heartbeat base {}",
                path.display()
            ),
            None => eprintln!(
                "warning: --watchdog without --json or --status has no heartbeats to watch"
            ),
        }
    }
    SweepOptions {
        checkpoint,
        resume,
        metrics: cli_metrics(),
        status,
        prometheus: metrics_path(),
        point_timeout: point_timeout_flag(),
        watchdog,
        ..SweepOptions::default()
    }
}

/// The process's own arguments minus the sharding flags — what a shard
/// worker child should inherit. `--shard`/`--shards` (and values),
/// `--merge` (and its paths) and `--resume` are stripped; the supervisor
/// re-appends `--shard i/N --resume` per child. Everything else
/// (`--quick`, `--json`, `--only`, …) passes through unchanged.
fn forwarded_args<A>(args: A) -> Vec<String>
where
    A: IntoIterator<Item = String>,
{
    let mut out = Vec::new();
    let mut it = args.into_iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shards" | "--shard" => {
                it.next();
            }
            "--merge" => {
                while it.peek().is_some_and(|a| !a.starts_with("--")) {
                    it.next();
                }
            }
            "--resume" => {}
            _ => out.push(arg),
        }
    }
    out
}

/// Builds the worker-process command for one shard: the current binary,
/// re-invoked with the same arguments plus `--shard i/N --resume` (resume
/// so a supervisor *retry* of a crashed shard picks up from its
/// checkpoint instead of starting over).
///
/// # Panics
///
/// Panics if the current executable path cannot be resolved.
pub fn shard_child_command(spec: ShardSpec) -> Command {
    let exe = std::env::current_exe().expect("current executable path");
    let mut cmd = Command::new(exe);
    cmd.args(forwarded_args(std::env::args().skip(1)));
    cmd.arg("--shard").arg(spec.to_string()).arg("--resume");
    cmd
}

/// The generic sharded sweep entry point for the figure binaries: parses
/// the sharding CLI (`--shard i/N` / `--shards N` / `--merge <file>…`)
/// alongside the usual sweep flags and dispatches through
/// [`gemmini_soc::shard::run_sharded`].
///
/// Returns `None` when this process was a shard worker (`--shard`): its
/// job was producing the shard checkpoint file, there is nothing to
/// render, and `main` should simply return. In every other mode the
/// full-grid results come back in submission order.
///
/// Exits the process with status `2` on a malformed sharding CLI, `1`
/// on an execution error (supervisor exhaustion, incomplete merge, or
/// failed shard points — the non-zero exit is what tells a supervisor to
/// retry this worker), and [`EXIT_RECORDED_FAILURES`] when the grid
/// finished but carries recorded point failures (e.g. `--point-timeout`
/// entries): the checkpoint is complete, a terminal failure summary is
/// printed, and retrying would not improve the result.
pub fn sharded_sweep_map<I, T, F>(items: Vec<(String, u64, I)>, f: F) -> Option<Vec<SweepResult<T>>>
where
    I: Send,
    T: ToJson + FromJson + Send,
    F: Fn(I) -> Result<T, AccelError> + Sync,
{
    let cli = match ShardCli::from_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    match run_sharded(items, &cli, sweep_cli_options(), shard_child_command, f) {
        Ok(results) => {
            // The grid may carry recorded failures (e.g. point timeouts
            // served from a checkpoint on resume, or stitched in by a
            // merge): the sweep *finished* — every point is on the books
            // — but the figure cannot be rendered from an incomplete
            // grid. Print the terminal failure summary and exit with the
            // recorded-failures status instead of handing `Err` outcomes
            // to a renderer that expects successes.
            if let Some(results) = &results {
                let recorded: Vec<&SweepResult<T>> =
                    results.iter().filter(|r| r.outcome.is_err()).collect();
                if !recorded.is_empty() {
                    eprintln!(
                        "sweep: finished with {} recorded point failure(s):",
                        recorded.len()
                    );
                    for r in &recorded {
                        if let Err(e) = &r.outcome {
                            eprintln!("  {}: {e}", r.label);
                        }
                    }
                    eprintln!(
                        "sweep: grid is fully accounted for but incomplete; \
                         exiting {EXIT_RECORDED_FAILURES}"
                    );
                    std::process::exit(EXIT_RECORDED_FAILURES);
                }
            }
            results
        }
        Err(e) => {
            eprintln!("error: {e}");
            let code = match &e {
                // A complete slice with recorded failures is terminal:
                // the supervisor must accept it rather than retry it.
                ShardError::RecordedFailures { .. } => EXIT_RECORDED_FAILURES,
                _ => 1,
            };
            std::process::exit(code);
        }
    }
}

/// [`sharded_sweep_map`] instantiated for [`DesignPoint`] sweeps — the
/// drop-in sharded replacement for `run_sweep_with(points,
/// sweep_cli_options())` in the figure binaries.
pub fn sharded_sweep(points: Vec<DesignPoint>) -> Option<Vec<SweepResult<SocReport>>> {
    let items = points
        .into_iter()
        .map(|p| (p.label.clone(), p.fingerprint(), p))
        .collect();
    let metrics = cli_metrics();
    sharded_sweep_map(items, move |p: DesignPoint| {
        run_networks_metered(&p.config, &p.networks, &p.options, &metrics)
    })
}

/// Writes one JSON document as a single line to `path` (the non-sweep
/// figures' `--json` output; sweep binaries persist per-point lines via
/// the checkpoint instead).
///
/// # Panics
///
/// Panics if the file cannot be written — a figure run asked to persist
/// results must not silently drop them.
pub fn write_json_doc(path: &Path, doc: &Json) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", parent.display()));
        }
    }
    std::fs::write(path, format!("{}\n", doc.encode()))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// Runs the quick ResNet-style workload on `cfg` in timing mode — the
/// shared helper behind the shape tests and quick-mode figure paths.
///
/// # Panics
///
/// Panics if the simulation reports an accelerator error.
pub fn run_quick(cfg: &SocConfig) -> SocReport {
    run_networks(cfg, &[quick_resnet()], &RunOptions::timing()).expect("quick run succeeds")
}

/// The ResNet-class workload for the current mode: full ResNet50, or
/// the reduced [`quick_resnet`] under `--quick`.
pub fn resnet_workload() -> Network {
    if quick_mode() {
        quick_resnet()
    } else {
        gemmini_dnn::zoo::resnet50()
    }
}

/// A reduced-resolution ResNet-style network for `--quick` runs: the same
/// layer mix (conv / matmul / residual-add / pool) at 32×32 so a full
/// simulated inference takes seconds instead of minutes.
pub fn quick_resnet() -> Network {
    let mut net = Network::new("resnet_quick");
    net.push(
        "conv1",
        Layer::Conv {
            in_channels: 3,
            out_channels: 32,
            kernel: 3,
            stride: 1,
            padding: 1,
            in_hw: (32, 32),
            activation: Activation::Relu,
        },
    );
    net.push(
        "pool1",
        Layer::Pool {
            kind: PoolKind::Max,
            size: 2,
            stride: 2,
            padding: 0,
            channels: 32,
            in_hw: (32, 32),
        },
    );
    let mut hw = 16;
    let mut ch = 32;
    for stage in 0..3 {
        let out = ch * 2;
        for b in 0..2 {
            let stride = if b == 0 && stage > 0 { 2 } else { 1 };
            let out_hw = hw / stride;
            net.push(
                format!("s{stage}b{b}_a"),
                Layer::Conv {
                    in_channels: ch,
                    out_channels: out,
                    kernel: 3,
                    stride,
                    padding: 1,
                    in_hw: (hw, hw),
                    activation: Activation::Relu,
                },
            );
            net.push(
                format!("s{stage}b{b}_b"),
                Layer::Conv {
                    in_channels: out,
                    out_channels: out,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                    in_hw: (out_hw, out_hw),
                    activation: Activation::None,
                },
            );
            if b == 0 {
                net.push(
                    format!("s{stage}b{b}_proj"),
                    Layer::Conv {
                        in_channels: ch,
                        out_channels: out,
                        kernel: 1,
                        stride,
                        padding: 0,
                        in_hw: (hw, hw),
                        activation: Activation::None,
                    },
                );
            }
            net.push(
                format!("s{stage}b{b}_add"),
                Layer::ResAdd {
                    elements: out * out_hw * out_hw,
                },
            );
            hw = out_hw;
            ch = out;
        }
    }
    net.push(
        "fc",
        Layer::Matmul {
            m: 1,
            k: ch * hw * hw,
            n: 10,
            activation: Activation::None,
        },
    );
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemmini_dnn::graph::LayerClass;

    #[test]
    fn quick_resnet_has_all_classes() {
        let net = quick_resnet();
        assert!(net.count_of_class(LayerClass::Conv) > 5);
        assert!(net.count_of_class(LayerClass::ResAdd) >= 6);
        assert_eq!(net.count_of_class(LayerClass::Matmul), 1);
        assert!(net.total_macs() < 200_000_000);
    }

    #[test]
    fn forwarded_args_strip_only_sharding_flags() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            forwarded_args(args(&[
                "--quick",
                "--shards",
                "4",
                "--json",
                "out.jsonl",
                "--resume"
            ])),
            args(&["--quick", "--json", "out.jsonl"])
        );
        assert_eq!(
            forwarded_args(args(&["--shard", "1/2", "--only", "resnet"])),
            args(&["--only", "resnet"])
        );
        assert_eq!(
            forwarded_args(args(&["--merge", "a.jsonl", "b.jsonl", "--quick"])),
            args(&["--quick"])
        );
        // Telemetry flags forward unchanged: each child derives its own
        // per-shard status/metrics paths from the base paths.
        assert_eq!(
            forwarded_args(args(&[
                "--shards",
                "2",
                "--status",
                "status.json",
                "--metrics",
                "metrics.prom"
            ])),
            args(&["--status", "status.json", "--metrics", "metrics.prom"])
        );
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(10.0, 10.0, 10), "##########");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }
}
