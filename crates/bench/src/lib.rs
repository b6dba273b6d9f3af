//! Shared helpers for the figure/table regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation (see `DESIGN.md`'s per-experiment index). This library holds
//! the bits they share: simple table/series printing and the one
//! command-line parser, [`SweepCli`], which documents every flag
//! (`--quick` runs a scaled-down workload so the binary finishes in
//! seconds; the default reproduces the full experiment).

#![deny(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use gemmini_core::metrics::Metrics;
use gemmini_core::trace::{export_chrome_trace, Tracer};
use gemmini_core::AccelError;
use gemmini_dnn::graph::{Activation, Layer, Network, PoolKind};
use gemmini_mem::json::{FromJson, Json, ToJson};
use gemmini_soc::run::{run_networks, RunOptions, SocReport};
use gemmini_soc::shard::{run_sharded, ShardMode, ShardSpec};
use gemmini_soc::sweep::{parse_threads, THREADS_ENV};
use gemmini_soc::SocConfig;

pub mod figures;

pub use gemmini_soc::sweep::{DesignPoint, SweepOptions, SweepResult};

/// Prints a named section header.
pub fn section(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Renders a horizontal ASCII bar of `value` relative to `max`.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round().max(0.0) as usize;
    "#".repeat(n.min(width))
}

/// The flags every sweep binary accepts, in [`SweepCli::parse`]'s usage
/// form: checkpointing, telemetry, the hung-shard watchdog, fault
/// injection and sharding.
pub const SWEEP_FLAGS: &[&str] = &[
    "--json <path>",
    "--resume",
    "--status <path>",
    "--metrics <path>",
    "--watchdog <secs>",
    "--faults <schedule>",
    "--shard <i/N>",
    "--shards <N>",
    "--merge <shard.jsonl>...",
];

/// The parsed command line of a figure binary: the one way a flag
/// reaches the code, and the reference for what each flag does. A
/// binary's [`SweepCli::parse`] usage lists the flags it takes; any
/// other flag, a missing or bad value, conflicting modes or a bad
/// `GEMMINI_THREADS` exits 2 before any point runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepCli {
    /// `--quick`: a scaled-down workload that finishes in seconds.
    pub quick: bool,
    /// `--only <name>` (fig7): only the zoo networks matching `name`.
    pub only: Option<String>,
    /// `--json <path>`: the sweep checkpoint, one JSON line per point
    /// (fig3/fig6: one JSON document).
    pub json: Option<PathBuf>,
    /// `--resume` (needs `--json`): skip points already checkpointed.
    pub resume: bool,
    /// `--trace <path>`: Chrome `trace_event` JSON of one representative
    /// point ([`SweepCli::export_trace`]).
    pub trace: Option<PathBuf>,
    /// `--status <path>`: a live JSON heartbeat, rewritten every point
    /// and ~2 s; under `--shards` it aggregates the workers' heartbeats.
    pub status: Option<PathBuf>,
    /// `--metrics <path>`: the final live metrics as Prometheus text.
    pub metrics: Option<PathBuf>,
    /// `--watchdog <secs>` (needs `--json` or `--status`): the `--shards`
    /// supervisor kills and retries a worker whose heartbeat stalls, like
    /// a crash. `--shards 1 --watchdog <secs>` guards a single-process
    /// sweep against a hung point.
    pub watchdog: Option<Duration>,
    /// `--faults <schedule>`: arm [`gemmini_soc::fault`]; overrides an
    /// inherited `GEMMINI_FAULTS`.
    pub faults: Option<String>,
    /// `--shards <N>` supervises N crash-retried workers; `--shard <i/N>`
    /// runs one worker's slice; `--merge <shard.jsonl>...` stitches shard
    /// checkpoints. At most one; the first two need `--json`.
    pub mode: ShardMode,
    /// `--cores <N>` (run_gnn): the core count, at least 1.
    pub cores: Option<usize>,
    /// `--functional` (run_gnn): functional instead of timing mode.
    pub functional: bool,
    /// The positional argument: run_gnn's model, profile_layers' network.
    pub positional: Option<String>,
}

impl SweepCli {
    /// Parses the process arguments — this is their only reader —
    /// against `usage`, the flags this binary takes (`"--json <path>"`,
    /// `"--quick"`) plus at most one positional argument (`"<model.gnn>"`
    /// required, `"[network]"` optional), and checks `GEMMINI_THREADS`
    /// with the parser the sweep executor uses. On any error, prints it
    /// and the usage line and exits with status `2`.
    pub fn parse(usage: &[&str]) -> Self {
        let mut args = std::env::args();
        let bin = args.next().unwrap_or_default();
        let threads = std::env::var(THREADS_ENV).map_or(Ok(None), |v| parse_threads(&v));
        let parsed = threads.and_then(|_| Self::from_args(args, usage));
        parsed.unwrap_or_else(|msg| {
            let bin = Path::new(&bin).file_name().unwrap_or_default();
            let synopsis: Vec<String> = std::iter::once(bin.to_string_lossy().into_owned())
                .chain(usage.iter().map(|u| {
                    if u.starts_with("--") {
                        format!("[{u}]")
                    } else {
                        u.to_string()
                    }
                }))
                .collect();
            eprintln!("error: {msg}");
            eprintln!("usage: {}", synopsis.join(" "));
            std::process::exit(2);
        })
    }

    /// Parses `args` (without the program name) against `usage`.
    ///
    /// # Errors
    ///
    /// A one-line message for an undeclared flag or argument, a repeated
    /// flag, a missing or malformed value, or conflicting modes.
    fn from_args<A>(args: A, usage: &[&str]) -> Result<Self, String>
    where
        A: IntoIterator<Item = String>,
    {
        let positional = usage.iter().find(|u| !u.starts_with("--"));
        let mut cli = Self::default();
        let mut seen: Vec<String> = Vec::new();
        let mut it = args.into_iter().peekable();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') && positional.is_some() && cli.positional.is_none() {
                cli.positional = Some(arg);
                continue;
            }
            let declared = |u: &&str| u.starts_with("--") && u.split(' ').next() == Some(&arg);
            if !usage.iter().any(declared) {
                return Err(if arg.starts_with('-') {
                    format!("unknown flag '{arg}'")
                } else {
                    format!("unexpected argument '{arg}'")
                });
            }
            if seen.contains(&arg) {
                return Err(format!("{arg} given more than once"));
            }
            let mut value = || {
                it.next_if(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{arg} requires a value"))
            };
            let count = |v: String| match v.trim().parse::<usize>() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(format!("{arg} requires a positive integer (got '{v}')")),
            };
            let seconds = |v: String| {
                let secs = v.trim().parse::<f64>().ok().filter(|s| *s > 0.0);
                secs.and_then(|s| Duration::try_from_secs_f64(s).ok())
                    .ok_or_else(|| {
                        format!("{arg} requires a positive number of seconds (got '{v}')")
                    })
            };
            match arg.as_str() {
                "--quick" => cli.quick = true,
                "--only" => cli.only = Some(value()?),
                "--json" => cli.json = Some(value()?.into()),
                "--resume" => cli.resume = true,
                "--trace" => cli.trace = Some(value()?.into()),
                "--status" => cli.status = Some(value()?.into()),
                "--metrics" => cli.metrics = Some(value()?.into()),
                "--watchdog" => cli.watchdog = Some(seconds(value()?)?),
                "--faults" => cli.faults = Some(value()?),
                "--shard" => cli.mode = ShardMode::Worker(ShardSpec::parse(&value()?)?),
                "--shards" => cli.mode = ShardMode::Supervise(count(value()?)?),
                "--merge" => {
                    let mut paths = Vec::new();
                    while let Some(path) = it.next_if(|v| !v.starts_with("--")) {
                        paths.push(PathBuf::from(path));
                    }
                    if paths.is_empty() {
                        return Err("--merge requires at least one shard checkpoint path".into());
                    }
                    cli.mode = ShardMode::Merge(paths);
                }
                "--cores" => cli.cores = Some(count(value()?)?),
                "--functional" => cli.functional = true,
                _ => unreachable!("{arg} is declared in a usage but has no parser"),
            }
            seen.push(arg);
        }
        let modes = ["--shard", "--shards", "--merge"];
        if seen.iter().filter(|f| modes.contains(&f.as_str())).count() > 1 {
            return Err("--shard, --shards and --merge are mutually exclusive".into());
        }
        if let Some(p) = positional.filter(|p| p.starts_with('<') && cli.positional.is_none()) {
            return Err(format!("missing {p}"));
        }
        if cli.json.is_none() {
            if let Some(flag) = ["--shard", "--shards", "--resume"]
                .into_iter()
                .find(|f| seen.iter().any(|s| s == f))
            {
                return Err(format!("{flag} requires --json <path>"));
            }
            if cli.watchdog.is_some() && cli.status.is_none() {
                return Err("--watchdog requires --json <path> or --status <path>".into());
            }
        }
        Ok(cli)
    }

    /// The command line of shard worker `spec`: this one in worker mode,
    /// plus `--resume` so a supervisor *retry* of a crashed shard picks
    /// up from its checkpoint instead of starting over. It parses back
    /// to exactly that [`SweepCli`]. Only sweep binaries shard, so only
    /// their flags are written.
    fn worker_args(&self, spec: ShardSpec) -> Vec<String> {
        let path = |p: &PathBuf| p.display().to_string();
        let secs = |d: Duration| d.as_secs_f64().to_string();
        let mut args = vec!["--shard".into(), spec.to_string(), "--resume".into()];
        if self.quick {
            args.push("--quick".into());
        }
        for (flag, value) in [
            ("--only", self.only.clone()),
            ("--json", self.json.as_ref().map(path)),
            ("--trace", self.trace.as_ref().map(path)),
            ("--status", self.status.as_ref().map(path)),
            ("--metrics", self.metrics.as_ref().map(path)),
            ("--watchdog", self.watchdog.map(secs)),
            ("--faults", self.faults.clone()),
        ] {
            if let Some(value) = value {
                args.extend([flag.into(), value]);
            }
        }
        args
    }

    /// The worker-process command for shard `spec`: the current binary,
    /// re-invoked with [`SweepCli::worker_args`].
    ///
    /// # Panics
    ///
    /// Panics if the current executable path cannot be resolved.
    fn shard_child_command(&self, spec: ShardSpec) -> Command {
        let exe = std::env::current_exe().expect("current executable path");
        let mut cmd = Command::new(exe);
        cmd.args(self.worker_args(spec));
        cmd
    }

    /// The sweep options this command line selects, with one live-metrics
    /// registry, enabled iff `--status` or `--metrics` was given.
    /// `--watchdog` without `--status` watches heartbeats next to the
    /// checkpoint (`sweep.jsonl` → `sweep.status.json`); workers derive
    /// the same path from their re-serialized command line.
    fn sweep_options(&self) -> SweepOptions {
        let mut status = self.status.clone();
        if self.watchdog.is_some() && status.is_none() {
            if let Some(json) = &self.json {
                let stem = json.file_stem().and_then(|s| s.to_str()).unwrap_or("sweep");
                let derived = json.with_file_name(format!("{stem}.status.json"));
                eprintln!(
                    "watchdog: no --status given; deriving heartbeat base {}",
                    derived.display()
                );
                status = Some(derived);
            }
        }
        let metrics = if self.status.is_some() || self.metrics.is_some() {
            Metrics::enabled().0
        } else {
            Metrics::disabled()
        };
        SweepOptions {
            checkpoint: self.json.clone(),
            resume: self.resume,
            metrics,
            status,
            prometheus: self.metrics.clone(),
            watchdog: self.watchdog,
            ..SweepOptions::default()
        }
    }

    /// The sharded sweep entry point for the figure binaries: runs
    /// `items` through [`gemmini_soc::shard::run_sharded`] in the parsed
    /// [`ShardMode`] with the sweep options these flags select. `f` also
    /// receives their live-metrics handle, to instrument each point.
    ///
    /// Returns `None` when this process was a shard worker (`--shard`):
    /// its job was producing the shard checkpoint file, there is nothing
    /// to render, and `main` should simply return. In every other mode
    /// the full-grid results come back in submission order.
    ///
    /// Exits the process with status `2` on a fault schedule (or
    /// `GEMMINI_FAULTS_SHARD`) that does not parse, and `1` on an
    /// execution error (supervisor exhaustion, incomplete merge, or
    /// failed points — the non-zero exit is what tells a supervisor to
    /// retry this worker).
    pub fn sharded_sweep_map<I, T, F>(
        &self,
        items: Vec<(String, u64, I)>,
        f: F,
    ) -> Option<Vec<SweepResult<T>>>
    where
        I: Send,
        T: ToJson + FromJson + Send,
        F: Fn(I, &Metrics) -> Result<T, AccelError> + Sync,
    {
        // A typo'd schedule must not quietly run fault-free and test
        // nothing.
        if let Err(msg) = gemmini_soc::fault::arm(self.faults.as_deref()) {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
        let opts = self.sweep_options();
        let metrics = opts.metrics.clone();
        let f = |item| f(item, &metrics);
        let child = |spec| self.shard_child_command(spec);
        let results = run_sharded(items, &self.mode, opts, child, f).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
        // A figure cannot be rendered from a grid with holes. Failed
        // points were not persisted, so a `--resume` re-runs exactly them.
        let mut complete = true;
        for r in results.iter().flatten() {
            if let Err(e) = &r.outcome {
                eprintln!("error: point '{}' failed: {e}", r.label);
                complete = false;
            }
        }
        if !complete {
            std::process::exit(1);
        }
        results
    }

    /// `--trace`: re-runs `point` with a buffered tracer and writes the
    /// collected events as Chrome `trace_event` JSON. Does nothing
    /// without `--trace`.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails or the file cannot be written — a
    /// run asked to produce a trace must not silently drop it.
    pub fn export_trace(&self, point: &DesignPoint) {
        let Some(path) = &self.trace else {
            return;
        };
        let (tracer, sink) = Tracer::buffered();
        point
            .run(&tracer, &Metrics::disabled())
            .expect("trace run succeeds");
        let events = sink.lock().expect("trace sink lock").take();
        export_chrome_trace(path, &events)
            .unwrap_or_else(|e| panic!("cannot write trace {}: {e}", path.display()));
        eprintln!(
            "trace: wrote {} events for '{}' to {}",
            events.len(),
            point.label,
            path.display()
        );
    }

    /// [`SweepCli::sharded_sweep_map`] instantiated for [`DesignPoint`]
    /// sweeps.
    pub fn sharded_sweep(&self, points: Vec<DesignPoint>) -> Option<Vec<SweepResult<SocReport>>> {
        let items = points
            .into_iter()
            .map(|p| (p.label.clone(), p.fingerprint(), p))
            .collect();
        self.sharded_sweep_map(items, |p: DesignPoint, metrics| {
            p.run(&Tracer::disabled(), metrics)
        })
    }
}

/// The zoo networks whose name contains `name` (fig7's `--only`,
/// profile_layers' network argument). Exits the process with status `2`,
/// listing the available names, when none does.
pub fn zoo_matching(name: &str) -> Vec<Network> {
    let all = gemmini_dnn::zoo::all();
    let names: Vec<&str> = all.iter().map(Network::name).collect();
    if !names.iter().any(|n| n.contains(name)) {
        eprintln!(
            "error: no zoo network matches '{name}'; available: {}",
            names.join(", ")
        );
        std::process::exit(2);
    }
    all.into_iter()
        .filter(|n| n.name().contains(name))
        .collect()
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

/// The ResNet-class workload: full ResNet50, or the reduced
/// [`quick_resnet`] when `quick` (`--quick`).
pub fn resnet_workload(quick: bool) -> Network {
    if quick {
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

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn sweep(v: &[&str]) -> Result<SweepCli, String> {
        let usage = [&["--quick", "--only <name>", "--trace <path>"], SWEEP_FLAGS].concat();
        SweepCli::from_args(args(v), &usage)
    }

    #[test]
    fn cli_parses_each_mode_and_rejects_conflicts() {
        let cli = sweep(&["--quick", "--shard", "1/2", "--json", "x"]).unwrap();
        assert_eq!(
            cli.mode,
            ShardMode::Worker(ShardSpec { index: 1, count: 2 })
        );
        assert!(cli.quick);

        let cli = sweep(&["--shards", "4", "--json", "x"]).unwrap();
        assert_eq!(cli.mode, ShardMode::Supervise(4));

        let cli = sweep(&["--merge", "a.jsonl", "b.jsonl", "--quick"]).unwrap();
        assert_eq!(
            cli.mode,
            ShardMode::Merge(vec![PathBuf::from("a.jsonl"), PathBuf::from("b.jsonl")])
        );

        assert_eq!(sweep(&["--quick"]).unwrap().mode, ShardMode::Local);
        assert!(sweep(&["--shards", "0", "--json", "x"]).is_err());
        assert!(sweep(&["--merge"]).is_err());
        let both = sweep(&["--shard", "0/2", "--shards", "2", "--json", "x"]);
        assert!(both.unwrap_err().contains("mutually exclusive"));
    }

    #[test]
    fn cli_rejects_undeclared_flags_and_bad_values() {
        let err = |v: &[&str]| sweep(v).unwrap_err();
        assert!(err(&["--qick"]).contains("unknown flag '--qick'"));
        assert!(
            err(&["--cores", "2"]).contains("unknown flag"),
            "not declared here"
        );
        assert!(err(&["stray"]).contains("unexpected argument"));
        assert!(err(&["--quick", "--quick"]).contains("more than once"));
        assert!(err(&["--json"]).contains("requires a value"));
        assert!(err(&["--json", "--quick"]).contains("requires a value"));
        assert!(err(&["--watchdog", "0", "--json", "x"]).contains("positive number of seconds"));
        assert!(err(&["--watchdog", "abc", "--json", "x"]).contains("positive number of seconds"));
        assert!(err(&["--watchdog", "1e300", "--json", "x"]).contains("positive number"));
        assert!(err(&["--watchdog", "inf", "--json", "x"]).contains("positive number"));
        assert!(err(&["--shard", "2/2", "--json", "x"]).contains("out of range"));
        // Modes that need a checkpoint, and flags that do nothing
        // without one, are parse errors.
        assert!(err(&["--shard", "0/2"]).contains("--shard requires --json"));
        assert!(err(&["--shards", "2"]).contains("--shards requires --json"));
        assert!(err(&["--resume"]).contains("--resume requires --json"));
        assert!(err(&["--watchdog", "2"]).contains("--watchdog requires"));
        assert!(sweep(&["--watchdog", "2", "--status", "s.json"]).is_ok());

        let gnn = |v: &[&str]| {
            SweepCli::from_args(args(v), &["--cores <N>", "--functional", "<model.gnn>"])
        };
        let cli = gnn(&["m.gnn", "--cores", "2", "--functional"]).unwrap();
        assert_eq!(cli.positional.as_deref(), Some("m.gnn"));
        assert_eq!(cli.cores, Some(2));
        assert!(gnn(&["m.gnn", "--cores", "abc"]).is_err());
        assert!(gnn(&["m.gnn", "--cores", "0"]).is_err());
        assert!(gnn(&["--functional"])
            .unwrap_err()
            .contains("missing <model.gnn>"));
        assert!(gnn(&["a.gnn", "b.gnn"]).is_err());
        assert!(
            gnn(&["a.gnn", "<model.gnn>"]).is_err(),
            "a usage entry is no flag"
        );
        let optional = SweepCli::from_args(args(&[]), &["[network]"]).unwrap();
        assert_eq!(optional.positional, None);
        assert!(SweepCli::from_args(args(&["--quick"]), &["[network]"]).is_err());
    }

    /// A shard worker's command line parses back to its supervisor's,
    /// switched to worker mode with `--resume`.
    #[test]
    fn worker_args_round_trip() {
        let spec = ShardSpec { index: 1, count: 3 };
        for v in [
            &["--json", "out.jsonl", "--shards", "3"][..],
            &[
                "--quick",
                "--json",
                "a/b.jsonl",
                "--resume",
                "--shards",
                "3",
            ],
            &[
                "--json",
                "s.jsonl",
                "--shards",
                "3",
                "--only",
                "resnet",
                "--trace",
                "t.json",
                "--status",
                "st.json",
                "--metrics",
                "m.prom",
                "--watchdog",
                "2.5",
                "--faults",
                "sweep.point=abort@4,checkpoint.flush=fail@2",
            ],
            &["--json", "x.jsonl"],
            &["--merge", "a.jsonl", "b.jsonl", "--json", "x.jsonl"],
        ] {
            let cli = sweep(v).unwrap();
            let worker = sweep(
                &cli.worker_args(spec)
                    .iter()
                    .map(String::as_str)
                    .collect::<Vec<_>>(),
            )
            .unwrap_or_else(|e| panic!("{v:?}: {e}"));
            let expected = SweepCli {
                mode: ShardMode::Worker(spec),
                resume: true,
                ..cli
            };
            assert_eq!(worker, expected, "{v:?}");
        }
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(10.0, 10.0, 10), "##########");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }
}
