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

use gemmini_core::metrics::Metrics;
use gemmini_core::trace::{export_chrome_trace, Tracer};
use gemmini_core::AccelError;
use gemmini_dnn::graph::{Activation, Layer, Network, PoolKind};
use gemmini_mem::json::{FromJson, Json, ToJson};
use gemmini_soc::run::{run_networks, RunOptions, SocReport};
use gemmini_soc::sweep::{parse_threads, sweep_map, THREADS_ENV};
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
/// form: the checkpoint and resuming from it.
pub const SWEEP_FLAGS: &[&str] = &["--json <path>", "--resume"];

/// The parsed command line of a figure binary: the one way a flag
/// reaches the code, and the reference for what each flag does. A
/// binary's [`SweepCli::parse`] usage lists the flags it takes; any
/// other flag, a missing or bad value, `--resume` without `--json` or a
/// bad `GEMMINI_THREADS` exits 2 before any point runs.
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
    /// flag, a missing or malformed value, or `--resume` without
    /// `--json`.
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
            match arg.as_str() {
                "--quick" => cli.quick = true,
                "--only" => cli.only = Some(value()?),
                "--json" => cli.json = Some(value()?.into()),
                "--resume" => cli.resume = true,
                "--trace" => cli.trace = Some(value()?.into()),
                "--cores" => cli.cores = Some(count(value()?)?),
                "--functional" => cli.functional = true,
                _ => unreachable!("{arg} is declared in a usage but has no parser"),
            }
            seen.push(arg);
        }
        if let Some(p) = positional.filter(|p| p.starts_with('<') && cli.positional.is_none()) {
            return Err(format!("missing {p}"));
        }
        if cli.resume && cli.json.is_none() {
            return Err("--resume requires --json <path>".into());
        }
        Ok(cli)
    }

    /// The sweep entry point for the figure binaries: runs `items`
    /// through [`sweep_map`], checkpointing to `--json` and resuming from
    /// it under `--resume`. Results come back in submission order.
    ///
    /// Exits the process with status `1` when any point failed: a figure
    /// cannot be rendered from a grid with holes, and failed points were
    /// not persisted, so a `--resume` re-runs exactly them.
    pub fn sweep_map<I, T, F>(&self, items: Vec<(String, u64, I)>, f: F) -> Vec<SweepResult<T>>
    where
        I: Send,
        T: ToJson + FromJson + Send,
        F: Fn(I) -> Result<T, AccelError> + Sync,
    {
        let opts = SweepOptions {
            checkpoint: self.json.clone(),
            resume: self.resume,
            ..SweepOptions::default()
        };
        let results = sweep_map(items, opts, f);
        let mut complete = true;
        for r in &results {
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

    /// [`SweepCli::sweep_map`] instantiated for [`DesignPoint`] sweeps.
    pub fn sweep(&self, points: Vec<DesignPoint>) -> Vec<SweepResult<SocReport>> {
        let items = points
            .into_iter()
            .map(|p| (p.label.clone(), p.fingerprint(), p))
            .collect();
        self.sweep_map(items, |p: DesignPoint| {
            p.run(&Tracer::disabled(), &Metrics::disabled())
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
    fn cli_parses_sweep_flags() {
        let cli = sweep(&["--quick", "--json", "x", "--resume"]).unwrap();
        assert!(cli.quick && cli.resume);
        assert_eq!(cli.json, Some(PathBuf::from("x")));
        assert_eq!(sweep(&[]).unwrap(), SweepCli::default());
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
        // A flag that does nothing without a checkpoint is a parse error.
        assert!(err(&["--resume"]).contains("--resume requires --json"));
        // The multi-process sweep flags are gone.
        for flag in [
            "--shards",
            "--shard",
            "--merge",
            "--status",
            "--metrics",
            "--watchdog",
            "--faults",
        ] {
            assert!(err(&[flag, "1", "--json", "x"]).contains("unknown flag"));
        }

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

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(10.0, 10.0, 10), "##########");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }
}
