//! Command line of the benchmark. See `README.md`.

use gemmini_benchmark::measure::{round, traced, RoundReport, TraceReport};
use gemmini_benchmark::report::{
    compare, results_json, Catalogue, Check, Expected, WorkloadRun, EXPECTED_JSON,
};
use gemmini_benchmark::workload::{Workload, DEFAULT_SEED};
use gemmini_mem::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: gemmini-benchmark [--workload <name>]... [--seed <n>] [--seconds <s>]
                         [--trace 0|1] [--json <out>] [--trace-out <dir>] [--bless]
       gemmini-benchmark --compare <base.json> <new.json>

workloads: resnet50_tlb, bert, resnet50_dual, functional (default: all)
--seed       seed for RunOptions (default 0xC0FFEE)
--seconds    repeat rounds until this many seconds have passed (at least 3
             rounds); without it, exactly 5 rounds
--trace      1 (default): also run the traced pass; the last output line
             then holds the per-layer metrics instead of the end-to-end ones
--json       write every metric, the host facts and the point digests here
--trace-out  write each workload's spans as <dir>/<workload>.trace.json
--bless      check functional outputs against reference_forward, then pin
             every report digest in benchmark/expected.json
--compare    print each end-to-end metric of two results files with a verdict";

/// Rounds of a full invocation without `--seconds`.
const ROUNDS: usize = 5;
/// Least rounds under `--seconds`: best-of needs more than one.
const MIN_ROUNDS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChildKind {
    Round,
    Trace,
}

#[derive(Debug, Default)]
struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    bless: bool,
    compare: Option<(PathBuf, PathBuf)>,
    child: Option<ChildKind>,
    verify: bool,
    chrome: Option<PathBuf>,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

impl Cli {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut cli = Cli {
            seed: DEFAULT_SEED,
            trace: true,
            ..Cli::default()
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    let w = Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?;
                    cli.workloads.push(w);
                }
                "--seed" => {
                    let text = value()?;
                    cli.seed = parse_seed(&text).ok_or(format!("bad seed '{text}'"))?;
                }
                "--seconds" => {
                    let text = value()?;
                    let s: f64 = text
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or(format!("bad --seconds '{text}'"))?;
                    cli.seconds = Some(s);
                }
                "--trace" => {
                    cli.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                    };
                }
                "--json" => cli.json = Some(value()?.into()),
                "--trace-out" => cli.trace_out = Some(value()?.into()),
                "--bless" => cli.bless = true,
                "--compare" => {
                    let base = value()?;
                    let new = value()?;
                    cli.compare = Some((base.into(), new.into()));
                }
                "--child" => {
                    cli.child = Some(match value()?.as_str() {
                        "round" => ChildKind::Round,
                        "trace" => ChildKind::Trace,
                        other => return Err(format!("unknown child kind '{other}'")),
                    });
                }
                "--verify" => cli.verify = true,
                "--chrome" => cli.chrome = Some(value()?.into()),
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        if cli.workloads.is_empty() {
            cli.workloads = Workload::ALL.to_vec();
        }
        if cli.child.is_some() && cli.workloads.len() != 1 {
            return Err("a child runs exactly one workload".into());
        }
        if cli.bless && cli.seed != DEFAULT_SEED {
            return Err("--bless pins digests at the default seed".into());
        }
        Ok(cli)
    }
}

/// Working directory for checkpoints, next to the executable so that every
/// write stays inside the build directory.
fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("benchmark-work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs this executable as a child and parses the JSON on the last line
/// of its stdout. The child's stderr passes through.
fn spawn_child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(args).stdin(Stdio::null()).stderr(Stdio::inherit());
    // Fault injection, crash hooks and trace export would perturb the
    // measurement; the simulator reads them from the environment.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("GEMMINI_") {
            cmd.env_remove(key);
        }
    }
    let out = cmd.output().map_err(|e| format!("spawning child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed nothing")?;
    Json::parse(line).map_err(|e| format!("child output: {e}"))
}

fn child_args(kind: &str, workload: Workload, seed: u64) -> Vec<String> {
    vec![
        "--child".into(),
        kind.into(),
        "--workload".into(),
        workload.name().into(),
        "--seed".into(),
        seed.to_string(),
    ]
}

fn run_child(cli: &Cli, kind: ChildKind) -> Result<(), String> {
    let work_dir = work_dir()?;
    let workload = cli.workloads[0];
    let doc = match kind {
        ChildKind::Round => round(workload, cli.seed, cli.verify, &work_dir).to_json(),
        ChildKind::Trace => traced(workload, cli.seed, &work_dir, cli.chrome.as_deref()).to_json(),
    };
    println!("{}", doc.encode());
    Ok(())
}

fn host_facts() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("-V")
        .stdin(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("nproc", Json::from(nproc)),
        ("rustc", Json::from(rustc)),
        ("cpu", Json::from(cpu)),
    ])
}

/// Runs rounds of every workload, rotating the order each round, then the
/// traced pass of each.
fn collect(cli: &Cli) -> Result<Vec<WorkloadRun>, String> {
    let seed = cli.seed;
    let n = cli.workloads.len();
    let mut rounds: Vec<Vec<RoundReport>> = vec![Vec::new(); n];
    let start = Instant::now();
    for pass in 0.. {
        let pass_start = Instant::now();
        for k in 0..n {
            let i = (k + pass) % n;
            let mut args = child_args("round", cli.workloads[i], seed);
            if pass == 0 && (cli.bless || seed != DEFAULT_SEED) {
                args.push("--verify".into());
            }
            let doc = spawn_child(&args)?;
            rounds[i].push(RoundReport::from_json(&doc).map_err(|e| e.to_string())?);
        }
        let done = pass + 1;
        let finished = match cli.seconds {
            None => done >= ROUNDS,
            Some(s) => {
                done >= MIN_ROUNDS
                    && start.elapsed() + pass_start.elapsed() > Duration::from_secs_f64(s)
            }
        };
        if finished {
            break;
        }
    }
    let mut runs = Vec::with_capacity(n);
    for (workload, rounds) in cli.workloads.iter().zip(rounds) {
        let trace = if cli.trace {
            let mut args = child_args("trace", *workload, seed);
            if let Some(dir) = &cli.trace_out {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                args.push("--chrome".into());
                let file = dir.join(format!("{}.trace.json", workload.name()));
                args.push(file.to_string_lossy().into_owned());
            }
            let doc = spawn_child(&args)?;
            Some(TraceReport::from_json(&doc).map_err(|e| e.to_string())?)
        } else {
            None
        };
        runs.push(WorkloadRun {
            workload: *workload,
            rounds,
            trace,
        });
    }
    Ok(runs)
}

fn print_table(run: &WorkloadRun, check: &Check, catalogue: &Catalogue) {
    println!(
        "== {}: {} rounds, {} point runs checked, {} failed ==",
        run.workload.name(),
        run.rounds.len(),
        check.attempted,
        check.failed
    );
    for (name, value, spread) in run.end_to_end() {
        println!(
            "  {name:<28} {value:>16.6} {:<10} leave-one-round-out spread {:.1}%",
            catalogue.unit(name),
            spread * 100.0
        );
    }
    for (name, value) in run.per_layer() {
        println!("  {name:<28} {value:>16.6} {}", catalogue.unit(&name));
    }
    for problem in &check.problems {
        eprintln!("{}: {problem}", run.workload.name());
    }
}

fn measure(cli: &Cli) -> Result<bool, String> {
    let catalogue = Catalogue::embedded();
    let mut expected = Expected::parse(EXPECTED_JSON).map_err(|e| e.to_string())?;
    let runs = collect(cli)?;
    if cli.bless {
        for run in &runs {
            expected.bless(run.workload, &run.rounds)?;
        }
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json");
        std::fs::write(&path, expected.to_json().encode() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("blessed {}", path.display());
    }

    let seed = cli.seed;
    let checked: Vec<(WorkloadRun, Check)> = runs
        .into_iter()
        .map(|run| {
            let check = run.check(seed, &expected);
            (run, check)
        })
        .collect();
    for (run, check) in &checked {
        print_table(run, check, &catalogue);
    }
    if let Some(path) = &cli.json {
        let doc = results_json(host_facts(), seed, &checked, &catalogue);
        std::fs::write(path, doc.encode() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let single = checked.len() == 1;
    let mut metrics = Vec::new();
    for (run, _) in &checked {
        let values: Vec<(String, f64)> = if cli.trace {
            run.per_layer()
        } else {
            run.end_to_end()
                .into_iter()
                .map(|(name, v, _)| (name.to_string(), v))
                .collect()
        };
        for (name, value) in values {
            let unit = catalogue.unit(&name);
            let key = if single {
                name.clone()
            } else {
                format!("{}.{name}", run.workload.name())
            };
            metrics.push((
                key,
                Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
            ));
        }
    }
    let attempted: u64 = checked.iter().map(|(_, c)| c.attempted).sum();
    let failed: u64 = checked.iter().map(|(_, c)| c.failed).sum();
    let correct = failed == 0 && attempted > 0;
    let summary = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", summary.encode());
    Ok(correct)
}

fn run_compare(base: &Path, new: &Path) -> Result<(), String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let table =
        compare(&load(base)?, &load(new)?, &Catalogue::embedded()).map_err(|e| e.to_string())?;
    print!("{table}");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match Cli::parse(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = if let Some(kind) = cli.child {
        run_child(&cli, kind).map(|()| true)
    } else if let Some((base, new)) = &cli.compare {
        run_compare(base, new).map(|()| true)
    } else {
        measure(&cli)
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
}
