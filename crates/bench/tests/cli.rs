//! End-to-end tests of the figure binaries' command line, driving the
//! real `fig8_tlb_sweep` (via `CARGO_BIN_EXE_*`) exactly as a user or CI
//! would: resume progress accounting, and malformed command lines or
//! environment values that must exit 2 before any point runs.

use std::path::PathBuf;
use std::process::{Command, Output};

const FIG8: &str = env!("CARGO_BIN_EXE_fig8_tlb_sweep");

/// A scratch directory unique to this test and process.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gemmini_cli_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs fig8 serially: one worker keeps checkpoint line order equal to
/// submission order, which the resume test relies on.
fn fig8(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(FIG8);
    cmd.args(args).env("GEMMINI_THREADS", "1");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn resume_progress_reports_true_grid_position() {
    let dir = scratch_dir("resume");
    let ckpt = dir.join("sweep.jsonl");
    let path = ckpt.to_str().unwrap();

    let full = fig8(&["--quick", "--json", path], &[]);
    assert!(full.status.success(), "{}", stderr(&full));

    // Keep the first k points, as if the sweep had been killed after
    // persisting them.
    let text = std::fs::read_to_string(&ckpt).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let total = lines.len();
    let kept = total - 5;
    std::fs::write(&ckpt, lines[..kept].join("\n") + "\n").unwrap();

    // The resume serves the kept points and runs the rest; its progress
    // lines must report whole-grid positions with cached provenance, not
    // [1/5]..[5/5].
    let resumed = fig8(&["--quick", "--json", path, "--resume"], &[]);
    let err = stderr(&resumed);
    assert!(resumed.status.success(), "{err}");
    assert!(
        err.contains(&format!("skipped {kept}/{total} completed points")),
        "{err}"
    );
    for done in kept + 1..=total {
        let line = format!("[{done}/{total}, {kept} cached]");
        assert!(
            err.contains(&line),
            "expected progress line {line} in: {err}"
        );
    }
    assert!(
        !err.contains("[1/5]"),
        "progress must not restart from the to-run count: {err}"
    );
    assert_eq!(stdout(&full), stdout(&resumed), "the figure is unchanged");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A malformed command line — a typo'd flag, `--resume` without
/// `--json`, or a flag of the removed multi-process sweep — exits 2 with
/// one error line and one usage line, before any point runs and before
/// anything is written.
#[test]
fn malformed_command_lines_exit_2_before_any_point_runs() {
    let dir = scratch_dir("bad_cli");
    let ckpt = dir.join("sweep.jsonl");
    let base = ckpt.to_str().unwrap();
    let cases: [(&[&str], &str); 9] = [
        (&["--qick", "--json", base], "unknown flag '--qick'"),
        (&["--quick", "--resume"], "--resume requires --json"),
        (
            &["--shards", "2", "--json", base],
            "unknown flag '--shards'",
        ),
        (
            &["--shard", "0/2", "--json", base],
            "unknown flag '--shard'",
        ),
        (
            &["--merge", "a.jsonl", "--json", base],
            "unknown flag '--merge'",
        ),
        (
            &["--status", "s.json", "--json", base],
            "unknown flag '--status'",
        ),
        (
            &["--metrics", "m.prom", "--json", base],
            "unknown flag '--metrics'",
        ),
        (
            &["--watchdog", "1", "--json", base],
            "unknown flag '--watchdog'",
        ),
        (
            &["--faults", "x", "--json", base],
            "unknown flag '--faults'",
        ),
    ];
    for (args, expected) in cases {
        let out = Command::new(FIG8)
            .args(args)
            .current_dir(&dir)
            .env("GEMMINI_THREADS", "1")
            .output()
            .expect("binary runs");
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        let lines: Vec<&str> = err.lines().collect();
        assert_eq!(lines.len(), 2, "{args:?}: only the error and usage: {err}");
        assert!(lines[0].starts_with("error: "), "{err}");
        assert!(lines[0].contains(expected), "{args:?}: {err}");
        assert!(lines[1].starts_with("usage: "), "{err}");
        assert_eq!(stdout(&out), "", "{args:?}");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "{args:?}: nothing may be written"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A bad `GEMMINI_THREADS` exits 2 before any point runs instead of
/// quietly running on every core.
#[test]
fn bad_env_values_exit_2_before_any_point_runs() {
    let dir = scratch_dir("bad_env");
    let ckpt = dir.join("sweep.jsonl");
    let base = ckpt.to_str().unwrap();
    for (args, threads) in [
        (&["--json", base][..], "two"),
        (&["--quick", "--json", base], "-1"),
    ] {
        let out = fig8(args, &[("GEMMINI_THREADS", threads)]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{threads} {args:?}: {err}");
        assert!(
            err.contains("GEMMINI_THREADS"),
            "the error must name it: {err}"
        );
        assert!(!err.contains("private="), "no point may run: {err}");
        assert_eq!(stdout(&out), "", "{threads} {args:?}");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "{threads} {args:?}: nothing may be checkpointed"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
