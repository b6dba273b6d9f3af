//! End-to-end tests of the sharded multi-process sweep layer, driving
//! the real binaries (via `CARGO_BIN_EXE_*`) exactly as a user or CI
//! would: supervised shards with a crash injected mid-run, manual
//! shard-then-merge flows, and resume progress accounting.
//!
//! The load-bearing property throughout: every multi-process path —
//! supervised, crashed-and-retried, hung-and-watchdog-killed, manually
//! sharded and merged, or fault-injected mid-checkpoint — must produce
//! results bit-identical to the single-process sweep. Crashes and hangs
//! come from the `sweep.point` failpoint (`--faults sweep.point=abort@N`
//! or `hang@N`), scoped to one worker of a fleet by
//! `GEMMINI_FAULTS_SHARD`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use gemmini_mem::json::ToJson;
use gemmini_soc::checkpoint::Checkpoint;
use gemmini_soc::run::SocReport;
use gemmini_soc::sweep::merge_memory_stats;

const SMOKE: &str = env!("CARGO_BIN_EXE_shard_smoke");
const FIG8: &str = env!("CARGO_BIN_EXE_fig8_tlb_sweep");

/// A scratch directory unique to this test and process.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gemmini_shard_e2e_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run(bin: &str, args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(bin);
    cmd.args(args);
    // Serial workers keep checkpoint line order equal to submission
    // order, which the file-level comparisons below rely on; they also
    // make the `sweep.point` failpoint deterministic (`abort@N` fires
    // after exactly N-1 points persisted).
    cmd.env("GEMMINI_THREADS", "1");
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

/// Asserts two checkpoint files hold identical results: same labels in
/// the same order, same fingerprints, and byte-identical payload JSON.
/// Wall-clock is the one field allowed to differ (it measures host time,
/// not simulation results).
fn assert_checkpoints_equal_modulo_wall(a: &Path, b: &Path) {
    let ca = Checkpoint::<SocReport>::load(a).expect("checkpoint a loads");
    let cb = Checkpoint::<SocReport>::load(b).expect("checkpoint b loads");
    assert_eq!(ca.len(), cb.len(), "{} vs {}", a.display(), b.display());
    for (ea, eb) in ca.entries().iter().zip(cb.entries()) {
        assert_eq!(ea.label, eb.label, "label sets/order must match");
        assert_eq!(ea.fingerprint, eb.fingerprint, "point '{}'", ea.label);
        assert_eq!(
            ea.payload.to_json().encode(),
            eb.payload.to_json().encode(),
            "payload for '{}' must be bit-identical",
            ea.label
        );
    }
    // The exact-merge claim extends to the folded totals.
    let ra = merge_memory_stats(ca.entries().iter().map(|e| &e.payload));
    let rb = merge_memory_stats(cb.entries().iter().map(|e| &e.payload));
    assert_eq!(ra, rb, "merged MemoryRollup totals must be bit-identical");
}

#[test]
fn supervised_crash_retry_matches_single_process() {
    let dir = scratch_dir("smoke_supervised");
    let single = dir.join("single.jsonl");
    let sharded = dir.join("sharded.jsonl");

    let golden = run(SMOKE, &["--json", single.to_str().unwrap()], &[]);
    assert!(golden.status.success());

    // 2 supervised shards; shard 0 aborts as its third point begins,
    // after persisting 2 points, and must be retried from its checkpoint
    // by the supervisor.
    let supervised = run(
        SMOKE,
        &[
            "--json",
            sharded.to_str().unwrap(),
            "--shards",
            "2",
            "--faults",
            "sweep.point=abort@3",
        ],
        &[("GEMMINI_FAULTS_SHARD", "0")],
    );
    let err = stderr(&supervised);
    assert!(supervised.status.success(), "supervisor recovers: {err}");
    assert!(
        err.contains("fault: aborting at failpoint 'sweep.point'"),
        "the crash must come from the failpoint: {err}"
    );
    assert!(
        err.contains("retrying from its checkpoint"),
        "the crash must actually happen and be retried: {err}"
    );
    assert!(err.contains("recovered on attempt 2"), "{err}");

    assert_eq!(
        stdout(&golden),
        stdout(&supervised),
        "rendered tables must be identical"
    );

    // The merged file matches the single-process checkpoint except for
    // wall-clock (u64 payloads here, so compare the raw JSON fields).
    let ca = Checkpoint::<u64>::load(&single).unwrap();
    let cb = Checkpoint::<u64>::load(&sharded).unwrap();
    assert_eq!(ca.len(), 8);
    assert_eq!(cb.len(), 8);
    for (ea, eb) in ca.entries().iter().zip(cb.entries()) {
        assert_eq!(
            (&ea.label, ea.fingerprint, ea.payload),
            (&eb.label, eb.fingerprint, eb.payload)
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_progress_reports_true_grid_position() {
    let dir = scratch_dir("smoke_resume");
    let ckpt = dir.join("sweep.jsonl");

    // Fresh run aborts as its sixth point begins: 5 of 8 points persist.
    let crashed = run(
        SMOKE,
        &[
            "--json",
            ckpt.to_str().unwrap(),
            "--faults",
            "sweep.point=abort@6",
        ],
        &[],
    );
    let err = stderr(&crashed);
    assert!(!crashed.status.success(), "the failpoint must fire: {err}");
    assert!(
        err.contains("aborting at failpoint 'sweep.point' before 'point5'"),
        "{err}"
    );
    assert_eq!(Checkpoint::<u64>::load(&ckpt).unwrap().len(), 5);

    // The resume serves 5 cached points and runs the remaining 3; its
    // progress lines must report whole-grid positions with cached
    // provenance, not [1/3]..[3/3].
    let resumed = run(SMOKE, &["--json", ckpt.to_str().unwrap(), "--resume"], &[]);
    let err = stderr(&resumed);
    assert!(resumed.status.success(), "{err}");
    assert!(err.contains("skipped 5/8 completed points"), "{err}");
    for line in ["[6/8, 5 cached]", "[7/8, 5 cached]", "[8/8, 5 cached]"] {
        assert!(
            err.contains(line),
            "expected progress line {line} in: {err}"
        );
    }
    assert!(
        !err.contains("[1/3]"),
        "progress must not restart from the to-run count: {err}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manual_shards_then_merge_match_single_process() {
    let dir = scratch_dir("smoke_manual");
    let single = dir.join("single.jsonl");
    let base = dir.join("sweep.jsonl");
    let shard0 = dir.join("sweep.shard0of2.jsonl");
    let shard1 = dir.join("sweep.shard1of2.jsonl");

    let golden = run(SMOKE, &["--json", single.to_str().unwrap()], &[]);
    assert!(golden.status.success());

    // Run the two shards by hand (e.g. on two hosts sharing a filesystem).
    for spec in ["0/2", "1/2"] {
        let out = run(
            SMOKE,
            &["--json", base.to_str().unwrap(), "--shard", spec],
            &[],
        );
        assert!(out.status.success(), "shard {spec}: {}", stderr(&out));
        assert_eq!(stdout(&out), "", "shard workers render nothing");
    }
    assert!(shard0.exists() && shard1.exists());

    // Merging only one shard must fail loudly, naming missing points.
    let partial = run(
        SMOKE,
        &[
            "--json",
            base.to_str().unwrap(),
            "--merge",
            shard0.to_str().unwrap(),
        ],
        &[],
    );
    assert!(!partial.status.success(), "partial merges must not succeed");
    assert!(
        stderr(&partial).contains("missing"),
        "must report missing points: {}",
        stderr(&partial)
    );

    // Merging both stitches the full grid, identical to single-process.
    let merged = run(
        SMOKE,
        &[
            "--json",
            base.to_str().unwrap(),
            "--merge",
            shard0.to_str().unwrap(),
            shard1.to_str().unwrap(),
        ],
        &[],
    );
    assert!(merged.status.success(), "{}", stderr(&merged));
    assert_eq!(stdout(&golden), stdout(&merged));

    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance-criteria test: a 2-shard quick-mode fig8 run with one
/// shard killed and retried by the supervisor produces merged per-point
/// reports and `MemoryRollup` totals bit-identical to the single-process
/// sweep.
#[test]
fn fig8_supervised_shards_bit_identical_to_single_process() {
    let dir = scratch_dir("fig8");
    let single = dir.join("single.jsonl");
    let sharded = dir.join("sharded.jsonl");

    let golden = run(FIG8, &["--quick", "--json", single.to_str().unwrap()], &[]);
    assert!(golden.status.success(), "{}", stderr(&golden));

    let supervised = run(
        FIG8,
        &[
            "--quick",
            "--json",
            sharded.to_str().unwrap(),
            "--shards",
            "2",
            "--faults",
            "sweep.point=abort@4",
        ],
        &[("GEMMINI_FAULTS_SHARD", "1")],
    );
    let err = stderr(&supervised);
    assert!(supervised.status.success(), "supervisor recovers: {err}");
    assert!(
        err.contains("retrying from its checkpoint"),
        "shard 1 must crash and be retried: {err}"
    );

    assert_eq!(
        stdout(&golden),
        stdout(&supervised),
        "fig8 tables must be bit-identical between single-process and sharded runs"
    );
    assert_checkpoints_equal_modulo_wall(&single, &sharded);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The hung-shard watchdog end to end: shard 0 wedges forever as its
/// third point begins (`sweep.point=hang@3`, scoped to one shard by
/// `GEMMINI_FAULTS_SHARD`). The supervisor's `--watchdog` budget must
/// notice the frozen heartbeat `done` count, kill the worker, and retry
/// it; the retry resumes from the shard checkpoint (a sweep that served
/// points skips the failpoint) and the merged output matches the
/// single-process golden bit for bit.
#[test]
fn supervised_watchdog_kills_hung_shard_and_recovers() {
    let dir = scratch_dir("smoke_watchdog");
    let single = dir.join("single.jsonl");
    let sharded = dir.join("sharded.jsonl");

    let golden = run(SMOKE, &["--json", single.to_str().unwrap()], &[]);
    assert!(golden.status.success());

    let supervised = run(
        SMOKE,
        &[
            "--json",
            sharded.to_str().unwrap(),
            "--shards",
            "2",
            "--watchdog",
            "1",
            "--faults",
            "sweep.point=hang@3",
        ],
        &[("GEMMINI_FAULTS_SHARD", "0")],
    );
    let err = stderr(&supervised);
    assert!(
        supervised.status.success(),
        "supervisor recovers from the hang: {err}"
    );
    assert!(
        err.contains("fault: hanging at failpoint 'sweep.point'"),
        "{err}"
    );
    assert!(err.contains("hung (no heartbeat progress"), "{err}");
    assert!(err.contains("killed by watchdog"), "{err}");
    assert!(err.contains("recovered on attempt 2"), "{err}");

    assert_eq!(
        stdout(&golden),
        stdout(&supervised),
        "rendered tables must be identical"
    );
    let ca = Checkpoint::<u64>::load(&single).unwrap();
    let cb = Checkpoint::<u64>::load(&sharded).unwrap();
    assert_eq!(ca.len(), 8);
    assert_eq!(cb.len(), 8);
    for (ea, eb) in ca.entries().iter().zip(cb.entries()) {
        assert_eq!(
            (&ea.label, ea.fingerprint, ea.payload),
            (&eb.label, eb.fingerprint, eb.payload)
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The chaos acceptance run: a supervised 2-shard quick fig8 sweep whose
/// shard 0 takes two injected faults — its tenth checkpoint append is
/// torn mid-line, and it wedges forever as its twelfth point begins. The
/// watchdog kills the hung worker; the retry quarantines the torn line
/// to the `.bad` sidecar and re-runs exactly the lost points (six
/// appends, so the tenth-append fault cannot strike again). The merged
/// report must come out bit-identical to the clean single-process
/// golden.
#[test]
fn fig8_chaos_hang_and_corruption_heal_bit_identical() {
    let dir = scratch_dir("fig8_chaos");
    let single = dir.join("single.jsonl");
    let sharded = dir.join("sharded.jsonl");

    let golden = run(FIG8, &["--quick", "--json", single.to_str().unwrap()], &[]);
    assert!(golden.status.success(), "{}", stderr(&golden));

    let supervised = run(
        FIG8,
        &[
            "--quick",
            "--json",
            sharded.to_str().unwrap(),
            "--shards",
            "2",
            "--watchdog",
            "2",
            "--faults",
            "checkpoint.corrupt=corrupt@10,sweep.point=hang@12",
        ],
        &[("GEMMINI_FAULTS_SHARD", "0")],
    );
    let err = stderr(&supervised);
    assert!(
        supervised.status.success(),
        "supervisor heals both injected faults: {err}"
    );
    assert!(
        err.contains("fault: hanging at failpoint 'sweep.point'"),
        "{err}"
    );
    assert!(err.contains("hung (no heartbeat progress"), "{err}");
    assert!(
        err.contains("quarantined 1 damaged line(s)"),
        "the torn line must be quarantined exactly once: {err}"
    );
    assert!(err.contains("recovered on attempt 2"), "{err}");

    // The sidecar holds exactly the one torn line.
    let sidecar = dir.join("sharded.shard0of2.jsonl.bad");
    let bad = std::fs::read_to_string(&sidecar).expect("quarantine sidecar exists");
    assert_eq!(
        bad.lines().count(),
        1,
        "exactly one line quarantined: {bad}"
    );

    assert_eq!(
        stdout(&golden),
        stdout(&supervised),
        "fig8 tables must be bit-identical despite the injected faults"
    );
    assert_checkpoints_equal_modulo_wall(&single, &sharded);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A typo'd fault schedule fails the run before any point executes —
/// from `--faults` and from an inherited `GEMMINI_FAULTS` alike, in a
/// plain and a supervised sweep — instead of quietly running fault-free
/// and testing nothing.
#[test]
fn invalid_fault_schedule_exits_2_before_any_point_runs() {
    let dir = scratch_dir("smoke_bad_faults");
    let ckpt = dir.join("sweep.jsonl");
    let base = ckpt.to_str().unwrap();
    let typo = "sweep.point=abrot@3";
    let check = |args: &[&str], envs: &[(&str, &str)]| {
        let out = run(SMOKE, args, envs);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{err}");
        assert!(err.contains("abrot"), "the error must name the typo: {err}");
        assert!(!err.contains("point0"), "no point may run: {err}");
        assert_eq!(stdout(&out), "");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "nothing may be checkpointed"
        );
    };
    check(&["--json", base, "--faults", typo], &[]);
    check(
        &["--json", base, "--shards", "2"],
        &[("GEMMINI_FAULTS", typo)],
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A malformed command line — a typo'd flag, a bad shard count,
/// conflicting sharding modes, or a mode that needs `--json` without it
/// — exits 2 with one error line and one usage line, before any point
/// runs and before anything is written.
#[test]
fn malformed_command_lines_exit_2_before_any_point_runs() {
    let dir = scratch_dir("bad_cli");
    let ckpt = dir.join("sweep.jsonl");
    let base = ckpt.to_str().unwrap();
    for (bin, args) in [
        (SMOKE, &["--qick", "--json", base][..]),
        (FIG8, &["--qick", "--json", base]),
        (SMOKE, &["--shards", "0", "--json", base]),
        (SMOKE, &["--shard", "0/2", "--shards", "2", "--json", base]),
        (SMOKE, &["--shard", "0/2"]),
    ] {
        let out = Command::new(bin)
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

/// A bad `GEMMINI_THREADS` or `GEMMINI_FAULTS_SHARD` exits 2 before any
/// point runs, in a plain and a supervised sweep, instead of quietly
/// running on every core or with the fault schedule landing in the
/// wrong process.
#[test]
fn bad_env_values_exit_2_before_any_point_runs() {
    let dir = scratch_dir("bad_env");
    let ckpt = dir.join("sweep.jsonl");
    let base = ckpt.to_str().unwrap();
    for (bin, args, env) in [
        (SMOKE, &["--json", base][..], ("GEMMINI_THREADS", "two")),
        (
            FIG8,
            &["--quick", "--json", base],
            ("GEMMINI_THREADS", "-1"),
        ),
        (
            SMOKE,
            &["--json", base, "--shards", "2"],
            ("GEMMINI_THREADS", "two"),
        ),
        (
            SMOKE,
            &["--json", base, "--faults", "sweep.point=abort@2"],
            ("GEMMINI_FAULTS_SHARD", "one"),
        ),
        (
            SMOKE,
            &[
                "--json",
                base,
                "--shards",
                "2",
                "--faults",
                "sweep.point=abort@2",
            ],
            ("GEMMINI_FAULTS_SHARD", "one"),
        ),
    ] {
        let out = run(bin, args, &[env]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{env:?} {args:?}: {err}");
        assert!(err.contains(env.0), "the error must name {}: {err}", env.0);
        assert!(!err.contains("point0"), "no point may run: {err}");
        assert_eq!(stdout(&out), "", "{env:?} {args:?}");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "{env:?} {args:?}: nothing may be checkpointed"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
