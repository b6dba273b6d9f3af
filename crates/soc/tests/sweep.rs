//! Integration tests for the parallel design-space sweep executor:
//! scheduling must never change results (bit-identical reports between
//! serial and parallel execution), one point's failure must never take
//! down the sweep, and worker overlap must actually happen.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use gemmini_dnn::graph::{Activation, Layer, Network};
use gemmini_soc::checkpoint::Checkpoint;
use gemmini_soc::run::{run_networks, RunOptions, SocReport};
use gemmini_soc::sweep::{
    merge_memory_stats, run_sweep_with, sweep_map, DesignPoint, SweepError, SweepOptions,
};
use gemmini_soc::SocConfig;
use gemmini_vm::tlb::TlbConfig;

fn small_net(m: usize, k: usize, n: usize) -> Network {
    let mut net = Network::new(format!("mm_{m}x{k}x{n}"));
    net.push(
        "fc1",
        Layer::Matmul {
            m,
            k,
            n,
            activation: Activation::Relu,
        },
    );
    net.push(
        "fc2",
        Layer::Matmul {
            m,
            k: n,
            n: 8,
            activation: Activation::None,
        },
    );
    net
}

/// An 8-point sweep shaped like the figure sweeps: varying network
/// dimensions and private-TLB sizes on the edge SoC.
fn eight_points() -> Vec<DesignPoint> {
    let dims = [(16, 32, 16), (24, 16, 8), (8, 48, 24), (32, 32, 32)];
    let tlbs = [4u32, 16];
    let mut points = Vec::new();
    for &(m, k, n) in &dims {
        for &entries in &tlbs {
            let mut cfg = SocConfig::edge_single_core();
            cfg.cores[0].translation.private = TlbConfig::private(entries);
            points.push(DesignPoint::new(
                format!("mm {m}x{k}x{n} tlb={entries}"),
                cfg,
                vec![small_net(m, k, n)],
                RunOptions::timing(),
            ));
        }
    }
    points
}

fn opts(threads: usize) -> SweepOptions {
    SweepOptions {
        threads,
        progress: false,
        ..SweepOptions::default()
    }
}

fn assert_reports_identical(a: &SocReport, b: &SocReport) {
    assert_eq!(a.cores.len(), b.cores.len());
    for (ca, cb) in a.cores.iter().zip(&b.cores) {
        assert_eq!(
            ca.total_cycles, cb.total_cycles,
            "cycles must not depend on scheduling"
        );
        assert_eq!(ca.macs, cb.macs);
        assert_eq!(ca.translation.requests, cb.translation.requests);
        assert_eq!(ca.translation.walks, cb.translation.walks);
        assert_eq!(ca.translation.filter_hits, cb.translation.filter_hits);
        let la: Vec<_> = ca.layers.iter().map(|l| (&l.name, l.cycles)).collect();
        let lb: Vec<_> = cb.layers.iter().map(|l| (&l.name, l.cycles)).collect();
        assert_eq!(la, lb);
    }
    assert_eq!(a.l2_stats, b.l2_stats, "L2 counters must be bit-identical");
    assert_eq!(
        a.dram_traffic, b.dram_traffic,
        "DRAM counters must be bit-identical"
    );
    assert_eq!(a.dram_bytes, b.dram_bytes);
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let serial = run_sweep_with(eight_points(), opts(1));
    let parallel = run_sweep_with(eight_points(), opts(4));
    assert_eq!(serial.len(), 8);
    assert_eq!(parallel.len(), 8);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.label, p.label, "results must keep submission order");
        assert_reports_identical(s.expect_ok(), p.expect_ok());
    }
    // The exact cross-point rollup is scheduling-independent too.
    let rs = merge_memory_stats(serial.iter().filter_map(|r| r.ok()));
    let rp = merge_memory_stats(parallel.iter().filter_map(|r| r.ok()));
    assert_eq!(rs.l2, rp.l2);
    assert_eq!(rs.dram, rp.dram);
    assert_eq!(rs.reports, 8);
}

#[test]
fn panicking_point_is_an_err_entry_and_others_complete() {
    let mut points = eight_points();
    // run_networks panics when the network count does not match the
    // core count — a realistic misconfigured design point.
    points[3] = DesignPoint::new(
        "misconfigured",
        SocConfig::edge_single_core(),
        vec![small_net(8, 8, 8), small_net(8, 8, 8)],
        RunOptions::timing(),
    );
    let results = run_sweep_with(points, opts(4));
    assert_eq!(results.len(), 8);
    for (i, r) in results.iter().enumerate() {
        if i == 3 {
            assert_eq!(r.label, "misconfigured");
            match &r.outcome {
                Err(SweepError::Panicked(msg)) => {
                    assert!(
                        msg.contains("one network per core"),
                        "panic message should survive: {msg}"
                    );
                }
                other => panic!("expected panicked entry, got {other:?}"),
            }
        } else {
            assert!(
                r.outcome.is_ok(),
                "point {} must complete despite the failure: {:?}",
                r.label,
                r.outcome
            );
        }
    }
}

#[test]
fn workers_overlap_waiting_points() {
    // Sleep-based tasks prove the pool genuinely overlaps work even on
    // a single-CPU host (sleeps need no core to overlap): 8 x 50 ms
    // serially is 400 ms, but four workers finish in ~100 ms.
    let items: Vec<(String, u64, u64)> = (0..8).map(|i| (format!("p{i}"), i, i)).collect();
    let start = Instant::now();
    let results = sweep_map(items, opts(4), |i| {
        std::thread::sleep(Duration::from_millis(50));
        Ok(i)
    });
    let wall = start.elapsed();
    assert_eq!(results.len(), 8);
    assert!(
        wall < Duration::from_millis(300),
        "4 workers over 8 x 50ms points must beat 300ms, took {wall:?}"
    );
}

#[test]
fn serial_mode_runs_on_caller_thread() {
    // threads=1 must not spawn: the closure observes the caller's
    // thread id for every point.
    let caller = std::thread::current().id();
    let items: Vec<(String, u64, u64)> = (0..4).map(|i| (format!("p{i}"), i, i)).collect();
    let results = sweep_map(items, opts(1), |i| {
        assert_eq!(std::thread::current().id(), caller);
        Ok(i)
    });
    assert!(results.iter().all(|r| r.outcome.is_ok()));
}

/// A scratch checkpoint path unique to this test and process.
fn scratch_checkpoint(test: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gemmini_ckpt_{test}_{}.jsonl", std::process::id()))
}

/// Runs `points` through the sweep executor with an execution
/// counter on the side, so tests can assert exactly which points ran
/// versus were served from the checkpoint file.
fn run_counted(
    points: Vec<DesignPoint>,
    options: SweepOptions,
    executed: &AtomicUsize,
) -> Vec<gemmini_soc::sweep::SweepResult<SocReport>> {
    let items = points
        .into_iter()
        .map(|p| (p.label.clone(), p.fingerprint(), p))
        .collect();
    sweep_map(items, options, |p| {
        executed.fetch_add(1, Ordering::SeqCst);
        run_networks(&p.config, &p.networks, &p.options)
    })
}

#[test]
fn interrupted_sweep_resumes_bit_identically() {
    let path = scratch_checkpoint("resume");
    let _ = std::fs::remove_file(&path);

    // The ground truth: the same eight points, uninterrupted, serial.
    let reference = run_sweep_with(eight_points(), opts(1));

    // First attempt: point 4 is misconfigured and dies mid-sweep. The
    // executor isolates the panic, so the other seven points complete
    // and are flushed to the checkpoint; the failed point leaves no
    // entry (exactly as if the process had been killed while running it).
    let mut points = eight_points();
    points[4] = DesignPoint::new(
        points[4].label.clone(),
        SocConfig::edge_single_core(),
        vec![small_net(8, 8, 8), small_net(8, 8, 8)], // panics: 2 nets, 1 core
        RunOptions::timing(),
    );
    let executed = AtomicUsize::new(0);
    let first = run_counted(
        points,
        SweepOptions {
            checkpoint: Some(path.clone()),
            resume: false,
            ..opts(2)
        },
        &executed,
    );
    assert_eq!(executed.load(Ordering::SeqCst), 8, "fresh run executes all");
    assert!(matches!(first[4].outcome, Err(SweepError::Panicked(_))));

    // The checkpoint holds exactly the seven completed points.
    let on_disk: Checkpoint<SocReport> = Checkpoint::load(&path).expect("checkpoint loads");
    assert_eq!(on_disk.len(), 7, "only completed points are persisted");
    assert_eq!(on_disk.stale_lines, 0);

    // Resume with the corrected sweep: only the missing point runs, the
    // other seven are served from the file, and the stitched results are
    // bit-identical to the uninterrupted reference in submission order.
    let executed = AtomicUsize::new(0);
    let resumed = run_counted(
        eight_points(),
        SweepOptions {
            checkpoint: Some(path.clone()),
            resume: true,
            ..opts(2)
        },
        &executed,
    );
    assert_eq!(
        executed.load(Ordering::SeqCst),
        1,
        "resume must re-run only the point missing from the checkpoint"
    );
    assert_eq!(resumed.len(), 8);
    assert_eq!(
        resumed.iter().filter(|r| r.cached).count(),
        7,
        "seven points come from the checkpoint"
    );
    assert!(!resumed[4].cached, "the re-run point is not cached");
    for (r, s) in resumed.iter().zip(&reference) {
        assert_eq!(r.label, s.label, "submission order survives resume");
        assert_reports_identical(r.expect_ok(), s.expect_ok());
    }

    // A second resume finds the now-complete file: nothing executes.
    let executed = AtomicUsize::new(0);
    let replayed = run_counted(
        eight_points(),
        SweepOptions {
            checkpoint: Some(path.clone()),
            resume: true,
            ..opts(2)
        },
        &executed,
    );
    assert_eq!(executed.load(Ordering::SeqCst), 0);
    assert!(replayed.iter().all(|r| r.cached));
    for (r, s) in replayed.iter().zip(&reference) {
        assert_reports_identical(r.expect_ok(), s.expect_ok());
    }

    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_reruns_points_whose_configuration_changed() {
    let path = scratch_checkpoint("fingerprint");
    let _ = std::fs::remove_file(&path);

    let executed = AtomicUsize::new(0);
    run_counted(
        eight_points(),
        SweepOptions {
            checkpoint: Some(path.clone()),
            resume: false,
            ..opts(1)
        },
        &executed,
    );
    assert_eq!(executed.load(Ordering::SeqCst), 8);

    // Same labels, but point 2's design changed: its fingerprint no
    // longer matches the checkpoint entry, so a stale result must never
    // be served for it.
    let mut points = eight_points();
    points[2].config.cores[0].translation.private = TlbConfig::private(64);
    let executed = AtomicUsize::new(0);
    let results = run_counted(
        points,
        SweepOptions {
            checkpoint: Some(path.clone()),
            resume: true,
            ..opts(1)
        },
        &executed,
    );
    assert_eq!(
        executed.load(Ordering::SeqCst),
        1,
        "only the edited point re-runs"
    );
    assert!(!results[2].cached);
    assert!(results
        .iter()
        .enumerate()
        .all(|(i, r)| r.cached == (i != 2)));

    let _ = std::fs::remove_file(&path);
}

#[test]
fn failed_points_are_not_persisted_and_rerun_on_resume() {
    use gemmini_core::AccelError;
    let path = scratch_checkpoint("failed_points");
    let _ = std::fs::remove_file(&path);

    // Six labelled points; "accel" fails with a typed error, "panic"
    // panics. Both failure shapes must leave no checkpoint entry.
    let items = |fail: bool| -> Vec<(String, u64, u64)> {
        (0..6)
            .map(|i| {
                let label = match i {
                    2 => "accel".to_string(),
                    4 => "panic".to_string(),
                    _ => format!("ok{i}"),
                };
                (label, i, if fail { i } else { 100 + i })
            })
            .collect()
    };
    let executed = AtomicUsize::new(0);
    let first = sweep_map(
        items(true),
        SweepOptions {
            checkpoint: Some(path.clone()),
            resume: false,
            ..opts(2)
        },
        |i| {
            executed.fetch_add(1, Ordering::SeqCst);
            match i {
                2 => Err(AccelError::NoPreload),
                4 => panic!("deliberate point failure"),
                _ => Ok(i * 10),
            }
        },
    );
    assert_eq!(executed.load(Ordering::SeqCst), 6);
    assert!(matches!(first[2].outcome, Err(SweepError::Accel(_))));
    assert!(matches!(first[4].outcome, Err(SweepError::Panicked(_))));

    let on_disk: Checkpoint<u64> = Checkpoint::load(&path).expect("checkpoint loads");
    assert_eq!(on_disk.len(), 4, "failed points must not be persisted");
    assert!(on_disk.lookup("accel", 2).is_none());
    assert!(on_disk.lookup("panic", 4).is_none());

    // Resume with the failures fixed (same labels and fingerprints, a
    // healthy closure): exactly the two failed points re-run.
    let executed = AtomicUsize::new(0);
    let resumed = sweep_map(
        items(true),
        SweepOptions {
            checkpoint: Some(path.clone()),
            resume: true,
            ..opts(2)
        },
        |i| {
            executed.fetch_add(1, Ordering::SeqCst);
            Ok(i * 10)
        },
    );
    assert_eq!(
        executed.load(Ordering::SeqCst),
        2,
        "only the failed points re-run on resume"
    );
    assert!(resumed
        .iter()
        .enumerate()
        .all(|(i, r)| r.cached == (i != 2 && i != 4)));
    assert!(resumed.iter().all(|r| r.outcome.is_ok()));

    let _ = std::fs::remove_file(&path);
}

#[test]
fn reported_wall_is_the_persisted_pure_simulation_wall() {
    let path = scratch_checkpoint("wall");
    let _ = std::fs::remove_file(&path);

    let items: Vec<(String, u64, u64)> = (0..4).map(|i| (format!("p{i}"), i, i)).collect();
    let fresh = sweep_map(
        items.clone(),
        SweepOptions {
            checkpoint: Some(path.clone()),
            resume: false,
            ..opts(2)
        },
        |i| {
            std::thread::sleep(Duration::from_millis(5));
            Ok(i)
        },
    );

    // The wall each result reports must be exactly the wall persisted in
    // its checkpoint line — the pure simulation time, measured once.
    // (Before the fix, the returned wall also included JSON encoding and
    // the flushed append, so a run and its cached replay disagreed.)
    let on_disk: Checkpoint<u64> = Checkpoint::load(&path).expect("checkpoint loads");
    for r in &fresh {
        let entry = on_disk
            .lookup(&r.label, r.outcome.as_ref().copied().unwrap())
            .unwrap();
        assert_eq!(
            r.wall, entry.wall,
            "returned wall must equal persisted wall for '{}'",
            r.label
        );
    }

    // A cached replay serves the identical wall.
    let replay = sweep_map(
        items,
        SweepOptions {
            checkpoint: Some(path.clone()),
            resume: true,
            ..opts(2)
        },
        |_: u64| -> Result<u64, gemmini_core::AccelError> {
            panic!("nothing may execute on a full-checkpoint replay")
        },
    );
    for (r, f) in replay.iter().zip(&fresh) {
        assert!(r.cached);
        assert_eq!(r.wall, f.wall, "cached replay must report the same wall");
    }

    let _ = std::fs::remove_file(&path);
}

#[test]
fn repeated_resume_cycles_do_not_grow_the_checkpoint() {
    let path = scratch_checkpoint("compaction");
    let _ = std::fs::remove_file(&path);

    let n = 5usize;
    let line_count = |path: &PathBuf| -> usize {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count()
    };

    // Each cycle uses new fingerprints, so every point re-runs and
    // appends a shadowing entry. Completion must compact the file back
    // to one line per label; without compaction cycle `c` would leave
    // `c * n` lines.
    for cycle in 0..3u64 {
        let items: Vec<(String, u64, u64)> =
            (0..n).map(|i| (format!("p{i}"), cycle, i as u64)).collect();
        let results = sweep_map(
            items,
            SweepOptions {
                checkpoint: Some(path.clone()),
                resume: cycle > 0,
                ..opts(1)
            },
            |i| Ok(i + cycle),
        );
        assert!(results.iter().all(|r| !r.cached), "new fingerprints re-run");
        assert_eq!(
            line_count(&path),
            n,
            "cycle {cycle} must leave exactly one line per label"
        );
    }

    // The surviving lines are the latest cycle's entries.
    let on_disk: Checkpoint<u64> = Checkpoint::load(&path).expect("checkpoint loads");
    assert_eq!(on_disk.len(), n);
    for i in 0..n {
        assert_eq!(
            on_disk.lookup(&format!("p{i}"), 2).unwrap().payload,
            i as u64 + 2
        );
    }

    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_after_a_torn_final_line_reruns_only_that_point() {
    let path = scratch_checkpoint("torn_tail");
    let _ = std::fs::remove_file(&path);
    let items = || -> Vec<(String, u64, u64)> { (0..6).map(|i| (format!("p{i}"), i, i)).collect() };
    let counted = |resume: bool, executed: &AtomicUsize| {
        sweep_map(
            items(),
            SweepOptions {
                checkpoint: Some(path.clone()),
                resume,
                ..opts(1)
            },
            |i| {
                executed.fetch_add(1, Ordering::SeqCst);
                Ok(i * 10)
            },
        )
    };
    counted(false, &AtomicUsize::new(0));

    // A kill mid-write: cut the file half-way through its last line,
    // leaving no trailing newline.
    let text = std::fs::read_to_string(&path).unwrap();
    let last_start = text.trim_end().rfind('\n').unwrap() + 1;
    let cut = last_start + (text.len() - last_start) / 2;
    std::fs::write(&path, &text[..cut]).unwrap();

    // The first resume re-runs exactly the torn point.
    let executed = AtomicUsize::new(0);
    let resumed = counted(true, &executed);
    assert_eq!(executed.load(Ordering::SeqCst), 1);
    assert!(resumed.iter().take(5).all(|r| r.cached));
    assert!(!resumed[5].cached);
    assert_eq!(*resumed[5].expect_ok(), 50);

    // The second resume finds every point: nothing executes.
    let executed = AtomicUsize::new(0);
    let replayed = counted(true, &executed);
    assert_eq!(executed.load(Ordering::SeqCst), 0);
    assert!(replayed.iter().all(|r| r.cached));

    // The file ends fully valid.
    let on_disk: Checkpoint<u64> = Checkpoint::load(&path).expect("checkpoint loads");
    assert_eq!(on_disk.stale_lines, 0);
    assert_eq!(on_disk.len(), 6);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn env_var_resolves_worker_count() {
    use gemmini_soc::sweep::{worker_count, THREADS_ENV};
    // This test owns the env var; explicit `threads` arguments elsewhere
    // bypass it, so the mutation cannot race with the other tests.
    std::env::set_var(THREADS_ENV, "3");
    assert_eq!(worker_count(0, 8), 3);
    std::env::set_var(THREADS_ENV, "1");
    assert_eq!(worker_count(0, 8), 1);
    std::env::set_var(THREADS_ENV, "not-a-number");
    let fallback = worker_count(0, 64);
    assert!(fallback >= 1);
    std::env::remove_var(THREADS_ENV);
    assert!(worker_count(0, 64) >= 1);
    // Explicit argument always wins over the environment.
    std::env::set_var(THREADS_ENV, "7");
    assert_eq!(worker_count(2, 64), 2);
    std::env::remove_var(THREADS_ENV);
}
