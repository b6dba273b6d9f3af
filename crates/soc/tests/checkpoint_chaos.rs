//! Chaos property test for the checkpoint behind `--json`/`--resume`:
//! arbitrary byte-level damage to a checkpoint file — torn tails, bit
//! flips, dropped bytes — must never panic the loader, must serve
//! exactly the intact lines (no more, no fewer), and a resumed sweep
//! must re-run only the lost points and leave a fully valid file whose
//! lines hold the same results as an undamaged run's.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use gemmini_soc::checkpoint::{Checkpoint, CheckpointEntry};
use gemmini_soc::sweep::{sweep_map, SweepOptions};
use proptest::prelude::*;

/// The grid: `n` labelled points with distinct fingerprints.
fn items(n: u64) -> Vec<(String, u64, u64)> {
    (0..n)
        .map(|i| (format!("pt{i}"), i.wrapping_mul(0x9E37_79B9), i))
        .collect()
}

/// The deterministic "simulation result" of point `i`.
fn payload(i: u64) -> u64 {
    i.wrapping_mul(1_000_003)
}

fn scratch_path() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("gemmini_chaos_{}_{n}.jsonl", std::process::id()))
}

fn opts(path: &PathBuf, resume: bool) -> SweepOptions {
    SweepOptions {
        threads: 1,
        progress: false,
        ..SweepOptions::checkpointed(path, resume)
    }
}

/// Every line's `(label, fingerprint, payload)`, sorted: the file's
/// results with the host wall-clock (and the CRC sealing it) left out.
fn results_multiset(path: &PathBuf) -> Vec<(String, u64, u64)> {
    let text = std::fs::read_to_string(path).unwrap();
    let mut rows: Vec<_> = text
        .lines()
        .map(|line| {
            let e = CheckpointEntry::<u64>::decode(line).unwrap();
            (e.label, e.fingerprint, e.payload)
        })
        .collect();
    rows.sort_unstable();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Checkpoint a sweep, damage the file at an arbitrary byte, and
    /// check the full single-process recovery cycle: the loader serves
    /// exactly the lines that still decode, a resumed `sweep_map` re-runs
    /// exactly the points they lost, and a reload finds a clean file
    /// with the pristine run's results.
    #[test]
    fn resume_survives_arbitrary_byte_damage(
        n in 3u64..12,
        mode in 0usize..3,
        pos_seed in any::<u64>(),
        val_seed in any::<u64>(),
    ) {
        let path = scratch_path();
        let _ = std::fs::remove_file(&path);

        // Pristine run: n entries.
        sweep_map(items(n), opts(&path, false), |i| Ok(payload(i)));
        let pristine = results_multiset(&path);
        prop_assert_eq!(pristine.len(), n as usize);

        // Damage the file at an arbitrary position.
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        match mode {
            0 => bytes.truncate(pos),                                  // torn tail
            1 => bytes[pos] ^= 1 + (val_seed % 255) as u8,             // bit flip
            _ => { bytes.remove(pos); }                                // dropped byte
        }
        std::fs::write(&path, &bytes).unwrap();

        // Ground truth from the damaged bytes themselves: which physical
        // lines still decode? (A flip can split or merge lines, so the
        // expectation must come from the file, not from the damage site.)
        let damaged_text = String::from_utf8_lossy(&bytes).into_owned();
        let mut expect_good = Vec::new();
        let mut expect_bad = 0usize;
        for line in damaged_text.lines().filter(|l| !l.trim().is_empty()) {
            match CheckpointEntry::<u64>::decode(line) {
                Ok(e) => expect_good.push(e.label),
                Err(_) => expect_bad += 1,
            }
        }

        // The loader never panics and serves exactly the intact lines.
        let loaded = Checkpoint::<u64>::load(&path).unwrap();
        prop_assert_eq!(loaded.stale_lines, expect_bad);
        let loaded_labels: Vec<String> =
            loaded.entries().iter().map(|e| e.label.clone()).collect();
        prop_assert_eq!(&loaded_labels, &expect_good);
        for e in loaded.entries() {
            let i: u64 = e.label[2..].parse().unwrap();
            prop_assert_eq!(e.payload, payload(i));
        }

        // Resume: only the points the damage lost re-run, and every
        // point comes back with its result.
        let ran = Mutex::new(Vec::new());
        let resumed = sweep_map(items(n), opts(&path, true), |i| {
            ran.lock().unwrap().push(format!("pt{i}"));
            Ok(payload(i))
        });
        let mut ran = ran.into_inner().unwrap();
        ran.sort_unstable();
        let mut lost: Vec<String> = (0..n)
            .map(|i| format!("pt{i}"))
            .filter(|l| !expect_good.contains(l))
            .collect();
        lost.sort_unstable();
        prop_assert_eq!(&ran, &lost);
        for (i, r) in resumed.iter().enumerate() {
            prop_assert_eq!(*r.expect_ok(), payload(i as u64));
            prop_assert_eq!(r.cached, !lost.contains(&r.label));
        }

        // The file converged: every line decodes, and the lines hold the
        // pristine results (re-run lines differ only in wall-clock).
        let healed = Checkpoint::<u64>::load(&path).unwrap();
        prop_assert_eq!(healed.stale_lines, 0);
        prop_assert_eq!(results_multiset(&path), pristine);
        // The intact lines survive byte for byte.
        let healed_text = std::fs::read_to_string(&path).unwrap();
        for line in damaged_text.lines() {
            if CheckpointEntry::<u64>::decode(line).is_ok() {
                prop_assert!(healed_text.lines().any(|l| l == line));
            }
        }

        let _ = std::fs::remove_file(&path);
    }
}
