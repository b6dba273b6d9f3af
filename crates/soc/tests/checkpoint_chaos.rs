//! Chaos property test for the self-healing checkpoint substrate:
//! arbitrary byte-level damage to a checkpoint file — torn tails, bit
//! flips, dropped bytes — must never panic the loader, must quarantine
//! exactly the damaged lines (no more, no fewer), and a resume that
//! re-runs the lost points must converge to a file whose lines are
//! bit-identical to an undamaged run's.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use gemmini_soc::checkpoint::{Checkpoint, CheckpointEntry, CheckpointWriter};
use proptest::prelude::*;

/// Deterministic entry for grid point `i`: the "simulation result" a
/// re-run would reproduce exactly (fixed wall so encodings are stable).
fn entry(i: u64) -> CheckpointEntry<u64> {
    CheckpointEntry {
        label: format!("pt{i}"),
        fingerprint: i.wrapping_mul(0x9E37_79B9),
        wall: Duration::from_micros(i * 37),
        payload: i.wrapping_mul(1_000_003),
    }
}

fn scratch_path() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("gemmini_chaos_{}_{n}.jsonl", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Write a clean checkpoint, damage it at an arbitrary byte, and
    /// check the full recovery cycle: load quarantines exactly the
    /// undecodable lines, a second load finds a clean file, and
    /// re-running the lost points restores a file whose line multiset is
    /// bit-identical to the pristine one.
    #[test]
    fn resume_survives_arbitrary_byte_damage(
        n in 3u64..12,
        mode in 0usize..3,
        pos_seed in any::<u64>(),
        val_seed in any::<u64>(),
    ) {
        let path = scratch_path();
        let sidecar = path.with_file_name(format!(
            "{}.bad",
            path.file_name().unwrap().to_str().unwrap()
        ));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&sidecar);

        // Pristine run: n entries, deterministic bytes.
        let writer = CheckpointWriter::create(&path).unwrap();
        for i in 0..n {
            writer.append(&entry(i)).unwrap();
        }
        drop(writer);
        let pristine = std::fs::read(&path).unwrap();

        // Damage the file at an arbitrary position.
        let mut bytes = pristine.clone();
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

        // Resume-style load: never panics, quarantines exactly the
        // damaged lines, keeps exactly the intact ones.
        let (loaded, quarantine) = Checkpoint::<u64>::load_quarantining(&path).unwrap();
        prop_assert_eq!(quarantine.lines, expect_bad);
        prop_assert_eq!(quarantine.sidecar.is_some(), expect_bad > 0);
        prop_assert_eq!(std::fs::metadata(&sidecar).is_ok(), expect_bad > 0);
        let loaded_labels: Vec<String> =
            loaded.entries().iter().map(|e| e.label.clone()).collect();
        prop_assert_eq!(&loaded_labels, &expect_good);
        for e in loaded.entries() {
            let i: u64 = e.label[2..].parse().unwrap();
            prop_assert_eq!(e.payload, entry(i).payload);
        }

        // Exactly-once: a second load sees a fully clean file.
        let (reloaded, again) = Checkpoint::<u64>::load_quarantining(&path).unwrap();
        prop_assert_eq!(again.lines, 0);
        prop_assert_eq!(reloaded.entries().len(), expect_good.len());

        // "Resume" the sweep: re-run every point the damage lost and
        // append its (deterministic) result, as the executor would.
        let writer = CheckpointWriter::append_to(&path).unwrap();
        for i in 0..n {
            if !expect_good.iter().any(|l| l == &format!("pt{i}")) {
                writer.append(&entry(i)).unwrap();
            }
        }
        drop(writer);

        // The healed file holds the same line *bytes* as the pristine
        // run, merely reordered — sort both multisets and compare.
        let healed_text = std::fs::read_to_string(&path).unwrap();
        let mut healed: Vec<&str> = healed_text.lines().collect();
        let pristine_text = String::from_utf8(pristine).unwrap();
        let mut expected: Vec<&str> = pristine_text.lines().collect();
        healed.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(healed, expected);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&sidecar);
    }
}
