//! Sweep checkpoint persistence: newline-delimited JSON, one completed
//! point per line.
//!
//! The figure sweeps (Figs. 7–9) are grids of full-SoC simulations; a
//! killed or extended sweep should not pay for points it already
//! finished. This module persists every completed [`SweepResult`] as one
//! JSON line — label, a fingerprint of the design point, wall-clock, and
//! the full payload — flushed as the point completes, so an interrupted
//! sweep loses at most the points that were in flight. On resume the
//! loader keeps the last entry per label, and a point is skipped only
//! when both its label *and* fingerprint match, so edited design points
//! (or a changed payload schema) re-run instead of serving stale data.
//!
//! The same files double as the figure binaries' `--json` output.
//!
//! File format (version 2), one object per line:
//!
//! ```json
//! {"v":2,"label":"private=4 shared=0","fingerprint":1234,"wall_nanos":512000,"payload":{...},"crc32":987654}
//! ```
//!
//! The trailing `crc32` field is an IEEE CRC-32 of the line's own text
//! with the crc field removed (everything up to the `,"crc32":` suffix,
//! re-closed with `}`), so any byte-level damage — a torn write, a bad
//! sector, a flipped digit that would otherwise still parse — is
//! detected on load. Version-1 lines (no crc) still decode, so files
//! written before the bump resume unchanged. A damaged line is skipped
//! instead of aborting the resume, and the point it named simply
//! re-runs.
//!
//! A kill can tear the final line mid-write. Resume heals it in two
//! steps: [`CheckpointWriter::append_to`] first terminates an
//! unterminated last line, so the first re-run line cannot fuse with
//! the fragment, and [`compact`] then drops the fragment along with
//! shadowed lines. Damage is reported once (the resume line's stale
//! count), the lost point re-runs, and the file ends fully valid.
//!
//! Two line shapes written by older builds never decode, so `--resume`
//! re-runs the point: a `"pruned"` object (another point's report
//! served as a prediction by attribution-guided pruning, not a
//! simulation) and a `"failed"` reason (the record of a timed-out
//! point, with no payload). A point has a result line or it runs.
//!
//! [`SweepResult`]: crate::sweep::SweepResult

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use gemmini_mem::json::{FromJson, Json, JsonError, ToJson};

/// Current checkpoint line format version. Version 2 added the trailing
/// per-line `crc32` field; version-1 lines (no crc) still decode.
pub const FORMAT_VERSION: u64 = 2;

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// IEEE CRC-32 lookup table (polynomial `0xEDB88320`, reflected),
/// generated at compile time — no dependency, no runtime init.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// IEEE CRC-32 (the zlib/zip polynomial) over a byte string — the
/// per-line integrity check behind checkpoint self-healing. Unlike the
/// FNV fingerprint (which hashes a design point's *configuration*), this
/// guards the persisted *bytes*: any single-bit flip in a line changes
/// the CRC.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Closes `body` (a serialized JSON object) with its own CRC appended as
/// the trailing `crc32` field — the inverse of [`strip_crc`].
fn seal_with_crc(body: String) -> String {
    let crc = crc32(body.as_bytes());
    let mut line = body;
    line.pop(); // the closing '}'
    line.push_str(&format!(",\"crc32\":{crc}}}"));
    line
}

/// Recovers the CRC-less body of a sealed line and the recorded CRC.
/// Returns `None` when the line does not end in a `crc32` field.
fn strip_crc(line: &str) -> Option<(String, u32)> {
    const MARKER: &str = ",\"crc32\":";
    let pos = line.rfind(MARKER)?;
    let tail = &line[pos + MARKER.len()..];
    let digits = tail.strip_suffix('}')?;
    let recorded = digits.trim().parse::<u32>().ok()?;
    let mut body = line[..pos].to_string();
    body.push('}');
    Some((body, recorded))
}

/// FNV-1a over a byte string: a small, stable, dependency-free hash for
/// design-point fingerprints (not cryptographic; collision odds over a
/// sweep grid of thousands of points are negligible).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET_BASIS;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Incremental FNV-1a state fed directly by the formatter, so hashing a
/// `Debug` rendering never materializes it (a full ResNet50 design point
/// renders to megabytes of text).
struct FnvWriter(u64);

impl std::fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        Ok(())
    }
}

/// Fingerprints any `Debug`-renderable value. The figure sweeps hash the
/// full `(SocConfig, networks, RunOptions)` debug rendering, so any edit
/// to a design point — a cache size, a layer shape, the seed — changes
/// the fingerprint and forces a re-run on resume.
///
/// The rendering is streamed into the hash state chunk by chunk; the
/// result is identical to `fnv1a(format!("{value:?}").as_bytes())`, so
/// fingerprints in existing checkpoint files stay valid.
pub fn debug_fingerprint<T: std::fmt::Debug + ?Sized>(value: &T) -> u64 {
    let mut hasher = FnvWriter(FNV_OFFSET_BASIS);
    write!(hasher, "{value:?}").expect("FnvWriter::write_str never fails");
    hasher.0
}

/// One persisted sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointEntry<T> {
    /// The design point's label (the lookup key on resume).
    pub label: String,
    /// Fingerprint of the point's full configuration.
    pub fingerprint: u64,
    /// Wall-clock the point took when it actually ran.
    pub wall: Duration,
    /// The point's result payload (a `SocReport` for the figure sweeps).
    pub payload: T,
}

impl<T: ToJson> CheckpointEntry<T> {
    /// Encodes the entry as one JSON line (no trailing newline), sealed
    /// with its CRC as the trailing field.
    pub fn encode(&self) -> String {
        seal_with_crc(
            Json::obj([
                ("v", Json::from(FORMAT_VERSION)),
                ("label", Json::from(self.label.clone())),
                ("fingerprint", Json::from(self.fingerprint)),
                ("wall_nanos", Json::from(self.wall.as_nanos() as u64)),
                ("payload", self.payload.to_json()),
            ])
            .encode(),
        )
    }
}

/// Parses one checkpoint line and checks everything but its payload:
/// the format version, the CRC on version-2 lines (version-1 lines have
/// none and are accepted as-is), and that it records a result.
fn parse_envelope(line: &str) -> Result<Json, JsonError> {
    let line = line.trim();
    let value = Json::parse(line)?;
    let version = value.field("v")?.as_u64()?;
    match version {
        1 => {}
        2 => {
            let recorded_field = value.field("crc32")?.as_u64()?;
            let (body, recorded) = strip_crc(line)
                .ok_or_else(|| JsonError::new("version-2 line does not end in a crc32 field"))?;
            let computed = crc32(body.as_bytes());
            if u64::from(recorded) != recorded_field || recorded != computed {
                return Err(JsonError::new(format!(
                    "crc mismatch: line records {recorded}, bytes hash to {computed}"
                )));
            }
        }
        _ => {
            return Err(JsonError::new(format!(
                "unsupported checkpoint version {version} (expected 1..={FORMAT_VERSION})"
            )));
        }
    }
    if value.get("pruned").is_some() {
        return Err(JsonError::new(
            "line records a pruned prediction, not a simulation; the point must re-run",
        ));
    }
    if value.get("failed").is_some() {
        return Err(JsonError::new(
            "line records a timed-out point, not a result; the point must re-run",
        ));
    }
    Ok(value)
}

impl<T: FromJson> CheckpointEntry<T> {
    /// Decodes one checkpoint line, verifying the CRC on version-2 lines
    /// (version-1 lines have none and are accepted as-is).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed JSON, an unknown format
    /// version, a CRC mismatch (byte-level damage), a `"pruned"` or
    /// `"failed"` line from an older build, or a payload that no longer
    /// matches `T`'s schema.
    pub fn decode(line: &str) -> Result<Self, JsonError> {
        let value = parse_envelope(line)?;
        Ok(Self {
            label: value.field("label")?.as_str()?.to_string(),
            fingerprint: value.field("fingerprint")?.as_u64()?,
            wall: Duration::from_nanos(value.field("wall_nanos")?.as_u64()?),
            payload: T::from_json(value.field("payload")?)?,
        })
    }
}

/// An in-memory view of a checkpoint file, ready for resume lookups.
#[derive(Debug, Clone)]
pub struct Checkpoint<T> {
    entries: Vec<CheckpointEntry<T>>,
    /// Lines that failed to decode (truncated in-flight write at kill
    /// time, byte-level damage caught by the CRC, or a schema change);
    /// the points they named simply re-run.
    pub stale_lines: usize,
}

impl<T> Default for Checkpoint<T> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            stale_lines: 0,
        }
    }
}

impl<T: FromJson> Checkpoint<T> {
    /// Loads a checkpoint file. A missing file is an empty checkpoint;
    /// undecodable lines are counted in `stale_lines` and skipped (their
    /// points re-run — the safe direction). When a label appears more
    /// than once (a re-run appended over a stale entry), the last
    /// occurrence wins.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error for anything other than a
    /// missing file.
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = match read_lossy(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let mut checkpoint = Self::default();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match CheckpointEntry::decode(line) {
                Ok(entry) => checkpoint.entries.push(entry),
                Err(_) => checkpoint.stale_lines += 1,
            }
        }
        Ok(checkpoint)
    }
}

/// Reads a checkpoint file as text, substituting U+FFFD for any invalid
/// UTF-8 byte sequence. Byte-level corruption must surface as
/// undecodable *lines* (skipped, their points re-run) rather than an I/O
/// error that aborts the whole load — a CRC-sealed line never contains a
/// replacement character, so intact lines are unaffected.
fn read_lossy(path: &Path) -> io::Result<String> {
    std::fs::read(path).map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Replaces `path` with what `write` produces, atomically: the bytes go
/// to a hidden temp file in the same directory, which is then renamed
/// over the target, so a reader sees the old complete file or the new
/// one, never a torn write. Each call gets its own temp name (process id
/// plus a process-wide counter), so concurrent writers of one path never
/// share a temp file; the last rename wins.
///
/// # Errors
///
/// Returns the first I/O error from creating, writing, or renaming; the
/// temp file is removed on failure.
fn replace_atomically<F>(path: &Path, write: F) -> io::Result<()>
where
    F: FnOnce(&mut BufWriter<File>) -> io::Result<()>,
{
    static NEXT_TEMP: AtomicU64 = AtomicU64::new(0);
    let file_name = path.file_name().and_then(|n| n.to_str()).unwrap_or("file");
    let tmp = path.with_file_name(format!(
        ".{file_name}.tmp-{}-{}",
        std::process::id(),
        NEXT_TEMP.fetch_add(1, Ordering::Relaxed)
    ));
    let result = File::create(&tmp).and_then(|file| {
        let mut out = BufWriter::new(file);
        write(&mut out)?;
        out.flush()?;
        drop(out);
        std::fs::rename(&tmp, path)
    });
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

impl<T> Checkpoint<T> {
    /// The completed entry for `label`, if present with a matching
    /// fingerprint (later entries shadow earlier ones).
    pub fn lookup(&self, label: &str, fingerprint: u64) -> Option<&CheckpointEntry<T>> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.label == label)
            .filter(|e| e.fingerprint == fingerprint)
    }

    /// Removes and returns the entry [`lookup`](Self::lookup) would have
    /// found, handing the payload over without a clone.
    pub fn take(&mut self, label: &str, fingerprint: u64) -> Option<CheckpointEntry<T>> {
        let idx = self.entries.iter().rposition(|e| e.label == label)?;
        if self.entries[idx].fingerprint == fingerprint {
            Some(self.entries.remove(idx))
        } else {
            None
        }
    }

    /// Number of decoded entries (including shadowed duplicates).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the checkpoint holds no decoded entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All decoded entries, in file order.
    pub fn entries(&self) -> &[CheckpointEntry<T>] {
        &self.entries
    }
}

/// Outcome of a [`compact`] pass over a checkpoint file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Compaction {
    /// Lines kept: the last valid line of every label.
    pub kept: usize,
    /// Lines reclaimed: shadowed re-runs and damaged lines.
    pub dropped: usize,
}

/// Rewrites a checkpoint file keeping only the last valid line per
/// label, dropping shadowed re-run entries and damaged lines. Repeated
/// resume cycles append re-run entries over stale ones, so without this
/// the file grows without bound; the sweep executor compacts on every
/// resumed completion.
///
/// A damaged line — a torn fragment, a CRC mismatch, a line an older
/// build wrote that records no result — has already been counted as
/// stale by the resume that loaded the file, and its point re-ran, so
/// dropping it here reports the damage exactly once and leaves the file
/// fully valid.
///
/// Works at the JSON-line level (the envelope and CRC are checked, the
/// payload is not decoded, so its schema is irrelevant), writes
/// survivors to a temporary file in the same directory and atomically
/// renames it over the original — a crash mid-compaction never loses
/// the checkpoint. When
/// nothing would be dropped the file is left untouched. A missing file
/// compacts to nothing.
///
/// # Errors
///
/// Returns the underlying I/O error from reading, writing the temporary
/// file, or the rename.
pub fn compact(path: &Path) -> io::Result<Compaction> {
    let text = match read_lossy(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Compaction::default()),
        Err(e) => return Err(e),
    };
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut last_for_label: std::collections::HashMap<String, usize> =
        std::collections::HashMap::new();
    for (idx, line) in lines.iter().enumerate() {
        let label = parse_envelope(line).ok().and_then(|v| {
            v.field("label")
                .ok()
                .and_then(|l| l.as_str().ok().map(String::from))
        });
        if let Some(label) = label {
            last_for_label.insert(label, idx);
        }
    }
    let keep: std::collections::HashSet<usize> = last_for_label.into_values().collect();
    let kept = keep.len();
    let dropped = lines.len() - kept;
    if dropped == 0 {
        return Ok(Compaction { kept, dropped });
    }

    replace_atomically(path, |out| {
        for (idx, line) in lines.iter().enumerate() {
            if keep.contains(&idx) {
                writeln!(out, "{line}")?;
            }
        }
        Ok(())
    })?;
    Ok(Compaction { kept, dropped })
}

/// An append-only, line-buffered checkpoint writer shared across sweep
/// workers. Every [`append`](Self::append) writes one full line and
/// flushes, so a kill between points loses nothing already completed.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: Mutex<BufWriter<File>>,
}

impl CheckpointWriter {
    /// Creates (truncating) a checkpoint file, making parent directories
    /// as needed — the fresh-sweep mode.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn create(path: &Path) -> io::Result<Self> {
        Self::open(path, false)
    }

    /// Opens a checkpoint file for appending (creating it if missing) —
    /// the resume mode. A final line a kill left unterminated is closed
    /// with a newline first, so the next appended line starts on a line
    /// of its own instead of fusing with the fragment.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn append_to(path: &Path) -> io::Result<Self> {
        Self::open(path, true)
    }

    fn open(path: &Path, append: bool) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new()
            .create(true)
            .read(append)
            .write(true)
            .append(append)
            .truncate(!append)
            .open(path)?;
        if append && ends_mid_line(&mut file)? {
            file.write_all(b"\n")?;
        }
        Ok(Self {
            file: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Appends one entry as a flushed JSON line.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    ///
    /// # Panics
    ///
    /// Panics if a previous writer thread panicked while holding the
    /// file lock (the sweep executor catches per-point panics before
    /// they can reach the writer, so this is unreachable in practice).
    pub fn append<T: ToJson>(&self, entry: &CheckpointEntry<T>) -> io::Result<()> {
        let line = entry.encode();
        let mut file = self.file.lock().expect("checkpoint writer lock");
        writeln!(file, "{line}")?;
        file.flush()
    }
}

/// Whether `file` is non-empty and does not end in a newline: its last
/// line was torn by a kill mid-write.
fn ends_mid_line(file: &mut File) -> io::Result<bool> {
    if file.metadata()?.len() == 0 {
        return Ok(false);
    }
    let mut last = [0u8];
    file.seek(SeekFrom::End(-1))?;
    file.read_exact(&mut last)?;
    Ok(last[0] != b'\n')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(label: &str, fingerprint: u64, payload: u64) -> CheckpointEntry<u64> {
        CheckpointEntry {
            label: label.to_string(),
            fingerprint,
            wall: Duration::from_micros(payload),
            payload,
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gemmini_ckpt_{}_{name}.jsonl", std::process::id()))
    }

    #[test]
    fn entry_round_trips() {
        let e = entry("private=4 shared=0", 0xDEAD_BEEF, 42);
        let line = e.encode();
        assert!(!line.contains('\n'), "entries must be single lines");
        assert_eq!(CheckpointEntry::<u64>::decode(&line).unwrap(), e);
    }

    /// Seeds a checkpoint with a result line for point `p` and `line` for
    /// point `q`, then checks that `line` is never served: it does not
    /// decode, and a `--resume` sweep re-runs `q` and only `q`.
    fn assert_never_served(line: &str, name: &str) {
        assert!(CheckpointEntry::<u64>::decode(line).is_err());
        let path = temp_path(name);
        let seed = || {
            let text = format!("{}\n{line}\n", entry("p", 7, 70).encode());
            std::fs::write(&path, text).unwrap();
        };
        seed();
        let ckpt = Checkpoint::<u64>::load(&path).unwrap();
        assert_eq!(ckpt.stale_lines, 1);
        assert!(ckpt.lookup("q", 8).is_none());

        let ran = std::sync::atomic::AtomicUsize::new(0);
        let results = crate::sweep::sweep_map(
            vec![("p".to_string(), 7, 1u64), ("q".to_string(), 8, 2)],
            crate::sweep::SweepOptions {
                threads: 1,
                progress: false,
                ..crate::sweep::SweepOptions::checkpointed(&path, true)
            },
            |i| {
                ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Ok(i * 100)
            },
        );
        assert_eq!(ran.into_inner(), 1, "only the unserved point re-runs");
        assert!(results[0].cached && !results[1].cached);
        assert_eq!(*results[1].expect_ok(), 200);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pruned_prediction_lines_are_stale_never_served() {
        // A line carrying a "pruned" object holds another point's report
        // served as a prediction. Even sealed with a valid CRC it must not
        // decode: resume re-runs the point.
        let predicted = seal_with_crc(
            Json::obj([
                ("v", Json::from(FORMAT_VERSION)),
                ("label", Json::from("q")),
                ("fingerprint", Json::from(8u64)),
                ("wall_nanos", Json::from(0u64)),
                ("payload", Json::from(9u64)),
                (
                    "pruned",
                    Json::obj([
                        ("basis_label", Json::from("p")),
                        ("basis_fingerprint", Json::from(7u64)),
                    ]),
                ),
            ])
            .encode(),
        );
        assert_never_served(&predicted, "predicted");
    }

    #[test]
    fn failed_timeout_lines_are_stale_never_served() {
        // Older builds recorded a point-timeout as a CRC-valid v2 line with
        // a "failed" reason and no payload. It is no result: resume re-runs
        // the point.
        let failed = seal_with_crc(
            Json::obj([
                ("v", Json::from(FORMAT_VERSION)),
                ("label", Json::from("q")),
                ("fingerprint", Json::from(8u64)),
                ("wall_nanos", Json::from(30_000_000_000u64)),
                ("failed", Json::from("timeout")),
            ])
            .encode(),
        );
        assert_never_served(&failed, "failed_timeout");
    }

    #[test]
    fn unknown_version_is_rejected() {
        let line = r#"{"v":99,"label":"x","fingerprint":1,"wall_nanos":0,"payload":0}"#;
        assert!(CheckpointEntry::<u64>::decode(line).is_err());
    }

    #[test]
    fn version_1_lines_without_crc_still_decode() {
        let line = r#"{"v":1,"label":"legacy","fingerprint":7,"wall_nanos":100,"payload":9}"#;
        let e = CheckpointEntry::<u64>::decode(line).unwrap();
        assert_eq!(e.label, "legacy");
        assert_eq!(e.payload, 9);
    }

    #[test]
    fn crc_detects_a_flipped_byte() {
        let line = entry("x", 1, 42).encode();
        assert!(line.contains("\"crc32\":"), "v2 lines carry a crc field");
        // Flip one payload digit: still syntactically valid JSON, but
        // the recorded CRC no longer matches the bytes.
        let damaged = line.replace("\"payload\":42", "\"payload\":43");
        assert_ne!(line, damaged);
        assert!(Json::parse(&damaged).is_ok(), "damage is JSON-invisible");
        assert!(CheckpointEntry::<u64>::decode(&damaged).is_err());
        // The undamaged line still decodes.
        assert!(CheckpointEntry::<u64>::decode(&line).is_ok());
    }

    #[test]
    fn write_load_lookup() {
        let path = temp_path("write_load");
        let writer = CheckpointWriter::create(&path).unwrap();
        writer.append(&entry("a", 1, 10)).unwrap();
        writer.append(&entry("b", 2, 20)).unwrap();
        drop(writer);

        let ckpt = Checkpoint::<u64>::load(&path).unwrap();
        assert_eq!(ckpt.len(), 2);
        assert_eq!(ckpt.lookup("a", 1).unwrap().payload, 10);
        // Fingerprint mismatch means the point config changed: no hit.
        assert!(ckpt.lookup("a", 999).is_none());
        assert!(ckpt.lookup("missing", 1).is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_final_line_is_stale_not_fatal() {
        let path = temp_path("truncated");
        let full = entry("done", 7, 70).encode();
        let partial = &full[..full.len() / 2];
        std::fs::write(&path, format!("{full}\n{partial}")).unwrap();

        let ckpt = Checkpoint::<u64>::load(&path).unwrap();
        assert_eq!(ckpt.len(), 1);
        assert_eq!(ckpt.stale_lines, 1);
        assert_eq!(ckpt.lookup("done", 7).unwrap().payload, 70);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_empty() {
        let ckpt = Checkpoint::<u64>::load(&temp_path("never_written")).unwrap();
        assert!(ckpt.is_empty());
        assert_eq!(ckpt.stale_lines, 0);
    }

    #[test]
    fn later_entries_shadow_earlier_ones() {
        let path = temp_path("shadow");
        let writer = CheckpointWriter::create(&path).unwrap();
        writer.append(&entry("p", 1, 10)).unwrap();
        writer.append(&entry("p", 2, 20)).unwrap();
        drop(writer);
        let ckpt = Checkpoint::<u64>::load(&path).unwrap();
        // The re-run (new fingerprint) wins; the stale one no longer hits.
        assert_eq!(ckpt.lookup("p", 2).unwrap().payload, 20);
        assert!(ckpt.lookup("p", 1).is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_mode_preserves_existing_entries() {
        let path = temp_path("append");
        CheckpointWriter::create(&path)
            .unwrap()
            .append(&entry("a", 1, 10))
            .unwrap();
        CheckpointWriter::append_to(&path)
            .unwrap()
            .append(&entry("b", 2, 20))
            .unwrap();
        let ckpt = Checkpoint::<u64>::load(&path).unwrap();
        assert_eq!(ckpt.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_to_terminates_a_torn_final_line() {
        let path = temp_path("append_torn");
        let full = entry("a", 1, 10).encode();
        let torn = entry("b", 2, 20).encode();
        std::fs::write(&path, format!("{full}\n{}", &torn[..torn.len() / 2])).unwrap();
        CheckpointWriter::append_to(&path)
            .unwrap()
            .append(&entry("b", 2, 20))
            .unwrap();
        // The re-run line did not fuse with the fragment: it decodes, and
        // only the fragment is stale.
        let ckpt = Checkpoint::<u64>::load(&path).unwrap();
        assert_eq!(ckpt.len(), 2);
        assert_eq!(ckpt.stale_lines, 1);
        assert_eq!(ckpt.lookup("b", 2).unwrap().payload, 20);
        // A terminated file gains no blank line.
        let before = std::fs::read(&path).unwrap();
        drop(CheckpointWriter::append_to(&path).unwrap());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(
            debug_fingerprint(&(1u32, 2u32)),
            debug_fingerprint(&(2u32, 1u32))
        );
        assert_eq!(debug_fingerprint(&"x"), debug_fingerprint(&"x"));
    }

    #[test]
    fn streaming_fingerprint_matches_materialized_rendering() {
        // The streaming hasher must produce byte-for-byte the same hash
        // as hashing the fully formatted Debug string, or every existing
        // checkpoint fingerprint would be invalidated.
        let values: Vec<Box<dyn std::fmt::Debug>> = vec![
            Box::new("plain string with \"escapes\" and \n newlines"),
            Box::new((1u8, -2i64, 3.5f64, vec![1u32, 2, 3])),
            Box::new(Some(vec![(String::from("nested"), [0u8; 33])])),
            Box::new(Duration::from_nanos(123_456_789)),
        ];
        for v in &values {
            assert_eq!(
                debug_fingerprint(v.as_ref()),
                fnv1a(format!("{v:?}").as_bytes()),
                "streaming hash diverged for {v:?}"
            );
        }
    }

    #[test]
    fn compact_keeps_last_entry_per_label_and_drops_damage() {
        let path = temp_path("compact");
        let stale = entry("b", 1, 11).encode();
        let writer = CheckpointWriter::create(&path).unwrap();
        writer.append(&entry("a", 1, 10)).unwrap();
        writer.append(&entry("b", 1, 11)).unwrap();
        writer.append(&entry("a", 2, 12)).unwrap(); // re-run shadows a@1
        writer.append(&entry("c", 1, 13)).unwrap();
        drop(writer);
        // Simulate a kill mid-append: a trailing partial line, plus a
        // flipped digit under the CRC of c's line. Compaction reclaims the
        // shadowed entry and both damaged lines.
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"payload\":13", "\"payload\":14");
        let torn = format!("{text}{}", &stale[..stale.len() / 2]);
        std::fs::write(&path, torn).unwrap();

        let result = compact(&path).unwrap();
        assert_eq!(
            result,
            Compaction {
                kept: 2,
                dropped: 3
            }
        );

        let ckpt = Checkpoint::<u64>::load(&path).unwrap();
        assert_eq!(ckpt.len(), 2);
        assert_eq!(ckpt.stale_lines, 0, "the damage is gone");
        assert_eq!(ckpt.lookup("a", 2).unwrap().payload, 12);
        assert!(ckpt.lookup("a", 1).is_none(), "shadowed entry reclaimed");
        assert_eq!(ckpt.lookup("b", 1).unwrap().payload, 11);
        assert!(ckpt.lookup("c", 1).is_none(), "damaged entry dropped");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compact_leaves_clean_files_untouched() {
        let path = temp_path("compact_noop");
        let writer = CheckpointWriter::create(&path).unwrap();
        writer.append(&entry("a", 1, 10)).unwrap();
        writer.append(&entry("b", 2, 20)).unwrap();
        drop(writer);
        let before = std::fs::metadata(&path).unwrap().modified().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(
            compact(&path).unwrap(),
            Compaction {
                kept: 2,
                dropped: 0
            }
        );
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        assert_eq!(
            std::fs::metadata(&path).unwrap().modified().unwrap(),
            before
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compact_missing_file_is_empty() {
        assert_eq!(
            compact(&temp_path("compact_missing")).unwrap(),
            Compaction::default()
        );
    }
}
