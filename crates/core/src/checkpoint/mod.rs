//! Durable server checkpoints with bit-identical resume.
//!
//! # File format
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"SEAFLCKP"
//! 8       4     format version (u32 LE, [`FORMAT_VERSION`])
//! 12      1     engine tag ([`ENGINE_UNIFIED`], the only one in use)
//! 13      8     config state-hash (ExperimentConfig::state_hash, u64 LE)
//! 21      8     round the snapshot was taken at (u64 LE)
//! 29      8     payload length in bytes (u64 LE)
//! 37      8     XXH64 (seed 0) checksum of the payload (u64 LE)
//! 45      …     payload: the engine's `State::encode`, an ordered list of
//!               parts each written by the type that owns it (DESIGN.md §7c)
//! ```
//!
//! The byte reader/writer every part is written with lives in
//! [`seafl_sim::bin`] and is re-exported here. The checksum is an
//! integrity check, not an identity, so it is the fast one
//! ([`seafl_sim::digest`] explains the split).
//!
//! # Durability & rejection
//!
//! Writes are atomic: header and payload → `ckpt-….tmp` (two writes, the
//! payload straight from the caller's buffer — no file image is assembled),
//! `fsync`, rename into place, `fsync` the directory. A reader therefore
//! only ever sees a complete file or no file. Every load re-verifies magic,
//! version, engine tag, config hash and the checksum over the whole
//! payload; any mismatch rejects that file with a reason (never a panic,
//! never a partial restore) and [`CheckpointStore::load_latest`] falls back
//! to the next-newest snapshot. `keep_last ≥ 2` is what makes that fallback
//! non-empty.

pub use seafl_sim::bin::{BinReader, BinWriter, CodecError};

use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::config::ExperimentConfig;
use seafl_sim::digest::xxh64;

/// File magic: identifies a SEAFL checkpoint regardless of extension.
pub(crate) const MAGIC: [u8; 8] = *b"SEAFLCKP";
/// Bump on any layout change; old versions are rejected, not guessed at.
/// Version history: 1 = the split sync/semi-async engines (tags 0/1);
/// 2 = the unified event loop (tag [`ENGINE_UNIFIED`]) whose payload ends
/// with an opaque per-policy state section; 3 = sparse fleet-scale payload
/// (clock events keyed by raw `ClientId`, per-client state as touched
/// fleet-table rows, in-flight sessions / stale-replay memory / RNG streams
/// as id-keyed sparse records instead of N dense slots); 4 = trailing codec
/// section (update-compression byte counters, the bytes-to-accuracy curve
/// and the error-feedback residual store) after the policy section; 5 = the
/// trace is the only event ledger (the accuracy curve and the 13 run
/// counters the trace already records are no longer stored beside it) and
/// every client id is a `u32`; 6 = the payload checksum is XXH64 instead of
/// FNV-1a (same layout, so a v5 file would fail its checksum — the version
/// check names the real cause first); 7 = the robust layer's section and
/// the fleet table's per-row session counter are gone (a session's
/// dispatch generation identifies it).
pub(crate) const FORMAT_VERSION: u32 = 7;
/// Engine tag for the unified event-driven engine. The legacy tags (0 =
/// sync, 1 = semi-async) died with format version 1.
pub const ENGINE_UNIFIED: u8 = 2;

const HEADER_LEN: usize = 8 + 4 + 1 + 8 + 8 + 8 + 8;

/// Why a checkpoint operation failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// No file in the directory survived validation.
    NoValidCheckpoint {
        /// The checkpoint directory.
        dir: PathBuf,
        /// Every candidate (newest first) with the reason it was rejected.
        tried: Vec<(PathBuf, String)>,
    },
    /// A decoded payload contradicted the running config (e.g. a different
    /// client count) — state that the config hash should have caught.
    Malformed(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "checkpoint I/O failed at {}: {source}", path.display())
            }
            CheckpointError::NoValidCheckpoint { dir, tried } => {
                write!(f, "no valid checkpoint in {}", dir.display())?;
                if tried.is_empty() {
                    write!(f, " (directory holds no ckpt-*.seafl files)")?;
                } else {
                    for (p, why) in tried {
                        write!(f, "\n  {}: {why}", p.display())?;
                    }
                }
                Ok(())
            }
            CheckpointError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Malformed(e.0)
    }
}

fn io_err(path: &Path, source: std::io::Error) -> CheckpointError {
    CheckpointError::Io { path: path.to_path_buf(), source }
}

/// The header of a checkpoint holding `payload`.
fn encode_header(engine_tag: u8, config_hash: u64, round: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(engine_tag);
    out.extend_from_slice(&config_hash.to_le_bytes());
    out.extend_from_slice(&round.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&xxh64(payload, 0).to_le_bytes());
    out
}

/// Read one checkpoint file and validate it against the expected
/// engine/config: the header first, then exactly the payload it announces
/// (the file's own length bounds the allocation), checksummed in full.
/// Returns `(round, payload)`; the error string is a human-readable reason
/// suitable for the `tried` list.
fn read_file(path: &Path, want_engine: u8, want_hash: u64) -> Result<(u64, Vec<u8>), String> {
    let unreadable = |e: std::io::Error| format!("unreadable: {e}");
    let mut file = fs::File::open(path).map_err(unreadable)?;
    let file_len = file.metadata().map_err(unreadable)?.len();
    if file_len < HEADER_LEN as u64 {
        return Err(format!("truncated header ({file_len} of {HEADER_LEN} bytes)"));
    }
    let mut header = [0u8; HEADER_LEN];
    file.read_exact(&mut header).map_err(unreadable)?;
    let le_u32 = |off: usize| u32::from_le_bytes(header[off..off + 4].try_into().expect("4 bytes"));
    let le_u64 = |off: usize| u64::from_le_bytes(header[off..off + 8].try_into().expect("8 bytes"));
    if header[..8] != MAGIC {
        return Err("bad magic (not a SEAFL checkpoint)".into());
    }
    let version = le_u32(8);
    if version != FORMAT_VERSION {
        return Err(format!(
            "unsupported format version {version} (this build reads {FORMAT_VERSION})"
        ));
    }
    let engine = header[12];
    if engine != want_engine {
        return Err(format!(
            "engine tag {engine} does not match the configured algorithm (want {want_engine})"
        ));
    }
    let hash = le_u64(13);
    if hash != want_hash {
        return Err(format!(
            "config hash {hash:016x} does not match this experiment ({want_hash:016x}) — \
             the checkpoint was written under a different configuration"
        ));
    }
    let round = le_u64(21);
    let payload_len = le_u64(29);
    let checksum = le_u64(37);
    let mut payload = Vec::with_capacity((file_len - HEADER_LEN as u64) as usize);
    file.read_to_end(&mut payload).map_err(unreadable)?;
    if payload.len() as u64 != payload_len {
        return Err(format!(
            "truncated payload ({} of {payload_len} bytes) — torn write?",
            payload.len()
        ));
    }
    let actual = xxh64(&payload, 0);
    if actual != checksum {
        return Err(format!(
            "payload checksum mismatch (stored {checksum:016x}, computed {actual:016x})"
        ));
    }
    Ok((round, payload))
}

/// A directory of round-stamped snapshots for one run.
pub struct CheckpointStore {
    dir: PathBuf,
    keep_last: usize,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory.
    pub fn new(dir: &Path, keep_last: usize) -> Result<Self, CheckpointError> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        Ok(CheckpointStore { dir: dir.to_path_buf(), keep_last: keep_last.max(1) })
    }

    /// Build the store configured on `cfg`, if any.
    pub(crate) fn from_cfg(cfg: &ExperimentConfig) -> Result<Option<Self>, CheckpointError> {
        match &cfg.checkpoint_dir {
            Some(dir) => Ok(Some(Self::new(dir, cfg.keep_last)?)),
            None => Ok(None),
        }
    }

    fn file_name(round: u64) -> String {
        // Zero-padded so lexicographic file order == round order.
        format!("ckpt-{round:010}.seafl")
    }

    /// Atomically persist a snapshot taken at `round`, then prune to
    /// `keep_last` files.
    pub fn save(
        &self,
        engine_tag: u8,
        config_hash: u64,
        round: u64,
        payload: &[u8],
    ) -> Result<PathBuf, CheckpointError> {
        let header = encode_header(engine_tag, config_hash, round, payload);
        let final_path = self.dir.join(Self::file_name(round));
        let tmp_path = self.dir.join(format!("ckpt-{round:010}.tmp"));
        {
            let mut f = fs::File::create(&tmp_path).map_err(|e| io_err(&tmp_path, e))?;
            f.write_all(&header).map_err(|e| io_err(&tmp_path, e))?;
            f.write_all(payload).map_err(|e| io_err(&tmp_path, e))?;
            f.sync_all().map_err(|e| io_err(&tmp_path, e))?;
        }
        fs::rename(&tmp_path, &final_path).map_err(|e| io_err(&final_path, e))?;
        // Make the rename itself durable. Directory fsync is a unix-ism;
        // failure here (or elsewhere) is non-fatal for correctness — the
        // rename already happened — so best-effort is enough.
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.prune()?;
        Ok(final_path)
    }

    /// Snapshot files present, sorted oldest → newest by round.
    pub fn list(&self) -> Result<Vec<PathBuf>, CheckpointError> {
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, e))?;
        let mut files: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".seafl"))
            })
            .collect();
        files.sort();
        Ok(files)
    }

    fn prune(&self) -> Result<(), CheckpointError> {
        let files = self.list()?;
        if files.len() > self.keep_last {
            for old in &files[..files.len() - self.keep_last] {
                fs::remove_file(old).map_err(|e| io_err(old, e))?;
            }
        }
        Ok(())
    }

    /// Load the newest snapshot that passes validation, falling back to
    /// older ones when the newest is torn, corrupted, or from a different
    /// experiment.
    ///
    /// A fallback is a recovery, but it is also a data-loss event: newer
    /// rounds existed and could not be restored. The rejected files'
    /// paths and causes therefore ride along in
    /// `LoadedCheckpoint::rejected` instead of being silently discarded —
    /// callers surface them (e.g. `resume_experiment` logs each one) so an
    /// operator can tell a clean resume from a lossy one.
    pub fn load_latest(
        &self,
        engine_tag: u8,
        config_hash: u64,
    ) -> Result<LoadedCheckpoint, CheckpointError> {
        let mut files = self.list()?;
        files.reverse(); // newest first
        let mut tried: Vec<(PathBuf, String)> = Vec::new();
        for path in files {
            match read_file(&path, engine_tag, config_hash) {
                Ok((_, payload)) => return Ok(LoadedCheckpoint { payload, rejected: tried }),
                Err(why) => tried.push((path, why)),
            }
        }
        Err(CheckpointError::NoValidCheckpoint { dir: self.dir.clone(), tried })
    }
}

/// A successfully restored snapshot, plus the rejection record of every
/// *newer* candidate that failed validation on the way to it (newest
/// first; empty on a clean load).
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// The engine-opaque state payload.
    pub(crate) payload: Vec<u8>,
    /// `(path, cause)` for each newer file rejected before this one.
    pub(crate) rejected: Vec<(PathBuf, String)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(name: &str, keep_last: usize) -> CheckpointStore {
        let dir =
            std::env::temp_dir().join(format!("seafl-ckpt-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        CheckpointStore::new(&dir, keep_last).unwrap()
    }

    #[test]
    fn save_and_load_roundtrip() {
        let store = tmp_store("roundtrip", 2);
        let payload = b"not a real payload, but faithfully checksummed".to_vec();
        store.save(ENGINE_UNIFIED, 0xABCD, 4, &payload).unwrap();
        let loaded = store.load_latest(ENGINE_UNIFIED, 0xABCD).unwrap();
        assert_eq!(loaded.payload, payload);
        assert!(loaded.rejected.is_empty(), "clean load must report no rejections");
        fs::remove_dir_all(&store.dir).ok();
    }

    #[test]
    fn prune_keeps_only_newest() {
        let store = tmp_store("prune", 2);
        for round in 1..=5 {
            store.save(ENGINE_UNIFIED, 1, round, &[round as u8]).unwrap();
        }
        let files = store.list().unwrap();
        assert_eq!(files.len(), 2);
        let loaded = store.load_latest(ENGINE_UNIFIED, 1).unwrap();
        assert_eq!(loaded.payload, vec![5u8]);
        fs::remove_dir_all(&store.dir).ok();
    }

    #[test]
    fn bit_flip_rejected_with_fallback_to_previous() {
        let store = tmp_store("bitflip", 3);
        store.save(ENGINE_UNIFIED, 9, 2, b"older snapshot").unwrap();
        store.save(ENGINE_UNIFIED, 9, 4, b"newer snapshot").unwrap();
        // Corrupt one payload byte of the newest file.
        let newest = store.list().unwrap().pop().unwrap();
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();

        let loaded = store.load_latest(ENGINE_UNIFIED, 9).unwrap();
        assert_eq!(loaded.payload.as_slice(), b"older snapshot".as_slice());
        // The fallback is not silent: the corrupted file's path and cause
        // surface alongside the recovered payload.
        assert_eq!(loaded.rejected.len(), 1);
        assert_eq!(loaded.rejected[0].0, newest);
        assert!(
            loaded.rejected[0].1.contains("checksum mismatch"),
            "unexpected cause: {}",
            loaded.rejected[0].1
        );
        fs::remove_dir_all(&store.dir).ok();
    }

    #[test]
    fn corruption_everywhere_is_a_clean_error() {
        let store = tmp_store("allbad", 2);
        store.save(ENGINE_UNIFIED, 9, 1, b"snapshot one").unwrap();
        store.save(ENGINE_UNIFIED, 9, 2, b"snapshot two").unwrap();
        for path in store.list().unwrap() {
            let bytes = fs::read(&path).unwrap();
            fs::write(&path, &bytes[..bytes.len() - 3]).unwrap(); // truncate all
        }
        let err = store.load_latest(ENGINE_UNIFIED, 9).unwrap_err();
        match &err {
            CheckpointError::NoValidCheckpoint { tried, .. } => {
                assert_eq!(tried.len(), 2);
                assert!(tried.iter().all(|(_, why)| why.contains("truncated payload")));
            }
            other => panic!("expected NoValidCheckpoint, got {other}"),
        }
        assert!(err.to_string().contains("torn write"));
        fs::remove_dir_all(&store.dir).ok();
    }

    #[test]
    fn wrong_config_hash_and_engine_rejected() {
        let store = tmp_store("mismatch", 2);
        store.save(ENGINE_UNIFIED, 0x1111, 3, b"payload").unwrap();
        let err = store.load_latest(ENGINE_UNIFIED, 0x2222).unwrap_err();
        assert!(err.to_string().contains("config hash"), "unexpected error: {err}");
        // A stale engine tag (e.g. format-1's semi-async tag 1) is rejected.
        let err = store.load_latest(1, 0x1111).unwrap_err();
        assert!(err.to_string().contains("engine tag"), "unexpected error: {err}");
        fs::remove_dir_all(&store.dir).ok();
    }

    #[test]
    fn previous_format_version_rejected_not_guessed_at() {
        let store = tmp_store("oldversion", 1);
        // A v6 file has this header and checksum over another payload
        // layout: the version is what rejects it, before the payload is
        // ever decoded.
        let path = store.save(ENGINE_UNIFIED, 5, 1, b"a v6 payload").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&6u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let err = store.load_latest(ENGINE_UNIFIED, 5).unwrap_err();
        assert!(err.to_string().contains("unsupported format version 6"), "unexpected: {err}");
        fs::remove_dir_all(&store.dir).ok();
    }

    #[test]
    fn header_checksum_corruption_rejected() {
        let store = tmp_store("header", 1);
        let path = store.save(ENGINE_UNIFIED, 5, 1, b"x".repeat(64).as_slice()).unwrap();
        // Flip a bit inside the stored checksum field.
        let mut bytes = fs::read(&path).unwrap();
        bytes[40] ^= 0x80;
        fs::write(&path, &bytes).unwrap();
        let err = store.load_latest(ENGINE_UNIFIED, 5).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "unexpected error: {err}");
        fs::remove_dir_all(&store.dir).ok();
    }

    #[test]
    fn file_is_header_then_payload_checksummed_with_xxh64() {
        let store = tmp_store("layout", 1);
        let payload: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        let path = store.save(ENGINE_UNIFIED, 0x77, 9, &payload).unwrap();
        let bytes = fs::read(&path).unwrap();
        assert_eq!(bytes.len(), HEADER_LEN + payload.len());
        assert_eq!(bytes[..8], MAGIC);
        assert_eq!(bytes[8..12], FORMAT_VERSION.to_le_bytes());
        assert_eq!(bytes[29..37], (payload.len() as u64).to_le_bytes());
        assert_eq!(bytes[37..45], xxh64(&payload, 0).to_le_bytes());
        assert_eq!(bytes[HEADER_LEN..], payload[..]);
        // A header shorter than 45 bytes is named as such.
        fs::write(&path, &bytes[..HEADER_LEN - 1]).unwrap();
        let err = store.load_latest(ENGINE_UNIFIED, 0x77).unwrap_err();
        assert!(err.to_string().contains("truncated header (44 of 45 bytes)"), "{err}");
        fs::remove_dir_all(&store.dir).ok();
    }

    #[test]
    fn empty_dir_reports_no_candidates() {
        let store = tmp_store("empty", 1);
        let err = store.load_latest(ENGINE_UNIFIED, 0).unwrap_err();
        assert!(err.to_string().contains("no valid checkpoint"));
        assert!(err.to_string().contains("no ckpt-*.seafl files"));
        fs::remove_dir_all(&store.dir).ok();
    }
}
