//! Crash-consistent fine-grained checkpointing.
//!
//! [`crate::stages::learn_with_checkpoint`] persists the pipeline at
//! *unit* granularity — one GaneSH run, the consensus partition, one
//! module's tree ensemble — so a killed run resumes mid-task instead
//! of repeating a whole stage. This module is the storage layer:
//!
//! * A checkpoint is a **directory** holding one JSON file per
//!   completed unit plus `manifest.json`, a versioned index carrying
//!   the `(seed, data-fingerprint, config-digest)` guard of the
//!   original run and an FNV-1a-64 content checksum per unit file.
//! * Every write is **atomic**: bytes go to `<file>.tmp` first, then a
//!   same-directory `rename` publishes them. The manifest is rewritten
//!   (atomically) *after* the unit file it references, so a crash at
//!   any instruction leaves either an ignored `.tmp` file or a
//!   complete-but-unreferenced unit file — never a manifest pointing
//!   at torn data.
//! * Loading verifies the version, the guard, and every checksum up
//!   front; what a [`ResumePolicy`] does about a problem is the
//!   caller's choice (silently start fresh, fail loudly, or wipe).
//!
//! Under SPMD every rank opens the store and tracks puts in memory so
//! resume decisions stay replicated, but only the I/O rank
//! ([`mn_comm::ParEngine::io_rank`]) touches the disk — the paper's
//! "rank 0 writes intermediate files" convention (§5.3), and what
//! makes tmp-file + rename atomicity race-free.

use crate::config::LearnerConfig;
use mn_data::Dataset;
use mn_score::Scoring;
use serde::{Content, DeError, Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

/// Manifest format version; bumped on incompatible layout changes.
/// Version 2 added rank-count provenance (`nranks`), version 3 the
/// learner-config guard (`config_digest`); version-1 and version-2
/// manifests are still readable — they simply predate those fields.
pub const MANIFEST_VERSION: u32 = 3;

/// File name of the manifest inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// File name of the writer lock inside a checkpoint directory.
/// Deliberately not `*.json`: `ForceRestart`'s wipe must leave the
/// held lock alone.
pub const LOCK_FILE: &str = "ckpt.lock";

/// FNV-1a 64-bit hash — the unit-file content checksum. Not
/// cryptographic; it guards against truncation and bit rot, not
/// adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The `(n_vars, n_obs, cell sum)` fingerprint guarding a checkpoint
/// against being resumed with a different matrix. Cheap, and exact
/// float summation makes it deterministic across runs.
pub fn data_fingerprint(data: &Dataset) -> (usize, usize, f64) {
    (
        data.n_vars(),
        data.n_obs(),
        data.matrix.as_slice().iter().sum(),
    )
}

/// The digest guarding a checkpoint against being resumed under a
/// different learner configuration or scoring path: [`fnv1a64`] of the
/// serialized config, every field taking part, the seed included. The
/// kernel path's digest is the bare config's, so checkpoints written
/// before the scoring path took part still resume; the naive oracles
/// (`monet --reference`) append a tag, because their units replay
/// different counters.
pub fn config_digest(config: &LearnerConfig, scoring: Scoring) -> u64 {
    let mut text = serde_json::to_string(config).expect("config serialization");
    if scoring == Scoring::Naive {
        text.push_str("\nscoring: naive");
    }
    fnv1a64(text.as_bytes())
}

/// What `open` does when the on-disk state is unusable (corrupt,
/// version-skewed, or guarded against a different problem).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumePolicy {
    /// Start fresh, silently overwriting the unusable state — the
    /// default for `--checkpoint-dir` without `--resume`.
    Auto,
    /// Fail with a descriptive [`CheckpointError`] — `--resume`, where
    /// the user asserted a resumable checkpoint exists.
    Strict,
    /// Delete the existing checkpoint files and start fresh —
    /// `--resume --force-restart`, the recovery path for a corrupt
    /// checkpoint.
    ForceRestart,
}

/// Typed failures of the checkpoint layer. Corruption is always an
/// `Err`, never a panic — the [`ResumePolicy`] decides whether the
/// caller sees it.
#[derive(Debug)]
pub enum CheckpointError {
    /// An underlying filesystem failure.
    Io(io::Error),
    /// A file exists but its content is unusable (truncated or
    /// bit-flipped manifest, checksum mismatch, missing unit file).
    Corrupt {
        /// The offending file.
        file: PathBuf,
        /// Human-readable description of what is wrong with it.
        reason: String,
    },
    /// The manifest was written by an incompatible format version.
    Version {
        /// Version found in the manifest.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// The checkpoint belongs to a different problem — its seed, data
    /// fingerprint or learner-config digest does not match the
    /// current run.
    Mismatch {
        /// Which guard failed and the two values.
        reason: String,
    },
    /// `--resume` was requested but the directory holds no manifest.
    NothingToResume {
        /// The checkpoint directory that was searched.
        dir: PathBuf,
    },
    /// Another live writer holds this checkpoint directory. Two
    /// concurrent writers would interleave manifest rewrites, so the
    /// second opener is refused instead of corrupting the first.
    Locked {
        /// The contested checkpoint directory.
        dir: PathBuf,
        /// Pid recorded in the lock file (0 if unreadable).
        holder: u32,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Corrupt { file, reason } => {
                write!(f, "corrupt checkpoint: {}: {reason}", file.display())
            }
            CheckpointError::Version { found, expected } => write!(
                f,
                "checkpoint manifest version {found} is not supported \
                 (this build reads version {expected})"
            ),
            CheckpointError::Mismatch { reason } => {
                write!(f, "checkpoint belongs to a different run: {reason}")
            }
            CheckpointError::NothingToResume { dir } => write!(
                f,
                "--resume: no checkpoint manifest in {}",
                dir.display()
            ),
            CheckpointError::Locked { dir, holder } => write!(
                f,
                "checkpoint dir {} is locked by a live writer (pid {holder}); \
                 two concurrent writers would corrupt the manifest",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// One persisted unit of progress: the unit's value plus the
/// deterministic counter increments its computation produced. Replaying
/// the increments when a unit is skipped on resume keeps the final
/// counter state bit-identical to the uninterrupted run.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitRecord<T> {
    /// The unit's computed output.
    pub value: T,
    /// Counter deltas (`mn_obs` counter name → increment) accumulated
    /// while computing the unit.
    pub counters: BTreeMap<String, u64>,
}

// The vendored serde_derive subset does not handle generics; the two
// impls below are exactly what it would emit for a named-field struct.
impl<T: Serialize> Serialize for UnitRecord<T> {
    fn serialize_value(&self) -> Content {
        Content::Map(vec![
            ("value".to_string(), self.value.serialize_value()),
            ("counters".to_string(), self.counters.serialize_value()),
        ])
    }
}

impl<T: Deserialize> Deserialize for UnitRecord<T> {
    fn deserialize_value(value: &Content) -> Result<Self, DeError> {
        Ok(Self {
            value: serde::map_field(value, "value")?,
            counters: serde::map_field(value, "counters")?,
        })
    }
}

/// The versioned checkpoint index: identity guard plus one checksum
/// per completed unit file.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Manifest {
    /// Format version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// Master seed of the run that wrote this checkpoint.
    pub seed: u64,
    /// Data fingerprint of the run ([`data_fingerprint`]).
    pub fingerprint: (usize, usize, f64),
    /// Rank count of the run that wrote this checkpoint (`None` for
    /// version-1 manifests, which predate the field). Provenance, not
    /// a guard: every stored unit is a rank-count-independent value
    /// (the determinism contract), so a checkpoint taken at `p` ranks
    /// resumes at any `p′` — elastic restart is asserting exactly this.
    pub nranks: Option<u64>,
    /// [`config_digest`] of the run's learner config (`None` for
    /// manifests before version 3, and for stores opened through
    /// [`CheckpointStore::open`], which guards seed and data only).
    pub config_digest: Option<u64>,
    /// Unit name → FNV-1a-64 checksum of `<unit>.json`.
    pub entries: BTreeMap<String, u64>,
}

// Hand-written so older manifests (no `nranks` before version 2, no
// `config_digest` before version 3) still load; the derive's
// `map_field` would hard-error on a missing field.
impl Deserialize for Manifest {
    fn deserialize_value(value: &Content) -> Result<Self, DeError> {
        let version: u32 = serde::map_field(value, "version")?;
        let since = |v: u32, name: &str| -> Result<Option<u64>, DeError> {
            if version >= v {
                serde::map_field(value, name)
            } else {
                Ok(None)
            }
        };
        Ok(Self {
            version,
            seed: serde::map_field(value, "seed")?,
            fingerprint: serde::map_field(value, "fingerprint")?,
            nranks: since(2, "nranks")?,
            config_digest: since(3, "config_digest")?,
            entries: serde::map_field(value, "entries")?,
        })
    }
}

impl Manifest {
    fn fresh(
        seed: u64,
        fingerprint: (usize, usize, f64),
        config_digest: Option<u64>,
        nranks: usize,
    ) -> Self {
        Self {
            version: MANIFEST_VERSION,
            seed,
            fingerprint,
            nranks: Some(nranks as u64),
            config_digest,
            entries: BTreeMap::new(),
        }
    }
}

/// Checkpoint dirs locked by *this* process. The on-disk lock file
/// carries only a pid, which cannot tell two threads of one process
/// apart (the serve worker pool runs many jobs in one pid); this set
/// is the in-process authority, keyed by canonical path.
fn locked_dirs() -> &'static Mutex<BTreeSet<PathBuf>> {
    static DIRS: OnceLock<Mutex<BTreeSet<PathBuf>>> = OnceLock::new();
    DIRS.get_or_init(|| Mutex::new(BTreeSet::new()))
}

/// Exclusive writer lock on a checkpoint directory: an entry in the
/// in-process registry plus an on-disk [`LOCK_FILE`] holding the
/// owner pid, created with `create_new` so two processes cannot both
/// win. Held for the lifetime of the writer-rank store and released
/// on drop. A lock file whose pid no longer designates a live process
/// is stale — the writer was SIGKILLed or exited without unwinding —
/// and is stolen, so kill-resume drills still resume.
#[derive(Debug)]
struct DirLock {
    dir: PathBuf,
    path: PathBuf,
}

impl DirLock {
    fn acquire(dir: &Path) -> Result<DirLock, CheckpointError> {
        fs::create_dir_all(dir)?;
        let canon = fs::canonicalize(dir)?;
        {
            let mut held = locked_dirs()
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if !held.insert(canon.clone()) {
                return Err(CheckpointError::Locked {
                    dir: canon,
                    holder: mn_comm::sys::current_pid(),
                });
            }
        }
        let path = canon.join(LOCK_FILE);
        let me = mn_comm::sys::current_pid();
        // Two attempts: the second runs only after removing a stale file.
        for _ in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    use io::Write;
                    let _ = write!(f, "{me}");
                    return Ok(DirLock { dir: canon, path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let holder = fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok())
                        .unwrap_or(0);
                    // The registry above is authoritative for our own
                    // pid: a same-pid file with a free registry slot is
                    // a leftover from a previous store, not a holder.
                    // Signal 0 probes existence without delivering.
                    let live =
                        holder != 0 && holder != me && mn_comm::sys::send_signal(holder, 0);
                    if live {
                        Self::release_registry(&canon);
                        return Err(CheckpointError::Locked { dir: canon, holder });
                    }
                    let _ = fs::remove_file(&path);
                }
                Err(e) => {
                    Self::release_registry(&canon);
                    return Err(e.into());
                }
            }
        }
        // Lost the create_new race twice in a row: someone else is live.
        Self::release_registry(&canon);
        Err(CheckpointError::Locked {
            dir: canon,
            holder: 0,
        })
    }

    fn release_registry(dir: &Path) {
        locked_dirs()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(dir);
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
        Self::release_registry(&self.dir);
    }
}

/// A checkpoint directory opened for a specific `(seed, data)` run.
///
/// Completed units live both on disk and in an in-memory cache of
/// checksum-verified bytes; [`CheckpointStore::get`] reads only the
/// cache, so resume decisions are identical on every SPMD rank
/// regardless of how far the writer rank has raced ahead (all ranks
/// load before anyone writes — the engine's `io_barrier` orders this).
///
/// The writer rank additionally holds a `DirLock` for the store's
/// lifetime: a second concurrent writer on the same directory gets a
/// typed [`CheckpointError::Locked`] instead of silently interleaving
/// manifest rewrites with the first.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    write_enabled: bool,
    manifest: Manifest,
    units: BTreeMap<String, Vec<u8>>,
    _lock: Option<DirLock>,
}

impl CheckpointStore {
    /// Open (or create) the checkpoint directory `dir` for the run
    /// identified by `(seed, fingerprint)`; the learner opens through
    /// [`CheckpointStore::open_run`], which guards the whole config
    /// as well. `nranks` is the *current*
    /// engine's rank count, stamped into fresh manifests as
    /// provenance; it is deliberately NOT a resume guard — stored
    /// units are rank-count-independent, so a checkpoint taken at `p`
    /// ranks resumes at any `p′` (elastic restart). `write_enabled`
    /// should be `engine.io_rank()` — non-writer ranks mirror every
    /// operation in memory only.
    pub fn open<P: AsRef<Path>>(
        dir: P,
        seed: u64,
        fingerprint: (usize, usize, f64),
        nranks: usize,
        policy: ResumePolicy,
        write_enabled: bool,
    ) -> Result<Self, CheckpointError> {
        let manifest = Manifest::fresh(seed, fingerprint, None, nranks);
        Self::open_guarded(dir.as_ref(), manifest, policy, write_enabled)
    }

    /// [`CheckpointStore::open`] for a learn of `data` under `config`
    /// on the `scoring` path: the guard is the config's seed, the
    /// data's fingerprint and the [`config_digest`], so a checkpoint
    /// written under any other learner config or scoring path is a
    /// [`CheckpointError::Mismatch`] (`Strict`) or a fresh start
    /// (`Auto`), never resumed into a different run.
    pub fn open_run<P: AsRef<Path>>(
        dir: P,
        config: &LearnerConfig,
        scoring: Scoring,
        data: &Dataset,
        nranks: usize,
        policy: ResumePolicy,
        write_enabled: bool,
    ) -> Result<Self, CheckpointError> {
        let manifest = Manifest::fresh(
            config.seed,
            data_fingerprint(data),
            Some(config_digest(config, scoring)),
            nranks,
        );
        Self::open_guarded(dir.as_ref(), manifest, policy, write_enabled)
    }

    /// Open `dir` for the run whose guard `fresh` (an empty manifest)
    /// carries.
    fn open_guarded(
        dir: &Path,
        fresh: Manifest,
        policy: ResumePolicy,
        write_enabled: bool,
    ) -> Result<Self, CheckpointError> {
        let dir = dir.to_path_buf();
        // The writer rank takes the exclusive lock before reading or
        // wiping anything; non-writer ranks never touch the disk. The
        // lock travels inside the store and releases on drop.
        let lock = if write_enabled {
            Some(DirLock::acquire(&dir)?)
        } else {
            None
        };
        let fresh = Self {
            manifest: fresh,
            units: BTreeMap::new(),
            write_enabled,
            dir: dir.clone(),
            _lock: lock,
        };

        if policy == ResumePolicy::ForceRestart {
            if write_enabled {
                wipe_checkpoint_files(&dir)?;
            }
            return fresh.published();
        }

        match load_verified(&dir, &fresh.manifest) {
            Ok(Some((manifest, units))) => Ok(Self {
                manifest,
                units,
                ..fresh
            }),
            Ok(None) => {
                if policy == ResumePolicy::Strict {
                    return Err(CheckpointError::NothingToResume { dir });
                }
                fresh.published()
            }
            Err(e) => match policy {
                // Auto recovers silently: the fresh (empty) manifest
                // immediately supersedes the unusable state on disk.
                ResumePolicy::Auto => fresh.published(),
                ResumePolicy::Strict => Err(e),
                ResumePolicy::ForceRestart => unreachable!("handled above"),
            },
        }
    }

    /// Publish a fresh store: on the writer rank, create the directory
    /// and write the (empty) manifest so even a run killed before its
    /// first completed unit leaves a resumable, correctly-stamped
    /// checkpoint behind.
    fn published(self) -> Result<Self, CheckpointError> {
        if self.write_enabled {
            fs::create_dir_all(&self.dir)?;
            self.write_manifest()?;
        }
        Ok(self)
    }

    /// Atomically (re)write `manifest.json` from the in-memory state.
    fn write_manifest(&self) -> Result<(), CheckpointError> {
        let manifest =
            serde_json::to_string_pretty(&self.manifest).expect("manifest serialization");
        write_atomic(&self.dir.join(MANIFEST_FILE), manifest.as_bytes())?;
        Ok(())
    }

    /// Number of completed units.
    pub fn len(&self) -> usize {
        self.manifest.entries.len()
    }

    /// Whether no units are recorded.
    pub fn is_empty(&self) -> bool {
        self.manifest.entries.is_empty()
    }

    /// The directory this store persists to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Rank count of the run that originally created this checkpoint:
    /// `Some(p)` from version-2 manifests, `None` when resuming a
    /// version-1 checkpoint that predates the provenance field. Purely
    /// informational — resume never requires it to match.
    pub fn origin_nranks(&self) -> Option<usize> {
        self.manifest.nranks.map(|n| n as usize)
    }

    /// Fetch a completed unit. Returns `None` when the unit was never
    /// recorded (or its bytes, though checksum-clean, fail to parse as
    /// `T` — schema drift; the caller simply recomputes).
    pub fn get<T: Deserialize>(&self, unit: &str) -> Option<UnitRecord<T>> {
        let bytes = self.units.get(unit)?;
        serde_json::from_str(std::str::from_utf8(bytes).ok()?).ok()
    }

    /// Record a completed unit: cache it in memory (every rank) and —
    /// on the writer rank — publish `<unit>.json` then the updated
    /// manifest, each via atomic tmp-file + rename, in that order.
    pub fn put<T: Serialize>(
        &mut self,
        unit: &str,
        record: &UnitRecord<T>,
    ) -> Result<(), CheckpointError> {
        let bytes = serde_json::to_string(record)
            .expect("unit serialization")
            .into_bytes();
        self.manifest
            .entries
            .insert(unit.to_string(), fnv1a64(&bytes));
        self.units.insert(unit.to_string(), bytes.clone());
        if self.write_enabled {
            write_atomic(&self.dir.join(format!("{unit}.json")), &bytes)?;
            self.write_manifest()?;
        }
        Ok(())
    }
}

/// Write `bytes` to `path` atomically: `<path>.tmp` first, then
/// rename. A crash before the rename leaves only the `.tmp` file,
/// which loading ignores; a failed write or rename removes it and
/// returns the original error.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, bytes)
        .and_then(|()| fs::rename(&tmp, path))
        .inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })
}

/// Load and fully verify an existing checkpoint against the guard of
/// `want` (a fresh manifest for the current run). `Ok(None)` means no
/// manifest exists (nothing to resume); every defect in files that do
/// exist is a typed error.
#[allow(clippy::type_complexity)]
fn load_verified(
    dir: &Path,
    want: &Manifest,
) -> Result<Option<(Manifest, BTreeMap<String, Vec<u8>>)>, CheckpointError> {
    let manifest_path = dir.join(MANIFEST_FILE);
    let text = match fs::read(&manifest_path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let text = String::from_utf8(text).map_err(|e| CheckpointError::Corrupt {
        file: manifest_path.clone(),
        reason: format!("unparseable manifest: {e}"),
    })?;
    let manifest: Manifest =
        serde_json::from_str(&text).map_err(|e| CheckpointError::Corrupt {
            file: manifest_path.clone(),
            reason: format!("unparseable manifest: {e}"),
        })?;
    // Versions 1 and 2 stay readable: they only lack fields that
    // deserialization already defaulted to `None`.
    if !(1..=MANIFEST_VERSION).contains(&manifest.version) {
        return Err(CheckpointError::Version {
            found: manifest.version,
            expected: MANIFEST_VERSION,
        });
    }
    if manifest.seed != want.seed {
        return Err(CheckpointError::Mismatch {
            reason: format!("seed {} on disk, {} requested", manifest.seed, want.seed),
        });
    }
    if manifest.fingerprint != want.fingerprint {
        return Err(CheckpointError::Mismatch {
            reason: format!(
                "data fingerprint {:?} on disk, {:?} requested",
                manifest.fingerprint, want.fingerprint
            ),
        });
    }
    // Checked only when both sides carry a digest: older manifests
    // predate it, and `open` does not ask for it.
    if let (Some(found), Some(requested)) = (manifest.config_digest, want.config_digest) {
        if found != requested {
            return Err(CheckpointError::Mismatch {
                reason: format!(
                    "learner config digest {found:#018x} on disk, {requested:#018x} requested"
                ),
            });
        }
    }
    let mut units = BTreeMap::new();
    for (unit, &checksum) in &manifest.entries {
        let path = dir.join(format!("{unit}.json"));
        let bytes = fs::read(&path).map_err(|e| CheckpointError::Corrupt {
            file: path.clone(),
            reason: format!("unit {unit:?} listed in manifest but unreadable: {e}"),
        })?;
        let found = fnv1a64(&bytes);
        if found != checksum {
            return Err(CheckpointError::Corrupt {
                file: path,
                reason: format!(
                    "unit {unit:?} checksum mismatch: manifest says {checksum:#018x}, \
                     file hashes to {found:#018x}"
                ),
            });
        }
        units.insert(unit.clone(), bytes);
    }
    Ok(Some((manifest, units)))
}

/// Remove the files a checkpoint owns (`*.json`, `*.json.tmp`) from
/// `dir`, leaving anything else in the directory alone. Missing
/// directory is fine.
fn wipe_checkpoint_files(dir: &Path) -> io::Result<()> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_file() && (name.ends_with(".json") || name.ends_with(".json.tmp")) {
            fs::remove_file(&path)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("monet_ckpt_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    const FP: (usize, usize, f64) = (3, 4, 12.5);

    fn record(v: u32) -> UnitRecord<u32> {
        let mut counters = BTreeMap::new();
        counters.insert("gibbs.sweeps".to_string(), 7);
        UnitRecord { value: v, counters }
    }

    #[test]
    fn put_get_roundtrip_across_reopen() {
        let dir = tmpdir("roundtrip");
        let mut store =
            CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Auto, true).unwrap();
        assert!(store.is_empty());
        store.put("unit_a", &record(42)).unwrap();
        store.put("unit_b", &record(43)).unwrap();
        drop(store); // release the writer lock before reopening

        let reopened =
            CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Strict, true).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get::<u32>("unit_a").unwrap(), record(42));
        assert_eq!(reopened.get::<u32>("unit_b").unwrap(), record(43));
        assert!(reopened.get::<u32>("unit_c").is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_manifest_is_typed_not_a_panic() {
        let dir = tmpdir("truncated");
        let mut store =
            CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Auto, true).unwrap();
        store.put("unit_a", &record(1)).unwrap();
        let manifest = dir.join(MANIFEST_FILE);
        let full = fs::read(&manifest).unwrap();
        fs::write(&manifest, &full[..full.len() / 2]).unwrap();
        drop(store);

        let err = CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Strict, true).unwrap_err();
        match &err {
            CheckpointError::Corrupt { file, reason } => {
                assert_eq!(file, &manifest);
                assert!(reason.contains("unparseable manifest"), "{reason}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Auto silently starts fresh on the same corruption.
        let store = CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Auto, true).unwrap();
        assert!(store.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flipped_unit_file_fails_its_checksum() {
        let dir = tmpdir("bitflip");
        let mut store =
            CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Auto, true).unwrap();
        store.put("unit_a", &record(9)).unwrap();
        let unit = dir.join("unit_a.json");
        let mut bytes = fs::read(&unit).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&unit, &bytes).unwrap();
        drop(store);

        let err = CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Strict, true).unwrap_err();
        match &err {
            CheckpointError::Corrupt { file, reason } => {
                assert_eq!(file, &unit);
                assert!(reason.contains("checksum mismatch"), "{reason}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_seed_and_wrong_fingerprint_are_mismatches() {
        let dir = tmpdir("mismatch");
        let mut store =
            CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Auto, true).unwrap();
        store.put("unit_a", &record(5)).unwrap();
        drop(store);

        let err = CheckpointStore::open(&dir, 2, FP, 4, ResumePolicy::Strict, true).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err:?}");
        assert!(err.to_string().contains("seed 1 on disk, 2 requested"));

        let err = CheckpointStore::open(&dir, 1, (3, 4, 99.0), 4, ResumePolicy::Strict, true)
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err:?}");

        // Auto discards the mismatched checkpoint instead of erroring.
        let store = CheckpointStore::open(&dir, 2, FP, 4, ResumePolicy::Auto, true).unwrap();
        assert!(store.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn same_dims_different_cells_is_a_mismatch() {
        // Same (n, m) but different cells: the cell-sum component of
        // the fingerprint must refuse the swap.
        let data = mn_data::synthetic::yeast_like(20, 14, 31).dataset;
        let mut other = data.clone();
        let first = other.matrix.get(0, 0);
        other.matrix.set(0, 0, first + 1.0);
        let (fp, other_fp) = (data_fingerprint(&data), data_fingerprint(&other));
        assert_eq!((fp.0, fp.1), (other_fp.0, other_fp.1));

        let dir = tmpdir("same_dims");
        let mut store = CheckpointStore::open(&dir, 1, fp, 1, ResumePolicy::Auto, true).unwrap();
        store.put("unit_a", &record(5)).unwrap();
        drop(store);
        let same = CheckpointStore::open(&dir, 1, fp, 1, ResumePolicy::Strict, true).unwrap();
        assert_eq!(same.len(), 1);
        drop(same);
        let err = CheckpointStore::open(&dir, 1, other_fp, 1, ResumePolicy::Strict, true)
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_skew_is_reported() {
        let dir = tmpdir("version");
        let mut store =
            CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Auto, true).unwrap();
        store.put("unit_a", &record(5)).unwrap();
        let manifest = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&manifest).unwrap();
        let current = format!("\"version\": {MANIFEST_VERSION}");
        fs::write(&manifest, text.replace(&current, "\"version\": 99")).unwrap();
        drop(store);

        let err = CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Strict, true).unwrap_err();
        match err {
            CheckpointError::Version { found, expected } => {
                assert_eq!((found, expected), (99, MANIFEST_VERSION));
            }
            other => panic!("unexpected error {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_window_tmp_written_rename_not_applied() {
        // Simulate a crash between fs::write(tmp) and fs::rename: the
        // tmp file exists, the published unit does not, the manifest
        // never mentioned it. Loading must ignore the leftover.
        let dir = tmpdir("crash_tmp");
        let mut store =
            CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Auto, true).unwrap();
        store.put("unit_a", &record(1)).unwrap();
        fs::write(dir.join("unit_b.json.tmp"), b"{\"torn\":").unwrap();
        drop(store);

        let reopened =
            CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Strict, true).unwrap();
        assert_eq!(reopened.len(), 1);
        assert!(reopened.get::<u32>("unit_b").is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_rename_removes_the_tmp_file() {
        // A directory where the file belongs makes the rename fail.
        let dir = tmpdir("tmp_cleanup");
        fs::create_dir_all(&dir).unwrap();
        let target = dir.join("unit.json");
        fs::create_dir(&target).unwrap();
        let err = write_atomic(&target, b"{}").unwrap_err();
        assert_ne!(err.kind(), io::ErrorKind::NotFound, "{err}");
        assert!(target.is_dir());
        assert!(!dir.join("unit.json.tmp").exists(), "tmp file left behind");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_window_unit_renamed_manifest_not_updated() {
        // Crash between the unit rename and the manifest rewrite: a
        // complete unit file exists but no manifest entry references
        // it. It is simply recomputed (and overwritten) on resume.
        let dir = tmpdir("crash_unref");
        let mut store =
            CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Auto, true).unwrap();
        store.put("unit_a", &record(1)).unwrap();
        let orphan = serde_json::to_string(&record(2)).unwrap();
        fs::write(dir.join("unit_b.json"), orphan.as_bytes()).unwrap();
        drop(store);

        let reopened =
            CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Strict, true).unwrap();
        assert_eq!(reopened.len(), 1, "orphan unit must not be trusted");
        assert!(reopened.get::<u32>("unit_b").is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_unit_file_is_corrupt() {
        let dir = tmpdir("missing_unit");
        let mut store =
            CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Auto, true).unwrap();
        store.put("unit_a", &record(1)).unwrap();
        fs::remove_file(dir.join("unit_a.json")).unwrap();
        drop(store);
        let err = CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Strict, true).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn force_restart_wipes_and_starts_fresh() {
        let dir = tmpdir("force");
        let mut store =
            CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Auto, true).unwrap();
        store.put("unit_a", &record(1)).unwrap();
        // Corrupt the manifest; ForceRestart must recover anyway.
        fs::write(dir.join(MANIFEST_FILE), b"garbage").unwrap();
        drop(store);

        let store =
            CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::ForceRestart, true).unwrap();
        assert!(store.is_empty());
        assert!(!dir.join("unit_a.json").exists());
        drop(store);
        // A fresh store is published immediately: the wiped directory
        // holds a valid empty manifest, so a crash straight after the
        // restart still resumes cleanly.
        let reopened =
            CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Strict, true).unwrap();
        assert!(reopened.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strict_with_no_manifest_is_nothing_to_resume() {
        let dir = tmpdir("nothing");
        let err = CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Strict, true).unwrap_err();
        match &err {
            CheckpointError::NothingToResume { dir: d } => assert_eq!(d, &dir),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("--resume"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_writer_rank_stays_off_disk() {
        let dir = tmpdir("nonwriter");
        let mut store =
            CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Auto, false).unwrap();
        store.put("unit_a", &record(1)).unwrap();
        // In-memory view sees the unit; the disk was never touched.
        assert_eq!(store.get::<u32>("unit_a").unwrap(), record(1));
        assert!(!dir.exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_records_origin_nranks_and_resume_ignores_mismatch() {
        let dir = tmpdir("elastic");
        let mut store = CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Auto, true).unwrap();
        store.put("unit_a", &record(1)).unwrap();
        assert_eq!(store.origin_nranks(), Some(4));
        drop(store);

        // Reopening at a different rank count is not an error — stored
        // units are rank-count-independent — and the manifest keeps
        // reporting the *original* writer's rank count.
        let reopened = CheckpointStore::open(&dir, 1, FP, 9, ResumePolicy::Strict, true).unwrap();
        assert_eq!(reopened.origin_nranks(), Some(4));
        assert_eq!(reopened.get::<u32>("unit_a").unwrap(), record(1));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_1_manifest_without_nranks_still_loads() {
        let dir = tmpdir("v1_compat");
        let mut store = CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Auto, true).unwrap();
        store.put("unit_a", &record(7)).unwrap();
        // Rewrite the manifest as a version-1 writer would have: no
        // `nranks` (or later) key at all.
        let manifest = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&manifest).unwrap();
        let v1 = without_line(&text, "config_digest")
            .replace(
                &format!("\"version\": {MANIFEST_VERSION}"),
                "\"version\": 1",
            )
            .replace("\"nranks\": 4,", "");
        assert!(!v1.contains("nranks"), "test setup left the field behind");
        fs::write(&manifest, v1).unwrap();
        drop(store);

        let reopened = CheckpointStore::open(&dir, 1, FP, 8, ResumePolicy::Strict, true).unwrap();
        assert_eq!(reopened.origin_nranks(), None);
        assert_eq!(reopened.get::<u32>("unit_a").unwrap(), record(7));
        fs::remove_dir_all(&dir).ok();
    }

    /// `text` without its lines that mention `key`.
    fn without_line(text: &str, key: &str) -> String {
        text.lines()
            .filter(|line| !line.contains(key))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn changed_learner_config_is_a_mismatch_under_strict_and_fresh_under_auto() {
        let data = mn_data::synthetic::yeast_like(20, 14, 31).dataset;
        let config = LearnerConfig::paper_minimum(1);
        let mut changed = config.clone();
        changed.ganesh.init_clusters = Some(7);
        changed.ganesh.update_steps = 2;
        assert_eq!(changed.seed, config.seed, "only the digest may differ");

        let dir = tmpdir("config_digest");
        let open = |config: &LearnerConfig, policy| {
            CheckpointStore::open_run(&dir, config, Scoring::Kernel, &data, 1, policy, true)
        };
        let mut store = open(&config, ResumePolicy::Auto).unwrap();
        store.put("unit_a", &record(5)).unwrap();
        drop(store);
        assert_eq!(open(&config, ResumePolicy::Strict).unwrap().len(), 1);

        let err = open(&changed, ResumePolicy::Strict).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err:?}");
        assert!(err.to_string().contains("learner config digest"), "{err}");

        // Auto starts the changed run fresh, and its manifest now
        // guards the changed config.
        let fresh = open(&changed, ResumePolicy::Auto).unwrap();
        assert!(fresh.is_empty());
        drop(fresh);
        assert!(open(&changed, ResumePolicy::Strict).unwrap().is_empty());
        let err = open(&config, ResumePolicy::Strict).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scoring_path_takes_part_in_the_digest_and_kernel_keeps_the_bare_one() {
        // The kernel digest is the bare config's, as before the scoring
        // path took part, so existing checkpoints and serve state dirs
        // still resume; the naive oracles get their own.
        let config = LearnerConfig::paper_minimum(1);
        let bare = fnv1a64(serde_json::to_string(&config).unwrap().as_bytes());
        assert_eq!(config_digest(&config, Scoring::Kernel), bare);
        assert_ne!(config_digest(&config, Scoring::Naive), bare);
    }

    #[test]
    fn version_2_manifest_without_config_digest_still_loads() {
        let data = mn_data::synthetic::yeast_like(20, 14, 31).dataset;
        let config = LearnerConfig::paper_minimum(1);
        let dir = tmpdir("v2_compat");
        let mut store = CheckpointStore::open_run(
            &dir,
            &config,
            Scoring::Kernel,
            &data,
            4,
            ResumePolicy::Auto,
            true,
        )
        .unwrap();
        store.put("unit_a", &record(7)).unwrap();
        let manifest = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&manifest).unwrap();
        let v2 = without_line(&text, "config_digest").replace(
            &format!("\"version\": {MANIFEST_VERSION}"),
            "\"version\": 2",
        );
        assert!(v2.contains("\"version\": 2"), "test setup kept the version");
        fs::write(&manifest, v2).unwrap();
        drop(store);

        // A version-2 checkpoint carries no digest to compare, so any
        // config with its seed and data resumes it.
        let mut changed = config.clone();
        changed.ganesh.init_clusters = Some(7);
        let reopened = CheckpointStore::open_run(
            &dir,
            &changed,
            Scoring::Kernel,
            &data,
            4,
            ResumePolicy::Strict,
            true,
        )
        .unwrap();
        assert_eq!(reopened.get::<u32>("unit_a").unwrap(), record(7));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_writers_get_typed_locked_error() {
        let dir = tmpdir("locked");
        let first = CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Auto, true).unwrap();
        assert!(dir.join(LOCK_FILE).exists());

        // Same thread: the second writer is refused, typed, no panic.
        let err = CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Auto, true).unwrap_err();
        match &err {
            CheckpointError::Locked { holder, .. } => {
                assert_eq!(*holder, mn_comm::sys::current_pid());
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("locked by a live writer"));

        // Another thread racing on the same dir loses the same way.
        let race_dir = dir.clone();
        let racer = std::thread::spawn(move || {
            CheckpointStore::open(&race_dir, 1, FP, 4, ResumePolicy::Auto, true)
                .err()
                .map(|e| matches!(e, CheckpointError::Locked { .. }))
        });
        assert_eq!(racer.join().unwrap(), Some(true));

        // The first writer never saw the contenders: its state is intact.
        drop(first);
        assert!(!dir.join(LOCK_FILE).exists(), "drop releases the lock");
        let reopened = CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Auto, true).unwrap();
        drop(reopened);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_lock_from_dead_pid_is_stolen() {
        // A SIGKILLed writer leaves its lock file behind; the pid in it
        // no longer designates a live process, so resume steals it.
        let dir = tmpdir("stale_lock");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(LOCK_FILE), b"999999999").unwrap();

        let store = CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Auto, true).unwrap();
        let holder = fs::read_to_string(dir.join(LOCK_FILE)).unwrap();
        assert_eq!(
            holder.trim().parse::<u32>().unwrap(),
            mn_comm::sys::current_pid(),
            "stolen lock must be re-stamped with the new writer's pid"
        );
        drop(store);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unreadable_lock_file_counts_as_stale() {
        let dir = tmpdir("garbled_lock");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(LOCK_FILE), b"not a pid").unwrap();
        let store = CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Auto, true).unwrap();
        drop(store);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn readers_are_not_blocked_by_the_writer_lock() {
        // Non-writer ranks mirror state in memory only — they take no
        // lock and coexist with a live writer on the same directory.
        let dir = tmpdir("reader_coexist");
        let writer = CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Auto, true).unwrap();
        let reader = CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Auto, false).unwrap();
        drop(reader);
        drop(writer);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn force_restart_wipe_leaves_the_held_lock_alone() {
        let dir = tmpdir("wipe_keeps_lock");
        let mut store = CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::Auto, true).unwrap();
        store.put("unit_a", &record(1)).unwrap();
        drop(store);

        // ForceRestart wipes *.json / *.json.tmp but must keep the
        // opener's own freshly-acquired lock file.
        let store =
            CheckpointStore::open(&dir, 1, FP, 4, ResumePolicy::ForceRestart, true).unwrap();
        assert!(!dir.join("unit_a.json").exists());
        assert!(dir.join(LOCK_FILE).exists());
        drop(store);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
