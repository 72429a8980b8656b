//! `atlas-store` — a content-addressed disk store for cuisine-atlas
//! snapshots.
//!
//! The store owns one directory (the server's `--data-dir`) with three
//! children:
//!
//! ```text
//! <root>/atlases/<store-id>.atlas     one file per built atlas
//! <root>/corpora/<digest>.corpus      one file per corpus
//! <root>/quarantine/                  damaged files, kept for forensics
//! <root>/store.lock                   owner lock (while a writer is open)
//! ```
//!
//! The server keeps here only what it cannot regrow: uploaded corpora
//! and the atlases built over them. A generated corpus is a pure
//! function of its seed, scale and per-cuisine floor, and rebuilding its
//! atlas is cheaper than reading the corpus frame back, so generated
//! atlases never reach the store. Generated corpus files written by
//! older builds are no longer read; no atlas references them any more,
//! so a disk budget evicts them like any unreferenced corpus.
//!
//! Files are **content-addressed**: a corpus file is named by its
//! semantic [`corpus digest`](recipedb::digest::corpus_digest) and an
//! atlas file by the server's cache-key id, so identical content lands
//! on identical paths and a re-persist is a no-op. Writes are atomic
//! (`<name>.tmp` + fsync + rename) — a crash mid-persist leaves a
//! `.tmp` orphan that the next [`SnapshotStore::open`] sweeps away,
//! never a half-written live file. Files that fail validation (at the
//! boot scan or on a later load/decode) are moved to `quarantine/` and
//! counted, so the serving layer falls back to a rebuild instead of
//! crashing.
//!
//! **One read-write store owns the directory.** [`SnapshotStore::open`]
//! takes the owner lock — a `store.lock` file created with
//! `O_CREAT|O_EXCL` semantics — and holds it until the store is
//! dropped. A live owner makes a second writer's open fail at once; a
//! dead owner's lock (the one a killed server leaves) is taken over, so
//! restarting after `kill -9` just works. Read-only stores never take
//! the lock and never mutate the directory, not even at boot: they
//! serve what their boot scan indexed.
//!
//! A disk budget (`max_disk_bytes`, 0 = unbounded) is enforced after
//! every write by evicting least-recently-used atlases first, then
//! least-recently-used corpora that no remaining atlas references —
//! never a corpus that stored atlases still need to decode.
//!
//! Every I/O mutation first consults a [`fault::FaultPlan`], so tests
//! (and the crash-consistency harness, via `ATLAS_STORE_FAULT`) can
//! fail or stall the Nth create/write/fsync/rename/unlink and prove
//! that every partial-failure path lands in the `.tmp` sweep or
//! `quarantine/` — never a torn visible snapshot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
mod lock;

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;

use cuisine_atlas::snapshot::{self, CorpusOrigin};

pub use fault::{FaultOp, FaultPlan};

const ATLAS_EXT: &str = "atlas";
const CORPUS_EXT: &str = "corpus";
const TMP_EXT: &str = "tmp";

/// Store configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the store (created if absent, unless
    /// read-only).
    pub root: PathBuf,
    /// Disk budget in bytes across atlases + corpora; `0` disables the
    /// budget.
    pub max_disk_bytes: u64,
    /// Serve warm reads but never write, evict, quarantine, unlink or
    /// lock (the server's `--no-persist` flag).
    pub read_only: bool,
    /// Fault injections applied to every store I/O site (tests only;
    /// the default plan is free).
    pub faults: FaultPlan,
}

impl StoreConfig {
    /// A read-write store at `root` with no disk budget and no fault
    /// injections.
    pub fn new(root: PathBuf) -> StoreConfig {
        StoreConfig {
            root,
            max_disk_bytes: 0,
            read_only: false,
            faults: FaultPlan::none(),
        }
    }
}

/// Counter and gauge snapshot of the store, rendered into `/metrics`
/// and `/health`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// Snapshot loads that found a file.
    pub hits: u64,
    /// Snapshot loads that found nothing.
    pub misses: u64,
    /// Snapshot files written.
    pub writes: u64,
    /// Files quarantined as damaged (boot scan + load/decode failures).
    pub corrupt: u64,
    /// Files evicted to stay under the disk budget.
    pub evictions: u64,
    /// Atlas snapshot files currently stored.
    pub atlas_files: u64,
    /// Corpus snapshot files currently stored.
    pub corpus_files: u64,
    /// Bytes in atlas snapshot files.
    pub atlas_bytes: u64,
    /// Bytes in corpus snapshot files.
    pub corpus_bytes: u64,
    /// The configured disk budget (0 = unbounded).
    pub max_disk_bytes: u64,
}

impl StoreStats {
    /// Total bytes currently stored.
    pub fn total_bytes(&self) -> u64 {
        self.atlas_bytes + self.corpus_bytes
    }
}

/// One persisted corpus, as listed by [`SnapshotStore::corpora`] for
/// the warm-restart registry restore.
#[derive(Debug, Clone)]
pub struct StoredCorpus {
    /// The corpus digest (also the file stem).
    pub digest: String,
    /// Snapshot file size in bytes.
    pub bytes: u64,
    /// Provenance recorded in the snapshot.
    pub origin: CorpusOrigin,
    /// File modification time — stands in for the original registration
    /// time after a restart (drives the corpus TTL).
    pub modified: SystemTime,
}

/// Disk footprint of one corpus and its dependent atlases.
#[derive(Debug, Clone, Copy, Default)]
pub struct CorpusDiskUsage {
    /// Bytes of the corpus snapshot itself (0 if not persisted).
    pub corpus_bytes: u64,
    /// Bytes across atlas snapshots built from this corpus.
    pub atlas_bytes: u64,
    /// Number of atlas snapshots built from this corpus.
    pub atlas_count: u64,
}

#[derive(Debug)]
struct AtlasEntry {
    bytes: u64,
    corpus: String,
    last_used: u64,
}

#[derive(Debug)]
struct CorpusEntry {
    bytes: u64,
    origin: CorpusOrigin,
    modified: SystemTime,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Index {
    atlases: HashMap<String, AtlasEntry>,
    corpora: HashMap<String, CorpusEntry>,
    clock: u64,
}

impl Index {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn total_bytes(&self) -> u64 {
        self.atlases.values().map(|e| e.bytes).sum::<u64>()
            + self.corpora.values().map(|e| e.bytes).sum::<u64>()
    }
}

/// The content-addressed snapshot store.
#[derive(Debug)]
pub struct SnapshotStore {
    config: StoreConfig,
    index: Mutex<Index>,
    /// The owner lock, held for the store's lifetime; `None` in
    /// read-only mode, which never mutates and so excludes no one.
    _lock: Option<lock::StoreLock>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    corrupt: AtomicU64,
    evictions: AtomicU64,
}

impl SnapshotStore {
    /// Open (creating if needed) the store at `config.root`, taking its
    /// owner lock, sweeping crash leftovers and quarantining any file
    /// that fails validation. Fails with `WouldBlock` while another live
    /// store owns the directory. A read-only open takes no lock, creates
    /// nothing, and reads a missing directory as empty.
    ///
    /// Every existing snapshot is checksum-verified here — the boot
    /// scan is what makes a warm restart trustworthy — and the LRU
    /// clock is seeded from file modification times (ties broken on
    /// the store id/digest, so eviction order is independent of
    /// `read_dir` order), so eviction order survives restarts.
    pub fn open(config: StoreConfig) -> io::Result<Self> {
        let lock = if config.read_only {
            None
        } else {
            fs::create_dir_all(&config.root)?;
            let lock = lock::StoreLock::acquire(&config.root)?;
            for dir in ["atlases", "corpora", "quarantine"] {
                fs::create_dir_all(config.root.join(dir))?;
            }
            Some(lock)
        };
        let store = SnapshotStore {
            config,
            index: Mutex::new(Index::default()),
            _lock: lock,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        };
        store.scan()?;
        if !store.config.read_only {
            store.enforce_budget(&mut store.index.lock().unwrap());
        }
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.config.root
    }

    /// Whether the store is in read-only (`--no-persist`) mode.
    pub fn read_only(&self) -> bool {
        self.config.read_only
    }

    fn atlas_path(&self, store_id: &str) -> PathBuf {
        self.config
            .root
            .join("atlases")
            .join(format!("{store_id}.{ATLAS_EXT}"))
    }

    fn corpus_path(&self, digest: &str) -> PathBuf {
        self.config
            .root
            .join("corpora")
            .join(format!("{digest}.{CORPUS_EXT}"))
    }

    /// Scan both snapshot directories: sweep `.tmp` orphans (no write
    /// is in flight while we open), quarantine invalid files, index the
    /// rest in `(mtime, stem)` order — oldest first, ties broken on the
    /// store id/digest — so the LRU clock reflects pre-restart recency
    /// and never depends on `read_dir` order. Read-only stores index
    /// without mutating anything, and read a missing directory as
    /// empty.
    fn scan(&self) -> io::Result<()> {
        let mut found: Vec<(SystemTime, String, PathBuf, bool)> = Vec::new();
        for (dir, is_atlas) in [("atlases", true), ("corpora", false)] {
            let entries = match fs::read_dir(self.config.root.join(dir)) {
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                entries => entries?,
            };
            for entry in entries {
                let path = entry?.path();
                if !path.is_file() {
                    continue;
                }
                let ext = path.extension().and_then(|e| e.to_str());
                if ext == Some(TMP_EXT) {
                    if !self.config.read_only {
                        let _ = fs::remove_file(&path);
                    }
                    continue;
                }
                if ext != Some(if is_atlas { ATLAS_EXT } else { CORPUS_EXT }) {
                    continue;
                }
                let Some(stem) = path.file_stem().and_then(|s| s.to_str()).map(String::from) else {
                    self.quarantine_file(&path);
                    continue;
                };
                let modified = fs::metadata(&path)
                    .and_then(|m| m.modified())
                    .unwrap_or(SystemTime::UNIX_EPOCH);
                found.push((modified, stem, path, is_atlas));
            }
        }
        found.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));

        let mut index = self.index.lock().unwrap();
        for (modified, stem, path, is_atlas) in found {
            let Ok(bytes) = fs::read(&path) else {
                self.quarantine_file(&path);
                continue;
            };
            if is_atlas {
                match snapshot::peek_atlas(&bytes) {
                    Ok(peek) => {
                        let last_used = index.tick();
                        index.atlases.insert(
                            stem,
                            AtlasEntry {
                                bytes: bytes.len() as u64,
                                corpus: peek.corpus_digest,
                                last_used,
                            },
                        );
                    }
                    Err(e) => self.reject_file(&path, &e, true),
                }
            } else {
                match snapshot::peek_corpus(&bytes) {
                    Ok(peek) if peek.digest == stem => {
                        let last_used = index.tick();
                        index.corpora.insert(
                            stem,
                            CorpusEntry {
                                bytes: bytes.len() as u64,
                                origin: peek.origin,
                                modified,
                                last_used,
                            },
                        );
                    }
                    // A valid frame whose embedded digest disagrees
                    // with its filename is misplaced content — damage.
                    Ok(_) => self.quarantine_file(&path),
                    Err(e) => self.reject_file(&path, &e, false),
                }
            }
        }
        Ok(())
    }

    /// Handle a file that failed snapshot validation. *Corruption*
    /// (checksum/structure damage) is quarantined. Anything else — a
    /// version or kind this build does not speak, written by another
    /// build — is not damage:
    ///
    /// * an atlas is deleted: it can always be rebuilt from its corpus,
    ///   and left in place it would sit on disk outside the index, the
    ///   disk accounting and the budget;
    /// * a corpus is left in place, unindexed, because it cannot be
    ///   rebuilt, so a rollback to the build that wrote it can still use
    ///   it (unless this build persists the same digest over it).
    ///
    /// A read-only store changes neither.
    fn reject_file(&self, path: &Path, err: &snapshot::SnapshotError, is_atlas: bool) {
        if err.is_corruption() {
            self.quarantine_file(path);
        } else if is_atlas {
            // A failed unlink leaves the file as before: unindexed.
            let _ = self.unlink(path);
        }
    }

    // -- atlases ------------------------------------------------------

    /// Whether an atlas snapshot is stored under `store_id`.
    pub fn contains_atlas(&self, store_id: &str) -> bool {
        self.index.lock().unwrap().atlases.contains_key(store_id)
    }

    /// Read an atlas snapshot's bytes, counting a hit or miss. A
    /// vanished file degrades to a miss; an unreadable file is
    /// quarantined on the spot (never in read-only mode) and reported
    /// as a miss.
    pub fn load_atlas(&self, store_id: &str) -> Option<Vec<u8>> {
        self.load(store_id, true)
    }

    /// Persist an atlas snapshot under `store_id`, recording which
    /// corpus it depends on (the budget never evicts a corpus out from
    /// under its atlases). Returns `false` without writing when the
    /// store is read-only or the snapshot is already stored.
    pub fn persist_atlas(
        &self,
        store_id: &str,
        corpus_digest: &str,
        bytes: &[u8],
    ) -> io::Result<bool> {
        if self.config.read_only {
            return Ok(false);
        }
        let mut index = self.index.lock().unwrap();
        if index.atlases.contains_key(store_id) {
            return Ok(false);
        }
        write_atomic(&self.atlas_path(store_id), bytes, &self.config.faults)?;
        let last_used = index.tick();
        index.atlases.insert(
            store_id.to_string(),
            AtlasEntry {
                bytes: bytes.len() as u64,
                corpus: corpus_digest.to_string(),
                last_used,
            },
        );
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.enforce_budget(&mut index);
        Ok(true)
    }

    /// Quarantine a stored atlas snapshot that failed to decode.
    pub fn quarantine_atlas(&self, store_id: &str) {
        let mut index = self.index.lock().unwrap();
        index.atlases.remove(store_id);
        self.quarantine_file(&self.atlas_path(store_id));
    }

    /// Remove every stored atlas built from `corpus_digest`; returns
    /// how many were removed.
    pub fn remove_atlases_for_corpus(&self, corpus_digest: &str) -> usize {
        let mut index = self.index.lock().unwrap();
        let doomed: Vec<String> = index
            .atlases
            .iter()
            .filter(|(_, e)| e.corpus == corpus_digest)
            .map(|(id, _)| id.clone())
            .collect();
        for id in &doomed {
            index.atlases.remove(id);
            let _ = self.unlink(&self.atlas_path(id));
        }
        doomed.len()
    }

    // -- corpora ------------------------------------------------------

    /// Whether a corpus snapshot is stored under `digest`.
    pub fn contains_corpus(&self, digest: &str) -> bool {
        self.index.lock().unwrap().corpora.contains_key(digest)
    }

    /// Read a corpus snapshot's bytes, counting a hit or miss, exactly
    /// like [`SnapshotStore::load_atlas`].
    pub fn load_corpus(&self, digest: &str) -> Option<Vec<u8>> {
        self.load(digest, false)
    }

    /// Persist a corpus snapshot under its digest. Returns `false`
    /// without writing when the store is read-only or the snapshot is
    /// already stored — content addressing makes re-persists no-ops.
    pub fn persist_corpus(
        &self,
        digest: &str,
        origin: CorpusOrigin,
        bytes: &[u8],
    ) -> io::Result<bool> {
        if self.config.read_only {
            return Ok(false);
        }
        let mut index = self.index.lock().unwrap();
        if index.corpora.contains_key(digest) {
            return Ok(false);
        }
        write_atomic(&self.corpus_path(digest), bytes, &self.config.faults)?;
        let last_used = index.tick();
        index.corpora.insert(
            digest.to_string(),
            CorpusEntry {
                bytes: bytes.len() as u64,
                origin,
                modified: SystemTime::now(),
                last_used,
            },
        );
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.enforce_budget(&mut index);
        Ok(true)
    }

    /// Quarantine a stored corpus snapshot that failed to decode.
    pub fn quarantine_corpus(&self, digest: &str) {
        let mut index = self.index.lock().unwrap();
        index.corpora.remove(digest);
        self.quarantine_file(&self.corpus_path(digest));
    }

    /// Remove a stored corpus snapshot (the `DELETE /corpus/{digest}`
    /// path — callers remove its atlases too). Returns whether a file
    /// was removed.
    pub fn remove_corpus(&self, digest: &str) -> bool {
        let mut index = self.index.lock().unwrap();
        let had = index.corpora.remove(digest).is_some();
        if had {
            let _ = self.unlink(&self.corpus_path(digest));
        }
        had
    }

    /// Every stored corpus, for the boot-time registry restore.
    pub fn corpora(&self) -> Vec<StoredCorpus> {
        let index = self.index.lock().unwrap();
        let mut out: Vec<StoredCorpus> = index
            .corpora
            .iter()
            .map(|(digest, e)| StoredCorpus {
                digest: digest.clone(),
                bytes: e.bytes,
                origin: e.origin,
                modified: e.modified,
            })
            .collect();
        out.sort_by(|a, b| a.digest.cmp(&b.digest));
        out
    }

    /// Disk footprint of one corpus: its own snapshot plus every atlas
    /// snapshot built from it.
    pub fn disk_usage_for(&self, corpus_digest: &str) -> CorpusDiskUsage {
        let index = self.index.lock().unwrap();
        let mut usage = CorpusDiskUsage {
            corpus_bytes: index.corpora.get(corpus_digest).map_or(0, |e| e.bytes),
            ..CorpusDiskUsage::default()
        };
        for e in index.atlases.values() {
            if e.corpus == corpus_digest {
                usage.atlas_bytes += e.bytes;
                usage.atlas_count += 1;
            }
        }
        usage
    }

    // -- shared internals ---------------------------------------------

    fn load(&self, id: &str, is_atlas: bool) -> Option<Vec<u8>> {
        let mut index = self.index.lock().unwrap();
        let present = if is_atlas {
            index.atlases.contains_key(id)
        } else {
            index.corpora.contains_key(id)
        };
        if !present {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let path = if is_atlas {
            self.atlas_path(id)
        } else {
            self.corpus_path(id)
        };
        match fs::read(&path) {
            Ok(bytes) => {
                let tick = index.tick();
                if is_atlas {
                    index.atlases.get_mut(id).unwrap().last_used = tick;
                } else {
                    index.corpora.get_mut(id).unwrap().last_used = tick;
                }
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(bytes)
            }
            Err(e) => {
                if is_atlas {
                    index.atlases.remove(id);
                } else {
                    index.corpora.remove(id);
                }
                // A file removed behind the index's back (by hand, or by
                // the owner of a read-only store's directory) is not
                // damage: drop the entry and let the caller rebuild.
                if e.kind() != io::ErrorKind::NotFound {
                    self.quarantine_file(&path);
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Move a damaged file into `quarantine/` (kept, not deleted, so a
    /// torn write can be examined) and count it. Read-only stores count
    /// without touching the file.
    fn quarantine_file(&self, path: &Path) {
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        if self.config.read_only {
            return;
        }
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("unnamed");
        let mut target = self.config.root.join("quarantine").join(name);
        let mut n = 0u32;
        while target.exists() {
            n += 1;
            target = self
                .config
                .root
                .join("quarantine")
                .join(format!("{name}.{n}"));
        }
        if fs::rename(path, &target).is_err() {
            let _ = fs::remove_file(path);
        }
    }

    /// Unlink a snapshot file through the fault plan. A file that is
    /// already gone counts as success. Read-only stores only forget the
    /// file: the directory belongs to its owner.
    fn unlink(&self, path: &Path) -> io::Result<()> {
        if self.config.read_only {
            return Ok(());
        }
        self.config.faults.check(FaultOp::Unlink)?;
        match fs::remove_file(path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Evict least-recently-used files until under the budget: atlases
    /// first (rebuildable from their corpus), then corpora no remaining
    /// atlas references. A failed unlink
    /// stops eviction (the entry stays indexed, the budget re-checks at
    /// the next write) rather than looping on the same victim.
    fn enforce_budget(&self, index: &mut Index) {
        if self.config.max_disk_bytes == 0 {
            return;
        }
        while index.total_bytes() > self.config.max_disk_bytes {
            if let Some(id) = lru_key(index.atlases.iter().map(|(k, e)| (k, e.last_used))) {
                if self.unlink(&self.atlas_path(&id)).is_err() {
                    return;
                }
                index.atlases.remove(&id);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let unreferenced = index
                .corpora
                .iter()
                .filter(|(d, _)| index.atlases.values().all(|a| &a.corpus != *d))
                .map(|(d, e)| (d, e.last_used));
            let Some(digest) = lru_key(unreferenced) else {
                break;
            };
            if self.unlink(&self.corpus_path(&digest)).is_err() {
                return;
            }
            index.corpora.remove(&digest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current counters and gauges.
    pub fn stats(&self) -> StoreStats {
        let index = self.index.lock().unwrap();
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            atlas_files: index.atlases.len() as u64,
            corpus_files: index.corpora.len() as u64,
            atlas_bytes: index.atlases.values().map(|e| e.bytes).sum(),
            corpus_bytes: index.corpora.values().map(|e| e.bytes).sum(),
            max_disk_bytes: self.config.max_disk_bytes,
        }
    }
}

fn lru_key<'a>(entries: impl Iterator<Item = (&'a String, u64)>) -> Option<String> {
    entries
        .min_by_key(|&(k, used)| (used, k.clone()))
        .map(|(k, _)| k.clone())
}

/// Write `bytes` to `path` atomically: `<name>.tmp` is written,
/// fsynced, then renamed over the final path (the directory is fsynced
/// best-effort afterwards). Readers either see the old file or the
/// complete new one, never a torn write. One tmp name per path is
/// enough: callers hold the index mutex across the write, so the owner
/// never has two writes in flight. On failure the tmp file is removed
/// best-effort (a crash leaves it for the boot sweep).
fn write_atomic(path: &Path, bytes: &[u8], faults: &FaultPlan) -> io::Result<()> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "bad snapshot path"))?;
    let parent = path
        .parent()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "bad snapshot path"))?;
    let tmp = parent.join(format!("{file_name}.{TMP_EXT}"));
    let result = (|| {
        faults.check(FaultOp::Create)?;
        let mut f = fs::File::create(&tmp)?;
        // The payload lands in two halves around the fault check, so an
        // injected write fault (or a SIGKILL during a stalled one)
        // leaves a genuinely torn tmp file for the sweep to prove
        // itself against.
        let mid = bytes.len() / 2;
        f.write_all(&bytes[..mid])?;
        faults.check(FaultOp::Write)?;
        f.write_all(&bytes[mid..])?;
        faults.check(FaultOp::Sync)?;
        f.sync_all()?;
        faults.check(FaultOp::Rename)?;
        fs::rename(&tmp, path)
    })();
    match result {
        Ok(()) => {
            if let Ok(dir) = fs::File::open(parent) {
                let _ = dir.sync_all();
            }
            Ok(())
        }
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    /// A unique scratch directory, removed when dropped.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new() -> Self {
            let dir = std::env::temp_dir().join(format!(
                "atlas-store-test-{}-{}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }

        fn store(&self, max_disk_bytes: u64) -> SnapshotStore {
            SnapshotStore::open(StoreConfig {
                max_disk_bytes,
                ..StoreConfig::new(self.0.clone())
            })
            .unwrap()
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    /// A minimal valid corpus snapshot (tiny hand-built corpus). `tag`
    /// varies the content, so distinct tags yield distinct digests.
    fn corpus_bytes_tagged(tag: &str) -> (String, Vec<u8>) {
        use recipedb::store::RecipeDbBuilder;
        use recipedb::Cuisine;
        let mut b = RecipeDbBuilder::new();
        let salt = b.catalog_mut().intern_ingredient("salt");
        let rice = b.catalog_mut().intern_ingredient(tag);
        let boil = b.catalog_mut().intern_process("boil");
        let pan = b.catalog_mut().intern_utensil("pan");
        b.add_recipe(
            "dish",
            Cuisine::ALL[0],
            vec![salt, rice],
            vec![boil],
            vec![pan],
        );
        let db = b.build().unwrap();
        let digest = recipedb::corpus_digest(&db);
        let bytes = snapshot::encode_corpus(&db, CorpusOrigin::Uploaded, 42).unwrap();
        (digest, bytes)
    }

    fn corpus_bytes() -> (String, Vec<u8>) {
        corpus_bytes_tagged("rice")
    }

    #[test]
    fn persist_load_roundtrip_and_counters() {
        let scratch = Scratch::new();
        let store = scratch.store(0);
        let (digest, bytes) = corpus_bytes();

        assert!(store.load_corpus(&digest).is_none());
        assert!(store
            .persist_corpus(&digest, CorpusOrigin::Uploaded, &bytes)
            .unwrap());
        // Re-persisting identical content is a no-op.
        assert!(!store
            .persist_corpus(&digest, CorpusOrigin::Uploaded, &bytes)
            .unwrap());
        assert_eq!(store.load_corpus(&digest).unwrap(), bytes);

        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (1, 1, 1));
        assert_eq!(stats.corpus_files, 1);
        assert_eq!(stats.corpus_bytes, bytes.len() as u64);
        assert!(
            scratch.0.join(lock::LOCK_FILE).exists(),
            "the owner lock is held while the store is open"
        );
        drop(store);
        assert!(
            !scratch.0.join(lock::LOCK_FILE).exists(),
            "dropping the store releases the lock"
        );
    }

    #[test]
    fn reopen_restores_the_index() {
        let scratch = Scratch::new();
        let (digest, bytes) = corpus_bytes();
        {
            let store = scratch.store(0);
            store
                .persist_corpus(&digest, CorpusOrigin::Uploaded, &bytes)
                .unwrap();
            store
                .persist_atlas("aaaa", &digest, b"not-checked-here")
                .ok();
        }
        // "aaaa" is not a valid snapshot — the reopen scan must
        // quarantine it and keep the valid corpus.
        let store = scratch.store(0);
        assert!(store.contains_corpus(&digest));
        assert!(!store.contains_atlas("aaaa"));
        let stats = store.stats();
        assert_eq!(stats.corrupt, 1);
        assert!(scratch.0.join("quarantine").join("aaaa.atlas").exists());
        let listed = store.corpora();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].digest, digest);
        assert_eq!(listed[0].origin, CorpusOrigin::Uploaded);
    }

    #[test]
    fn tmp_leftovers_are_swept_on_open() {
        let scratch = Scratch::new();
        let store = scratch.store(0);
        // The owner sweeps every tmp, whatever its name: no write can be
        // in flight while it opens. That includes the pid-tagged names
        // older builds wrote, even when the pid is alive.
        let torn = scratch.0.join("atlases").join("torn.atlas.tmp");
        fs::write(&torn, b"half a snapshot").unwrap();
        let mut child = std::process::Command::new("sleep")
            .arg("30")
            .spawn()
            .unwrap();
        let tagged = scratch
            .0
            .join("corpora")
            .join(format!("x.corpus.{}.tmp", child.id()));
        fs::write(&tagged, b"older build's tmp").unwrap();
        drop(store);

        let store = scratch.store(0);
        child.kill().unwrap();
        child.wait().unwrap();
        assert!(!torn.exists(), "tmp orphan must be swept at open");
        assert!(!tagged.exists(), "pid-tagged tmp must be swept at open");
        assert_eq!(store.stats().corrupt, 0, "a tmp sweep is not corruption");
    }

    #[test]
    fn corrupted_corpus_is_quarantined_on_reopen() {
        let scratch = Scratch::new();
        let (digest, bytes) = corpus_bytes();
        {
            let store = scratch.store(0);
            store
                .persist_corpus(&digest, CorpusOrigin::Uploaded, &bytes)
                .unwrap();
        }
        // Flip one byte in place.
        let path = scratch.0.join("corpora").join(format!("{digest}.corpus"));
        let mut damaged = fs::read(&path).unwrap();
        let mid = damaged.len() / 2;
        damaged[mid] ^= 0x01;
        fs::write(&path, &damaged).unwrap();

        let store = scratch.store(0);
        assert!(!store.contains_corpus(&digest));
        assert_eq!(store.stats().corrupt, 1);
        assert!(!path.exists());
    }

    /// A real atlas snapshot with its corpus snapshot: three cuisines,
    /// four recipes each, so the build is nearly free.
    fn atlas_and_corpus_bytes() -> (String, Vec<u8>, Vec<u8>) {
        use cuisine_atlas::pipeline::{AtlasConfig, CuisineAtlas};
        use recipedb::store::RecipeDbBuilder;
        use recipedb::Cuisine;
        let mut b = RecipeDbBuilder::new();
        let ings: Vec<_> = (0..6)
            .map(|i| b.catalog_mut().intern_ingredient(&format!("ing-{i}")))
            .collect();
        for (ci, &cuisine) in Cuisine::ALL[..3].iter().enumerate() {
            for r in 0..4 {
                let recipe = vec![ings[ci], ings[(ci + r) % 6], ings[5 - ci]];
                b.add_recipe(format!("r{ci}-{r}"), cuisine, recipe, vec![], vec![]);
            }
        }
        let db = std::sync::Arc::new(b.build().unwrap());
        let digest = recipedb::corpus_digest(&db);
        let atlas = CuisineAtlas::from_shared(db.clone(), &AtlasConfig::quick(1));
        let corpus = snapshot::encode_corpus(&db, CorpusOrigin::Uploaded, 0).unwrap();
        let atlas = snapshot::encode_atlas(&atlas, &digest);
        (digest, corpus, atlas)
    }

    #[test]
    fn damaged_atlas_version_is_quarantined_on_reopen() {
        let scratch = Scratch::new();
        let (digest, corpus, atlas) = atlas_and_corpus_bytes();
        {
            let store = scratch.store(0);
            store
                .persist_corpus(&digest, CorpusOrigin::Uploaded, &corpus)
                .unwrap();
            store.persist_atlas("a1", &digest, &atlas).unwrap();
        }
        // Flip a bit of the version field: the checksum no longer holds,
        // so this is damage, not a file from another build.
        let path = scratch.0.join("atlases").join("a1.atlas");
        let mut damaged = fs::read(&path).unwrap();
        damaged[snapshot::MAGIC.len()] ^= 0x01;
        fs::write(&path, &damaged).unwrap();

        let store = scratch.store(0);
        assert!(!store.contains_atlas("a1"));
        assert!(store.stats().corrupt >= 1);
        assert!(!path.exists());
        assert!(scratch.0.join("quarantine").join("a1.atlas").exists());
        assert!(store.contains_corpus(&digest));
    }

    /// Re-frame a snapshot file as `version`: patch the version field
    /// and reseal the SHA-256 trailer, so the frame is sound but not one
    /// this build reads.
    fn reframe(path: &Path, version: u32) {
        let bytes = fs::read(path).unwrap();
        let mut frame = bytes[..bytes.len() - 32].to_vec();
        frame[snapshot::MAGIC.len()..snapshot::MAGIC.len() + 4]
            .copy_from_slice(&version.to_le_bytes());
        let mut hasher = recipedb::digest::Sha256::new();
        hasher.update(&frame);
        frame.extend_from_slice(&hasher.finalize());
        fs::write(path, &frame).unwrap();
    }

    #[test]
    fn atlas_of_another_version_is_deleted_at_boot_and_corpus_kept() {
        let scratch = Scratch::new();
        let (digest, corpus, atlas) = atlas_and_corpus_bytes();
        {
            let store = scratch.store(0);
            store
                .persist_corpus(&digest, CorpusOrigin::Uploaded, &corpus)
                .unwrap();
            store.persist_atlas("a1", &digest, &atlas).unwrap();
        }
        let atlas_path = scratch.0.join("atlases").join("a1.atlas");
        let corpus_path = scratch.0.join("corpora").join(format!("{digest}.corpus"));
        reframe(&atlas_path, snapshot::ATLAS_VERSION + 1);
        reframe(&corpus_path, snapshot::CORPUS_VERSION + 1);

        let read_only = SnapshotStore::open(StoreConfig {
            read_only: true,
            ..StoreConfig::new(scratch.0.clone())
        })
        .unwrap();
        assert!(!read_only.contains_atlas("a1"));
        assert!(atlas_path.exists(), "a read-only open changes nothing");
        drop(read_only);

        let store = scratch.store(0);
        assert!(
            !atlas_path.exists(),
            "an atlas of another version is rebuildable, so it is deleted"
        );
        assert!(
            corpus_path.exists(),
            "a corpus of another version cannot be rebuilt, so it stays"
        );
        assert!(!store.contains_atlas("a1"));
        assert!(!store.contains_corpus(&digest));
        let stats = store.stats();
        assert_eq!(
            (stats.corrupt, stats.atlas_files, stats.atlas_bytes),
            (0, 0, 0)
        );
        assert_eq!(
            fs::read_dir(scratch.0.join("quarantine")).unwrap().count(),
            0
        );
    }

    #[test]
    fn budget_evicts_lru_atlases_before_corpora() {
        let scratch = Scratch::new();
        let (digest, bytes) = corpus_bytes();
        let store = scratch.store((bytes.len() + 220) as u64);
        store
            .persist_corpus(&digest, CorpusOrigin::Uploaded, &bytes)
            .unwrap();
        // Three 100-byte atlases; budget holds the corpus + two.
        store.persist_atlas("a1", &digest, &[1u8; 100]).unwrap();
        store.persist_atlas("a2", &digest, &[2u8; 100]).unwrap();
        assert!(store.load_atlas("a1").is_some()); // a2 is now LRU
        store.persist_atlas("a3", &digest, &[3u8; 100]).unwrap();

        assert!(store.contains_atlas("a1"));
        assert!(!store.contains_atlas("a2"), "LRU atlas must be evicted");
        assert!(store.contains_atlas("a3"));
        assert!(
            store.contains_corpus(&digest),
            "referenced corpus must stay"
        );
        assert_eq!(store.stats().evictions, 1);
        assert!(store.stats().total_bytes() <= store.stats().max_disk_bytes);
    }

    #[test]
    fn budget_evicts_unreferenced_corpus_last() {
        let scratch = Scratch::new();
        let (digest, bytes) = corpus_bytes();
        let store = scratch.store(0);
        store
            .persist_corpus(&digest, CorpusOrigin::Uploaded, &bytes)
            .unwrap();
        store.persist_atlas("big", &digest, &[0u8; 4096]).unwrap();
        drop(store);

        // Reopen with a budget smaller than anything stored. The bogus
        // atlas bytes fail the boot scan's validation (quarantined, not
        // evicted), which leaves the corpus unreferenced — so the
        // budget may now evict it too.
        let store = SnapshotStore::open(StoreConfig {
            max_disk_bytes: 10,
            ..StoreConfig::new(scratch.0.clone())
        })
        .unwrap();
        assert_eq!(store.stats().atlas_files, 0);
        assert_eq!(store.stats().corpus_files, 0);
        assert_eq!(store.stats().corrupt, 1);
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn boot_scan_lru_seeding_breaks_mtime_ties_on_digest() {
        // Two corpora written with identical mtimes: the eviction order
        // must come from the digest tie-break, not read_dir order.
        let scratch = Scratch::new();
        let (d1, b1) = corpus_bytes_tagged("alpha");
        let (d2, b2) = corpus_bytes_tagged("beta");
        {
            let store = scratch.store(0);
            store
                .persist_corpus(&d1, CorpusOrigin::Uploaded, &b1)
                .unwrap();
            store
                .persist_corpus(&d2, CorpusOrigin::Uploaded, &b2)
                .unwrap();
        }
        let t = SystemTime::UNIX_EPOCH + Duration::from_secs(1_700_000_000);
        for digest in [&d1, &d2] {
            fs::File::options()
                .write(true)
                .open(scratch.0.join("corpora").join(format!("{digest}.corpus")))
                .unwrap()
                .set_modified(t)
                .unwrap();
        }
        // Reopen with a budget that holds exactly one corpus: the
        // lexicographically smaller digest is older in the seeded LRU
        // clock and must be the one evicted — deterministically.
        let survivor = if d1 < d2 { &d2 } else { &d1 };
        let evicted = if d1 < d2 { &d1 } else { &d2 };
        for _ in 0..3 {
            let store = SnapshotStore::open(StoreConfig {
                max_disk_bytes: b1.len().max(b2.len()) as u64,
                ..StoreConfig::new(scratch.0.clone())
            })
            .unwrap();
            assert!(
                store.contains_corpus(survivor),
                "tie-break must keep the larger digest"
            );
            assert!(!store.contains_corpus(evicted));
            drop(store);
            // Re-create the evicted file for the next round.
            let (d, b) = if evicted == &d1 {
                (&d1, &b1)
            } else {
                (&d2, &b2)
            };
            let path = scratch.0.join("corpora").join(format!("{d}.corpus"));
            fs::write(&path, b).unwrap();
            for digest in [&d1, &d2] {
                let p = scratch.0.join("corpora").join(format!("{digest}.corpus"));
                fs::File::options()
                    .write(true)
                    .open(p)
                    .unwrap()
                    .set_modified(t)
                    .unwrap();
            }
        }
    }

    #[test]
    fn read_only_mode_reads_but_never_writes() {
        let scratch = Scratch::new();
        let (digest, bytes) = corpus_bytes();
        let owner = scratch.store(0);
        owner
            .persist_corpus(&digest, CorpusOrigin::Uploaded, &bytes)
            .unwrap();

        // Opens beside the live owner: read-only never takes the lock.
        let store = SnapshotStore::open(StoreConfig {
            read_only: true,
            ..StoreConfig::new(scratch.0.clone())
        })
        .unwrap();
        drop(owner);
        assert!(
            !scratch.0.join(lock::LOCK_FILE).exists(),
            "only the owner ever held the lock"
        );
        assert_eq!(store.load_corpus(&digest).unwrap(), bytes);
        assert!(!store.persist_atlas("x", &digest, b"data").unwrap());
        assert!(!store.contains_atlas("x"));
        assert_eq!(store.stats().writes, 0);
        // A DELETE or TTL purge on a read-only server forgets the
        // corpus but leaves the owner's file alone.
        assert!(store.remove_corpus(&digest));
        assert!(!store.contains_corpus(&digest));
        assert!(scratch
            .0
            .join("corpora")
            .join(format!("{digest}.corpus"))
            .exists());
    }

    #[test]
    fn read_only_boot_scan_never_mutates_the_directory() {
        let scratch = Scratch::new();
        let atlases = scratch.0.join("atlases");
        fs::create_dir_all(&atlases).unwrap();
        fs::write(atlases.join("torn.atlas.tmp"), b"half").unwrap();
        fs::write(atlases.join("bogus.atlas"), b"damaged").unwrap();

        let store = SnapshotStore::open(StoreConfig {
            read_only: true,
            ..StoreConfig::new(scratch.0.clone())
        })
        .unwrap();
        assert!(
            atlases.join("torn.atlas.tmp").exists(),
            "read-only boot must not sweep"
        );
        assert!(
            atlases.join("bogus.atlas").exists(),
            "read-only boot must not quarantine"
        );
        assert_eq!(
            store.stats().corrupt,
            1,
            "damage is still counted, just not moved"
        );
        assert!(!store.contains_atlas("bogus"));
        for dir in ["corpora", "quarantine"] {
            assert!(
                !scratch.0.join(dir).exists(),
                "read-only boot must not create {dir}/"
            );
        }
        assert!(!scratch.0.join(lock::LOCK_FILE).exists());
    }

    #[test]
    fn remove_corpus_and_dependent_atlases() {
        let scratch = Scratch::new();
        let (digest, bytes) = corpus_bytes();
        let store = scratch.store(0);
        store
            .persist_corpus(&digest, CorpusOrigin::Uploaded, &bytes)
            .unwrap();
        store.persist_atlas("a1", &digest, &[1u8; 10]).unwrap();
        store.persist_atlas("a2", &digest, &[2u8; 10]).unwrap();
        store
            .persist_atlas("other", "feedbeef", &[3u8; 10])
            .unwrap();

        let usage = store.disk_usage_for(&digest);
        assert_eq!(usage.corpus_bytes, bytes.len() as u64);
        assert_eq!((usage.atlas_bytes, usage.atlas_count), (20, 2));

        assert_eq!(store.remove_atlases_for_corpus(&digest), 2);
        assert!(store.remove_corpus(&digest));
        assert!(!store.remove_corpus(&digest));
        assert!(store.contains_atlas("other"));
        assert_eq!(store.stats().corpus_files, 0);
        assert_eq!(store.stats().atlas_files, 1);
    }

    #[test]
    fn vanished_file_degrades_to_a_miss_not_an_error() {
        let scratch = Scratch::new();
        let store = scratch.store(0);
        let (digest, bytes) = corpus_bytes();
        store
            .persist_corpus(&digest, CorpusOrigin::Uploaded, &bytes)
            .unwrap();
        fs::remove_file(scratch.0.join("corpora").join(format!("{digest}.corpus"))).unwrap();

        // The load must degrade to a miss — no quarantine, no panic —
        // so the serving layer rebuilds instead of erroring.
        assert!(store.load_corpus(&digest).is_none());
        let stats = store.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.corrupt, 0, "a vanished file is not corruption");
        assert!(
            !store.contains_corpus(&digest),
            "the stale entry was dropped"
        );
        // And it can be persisted again afterwards.
        assert!(store
            .persist_corpus(&digest, CorpusOrigin::Uploaded, &bytes)
            .unwrap());
    }

    // -- ownership -----------------------------------------------------

    #[test]
    fn a_lock_naming_our_own_pid_is_a_previous_incarnations() {
        // A killed server restarted as the same pid (pid 1 in a
        // container restarted on the same volume) finds its own pid in
        // the lock it left behind. That owner is dead: take over.
        let scratch = Scratch::new();
        let boot_id = lock::current_boot_id();
        fs::write(
            scratch.0.join(lock::LOCK_FILE),
            format!(
                "pid={}\nboot_id={boot_id}\nacquired_at_ms=1\n",
                std::process::id()
            ),
        )
        .unwrap();
        let store = scratch.store(0);
        let (digest, bytes) = corpus_bytes();
        assert!(store
            .persist_corpus(&digest, CorpusOrigin::Uploaded, &bytes)
            .unwrap());
        let record = fs::read_to_string(scratch.0.join(lock::LOCK_FILE)).unwrap();
        assert!(
            !record.contains("acquired_at_ms=1\n"),
            "the lock must be freshly ours: {record}"
        );
        // This process now holds the root, so a second open is refused.
        let err = SnapshotStore::open(StoreConfig::new(scratch.0.clone()))
            .expect_err("one owner per data dir");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    // -- fault injection ----------------------------------------------

    #[test]
    fn faulted_persists_error_without_leaving_visible_files() {
        let (digest, bytes) = corpus_bytes();
        for op in [
            FaultOp::Create,
            FaultOp::Write,
            FaultOp::Sync,
            FaultOp::Rename,
        ] {
            let scratch = Scratch::new();
            let store = SnapshotStore::open(StoreConfig {
                faults: FaultPlan::failing(op, 1, io::ErrorKind::Other),
                ..StoreConfig::new(scratch.0.clone())
            })
            .unwrap();
            let err = store
                .persist_corpus(&digest, CorpusOrigin::Uploaded, &bytes)
                .expect_err("injected fault must surface");
            assert_eq!(err.kind(), io::ErrorKind::Other, "{op:?}");
            assert!(
                !store.contains_corpus(&digest),
                "{op:?}: failed persist must not be indexed"
            );
            let visible: Vec<_> = fs::read_dir(scratch.0.join("corpora"))
                .unwrap()
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(CORPUS_EXT))
                .collect();
            assert!(
                visible.is_empty(),
                "{op:?}: no visible snapshot may appear: {visible:?}"
            );
            // The store stays usable: a clean retry succeeds.
            assert!(store
                .persist_corpus(&digest, CorpusOrigin::Uploaded, &bytes)
                .unwrap());
            assert_eq!(store.load_corpus(&digest).unwrap(), bytes);
            assert!(
                scratch.0.join(lock::LOCK_FILE).exists(),
                "{op:?}: the owner lock is held while the store is open"
            );
            drop(store);
            assert!(
                !scratch.0.join(lock::LOCK_FILE).exists(),
                "{op:?}: dropping the store releases the lock"
            );
        }
    }

    #[test]
    fn faulted_eviction_unlink_stops_cleanly() {
        let scratch = Scratch::new();
        let (digest, bytes) = corpus_bytes();
        let store = SnapshotStore::open(StoreConfig {
            max_disk_bytes: (bytes.len() + 120) as u64,
            faults: FaultPlan::failing(FaultOp::Unlink, 1, io::ErrorKind::PermissionDenied),
            ..StoreConfig::new(scratch.0.clone())
        })
        .unwrap();
        store
            .persist_corpus(&digest, CorpusOrigin::Uploaded, &bytes)
            .unwrap();
        store.persist_atlas("a1", &digest, &[1u8; 100]).unwrap();
        // Over budget; the eviction unlink faults. The victim must stay
        // indexed (its file is still on disk) and nothing may loop.
        store.persist_atlas("a2", &digest, &[2u8; 100]).unwrap();
        assert_eq!(store.stats().evictions, 0);
        assert!(store.contains_atlas("a1"));
        assert!(store.load_atlas("a1").is_some());
        // The next budget pass (fault exhausted) evicts normally.
        store.persist_atlas("a3", &digest, &[3u8; 100]).unwrap();
        assert!(store.stats().evictions >= 1);
    }
}
