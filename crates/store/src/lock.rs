//! The snapshot store's owner lock.
//!
//! One `atlas-serve` process owns a `--data-dir` at a time. A read-write
//! [`SnapshotStore`](crate::SnapshotStore) takes the lock when it opens
//! and holds it until it is dropped, so no mutation ever races another
//! process's: the owner's index *is* the directory's state. The lock is
//! a `store.lock` file in the store root, created with `O_CREAT|O_EXCL`
//! semantics (`OpenOptions::create_new`) — the one atomic "create if
//! absent" primitive std exposes on every platform without vendoring
//! libc for `flock(2)`. Read-only stores never create it.
//!
//! The lock file records its owner — `{pid, boot_id, acquired_at}` — so
//! the lock a killed owner left behind is taken over at the next open.
//! `atlas-serve` never exits cleanly (it is killed), so takeover is the
//! normal restart path. An owner is stale when it ran under another
//! boot (its pid means nothing now), when its pid is dead, or when its
//! pid is our own but this process does not hold the root (a restarted
//! container's pid 1 gets pid 1 again). A record that cannot be parsed
//! (a crash between creating the file and writing it) is stale once
//! older than a 1 s grace period. Breaking renames the lock file
//! aside before unlinking it, so when two processes break the same
//! stale lock exactly one rename wins, and a freshly re-created lock is
//! never unlinked by a slow breaker. A live owner makes the open fail
//! at once; nothing waits or polls.

use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// The lock file's name inside the store root.
pub(crate) const LOCK_FILE: &str = "store.lock";

/// A lock file that cannot be parsed (a crash between creating it and
/// writing the owner record) is treated as stale once older than this.
const UNPARSABLE_GRACE: Duration = Duration::from_secs(1);

/// Canonical roots whose lock this process holds. It is what tells a
/// record naming our own pid apart from our own live lock, and it
/// refuses a second open of a root within one process.
static HELD: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

/// The owner record inside a lock file.
#[derive(Debug, PartialEq, Eq)]
struct LockOwner {
    pid: u32,
    /// `"unknown"` where the platform offers no boot id.
    boot_id: String,
    /// When the lock was acquired, in Unix milliseconds.
    acquired_at_ms: u64,
}

impl LockOwner {
    fn current() -> LockOwner {
        LockOwner {
            pid: std::process::id(),
            boot_id: current_boot_id(),
            acquired_at_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
        }
    }

    fn render(&self) -> String {
        format!(
            "pid={}\nboot_id={}\nacquired_at_ms={}\n",
            self.pid, self.boot_id, self.acquired_at_ms
        )
    }

    fn parse(text: &str) -> Option<LockOwner> {
        let mut pid = None;
        let mut boot_id = None;
        let mut acquired_at_ms = None;
        for line in text.lines() {
            match line.split_once('=') {
                Some(("pid", v)) => pid = v.trim().parse().ok(),
                Some(("boot_id", v)) => boot_id = Some(v.trim().to_string()),
                Some(("acquired_at_ms", v)) => acquired_at_ms = v.trim().parse().ok(),
                _ => {}
            }
        }
        Some(LockOwner {
            pid: pid?,
            boot_id: boot_id?,
            acquired_at_ms: acquired_at_ms?,
        })
    }

    /// Whether this owner can no longer be holding the lock: it ran
    /// under a previous boot, its pid is dead, or its pid is ours —
    /// callers check [`HELD`] first, so an own-pid record is a previous
    /// incarnation's.
    fn is_stale(&self) -> bool {
        let boot = current_boot_id();
        if self.boot_id != "unknown" && boot != "unknown" && self.boot_id != boot {
            return true;
        }
        self.pid == std::process::id() || !pid_alive(self.pid)
    }
}

/// The store's owner lock; the lock file is unlinked when it drops.
#[derive(Debug)]
pub(crate) struct StoreLock {
    path: PathBuf,
    root: PathBuf,
}

impl StoreLock {
    /// Take the lock on the store rooted at `root` (which must exist),
    /// breaking a stale owner's. A live owner — another process, or
    /// this one through an earlier open of the same root — fails at
    /// once with `WouldBlock`, naming the lock file and the holder's pid.
    pub(crate) fn acquire(root: &Path) -> io::Result<StoreLock> {
        let path = root.join(LOCK_FILE);
        let root = fs::canonicalize(root)?;
        let mut held = HELD.lock().unwrap_or_else(PoisonError::into_inner);
        if held.contains(&root) {
            return Err(held_by(&path, &std::process::id().to_string()));
        }
        loop {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    // The owner record is best-effort and never fsynced:
                    // an unwritten lock file still excludes, and ages
                    // into "unparsable ⇒ stale" if we die here; after a
                    // machine crash the boot id changes anyway.
                    let _ = file.write_all(LockOwner::current().render().as_bytes());
                    held.push(root.clone());
                    return Ok(StoreLock { path, root });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => break_if_stale(&path)?,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        // Unlink before leaving `HELD`, under its mutex: an open of the
        // same root in this process must not judge our file stale and
        // have it unlinked under its own new lock.
        let mut held = HELD.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = fs::remove_file(&self.path);
        held.retain(|r| r != &self.root);
    }
}

fn held_by(path: &Path, holder: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::WouldBlock,
        format!(
            "store lock {} is held by pid {holder}: another atlas-serve owns this data dir",
            path.display()
        ),
    )
}

/// Break the lock file at `path` if its owner is stale. `Ok` means
/// retry the create (the lock was broken, vanished, or changed hands);
/// a live owner is a `WouldBlock` error.
fn break_if_stale(path: &Path) -> io::Result<()> {
    let raw = match fs::read(path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let owner = LockOwner::parse(&String::from_utf8_lossy(&raw));
    let stale = match &owner {
        Some(owner) => owner.is_stale(),
        // No readable owner record: stale only once old enough that a
        // crash mid-create (not a racing opener) explains it.
        None => fs::metadata(path)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|m| SystemTime::now().duration_since(m).ok())
            .is_some_and(|age| age > UNPARSABLE_GRACE),
    };
    if !stale {
        let holder = owner.map_or("unknown (record not yet written)".to_string(), |o| {
            o.pid.to_string()
        });
        return Err(held_by(path, &holder));
    }
    // Re-read: if the file changed since we judged it stale, the lock
    // changed hands and our verdict is void.
    if fs::read(path).ok().as_ref() != Some(&raw) {
        return Ok(());
    }
    // Of N processes breaking the same stale lock, exactly one rename
    // succeeds; the others see it vanish and retry the create.
    let grave = path.with_file_name(format!("{LOCK_FILE}.stale.{}", std::process::id()));
    match fs::rename(path, &grave) {
        Ok(()) => {
            let _ = fs::remove_file(&grave);
            Ok(())
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// Whether a pid currently exists. On Linux this is a `/proc` probe —
/// no syscall wrapper, no libc. Elsewhere pids are conservatively
/// assumed alive (locks there go stale only via boot-id mismatch, our
/// own pid, or an unparsable record), trading liveness for never
/// breaking a live lock.
#[cfg(target_os = "linux")]
fn pid_alive(pid: u32) -> bool {
    Path::new("/proc").join(pid.to_string()).exists()
}

#[cfg(not(target_os = "linux"))]
fn pid_alive(_pid: u32) -> bool {
    true
}

/// The machine's boot id, so pids recorded before a reboot are never
/// mistaken for live processes that happen to share the number.
pub(crate) fn current_boot_id() -> String {
    fs::read_to_string("/proc/sys/kernel/random/boot_id")
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    struct Scratch(PathBuf);

    impl Scratch {
        fn new() -> Scratch {
            let dir = std::env::temp_dir().join(format!(
                "atlas-lock-test-{}-{}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }

        fn lock_path(&self) -> PathBuf {
            self.0.join(LOCK_FILE)
        }

        fn write_owner(&self, pid: u32, boot_id: &str) {
            let owner = LockOwner {
                pid,
                boot_id: boot_id.to_string(),
                acquired_at_ms: 1,
            };
            fs::write(self.lock_path(), owner.render()).unwrap();
        }

        fn owner(&self) -> LockOwner {
            LockOwner::parse(&fs::read_to_string(self.lock_path()).unwrap()).unwrap()
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    /// A pid that is guaranteed dead: a just-reaped child's.
    fn dead_pid() -> u32 {
        let mut child = std::process::Command::new("true")
            .spawn()
            .expect("spawn true");
        let pid = child.id();
        child.wait().expect("reap");
        pid
    }

    #[test]
    fn acquire_creates_the_lock_file_and_release_removes_it() {
        let scratch = Scratch::new();
        {
            let _lock = StoreLock::acquire(&scratch.0).unwrap();
            let owner = scratch.owner();
            assert_eq!(owner.pid, std::process::id());
            assert!(owner.acquired_at_ms > 0);
        }
        assert!(!scratch.lock_path().exists(), "drop must unlink the lock");
        // Released means re-acquirable within the same process.
        drop(StoreLock::acquire(&scratch.0).unwrap());
    }

    #[test]
    fn live_holder_is_refused_at_once() {
        let scratch = Scratch::new();
        // A long-lived child stands in for another owner process.
        let mut child = std::process::Command::new("sleep")
            .arg("30")
            .spawn()
            .unwrap();
        scratch.write_owner(child.id(), &current_boot_id());
        let err = StoreLock::acquire(&scratch.0).expect_err("a live owner holds");
        child.kill().unwrap();
        child.wait().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        let text = err.to_string();
        assert!(text.contains(LOCK_FILE), "names the lock file: {text}");
        assert!(
            text.contains(&child.id().to_string()),
            "names the holder: {text}"
        );
        assert_eq!(
            scratch.owner().pid,
            child.id(),
            "a live lock is never broken"
        );
    }

    #[test]
    fn a_second_open_in_the_same_process_is_refused() {
        let scratch = Scratch::new();
        let _lock = StoreLock::acquire(&scratch.0).unwrap();
        let err = StoreLock::acquire(&scratch.0).expect_err("the root is held");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(scratch.lock_path().exists(), "the held lock must survive");
    }

    #[test]
    fn dead_pid_locks_are_taken_over() {
        let scratch = Scratch::new();
        scratch.write_owner(dead_pid(), &current_boot_id());
        let _lock = StoreLock::acquire(&scratch.0).expect("stale lock must be broken");
        assert_eq!(scratch.owner().pid, std::process::id());
    }

    #[test]
    fn previous_boot_locks_are_stale_even_with_a_live_pid() {
        let scratch = Scratch::new();
        let mut child = std::process::Command::new("sleep")
            .arg("30")
            .spawn()
            .unwrap();
        // Alive — but from "another boot".
        scratch.write_owner(child.id(), "not-this-boot");
        let taken = StoreLock::acquire(&scratch.0);
        child.kill().unwrap();
        child.wait().unwrap();
        if current_boot_id() == "unknown" {
            return; // platform without boot ids: rule can't apply
        }
        let _lock = taken.expect("cross-boot lock must be broken");
        assert_eq!(scratch.owner().pid, std::process::id());
    }

    #[test]
    fn unparsable_lock_files_break_only_after_the_grace_period() {
        let scratch = Scratch::new();
        fs::write(scratch.lock_path(), b"garbage").unwrap();
        // Fresh garbage could be a racing opener mid-create: refuse.
        let err = StoreLock::acquire(&scratch.0).expect_err("fresh unparsable file holds");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        // Age the file past the grace period; now it is a crash residue.
        let old = SystemTime::now() - (UNPARSABLE_GRACE + Duration::from_secs(1));
        fs::File::options()
            .write(true)
            .open(scratch.lock_path())
            .unwrap()
            .set_modified(old)
            .unwrap();
        let _lock = StoreLock::acquire(&scratch.0).expect("aged unparsable file is stale");
        assert_eq!(scratch.owner().pid, std::process::id());
    }

    #[test]
    fn owner_record_round_trips() {
        let owner = LockOwner {
            pid: 4242,
            boot_id: "b00t-1d".to_string(),
            acquired_at_ms: 1_700_000_000_000,
        };
        assert_eq!(LockOwner::parse(&owner.render()), Some(owner));
        assert_eq!(LockOwner::parse(""), None);
        assert_eq!(
            LockOwner::parse("pid=nope\nboot_id=x\nacquired_at_ms=1"),
            None
        );
    }
}
