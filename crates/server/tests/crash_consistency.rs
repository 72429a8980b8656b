//! Crash consistency and data-dir ownership, proven on real processes.
//!
//! These tests spawn actual `atlas-serve` binaries (via
//! `CARGO_BIN_EXE_atlas-serve`) on one `--data-dir`:
//!
//! - **One owner**: while a writing server lives, a second writer on its
//!   dir exits non-zero naming `store.lock` and the owner's pid, and the
//!   owner keeps serving.
//! - **Read-only beside the owner**: a `--no-persist` server takes no
//!   lock, starts beside the owner and serves the snapshots its boot
//!   scan found byte-identically with `atlas_builds_total 0`.
//! - **SIGKILL mid-persist**: a writer is stalled inside the atlas
//!   payload write (`ATLAS_STORE_FAULT=write:2:stall`) and killed with
//!   SIGKILL. A survivor started after the kill takes the dead owner's
//!   lock over, sweeps the torn `.tmp` and rebuilds exactly once, and a
//!   fresh restart boots warm and serves byte-identical bodies.
//!
//! The workload is a tiny uploaded corpus (content-addressed, so every
//! process computes the same digest), keeping each cold build to
//! milliseconds — the tests probe crash consistency, not build speed.
//!
//! Set `ATLAS_TEST_THREADS` to vary worker counts (default 4); CI runs
//! this under 2 and 8 threads alongside the persistence suite.

use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use recipedb::io;
use recipedb::store::RecipeDbBuilder;
use recipedb::Cuisine;

/// Ceiling for any single HTTP exchange or stall-poll on a loaded CI
/// runner (the tiny-corpus builds themselves are near-instant).
const DEADLINE: Duration = Duration::from_secs(120);

fn workers() -> usize {
    std::env::var("ATLAS_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 2)
        .unwrap_or(4)
}

/// A small three-cuisine corpus as upload-ready JSON. Every process
/// that uploads it derives the same digest, which is what lets the
/// harness address one shared atlas across processes.
fn tiny_corpus_json() -> String {
    let mut b = RecipeDbBuilder::new();
    let ings: Vec<_> = (0..6)
        .map(|i| b.catalog_mut().intern_ingredient(&format!("crash-ing-{i}")))
        .collect();
    let procs: Vec<_> = (0..3)
        .map(|i| b.catalog_mut().intern_process(&format!("crash-proc-{i}")))
        .collect();
    for (ci, &cuisine) in Cuisine::ALL[..3].iter().enumerate() {
        for r in 0..4 {
            b.add_recipe(
                format!("crash-r{ci}-{r}"),
                cuisine,
                vec![ings[ci], ings[(ci + r) % 6], ings[5 - ci]],
                vec![procs[(ci + r) % 3]],
                vec![],
            );
        }
    }
    io::to_json(&b.build().expect("valid corpus")).expect("serializable corpus")
}

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "atlas-crash-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A live `atlas-serve` child process. Killed (hard) on drop so a
/// failing test never leaks servers.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// `atlas-serve --data-dir <dir>` on an ephemeral port plus `args`,
    /// optionally with a fault-injection spec in `ATLAS_STORE_FAULT`.
    fn command(data_dir: &Path, fault: Option<&str>, args: &[&str]) -> Command {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_atlas-serve"));
        cmd.arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--data-dir")
            .arg(data_dir)
            .arg("--workers")
            .arg(workers().to_string())
            .args(args);
        match fault {
            Some(spec) => cmd.env("ATLAS_STORE_FAULT", spec),
            None => cmd.env_remove("ATLAS_STORE_FAULT"),
        };
        cmd
    }

    /// Spawn a server (see [`Server::command`]) and wait for its
    /// "listening on" banner.
    fn spawn(data_dir: &Path, fault: Option<&str>, args: &[&str]) -> Server {
        let mut child = Server::command(data_dir, fault, args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn atlas-serve");

        // The banner reader lives in a thread so a wedged child can't
        // hang the test past its deadline.
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            while let Some(Ok(line)) = lines.next() {
                let done = line.contains("listening on http://");
                if tx.send(line).is_err() || done {
                    break;
                }
            }
            // Keep draining so the child never blocks on a full pipe.
            for _ in lines {}
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(line) => {
                    if let Some(rest) = line.split("listening on http://").nth(1) {
                        break rest.split_whitespace().next().unwrap().to_string();
                    }
                }
                Err(_) => panic!("atlas-serve never printed its listening banner"),
            }
        };
        Server { child, addr }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL the child and reap it — reaping matters: it removes the
    /// `/proc/<pid>` entry, which is what lets the next server judge
    /// the dead owner's lock stale.
    fn kill9(mut self) {
        self.child.kill().expect("SIGKILL");
        self.child.wait().expect("reap");
        // Disarm the Drop kill on the already-reaped child.
        std::mem::forget(self);
    }

    fn get(&self, path: &str) -> (u16, Vec<u8>) {
        http_exchange(&self.addr, &format!("GET {path} HTTP/1.1"), &[])
    }

    fn get_ok(&self, path: &str) -> Vec<u8> {
        let (status, body) = self.get(path);
        assert_eq!(
            status,
            200,
            "GET {path} -> {status}: {}",
            String::from_utf8_lossy(&body)
        );
        body
    }

    /// Upload a corpus, returning its digest from the response.
    fn upload(&self, json: &str) -> String {
        let (status, body) = http_exchange(&self.addr, "POST /corpus HTTP/1.1", json.as_bytes());
        let text = String::from_utf8(body).unwrap();
        assert_eq!(status, 200, "POST /corpus -> {status}: {text}");
        let v: serde_json::Value = serde_json::from_str(&text).expect("upload response is JSON");
        v["corpus"]
            .as_str()
            .expect("digest in response")
            .to_string()
    }

    fn metrics(&self) -> String {
        String::from_utf8(self.get_ok("/metrics")).unwrap()
    }

    /// Send a request and deliberately never read the response; returns
    /// the open stream so the connection (and the handler working on
    /// it) stays alive. This is how a stalled persist is triggered
    /// without blocking the test.
    fn fire_and_forget(&self, path: &str) -> TcpStream {
        let mut stream = TcpStream::connect(&self.addr).expect("connect");
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n\r\n",
            self.addr
        )
        .expect("send request");
        stream.flush().expect("flush request");
        stream
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Minimal HTTP/1.1 exchange over a raw socket (`Connection: close`,
/// read to EOF, split at the header/body boundary).
fn http_exchange(addr: &str, request_line: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(DEADLINE))
        .expect("read timeout");
    write!(
        stream,
        "{request_line}\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .expect("send headers");
    stream.write_all(body).expect("send body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header/body boundary");
    let head = String::from_utf8_lossy(&raw[..header_end]);
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, raw[header_end + 4..].to_vec())
}

/// Value of a bare `name value` Prometheus line.
fn metric(text: &str, name: &str) -> u64 {
    let prefix = format!("{name} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("metric {name} not an integer: {e}"))
}

/// The pid recorded in the data dir's `store.lock`.
fn lock_pid(data_dir: &Path) -> u32 {
    let record = std::fs::read_to_string(data_dir.join("store.lock")).expect("store.lock exists");
    record
        .lines()
        .find_map(|l| l.strip_prefix("pid="))
        .and_then(|p| p.trim().parse().ok())
        .unwrap_or_else(|| panic!("no pid in store.lock: {record:?}"))
}

fn files_with_ext(root: &Path, ext: &str) -> Vec<PathBuf> {
    std::fs::read_dir(root)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some(ext))
        .collect()
}

/// A second writer on a live owner's data dir exits non-zero at once,
/// naming the lock file and the owner's pid; the owner keeps serving.
#[test]
fn a_second_writer_is_refused_while_the_owner_serves() {
    let scratch = Scratch::new("owner");
    let owner = Server::spawn(&scratch.0, None, &[]);
    let digest = owner.upload(&tiny_corpus_json());
    let path = format!("/table1?seed=907&corpus={digest}");
    let body = owner.get_ok(&path);

    let mut second = Server::command(&scratch.0, None, &[])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn atlas-serve");
    let deadline = Instant::now() + DEADLINE;
    let status = loop {
        if let Some(status) = second.try_wait().expect("poll the second writer") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = second.kill();
            let _ = second.wait();
            panic!("a second writer must be refused at once, not wait");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    second
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert!(!status.success(), "the second writer must fail: {stderr}");
    assert!(
        stderr.contains("store.lock") && stderr.contains(&owner.pid().to_string()),
        "the refusal names the lock and its holder: {stderr}"
    );

    assert_eq!(
        lock_pid(&scratch.0),
        owner.pid(),
        "the owner keeps its lock"
    );
    assert_eq!(owner.get_ok(&path), body, "the owner keeps serving");
    assert_eq!(metric(&owner.metrics(), "atlas_builds_total"), 1);
}

/// A `--no-persist` server takes no lock, so it starts beside the live
/// owner and serves the snapshots its boot scan found, byte-identically
/// and without building.
#[test]
fn a_read_only_server_serves_the_owners_snapshots_beside_it() {
    let scratch = Scratch::new("readonly");
    let owner = Server::spawn(&scratch.0, None, &[]);
    let digest = owner.upload(&tiny_corpus_json());
    let path = format!("/table1?seed=907&corpus={digest}");
    let body = owner.get_ok(&path);
    assert!(
        metric(&owner.metrics(), "atlas_store_snapshot_writes_total") >= 2,
        "corpus + atlas written through"
    );

    let reader = Server::spawn(&scratch.0, None, &["--no-persist"]);
    assert_eq!(reader.get_ok(&path), body, "byte-identical from disk");
    let mr = reader.metrics();
    assert_eq!(
        metric(&mr, "atlas_builds_total"),
        0,
        "served from the owner's snapshots: {mr}"
    );
    assert_eq!(metric(&mr, "atlas_store_snapshot_writes_total"), 0);
    assert!(metric(&mr, "atlas_store_snapshot_hits_total") >= 1);
    assert_eq!(
        lock_pid(&scratch.0),
        owner.pid(),
        "the lock stays the owner's"
    );
}

/// SIGKILL a writer stalled mid-persist: no torn visible snapshot may
/// ever appear; a survivor started after the kill takes the dead
/// owner's lock over, sweeps the torn `.tmp` and rebuilds exactly once;
/// and a fresh restart boots warm off the survivor's snapshot.
#[test]
fn sigkill_mid_persist_never_tears_a_visible_snapshot() {
    let scratch = Scratch::new("sigkill");
    // Store writes in this workload: the corpus payload persists at
    // upload time (write #1), the atlas payload on the first atlas GET
    // (write #2). Stalling #2 wedges the writer inside the atlas tmp
    // write — after the corpus committed, before the commit rename.
    let writer = Server::spawn(&scratch.0, Some("write:2:stall"), &[]);

    let corpus = tiny_corpus_json();
    let digest = writer.upload(&corpus);
    let path = format!("/table1?seed=907&corpus={digest}");
    let _pending = writer.fire_and_forget(&path);

    // Wait until the writer is provably inside the stalled atlas write:
    // its tmp file exists in atlases/.
    let atlases = scratch.0.join("atlases");
    let deadline = Instant::now() + DEADLINE;
    while files_with_ext(&atlases, "tmp").is_empty() {
        assert!(
            Instant::now() < deadline,
            "writer never reached the stalled atlas write"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        files_with_ext(&scratch.0.join("corpora"), "corpus").len(),
        1,
        "the corpus write (fault #1 untouched) must have committed"
    );
    assert!(
        files_with_ext(&atlases, "atlas").is_empty(),
        "no visible atlas may exist before the stalled rename"
    );

    let writer_pid = writer.pid();
    writer.kill9();
    assert_eq!(
        lock_pid(&scratch.0),
        writer_pid,
        "the dead writer left its lock behind"
    );
    assert!(
        files_with_ext(&atlases, "atlas").is_empty(),
        "SIGKILL mid-write must not produce a visible atlas"
    );

    // The survivor starts on the dead owner's dir: it takes the lock
    // over, sweeps the torn tmp at boot, restores the committed corpus
    // and rebuilds exactly the one atlas the kill destroyed.
    let survivor = Server::spawn(&scratch.0, None, &[]);
    assert_eq!(
        lock_pid(&scratch.0),
        survivor.pid(),
        "the survivor took the dead owner's lock over"
    );
    assert!(
        files_with_ext(&atlases, "tmp").is_empty(),
        "the dead writer's torn tmp is swept at boot"
    );
    assert_eq!(survivor.upload(&corpus), digest);
    let body_survivor = survivor.get_ok(&path);
    let ms = survivor.metrics();
    assert_eq!(
        metric(&ms, "atlas_builds_total"),
        1,
        "exactly the one rebuild the kill forced: {ms}"
    );
    assert_eq!(
        metric(&ms, "atlas_store_snapshot_corrupt_total"),
        0,
        "crash residue is tmp-swept, never quarantined as corruption: {ms}"
    );
    assert_eq!(
        files_with_ext(&atlases, "atlas").len(),
        1,
        "the survivor's persist went through"
    );
    survivor.kill9();

    // A fresh process boots warm off the survivor's snapshot: nothing
    // rebuilds, bodies stay byte-identical.
    let restarted = Server::spawn(&scratch.0, None, &[]);
    let body_restarted = restarted.get_ok(&path);
    assert_eq!(
        body_survivor, body_restarted,
        "restart must serve byte-identical bodies"
    );
    let mr = restarted.metrics();
    assert_eq!(
        metric(&mr, "atlas_builds_total"),
        0,
        "the restart boots warm: {mr}"
    );
    assert_eq!(metric(&mr, "atlas_store_snapshot_corrupt_total"), 0);
}
