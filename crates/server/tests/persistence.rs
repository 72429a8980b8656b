//! The snapshot store, end to end over live sockets.
//!
//! The core correctness pin: a server restarted onto the same
//! `--data-dir` serves **byte-identical** bodies on every atlas-backed
//! endpoint. An uploaded corpus's atlases come back with **zero
//! rebuilds**; the implicit synthetic corpus's atlases are rebuilt, one
//! build per key, and never touch the store. Both are verified through
//! the public `/metrics` and `/health` surfaces. Plus: corrupted
//! snapshots degrade to a rebuild (never an error response) with the
//! corruption counted, an atlas file of another layout version is
//! rebuilt without being counted, torn `.tmp` files are swept at boot,
//! `DELETE /corpus/{digest}` removes memory and disk together,
//! `--corpus-ttl-secs` expires uploads, and `--prewarm corpus=<digest>`
//! warms a restored corpus from disk.
//!
//! Set `ATLAS_TEST_THREADS` to vary the parallel side (default 4); CI
//! runs this under 2 and 8 threads.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use atlas_server::handle::{self, PrewarmSpec};
use atlas_server::{ServerConfig, ServerHandle};
use cuisine_atlas::pipeline::AtlasConfig;
use cuisine_atlas::snapshot;
use recipedb::digest::Sha256;
use recipedb::generator::CorpusGenerator;
use recipedb::io;

/// A seed no other test shares, so every server does its own cold build.
const SEED: u64 = 641;

fn parallel_threads() -> usize {
    std::env::var("ATLAS_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 2)
        .unwrap_or(4)
}

/// A fresh per-test data dir under the system temp dir; unique across
/// concurrent test processes and across tests within one process.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "atlas-persistence-{tag}-{}-{}",
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

fn start(config: ServerConfig) -> ServerHandle {
    ServerHandle::start(config).expect("bind ephemeral port")
}

fn persistent_config(dir: &Scratch) -> ServerConfig {
    ServerConfig {
        data_dir: Some(dir.0.clone()),
        cache_capacity: 8,
        ..ServerConfig::default()
    }
}

fn get_ok(server: &ServerHandle, path: &str) -> Vec<u8> {
    let (status, body) = server.get(path).expect("request succeeds");
    assert_eq!(
        status,
        200,
        "GET {path} -> {status}: {}",
        String::from_utf8_lossy(&body)
    );
    body
}

fn health_json(server: &ServerHandle) -> serde_json::Value {
    let body = get_ok(server, "/health");
    serde_json::from_str(&String::from_utf8(body).unwrap()).expect("health is JSON")
}

fn metrics_text(server: &ServerHandle) -> String {
    String::from_utf8(get_ok(server, "/metrics")).unwrap()
}

/// Upload a corpus and return its digest id from the response.
fn upload(server: &ServerHandle, json: &str) -> String {
    let (status, body) = server
        .post("/corpus", json.as_bytes())
        .expect("POST /corpus");
    let text = String::from_utf8(body).unwrap();
    assert_eq!(status, 200, "POST /corpus -> {status}: {text}");
    let v: serde_json::Value = serde_json::from_str(&text).expect("upload response is JSON");
    v["corpus"]
        .as_str()
        .expect("digest in response")
        .to_string()
}

/// The corpus the server itself would generate for `AtlasConfig::quick(SEED)`,
/// as upload-ready JSON.
fn synthetic_corpus_json() -> String {
    io::to_json(&CorpusGenerator::new(AtlasConfig::quick(SEED).corpus).generate()).unwrap()
}

/// The endpoint set the CI warm-restart smoke job pins: the paper table,
/// every tree, the elbow sweep, a fingerprint (whose authenticity matrix
/// a restored atlas builds lazily) and the geography comparison.
fn atlas_endpoints() -> Vec<String> {
    vec![
        format!("/table1?seed={SEED}"),
        format!("/tree/pattern/euclidean?seed={SEED}"),
        format!("/tree/pattern/cosine?seed={SEED}"),
        format!("/tree/pattern/jaccard?seed={SEED}"),
        format!("/tree/authenticity?seed={SEED}"),
        format!("/tree/geo?seed={SEED}"),
        format!("/elbow?seed={SEED}&k_max=6"),
        format!("/fingerprint/Japanese?k=5&seed={SEED}"),
        format!("/compare?seed={SEED}"),
    ]
}

/// The store's files on disk, by extension, anywhere under the root.
fn files_with_ext(root: &std::path::Path, ext: &str) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().and_then(|e| e.to_str()) == Some(ext) {
                found.push(path);
            }
        }
    }
    found
}

/// The warm-restart differential: a second server on the same data dir
/// serves the same bytes as the first, at build_threads 1 and N. The
/// uploaded corpus's atlas comes from disk without building anything;
/// the implicit corpus's atlas is rebuilt once.
#[test]
fn warm_restart_serves_identical_bytes_with_zero_rebuilds() {
    let corpus_json = synthetic_corpus_json();
    for build_threads in [1, parallel_threads()] {
        let scratch = Scratch::new("restart");
        let cold = start(ServerConfig {
            build_threads,
            ..persistent_config(&scratch)
        });
        let digest = upload(&cold, &corpus_json);
        let mut uploaded = Vec::new();
        let mut implicit = Vec::new();
        for path in atlas_endpoints() {
            implicit.push((path.clone(), get_ok(&cold, &path)));
            let corpus_path = format!("{path}&corpus={digest}");
            uploaded.push((corpus_path.clone(), get_ok(&cold, &corpus_path)));
        }
        assert_eq!(cold.build_count(), 2, "one cold build per corpus variant");
        let health = health_json(&cold);
        assert_eq!(
            health["store"]["snapshot_writes"].as_f64(),
            Some(2.0),
            "the upload and its atlas written through, nothing generated: {health}"
        );
        cold.shutdown();

        let warm = start(ServerConfig {
            build_threads,
            ..persistent_config(&scratch)
        });
        let serves_cold_bytes = |expected: &[(String, Vec<u8>)]| {
            for (path, body) in expected {
                assert_eq!(
                    &get_ok(&warm, path),
                    body,
                    "GET {path}: warm restart must serve the cold server's bytes \
                     (build_threads={build_threads})"
                );
            }
        };
        serves_cold_bytes(&uploaded);
        assert_eq!(
            warm.build_count(),
            0,
            "a warm restart serves the upload from disk"
        );
        let metrics = metrics_text(&warm);
        let builds_line = metrics
            .lines()
            .find(|l| l.starts_with("atlas_builds_total "))
            .expect("build counter in /metrics");
        assert_eq!(
            builds_line, "atlas_builds_total 0",
            "/metrics must agree that nothing was built"
        );
        let health = health_json(&warm);
        assert_eq!(health["builds"].as_f64(), Some(0.0), "{health}");
        assert_eq!(
            health["store"]["snapshot_hits"].as_f64(),
            Some(2.0),
            "the upload's corpus and atlas came from disk: {health}"
        );
        serves_cold_bytes(&implicit);
        assert_eq!(
            warm.build_count(),
            1,
            "the generated atlas is rebuilt once, not restored"
        );
        // The uploaded corpus survived the restart into the registry.
        let corpora = health["corpora"].as_array().unwrap();
        assert_eq!(corpora.len(), 1, "{health}");
        assert_eq!(corpora[0]["corpus"].as_str(), Some(digest.as_str()));
        warm.shutdown();
    }
}

/// A snapshot damaged on disk degrades to a rebuild — the endpoint
/// still serves the same bytes — and the corruption is quarantined and
/// counted on the public surfaces.
#[test]
fn corrupted_snapshot_falls_back_to_rebuild() {
    let scratch = Scratch::new("corrupt");
    let cold = start(persistent_config(&scratch));
    let digest = upload(&cold, &synthetic_corpus_json());
    let path = format!("/table1?corpus={digest}");
    let body = get_ok(&cold, &path);
    assert_eq!(cold.build_count(), 1);
    cold.shutdown();

    // Flip one byte in the middle of the stored atlas snapshot.
    let atlases = files_with_ext(&scratch.0.join("atlases"), "atlas");
    assert_eq!(atlases.len(), 1, "exactly one atlas snapshot: {atlases:?}");
    let mut bytes = std::fs::read(&atlases[0]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&atlases[0], &bytes).unwrap();

    let warm = start(persistent_config(&scratch));
    assert_eq!(
        get_ok(&warm, &path),
        body,
        "a damaged snapshot must fall back to an identical rebuild"
    );
    assert_eq!(warm.build_count(), 1, "the fallback is a real rebuild");
    let health = health_json(&warm);
    assert!(
        health["store"]["snapshot_corrupt"].as_f64().unwrap() >= 1.0,
        "corruption must be counted: {health}"
    );
    let metrics = metrics_text(&warm);
    let corrupt_line = metrics
        .lines()
        .find(|l| l.starts_with("atlas_store_snapshot_corrupt_total "))
        .expect("corrupt counter in /metrics");
    assert_ne!(corrupt_line, "atlas_store_snapshot_corrupt_total 0");
    // The damaged file went to quarantine, and the rebuild re-persisted
    // a fresh snapshot in its place.
    assert_eq!(
        files_with_ext(&scratch.0.join("quarantine"), "atlas").len(),
        1
    );
    assert_eq!(files_with_ext(&scratch.0.join("atlases"), "atlas").len(), 1);
    warm.shutdown();
}

/// An atlas file of another atlas layout version — what a data dir
/// written before a layout change holds — is a miss, not damage: the
/// store deletes it when it opens, the atlas is rebuilt once and written
/// anew under the same name, nothing is quarantined, the
/// next restart is warm, and the uploaded corpus beside it (whose frame
/// version did not move) still restores.
#[test]
fn atlas_of_another_version_is_rebuilt_and_overwritten() {
    let scratch = Scratch::new("version");
    let cold = start(persistent_config(&scratch));
    let digest = upload(&cold, &synthetic_corpus_json());
    let path = format!("/fingerprint/Japanese?k=5&corpus={digest}");
    let body = get_ok(&cold, &path);
    cold.shutdown();

    // Re-frame the stored atlas as version 2, the layout that still
    // carried build timings: patch the version field and reseal the
    // SHA-256 trailer, so the frame is sound but not one this build
    // reads.
    let atlases = files_with_ext(&scratch.0.join("atlases"), "atlas");
    assert_eq!(atlases.len(), 1, "{atlases:?}");
    let version_at = snapshot::MAGIC.len()..snapshot::MAGIC.len() + 4;
    let stored = std::fs::read(&atlases[0]).unwrap();
    let mut old = stored[..stored.len() - 32].to_vec();
    assert_ne!(snapshot::ATLAS_VERSION, 2);
    old[version_at.clone()].copy_from_slice(&2u32.to_le_bytes());
    let mut hasher = Sha256::new();
    hasher.update(&old);
    old.extend_from_slice(&hasher.finalize());
    std::fs::write(&atlases[0], &old).unwrap();

    let rebuilt = start(persistent_config(&scratch));
    assert_eq!(
        get_ok(&rebuilt, &path),
        body,
        "the uploaded corpus resolves"
    );
    assert_eq!(
        rebuilt.build_count(),
        1,
        "the old-version atlas is rebuilt once"
    );
    let health = health_json(&rebuilt);
    assert_eq!(
        health["store"]["snapshot_corrupt"].as_f64(),
        Some(0.0),
        "another version is not corruption: {health}"
    );
    assert!(files_with_ext(&scratch.0.join("quarantine"), "atlas").is_empty());
    let rewritten = std::fs::read(&atlases[0]).unwrap();
    assert_eq!(
        rewritten[version_at],
        snapshot::ATLAS_VERSION.to_le_bytes(),
        "the rebuild writes the current version"
    );
    rebuilt.shutdown();

    let warm = start(persistent_config(&scratch));
    assert_eq!(get_ok(&warm, &path), body);
    assert_eq!(warm.build_count(), 0, "the next restart is warm");
    warm.shutdown();
}

/// A `.tmp` file left behind by a crash mid-persist is swept at boot
/// and never shadows a real snapshot.
#[test]
fn torn_tmp_files_are_swept_at_boot() {
    let scratch = Scratch::new("torn");
    let atlases = scratch.0.join("atlases");
    std::fs::create_dir_all(&atlases).unwrap();
    let torn = atlases.join("deadbeef.atlas.tmp");
    std::fs::write(&torn, b"interrupted mid-write").unwrap();

    let server = start(persistent_config(&scratch));
    assert!(!torn.exists(), "boot must sweep torn tmp files");
    let digest = upload(&server, &synthetic_corpus_json());
    get_ok(&server, &format!("/table1?corpus={digest}"));
    assert_eq!(server.build_count(), 1, "nothing warm to restore");
    server.shutdown();
}

/// `DELETE /corpus/{digest}` removes the registry entry, the cached
/// atlases, and every snapshot file — and the digest stays gone across
/// a restart.
#[test]
fn delete_corpus_removes_memory_and_disk_together() {
    let scratch = Scratch::new("delete");
    let server = start(persistent_config(&scratch));
    let digest = upload(&server, &synthetic_corpus_json());
    get_ok(&server, &format!("/table1?seed={SEED}&corpus={digest}"));
    assert_eq!(files_with_ext(&scratch.0, "corpus").len(), 1);
    assert_eq!(files_with_ext(&scratch.0, "atlas").len(), 1);

    let (status, body) = server.delete(&format!("/corpus/{digest}")).unwrap();
    let text = String::from_utf8(body).unwrap();
    assert_eq!(status, 200, "{text}");
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(v["registered"].as_bool(), Some(true), "{text}");
    assert_eq!(v["cached_atlases"].as_f64(), Some(1.0), "{text}");
    assert_eq!(v["atlas_snapshots"].as_f64(), Some(1.0), "{text}");
    assert_eq!(v["corpus_snapshot"].as_bool(), Some(true), "{text}");

    assert!(files_with_ext(&scratch.0, "corpus").is_empty());
    assert!(files_with_ext(&scratch.0, "atlas").is_empty());
    let (status, _) = server.get(&format!("/table1?corpus={digest}")).unwrap();
    assert_eq!(status, 404, "deleted corpus must be unknown");
    let (status, _) = server.delete(&format!("/corpus/{digest}")).unwrap();
    assert_eq!(status, 404, "second delete finds nothing");
    server.shutdown();

    let restarted = start(persistent_config(&scratch));
    assert!(
        health_json(&restarted)["corpora"]
            .as_array()
            .unwrap()
            .is_empty(),
        "a deleted corpus must not come back after a restart"
    );
    restarted.shutdown();
}

/// A `DELETE /corpus/{digest}` that lands while that corpus's atlas is
/// being built stays done: the build's write-through writes neither the
/// corpus file nor the atlas back, and a restart does not resurrect the
/// corpus.
#[test]
fn delete_during_build_is_not_undone_by_the_build() {
    let scratch = Scratch::new("delete-mid-build");
    let server = start(persistent_config(&scratch));
    let digest = upload(&server, &synthetic_corpus_json());
    std::thread::scope(|s| {
        let query = s.spawn(|| server.get(&format!("/table1?seed={SEED}&corpus={digest}")));
        while server.build_count() == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let (status, body) = server.delete(&format!("/corpus/{digest}")).unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        query
            .join()
            .unwrap()
            .expect("the in-flight query completes");
    });
    assert!(files_with_ext(&scratch.0, "corpus").is_empty());
    assert!(files_with_ext(&scratch.0, "atlas").is_empty());
    server.shutdown();

    let restarted = start(persistent_config(&scratch));
    let health = health_json(&restarted);
    assert!(health["corpora"].as_array().unwrap().is_empty(), "{health}");
    restarted.shutdown();
}

/// With a TTL of zero every upload expires before its first query:
/// the digest 404s and both memory and disk are purged.
#[test]
fn corpus_ttl_expires_uploads_from_memory_and_disk() {
    let scratch = Scratch::new("ttl");
    let server = start(ServerConfig {
        corpus_ttl_secs: Some(0),
        ..persistent_config(&scratch)
    });
    let digest = upload(&server, &synthetic_corpus_json());
    let (status, _) = server.get(&format!("/table1?corpus={digest}")).unwrap();
    assert_eq!(status, 404, "expired corpus must be unknown");
    let health = health_json(&server);
    assert!(health["corpora"].as_array().unwrap().is_empty(), "{health}");
    assert_eq!(
        health["store"]["corpus_files"].as_f64(),
        Some(0.0),
        "expiry must also purge the snapshot: {health}"
    );
    assert!(files_with_ext(&scratch.0, "corpus").is_empty());
    server.shutdown();
}

/// `--prewarm corpus=<digest>` after a restart warms the restored
/// corpus straight from disk; an unknown digest is skipped, not fatal.
#[test]
fn prewarm_by_digest_warms_a_restored_corpus_from_disk() {
    let scratch = Scratch::new("prewarm");
    let cold = start(persistent_config(&scratch));
    let digest = upload(&cold, &synthetic_corpus_json());
    let path = format!("/table1?seed={SEED}&corpus={digest}");
    let body = get_ok(&cold, &path);
    cold.shutdown();

    let warm = start(persistent_config(&scratch));
    handle::prewarm_specs(
        warm.state(),
        &[
            PrewarmSpec::Corpus(digest.clone()),
            PrewarmSpec::Corpus("not-a-digest".to_string()),
        ],
    );
    assert_eq!(warm.build_count(), 0, "prewarm restores, never rebuilds");
    let health = health_json(&warm);
    assert_eq!(
        health["cached_atlases"].as_f64(),
        Some(1.0),
        "the atlas is warm in memory: {health}"
    );
    assert_eq!(get_ok(&warm, &path), body);
    warm.shutdown();
}

/// `/health` accounts per corpus: in-memory bytes, on-disk bytes, and
/// the number of atlas snapshots hanging off each digest.
#[test]
fn health_reports_per_corpus_memory_and_disk_accounting() {
    let scratch = Scratch::new("accounting");
    let server = start(persistent_config(&scratch));
    let json = synthetic_corpus_json();
    let digest = upload(&server, &json);
    get_ok(&server, &format!("/table1?seed={SEED}&corpus={digest}"));

    let health = health_json(&server);
    let corpora = health["corpora"].as_array().unwrap();
    assert_eq!(corpora.len(), 1, "{health}");
    let entry = &corpora[0];
    assert_eq!(entry["corpus"].as_str(), Some(digest.as_str()));
    assert_eq!(entry["memory_bytes"].as_f64(), Some(json.len() as f64));
    assert_eq!(entry["atlas_snapshots"].as_f64(), Some(1.0), "{health}");
    let disk_bytes = entry["disk_bytes"].as_f64().unwrap();
    let on_disk: u64 = files_with_ext(&scratch.0, "corpus")
        .iter()
        .chain(files_with_ext(&scratch.0, "atlas").iter())
        .map(|p| std::fs::metadata(p).unwrap().len())
        .sum();
    assert_eq!(disk_bytes as u64, on_disk, "{health}");
    assert_eq!(
        health["corpus_disk_bytes"].as_f64(),
        Some(disk_bytes),
        "{health}"
    );
    assert!(health["corpus_memory_bytes"].as_f64().unwrap() > 0.0);
    server.shutdown();
}

/// `--no-persist` serves warm reads from an existing store but writes
/// nothing new.
#[test]
fn read_only_store_serves_warm_reads_without_writing() {
    let scratch = Scratch::new("readonly");
    let cold = start(persistent_config(&scratch));
    let digest = upload(&cold, &synthetic_corpus_json());
    let path = format!("/table1?corpus={digest}");
    let body = get_ok(&cold, &path);
    cold.shutdown();

    let frozen = start(ServerConfig {
        persist: false,
        ..persistent_config(&scratch)
    });
    assert_eq!(get_ok(&frozen, &path), body, "warm reads still work");
    assert_eq!(frozen.build_count(), 0);
    // A brand-new atlas builds fine but is not written back.
    get_ok(&frozen, &format!("{path}&linkage=complete"));
    assert_eq!(frozen.build_count(), 1);
    let health = health_json(&frozen);
    assert_eq!(health["store"]["read_only"].as_bool(), Some(true));
    assert_eq!(health["store"]["snapshot_writes"].as_f64(), Some(0.0));
    assert_eq!(
        files_with_ext(&scratch.0.join("atlases"), "atlas").len(),
        1,
        "no new snapshot files in read-only mode"
    );
    frozen.shutdown();
}

/// An upload is persisted as the bytes that were sent, not as a
/// re-serialization: a pretty-printed body with a key the schema does
/// not know restores after a restart under the same digest, serves the
/// same bytes, and builds nothing. The implicit synthetic corpus beside
/// it leaves no corpus file and is rebuilt after the restart.
#[test]
fn pretty_printed_upload_with_unknown_keys_survives_restart() {
    let db = CorpusGenerator::new(AtlasConfig::quick(SEED).corpus).generate();
    let mut value = serde_json::from_str(&io::to_json(&db).unwrap()).unwrap();
    value["provenance"] = serde_json::json!({"exported_by": "notebook", "rows": [1, 2, 3]});
    let body = value.to_json_pretty();
    assert_ne!(body, io::to_json(&db).unwrap());

    let scratch = Scratch::new("pretty");
    let cold = start(persistent_config(&scratch));
    let digest = upload(&cold, &body);
    assert_eq!(digest, recipedb::corpus_digest(&db));
    let paths = [
        format!("/table1?corpus={digest}"),
        format!("/tree/pattern/cosine?corpus={digest}"),
        format!("/elbow?k_max=6&corpus={digest}"),
        // A different seed, so the implicit corpus is a second corpus.
        format!("/table1?seed={}", SEED + 1),
        format!("/tree/geo?seed={}", SEED + 1),
    ];
    let expected: Vec<Vec<u8>> = paths.iter().map(|p| get_ok(&cold, p)).collect();
    assert_eq!(cold.build_count(), 2, "one build per corpus");
    cold.shutdown();

    // The uploaded corpus's snapshot carries the request body verbatim.
    let corpus_files = files_with_ext(&scratch.0, "corpus");
    assert_eq!(corpus_files.len(), 1, "the upload only");
    let framed = corpus_files
        .iter()
        .map(|p| std::fs::read(p).unwrap())
        .filter(|bytes| bytes.windows(body.len()).any(|w| w == body.as_bytes()))
        .count();
    assert_eq!(framed, 1, "exactly the upload's snapshot holds its body");

    let warm = start(persistent_config(&scratch));
    let health = health_json(&warm);
    let corpora = health["corpora"].as_array().unwrap();
    assert_eq!(corpora.len(), 1, "{health}");
    assert_eq!(corpora[0]["corpus"].as_str(), Some(digest.as_str()));
    for (path, body) in paths.iter().zip(&expected) {
        assert_eq!(&get_ok(&warm, path), body, "GET {path} after restart");
        // The upload builds nothing; the implicit corpus is rebuilt once.
        let implicit = !path.contains("corpus=");
        assert_eq!(warm.build_count(), usize::from(implicit), "GET {path}");
    }
    let metrics = metrics_text(&warm);
    assert!(
        metrics.lines().any(|l| l == "atlas_builds_total 1"),
        "/metrics agrees: one rebuild, for the implicit corpus"
    );
    warm.shutdown();
}

/// A generated atlas never touches the store: with a data dir, generated
/// requests write no corpus or atlas file and make no store load, and
/// after a restart they serve the same bytes from one rebuild per key.
#[test]
fn generated_atlases_are_rebuilt_not_stored() {
    let scratch = Scratch::new("generated");
    let paths = [
        format!("/table1?seed={SEED}"),
        format!("/tree/authenticity?seed={SEED}"),
    ];
    let store_counters = |server: &ServerHandle| {
        let health = health_json(server);
        let store = &health["store"];
        [
            "snapshot_hits",
            "snapshot_misses",
            "snapshot_writes",
            "corpus_files",
            "atlas_files",
        ]
        .map(|name| {
            store[name]
                .as_f64()
                .unwrap_or_else(|| panic!("{name}: {health}"))
        })
    };
    let mut expected = Vec::new();
    for _ in 0..2 {
        let server = start(persistent_config(&scratch));
        let before = store_counters(&server);
        let bodies: Vec<Vec<u8>> = paths.iter().map(|p| get_ok(&server, p)).collect();
        assert_eq!(server.build_count(), 1, "one build per key");
        assert_eq!(
            store_counters(&server),
            before,
            "hits, misses, writes and files stay put"
        );
        assert_eq!(before, [0.0; 5]);
        for dir in ["corpora", "atlases"] {
            let files: Vec<_> = std::fs::read_dir(scratch.0.join(dir))
                .into_iter()
                .flatten()
                .collect();
            assert!(files.is_empty(), "{dir}/ holds {files:?}");
        }
        server.shutdown();
        if expected.is_empty() {
            expected = bodies;
        } else {
            assert_eq!(bodies, expected, "a restart serves the same bytes");
        }
    }
}
