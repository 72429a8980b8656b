//! The corpus-upload contract, end to end.
//!
//! The core correctness pin: uploading the synthetic generator's own
//! corpus via `POST /corpus` and querying it with `?corpus=<digest>`
//! must serve **byte-identical** bodies to the implicit-corpus variant
//! on every atlas-backed endpoint — the upload path swaps the data
//! source, never the pipeline. Plus: the malformed-upload matrix (each
//! bad input is a structured 4xx that increments the reject counter and
//! never kills a worker), small-corpus 422s, unknown-digest 404s, and
//! registry eviction over live sockets.
//!
//! Set `ATLAS_TEST_THREADS` to vary the parallel side (default 4); CI
//! runs this under 2 and 8 threads.

use atlas_server::{ServerConfig, ServerHandle};
use cuisine_atlas::pipeline::AtlasConfig;
use recipedb::generator::CorpusGenerator;
use recipedb::store::RecipeDbBuilder;
use recipedb::{io, Cuisine, RecipeDb};

/// A seed no other test shares, so every server does its own cold build.
const SEED: u64 = 509;

fn parallel_threads() -> usize {
    std::env::var("ATLAS_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 2)
        .unwrap_or(4)
}

fn start(config: ServerConfig) -> ServerHandle {
    ServerHandle::start(config).expect("bind ephemeral port")
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
        .expect("upload response carries the digest")
        .to_string()
}

/// The corpus the server itself would generate for `AtlasConfig::quick(SEED)`.
fn synthetic_corpus() -> RecipeDb {
    CorpusGenerator::new(AtlasConfig::quick(SEED).corpus).generate()
}

/// A tiny hand-built corpus covering exactly one cuisine.
fn one_cuisine_corpus() -> RecipeDb {
    let mut b = RecipeDbBuilder::new();
    let soy = b.catalog_mut().intern_ingredient("soy sauce");
    let rice = b.catalog_mut().intern_ingredient("rice");
    let heat = b.catalog_mut().intern_process("heat");
    b.add_recipe("r0", Cuisine::Japanese, vec![soy, rice], vec![heat], vec![]);
    b.add_recipe("r1", Cuisine::Japanese, vec![rice], vec![], vec![]);
    b.build().unwrap()
}

/// Every atlas-backed endpoint, parameterized the same way on both the
/// implicit and the uploaded side.
fn atlas_endpoints() -> Vec<String> {
    vec![
        format!("/table1?seed={SEED}"),
        format!("/tree/pattern/euclidean?seed={SEED}"),
        format!("/tree/pattern/cosine?seed={SEED}"),
        format!("/tree/pattern/jaccard?seed={SEED}"),
        format!("/tree/authenticity?seed={SEED}"),
        format!("/tree/geo?seed={SEED}"),
        format!("/compare?seed={SEED}"),
        format!("/fingerprint/Japanese?seed={SEED}&k=5"),
        format!("/elbow?seed={SEED}&k_max=6"),
    ]
}

/// The differential pin: the uploaded synthetic corpus serves the same
/// bytes as the implicit generator-backed corpus, on every endpoint, at
/// build_threads 1 and N.
#[test]
fn uploaded_synthetic_corpus_is_byte_identical_to_implicit() {
    let json = io::to_json(&synthetic_corpus()).unwrap();
    let local_digest = recipedb::corpus_digest(&synthetic_corpus());
    for build_threads in [1, parallel_threads()] {
        let server = start(ServerConfig {
            build_threads,
            cache_capacity: 8,
            ..ServerConfig::default()
        });
        let digest = upload(&server, &json);
        assert_eq!(
            digest, local_digest,
            "server digest must match the locally computed one"
        );
        for path in atlas_endpoints() {
            let implicit = get_ok(&server, &path);
            let uploaded = get_ok(&server, &format!("{path}&corpus={digest}"));
            assert_eq!(
                implicit, uploaded,
                "GET {path}: implicit vs corpus={digest} must serve identical bytes \
                 (build_threads={build_threads})"
            );
        }
        // Two atlases were built: one from the generator, one from the
        // upload — never more, whatever the endpoint count.
        assert_eq!(server.build_count(), 2, "one build per corpus variant");
        server.shutdown();
    }
}

/// `seed` is a generation knob, zeroed out of an upload's cache key, so
/// over an upload it selects only the elbow's k-means seed: every other
/// artifact serves the same bytes at any seed, all from one build.
#[test]
fn seed_over_an_upload_moves_only_the_elbow() {
    let server = start(ServerConfig {
        build_threads: parallel_threads(),
        ..ServerConfig::default()
    });
    let digest = upload(&server, &io::to_json(&synthetic_corpus()).unwrap());
    for path in [
        "/table1",
        "/tree/pattern/euclidean",
        "/tree/pattern/cosine",
        "/tree/pattern/jaccard",
        "/tree/authenticity",
        "/tree/geo",
        "/compare",
        "/fingerprint/Japanese?k=5",
    ] {
        let sep = if path.contains('?') { '&' } else { '?' };
        let at = |seed: u64| get_ok(&server, &format!("{path}{sep}corpus={digest}&seed={seed}"));
        assert_eq!(
            at(1),
            at(999),
            "GET {path}: seed must not change an upload's bytes"
        );
    }
    for seed in [1u64, 999] {
        let body = get_ok(
            &server,
            &format!("/elbow?k_max=6&corpus={digest}&seed={seed}"),
        );
        let v: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("elbow JSON");
        assert_eq!(
            v["seed"].as_u64(),
            Some(seed),
            "the elbow reports its k-means seed"
        );
    }
    assert_eq!(
        server.build_count(),
        1,
        "every seed shares the upload's build"
    );
    server.shutdown();
}

#[test]
fn reupload_is_idempotent() {
    let server = start(ServerConfig::default());
    let json = io::to_json(&one_cuisine_corpus()).unwrap();
    let first = upload(&server, &json);
    let (status, body) = server.post("/corpus", json.as_bytes()).unwrap();
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&String::from_utf8(body).unwrap()).unwrap();
    assert_eq!(v["corpus"].as_str().unwrap(), first);
    assert_eq!(v["already_registered"].as_bool(), Some(true));
    assert_eq!(server.state().corpora().len(), 1);
    assert_eq!(server.state().metrics().corpus_uploads(), 2);
    server.shutdown();
}

/// The malformed-upload matrix: every bad input is a structured 4xx
/// JSON error, the reject counter moves, and the server keeps serving.
#[test]
fn malformed_uploads_return_structured_errors_and_never_kill_the_server() {
    let server = start(ServerConfig {
        // Small cap so the oversize case stays cheap.
        max_corpus_bytes: 64 * 1024,
        ..ServerConfig::default()
    });
    let valid = io::to_json(&one_cuisine_corpus()).unwrap();
    let mut v: serde_json::Value = serde_json::from_str(&valid).unwrap();
    v["recipes"][1]["id"] = v["recipes"][0]["id"].clone();
    let duplicate_ids = v.to_string();
    let mut v: serde_json::Value = serde_json::from_str(&valid).unwrap();
    v["recipes"][0]["cuisine"] = serde_json::json!("Atlantis");
    let unknown_cuisine = v.to_string();
    let empty_corpus = io::to_json(&RecipeDbBuilder::new().build().unwrap()).unwrap();

    let truncated = valid[..valid.len() / 2].to_string();
    let oversize = "x".repeat(64 * 1024 + 1);
    let cases: Vec<(&str, &str, u16)> = vec![
        ("empty body", "", 400),
        ("truncated JSON", truncated.as_str(), 400),
        ("not JSON at all", "hello, atlas", 400),
        ("duplicate recipe ids", duplicate_ids.as_str(), 400),
        ("unknown cuisine label", unknown_cuisine.as_str(), 400),
        ("zero-recipe corpus", empty_corpus.as_str(), 422),
        ("oversize body", oversize.as_str(), 413),
    ];

    for (i, (name, body, want_status)) in cases.iter().enumerate() {
        let (status, resp) = server.post("/corpus", body.as_bytes()).expect(name);
        let text = String::from_utf8(resp).unwrap();
        assert_eq!(status, *want_status, "{name}: {text}");
        let parsed: serde_json::Value = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{name}: body not JSON ({e}): {text}"));
        assert!(
            parsed["error"].as_str().is_some(),
            "{name}: structured error body expected, got {text}"
        );
        assert_eq!(
            server.state().metrics().corpus_rejects(),
            (i + 1) as u64,
            "{name}: reject counter must increment"
        );
        // The worker that handled the bad upload is still alive and
        // nothing was registered.
        let health = get_ok(&server, "/health");
        assert!(String::from_utf8(health).unwrap().contains("\"status\""));
        assert_eq!(
            server.state().corpora().len(),
            0,
            "{name}: nothing registered"
        );
    }
    assert_eq!(server.state().metrics().corpus_uploads(), 0);
    server.shutdown();
}

/// A well-formed corpus too small to cluster: uploads fine, serves the
/// per-cuisine artifacts, and 422s (never panics) on anything that
/// needs at least two cuisines.
#[test]
fn single_cuisine_corpus_serves_tables_but_422s_clustering() {
    let server = start(ServerConfig::default());
    let digest = upload(&server, &io::to_json(&one_cuisine_corpus()).unwrap());

    let table1 = get_ok(&server, &format!("/table1?corpus={digest}"));
    assert!(String::from_utf8(table1).unwrap().contains("Japanese"));
    get_ok(&server, &format!("/fingerprint/Japanese?corpus={digest}"));

    for path in [
        "/tree/pattern/cosine",
        "/tree/authenticity",
        "/tree/geo",
        "/elbow",
        "/compare",
    ] {
        let (status, body) = server.get(&format!("{path}?corpus={digest}")).unwrap();
        let text = String::from_utf8(body).unwrap();
        assert_eq!(status, 422, "GET {path} on a 1-cuisine corpus: {text}");
        assert!(text.contains("\"error\""), "structured 422 body: {text}");
    }
    // A cuisine absent from the corpus is a 404, not a panic.
    let (status, _) = server
        .get(&format!("/fingerprint/Thai?corpus={digest}"))
        .unwrap();
    assert_eq!(status, 404);
    server.shutdown();
}

#[test]
fn unknown_corpus_digest_is_a_404() {
    let server = start(ServerConfig::default());
    let (status, body) = server.get("/table1?corpus=deadbeef").unwrap();
    let text = String::from_utf8(body).unwrap();
    assert_eq!(status, 404, "{text}");
    assert!(text.contains("deadbeef"));
    server.shutdown();
}

/// The registry is bounded: uploads beyond `max_corpora` evict the
/// least-recently-used corpus, whose digest then 404s.
#[test]
fn corpus_registry_evicts_least_recently_used_over_the_wire() {
    let server = start(ServerConfig {
        max_corpora: 1,
        ..ServerConfig::default()
    });
    let first = upload(&server, &io::to_json(&one_cuisine_corpus()).unwrap());

    let mut b = RecipeDbBuilder::new();
    let fish = b.catalog_mut().intern_ingredient("fish sauce");
    b.add_recipe("r0", Cuisine::Thai, vec![fish], vec![], vec![]);
    let second = upload(&server, &io::to_json(&b.build().unwrap()).unwrap());
    assert_ne!(first, second);

    assert_eq!(server.state().corpora().len(), 1);
    let (status, _) = server.get(&format!("/table1?corpus={first}")).unwrap();
    assert_eq!(status, 404, "evicted corpus must be gone");
    get_ok(&server, &format!("/table1?corpus={second}"));
    server.shutdown();
}
