//! Golden digests of served bodies, pinned across commits.
//!
//! The other byte-identity suites compare a server with itself (across
//! thread counts, restarts or request paths), so a change that alters a
//! body alters it on both sides and passes them. This test hashes each
//! body with SHA-256 and compares the digest, with the status, against a
//! checked-in list (`fixtures/golden_digests.txt`, one line per request:
//! digest, status, method, target).
//!
//! Covered, each configuration built once:
//! - every artifact of `quick(23)` under `average` and `complete`
//!   linkage: fingerprints of two cuisines at two `k`, the elbow at its
//!   default and one explicit `k_max`;
//! - the same artifacts over a six-cuisine subset of that corpus, and
//!   its `POST /corpus` response (`{upload}` in a target stands for the
//!   digest the upload returns);
//! - `/cuisines` and one `/batch` body;
//! - the error bodies: a 400 for a bad `min_support`, a 404 for an
//!   unknown cuisine and one for an unknown route, a 405, a 400 for a
//!   malformed upload and a 422 for an empty one (`#malformed` and
//!   `#empty` tell those two `POST /corpus` lines apart), a `/batch`
//!   whose members fail, and the `DELETE /corpus` response;
//! - the `snapshot::encode_atlas` frames of `quick(23)` under `average`
//!   and of the subset under `average` and `complete`. A frame holds no
//!   timings, so it is a pure function of its atlas. Their lines read
//!   `<digest> atlas encode_atlas <corpus> <linkage>`.
//!
//! A second test pins the generated corpora themselves, for `quick(23)`
//! and for seed 23 at scale 0.08: the `io::to_json` bytes, the
//! `corpus_digest` and the `snapshot::encode_corpus` frame. Their
//! fixture lines read `<digest> corpus <what> <config>`.
//!
//! `/health` carries timings, so only its key paths and their order
//! are pinned ([`HEALTH_KEYS`]), not its values; `/metrics` is not
//! covered.
//! `repro --json` is pinned by `repro_cli.rs`.
//!
//! The digests were recorded on `x86_64-unknown-linux-gnu`. Bodies are
//! pure functions of their configuration, but the geography tree's
//! great-circle distances go through the platform's libm, so another
//! target may differ there. A change that alters bodies on purpose
//! re-records the list from this test's failure output and says why.

use std::collections::BTreeMap;

use atlas_server::{ServerConfig, ServerHandle};
use clustering::hac::LinkageMethod;
use cuisine_atlas::pipeline::AtlasConfig;
use cuisine_atlas::snapshot::{self, CorpusOrigin};
use recipedb::digest::{corpus_digest, Sha256};
use recipedb::generator::CorpusGenerator;
use recipedb::store::RecipeDbBuilder;
use recipedb::{io, Cuisine};
use serde_json::Value;

const FIXTURE: &str = include_str!("fixtures/golden_digests.txt");
const SEED: u64 = 23;
/// The uploaded subset: both fingerprinted cuisines and four more.
const SUBSET: [Cuisine; 6] = [
    Cuisine::IndianSubcontinent,
    Cuisine::Italian,
    Cuisine::Japanese,
    Cuisine::Korean,
    Cuisine::Mexican,
    Cuisine::Thai,
];

/// Every artifact route, with `query` appended.
fn artifact_targets(query: &str) -> Vec<String> {
    [
        "/table1",
        "/tree/pattern/euclidean",
        "/tree/pattern/cosine",
        "/tree/pattern/jaccard",
        "/tree/authenticity",
        "/tree/geo",
        "/compare",
        "/fingerprint/Japanese?k=3",
        "/fingerprint/Japanese?k=8",
        "/fingerprint/Indian%20Subcontinent?k=3",
        "/fingerprint/Indian%20Subcontinent?k=8",
        "/elbow",
        "/elbow?k_max=4",
    ]
    .iter()
    .map(|path| {
        let sep = if path.contains('?') { '&' } else { '?' };
        format!("{path}{sep}{query}")
    })
    .collect()
}

/// `quick(SEED)`'s corpus restricted to [`SUBSET`], as upload JSON.
fn subset_corpus_json() -> String {
    let full = CorpusGenerator::new(AtlasConfig::quick(SEED).corpus).generate();
    let mut b = RecipeDbBuilder::new();
    *b.catalog_mut() = full.catalog().clone();
    for r in full.recipes().filter(|r| SUBSET.contains(&r.cuisine)) {
        b.add_recipe(
            r.name.clone(),
            r.cuisine,
            r.ingredients.clone(),
            r.processes.clone(),
            r.utensils.clone(),
        );
    }
    io::to_json(&b.build().unwrap()).unwrap()
}

/// One fixture line for a served response.
fn line(method: &str, target: &str, status: u16, body: &[u8]) -> String {
    format!("{} {status} {method} {target}", Sha256::hex_digest(body))
}

#[test]
fn served_bodies_match_the_recorded_digests() {
    let server = ServerHandle::start(ServerConfig {
        cache_capacity: 4,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let mut actual = Vec::new();
    let mut targets = vec!["/cuisines".to_string()];
    for linkage in ["average", "complete"] {
        targets.extend(artifact_targets(&format!("seed={SEED}&linkage={linkage}")));
    }
    for target in &targets {
        let (status, body) = server.get(target).expect("GET succeeds");
        actual.push(line("GET", target, status, &body));
    }

    let batch_target = format!("/batch?seed={SEED}");
    let batch =
        r#"{"artifacts":["table1","fingerprint/Korean?k=4","elbow?k_max=4","tree/pattern/nope"]}"#;
    let (status, body) = server.post(&batch_target, batch.as_bytes()).unwrap();
    actual.push(line("POST", &batch_target, status, &body));

    // Error bodies. None of these builds: `quick(23)` is cached and the
    // rest fail before an atlas is resolved.
    for target in [
        "/table1?seed=23&min_support=2",
        "/fingerprint/Atlantis?seed=23",
        "/nope",
    ] {
        let (status, body) = server.get(target).unwrap();
        actual.push(line("GET", target, status, &body));
    }
    let (status, body) = server.delete("/table1").unwrap();
    actual.push(line("DELETE", "/table1", status, &body));
    let failing_batch = format!("/batch?seed={SEED}&members=failing");
    let (status, body) = server
        .post(
            &failing_batch,
            br#"{"artifacts":["fingerprint/Atlantis","elbow?k_max=0","cuisines"]}"#,
        )
        .unwrap();
    actual.push(line("POST", &failing_batch, status, &body));
    let empty = io::to_json(&RecipeDbBuilder::new().build().unwrap()).unwrap();
    for (label, upload) in [("malformed", r#"{"catalog":"#), ("empty", empty.as_str())] {
        let (status, body) = server.post("/corpus", upload.as_bytes()).unwrap();
        actual.push(line("POST", &format!("/corpus#{label}"), status, &body));
    }

    let (status, body) = server
        .post("/corpus", subset_corpus_json().as_bytes())
        .unwrap();
    actual.push(line("POST", "/corpus", status, &body));
    let response: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("upload JSON");
    let digest = response["corpus"].as_str().expect("upload digest");
    for target in artifact_targets("corpus={upload}") {
        let (status, body) = server
            .get(&target.replace("{upload}", digest))
            .expect("GET succeeds");
        actual.push(line("GET", &target, status, &body));
    }
    assert_eq!(server.build_count(), 3, "one build per configuration");

    // Atlas frames, from the cached builds above plus the subset under
    // `complete`.
    let state = server.state();
    let upload = state
        .corpora()
        .get(digest)
        .expect("the upload is registered");
    for (label, corpus, linkage) in [
        ("quick(23)", None, LinkageMethod::Average),
        ("upload", Some(&upload), LinkageMethod::Average),
        ("upload", Some(&upload), LinkageMethod::Complete),
    ] {
        let config = AtlasConfig::quick(SEED).with_linkage(linkage);
        let atlas = state.atlas_for(corpus, &config);
        let frame = snapshot::encode_atlas(&atlas, &corpus_digest(atlas.db()));
        actual.push(format!(
            "{} atlas encode_atlas {label} {}",
            Sha256::hex_digest(&frame),
            linkage.name()
        ));
    }
    assert_eq!(
        server.build_count(),
        4,
        "only the subset under complete is new"
    );

    let (status, body) = server.get("/health").unwrap();
    assert_eq!(status, 200);
    let health = serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
    let mut keys = Vec::new();
    key_paths(&health, "", &mut keys);
    assert_eq!(keys, HEALTH_KEYS, "/health key paths");

    let (status, body) = server.delete(&format!("/corpus/{digest}")).unwrap();
    actual.push(line("DELETE", "/corpus/{upload}", status, &body));
    server.shutdown();

    assert_matches_fixture(&actual, |status| status != "corpus");
}

#[test]
fn generated_corpora_match_the_recorded_digests() {
    let mut actual = Vec::new();
    for (label, scale) in [("quick(23)", None), ("quick(23)@scale=0.08", Some(0.08))] {
        let mut config = AtlasConfig::quick(SEED).corpus;
        if let Some(scale) = scale {
            config.scale = scale;
        }
        let db = CorpusGenerator::new(config).generate();
        let json = io::to_json(&db).unwrap();
        let frame = snapshot::encode_corpus(&db, CorpusOrigin::Generated, 0).unwrap();
        for (what, digest) in [
            ("to_json", Sha256::hex_digest(json.as_bytes())),
            ("corpus_digest", corpus_digest(&db)),
            ("encode_corpus", Sha256::hex_digest(&frame)),
        ] {
            actual.push(format!("{digest} corpus {what} {label}"));
        }
    }
    assert_matches_fixture(&actual, |status| status == "corpus");
}

/// `/health`'s key paths in document order, after the requests of
/// `served_bodies_match_the_recorded_digests`; `[]` stands for an
/// array's first element.
const HEALTH_KEYS: &[&str] = &[
    "status",
    "workers",
    "build_threads",
    "cached_atlases",
    "builds",
    "cache_hits",
    "cache_misses",
    "last_build_ms",
    "last_build_ms.generate",
    "last_build_ms.mine",
    "last_build_ms.features",
    "last_build_ms.pdist",
    "last_build_ms.total",
    "recent_builds_ms",
    "recent_builds_ms.[].generate",
    "recent_builds_ms.[].mine",
    "recent_builds_ms.[].features",
    "recent_builds_ms.[].pdist",
    "recent_builds_ms.[].total",
    "latency_ms",
    "latency_ms./cuisines",
    "latency_ms./cuisines.count",
    "latency_ms./cuisines.p50",
    "latency_ms./cuisines.p99",
    "latency_ms./table1",
    "latency_ms./table1.count",
    "latency_ms./table1.p50",
    "latency_ms./table1.p99",
    "latency_ms./tree/pattern/:metric",
    "latency_ms./tree/pattern/:metric.count",
    "latency_ms./tree/pattern/:metric.p50",
    "latency_ms./tree/pattern/:metric.p99",
    "latency_ms./tree/authenticity",
    "latency_ms./tree/authenticity.count",
    "latency_ms./tree/authenticity.p50",
    "latency_ms./tree/authenticity.p99",
    "latency_ms./tree/geo",
    "latency_ms./tree/geo.count",
    "latency_ms./tree/geo.p50",
    "latency_ms./tree/geo.p99",
    "latency_ms./compare",
    "latency_ms./compare.count",
    "latency_ms./compare.p50",
    "latency_ms./compare.p99",
    "latency_ms./fingerprint/:cuisine",
    "latency_ms./fingerprint/:cuisine.count",
    "latency_ms./fingerprint/:cuisine.p50",
    "latency_ms./fingerprint/:cuisine.p99",
    "latency_ms./elbow",
    "latency_ms./elbow.count",
    "latency_ms./elbow.p50",
    "latency_ms./elbow.p99",
    "latency_ms./corpus",
    "latency_ms./corpus.count",
    "latency_ms./corpus.p50",
    "latency_ms./corpus.p99",
    "latency_ms./batch",
    "latency_ms./batch.count",
    "latency_ms./batch.p50",
    "latency_ms./batch.p99",
    "latency_ms.unrouted",
    "latency_ms.unrouted.count",
    "latency_ms.unrouted.p50",
    "latency_ms.unrouted.p99",
    "corpora",
    "corpora.[].corpus",
    "corpora.[].recipes",
    "corpora.[].cuisines",
    "corpora.[].memory_bytes",
    "corpora.[].disk_bytes",
    "corpora.[].atlas_snapshots",
    "corpus_memory_bytes",
    "corpus_disk_bytes",
    "store",
];

/// Every object key under `value`, as a dotted path, in document order.
/// An array contributes the paths of its first element.
fn key_paths(value: &Value, prefix: &str, out: &mut Vec<String>) {
    match value {
        Value::Object(map) => {
            for (key, child) in map.iter() {
                let path = format!("{prefix}{key}");
                out.push(path.clone());
                key_paths(child, &format!("{path}."), out);
            }
        }
        Value::Array(items) => {
            if let Some(first) = items.first() {
                key_paths(first, &format!("{prefix}[]."), out);
            }
        }
        _ => {}
    }
}

/// Compare `actual` fixture lines with the fixture lines whose second
/// field passes `select`, keyed by everything after that field.
fn assert_matches_fixture(actual: &[String], select: impl Fn(&str) -> bool) {
    // Keyed by "<method> <target>" (or "<what> <config>"): the value is
    // "<digest> <status>".
    let split = |l: &str| {
        let mut fields = l.splitn(3, ' ');
        let digest = fields.next().unwrap_or_default();
        let status = fields.next().unwrap_or_default();
        (
            fields.next().unwrap_or_default().to_string(),
            format!("{digest} {status}"),
        )
    };
    let expected: BTreeMap<String, String> = FIXTURE
        .lines()
        .filter(|l| select(l.split(' ').nth(1).unwrap_or_default()))
        .map(split)
        .collect();
    let got: BTreeMap<String, String> = actual.iter().map(|l| split(l)).collect();
    let mut mismatches = Vec::new();
    for (request, want) in &expected {
        match got.get(request) {
            Some(have) if have == want => {}
            Some(have) => {
                mismatches.push(format!("{request}\n  expected {want}\n  got      {have}"))
            }
            None => mismatches.push(format!("{request}\n  expected {want}\n  not requested")),
        }
    }
    for (request, have) in &got {
        if !expected.contains_key(request) {
            mismatches.push(format!(
                "{request}\n  not in the fixture\n  got      {have}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} digests differ from the golden fixture:\n{}\n\nfull list:\n{}",
        mismatches.len(),
        mismatches.join("\n"),
        actual.join("\n")
    );
}
