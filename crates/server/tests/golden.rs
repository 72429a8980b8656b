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
//! Not covered: `/health` and `/metrics` (they carry timings).
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

    let (status, body) = server
        .post("/corpus", subset_corpus_json().as_bytes())
        .unwrap();
    actual.push(line("POST", "/corpus", status, &body));
    let response: serde_json::Value = serde_json::from_slice(&body).expect("upload JSON");
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
