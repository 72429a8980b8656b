//! The `POST /batch` contract over live sockets: a batch of k artifacts
//! is served from exactly one atlas build, each embedded body is
//! byte-identical to the corresponding individual endpoint's response,
//! per-artifact failures are reported inline, and N concurrent cold
//! batches still build exactly once (single-flight).

use std::sync::Arc;

use atlas_server::{ServerConfig, ServerHandle};
use recipedb::store::RecipeDbBuilder;
use recipedb::{io, Cuisine};

/// A seed no other test shares, so the batch triggers its own cold build.
const SEED: u64 = 521;
/// A different cold seed for the concurrency test.
const CONCURRENT_SEED: u64 = 613;

fn start() -> ServerHandle {
    ServerHandle::start(ServerConfig::default()).expect("bind ephemeral port")
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

fn batch_body(artifacts: &[&str]) -> String {
    let list: Vec<String> = artifacts
        .iter()
        .map(|a| serde_json::Value::String(a.to_string()).to_string())
        .collect();
    format!("{{\"artifacts\":[{}]}}", list.join(","))
}

/// The exact batch wire format for `artifacts`, rebuilt from the GET
/// response of each spec (with the batch's `seed` appended to its query):
/// equality with a batch response proves every embedded body is
/// byte-identical to its endpoint's response.
fn expected_batch(server: &ServerHandle, artifacts: &[&str], seed: u64) -> String {
    let results: Vec<String> = artifacts
        .iter()
        .map(|a| {
            let sep = if a.contains('?') { "&" } else { "?" };
            let body = String::from_utf8(get_ok(server, &format!("/{a}{sep}seed={seed}"))).unwrap();
            let spec = serde_json::Value::String(a.to_string()).to_string();
            format!("{{\"artifact\":{spec},\"status\":200,\"body\":{body}}}")
        })
        .collect();
    format!(
        "{{\"count\":{},\"results\":[{}]}}",
        artifacts.len(),
        results.join(",")
    )
}

/// The equality pin: a k-artifact batch response is exactly the
/// concatenation of the k individual endpoint responses, and the whole
/// batch costs one atlas build.
#[test]
fn batch_equals_concatenation_of_individual_endpoints() {
    let server = start();
    let artifacts = [
        "table1",
        "tree/pattern/euclidean",
        "tree/pattern/cosine",
        "tree/pattern/jaccard",
        "tree/authenticity",
        "tree/geo",
        "compare",
        "fingerprint/Japanese?k=5",
        "elbow?k_max=6",
    ];
    let (status, body) = server
        .post(
            &format!("/batch?seed={SEED}"),
            batch_body(&artifacts).as_bytes(),
        )
        .expect("POST /batch");
    let text = String::from_utf8(body).unwrap();
    assert_eq!(status, 200, "{text}");
    assert_eq!(server.build_count(), 1, "k artifacts, one build");

    // The individual endpoints, served warm from the same atlas.
    let expected = expected_batch(&server, &artifacts, SEED);
    assert_eq!(
        server.build_count(),
        1,
        "individual requests were cache hits"
    );
    assert_eq!(
        text, expected,
        "batch must embed the endpoint bytes verbatim"
    );
    server.shutdown();
}

/// A spec copied from a GET URL, percent-encoding included, embeds
/// exactly the bytes of that GET's response: specs are decoded the way
/// a GET request target is.
#[test]
fn a_spec_copied_from_a_get_url_embeds_the_get_response() {
    let server = start();
    let artifacts = [
        "fingerprint/Indian%20Subcontinent?k=3",
        "tree/pattern/cos%69ne",
    ];
    let (status, body) = server
        .post(
            &format!("/batch?seed={SEED}"),
            batch_body(&artifacts).as_bytes(),
        )
        .expect("POST /batch");
    let text = String::from_utf8(body).unwrap();
    assert_eq!(status, 200, "{text}");
    assert_eq!(text, expected_batch(&server, &artifacts, SEED));
    server.shutdown();
}

/// N clients race the same cold batch: single-flight collapses them
/// into one build, and everyone gets the same bytes.
#[test]
fn concurrent_cold_batches_build_exactly_once() {
    const CLIENTS: usize = 6;
    let server = Arc::new(start());
    let body = Arc::new(batch_body(&[
        "table1",
        "tree/pattern/cosine",
        "elbow?k_max=6",
    ]));
    let path = format!("/batch?seed={CONCURRENT_SEED}");

    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let server = Arc::clone(&server);
            let body = Arc::clone(&body);
            let path = path.clone();
            std::thread::spawn(move || {
                let (status, resp) = server.post(&path, body.as_bytes()).expect("POST /batch");
                assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
                resp
            })
        })
        .collect();
    let bodies: Vec<Vec<u8>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for body in &bodies[1..] {
        assert_eq!(body, &bodies[0], "every client sees the same bytes");
    }

    let metrics = server.state().metrics();
    assert_eq!(metrics.build_total(), 1, "exactly one cold build");
    assert_eq!(server.build_count(), 1);
    // Every other client was either deduplicated in flight or served
    // from the cache after the build landed.
    let (cache_hits, _) = server.state().cache_stats();
    assert_eq!(
        metrics.dedup_total() + cache_hits,
        (CLIENTS - 1) as u64,
        "the {} non-leaders split between dedup and cache hits",
        CLIENTS - 1
    );
    Arc::try_unwrap(server).ok().unwrap().shutdown();
}

/// Per-artifact failures are inline results, not batch failures — and
/// the batch works against an uploaded corpus too.
#[test]
fn batch_reports_per_artifact_errors_inline() {
    let server = start();
    let mut b = RecipeDbBuilder::new();
    let soy = b.catalog_mut().intern_ingredient("soy sauce");
    b.add_recipe("r0", Cuisine::Japanese, vec![soy], vec![], vec![]);
    let json = io::to_json(&b.build().unwrap()).unwrap();
    let (status, resp) = server.post("/corpus", json.as_bytes()).unwrap();
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&String::from_utf8(resp).unwrap()).unwrap();
    let digest = v["corpus"].as_str().unwrap();

    // table1 works on one cuisine; the tree 422s; the typo 404s —
    // all inline, overall status still 200.
    let (status, resp) = server
        .post(
            &format!("/batch?corpus={digest}"),
            batch_body(&["table1", "tree/authenticity", "tree/pattern/manhattan"]).as_bytes(),
        )
        .unwrap();
    let text = String::from_utf8(resp).unwrap();
    assert_eq!(status, 200, "{text}");
    let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(parsed["count"].as_u64(), Some(3));
    let results = parsed["results"].as_array().unwrap();
    assert_eq!(results[0]["status"].as_u64(), Some(200));
    assert_eq!(results[1]["status"].as_u64(), Some(422));
    assert_eq!(results[2]["status"].as_u64(), Some(404));
    assert!(results[1]["body"]["error"].as_str().is_some());
    server.shutdown();
}

/// Malformed batch requests are rejected before any atlas work.
#[test]
fn malformed_batch_requests_are_400s_without_builds() {
    let server = start();
    let too_many: Vec<&str> = std::iter::repeat_n("table1", 33).collect();
    let cases: Vec<(String, &str)> = vec![
        ("not json".to_string(), "bad JSON"),
        ("{}".to_string(), "missing artifacts"),
        (batch_body(&[]), "empty artifacts"),
        ("{\"artifacts\":[1,2]}".to_string(), "non-string artifacts"),
        (batch_body(&too_many), "over the artifact cap"),
    ];
    for (body, name) in &cases {
        let (status, resp) = server.post("/batch", body.as_bytes()).unwrap();
        let text = String::from_utf8(resp).unwrap();
        assert_eq!(status, 400, "{name}: {text}");
        assert!(
            text.contains("\"error\""),
            "{name}: structured body: {text}"
        );
    }
    assert_eq!(server.build_count(), 0, "validation failures never build");
    server.shutdown();
}
