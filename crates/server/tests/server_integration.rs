//! End-to-end exercise of the atlas server over real sockets: an
//! ephemeral-port server, concurrent clients against every endpoint,
//! byte-identical repeat responses, and the single-flight guarantee
//! that N concurrent cold requests trigger exactly one atlas build.

use std::sync::Arc;

use atlas_server::{ServerConfig, ServerHandle};
use serde_json::Value;

/// A seed no other test shares, so the first request here is always a
/// cold build.
const SEED: u64 = 301;

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

/// A 200 body parsed to a JSON tree.
fn get_json(server: &ServerHandle, path: &str) -> Value {
    let body = get_ok(server, path);
    serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("JSON body")
}

fn len(v: &Value) -> usize {
    v.as_array().expect("an array").len()
}

#[test]
fn serves_every_endpoint_under_concurrency_with_one_build() {
    let server = Arc::new(start());

    // --- Single flight: concurrent identical cold requests, one build.
    assert_eq!(server.build_count(), 0);
    let path = format!("/table1?seed={SEED}");
    let bodies: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let server = Arc::clone(&server);
                let path = path.clone();
                scope.spawn(move || get_ok(&server, &path))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(
        server.build_count(),
        1,
        "6 concurrent cold requests must coalesce into exactly 1 atlas build"
    );
    for body in &bodies[1..] {
        assert_eq!(
            body, &bodies[0],
            "all coalesced responses serve identical bytes"
        );
    }
    let table = serde_json::from_str(std::str::from_utf8(&bodies[0]).unwrap()).expect("JSON");
    let rows = table["rows"].as_array().unwrap();
    assert_eq!(rows.len(), 26);
    assert!(rows.iter().all(|r| r["n_recipes"].as_u64() > Some(0)));

    // --- Every endpoint, 4 concurrent clients each doing a full sweep.
    // The atlas for SEED is cached now, so these are all cache hits.
    let endpoints: Vec<String> = vec![
        "/health".to_string(),
        "/cuisines".to_string(),
        format!("/table1?seed={SEED}"),
        format!("/tree/pattern/euclidean?seed={SEED}"),
        format!("/tree/pattern/cosine?seed={SEED}"),
        format!("/tree/pattern/jaccard?seed={SEED}"),
        format!("/tree/authenticity?seed={SEED}"),
        format!("/tree/geo?seed={SEED}"),
        format!("/compare?seed={SEED}"),
        format!("/fingerprint/Indian%20Subcontinent?seed={SEED}&k=3"),
        format!("/elbow?seed={SEED}&k_max=4"),
    ];
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let server = Arc::clone(&server);
            let endpoints = &endpoints;
            scope.spawn(move || {
                for path in endpoints {
                    get_ok(&server, path);
                }
            });
        }
    });
    assert_eq!(
        server.build_count(),
        1,
        "the sweep must be served from cache"
    );

    // --- Typed spot checks on each artifact.
    for metric in ["euclidean", "cosine", "jaccard"] {
        let view = get_json(&server, &format!("/tree/pattern/{metric}?seed={SEED}"));
        assert_eq!(
            view["n_leaves"].as_u64(),
            Some(26),
            "{metric} tree has 26 leaves"
        );
        assert_eq!(len(&view["leaves"]), 26);
        assert_eq!(len(&view["merges"]), 25);
        assert!(view["description"].as_str().unwrap().contains(metric));
        assert!(view["newick"].as_str().unwrap().ends_with(';'));
    }
    let auth = get_json(&server, &format!("/tree/authenticity?seed={SEED}"));
    assert_eq!(auth["n_leaves"].as_u64(), Some(26));
    let geo = get_json(&server, &format!("/tree/geo?seed={SEED}"));
    assert_eq!(geo["n_leaves"].as_u64(), Some(26));

    let agreements = get_json(&server, &format!("/compare?seed={SEED}"));
    let agreements = agreements.as_array().unwrap();
    assert_eq!(agreements.len(), 4, "three pattern trees plus authenticity");
    assert!(agreements
        .iter()
        .all(|a| a["cophenetic_vs_geo"].as_f64().unwrap().is_finite()));

    let fp = get_json(
        &server,
        &format!("/fingerprint/Indian%20Subcontinent?seed={SEED}&k=3"),
    );
    assert_eq!(fp["cuisine"].as_str(), Some("Indian Subcontinent"));
    assert_eq!(len(&fp["most_authentic"]), 3);
    assert_eq!(len(&fp["least_authentic"]), 3);

    let elbow = get_json(&server, &format!("/elbow?seed={SEED}&k_max=4"));
    let wcss: Vec<f64> = elbow["wcss"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w.as_f64().unwrap())
        .collect();
    assert_eq!(wcss.len(), 4);
    assert!(
        wcss.windows(2).all(|w| w[1] <= w[0] + 1e-9),
        "WCSS is non-increasing"
    );

    // --- Identical queries serve identical bytes, across artifacts.
    for path in &endpoints[2..] {
        assert_eq!(
            get_ok(&server, path),
            get_ok(&server, path),
            "repeat GET {path}"
        );
    }

    // --- Error mapping.
    assert_eq!(server.get("/no/such/route").unwrap().0, 404);
    assert_eq!(server.get("/tree/pattern/manhattan").unwrap().0, 404);
    assert_eq!(server.get("/fingerprint/Atlantis").unwrap().0, 404);
    assert_eq!(server.get("/table1?seed=banana").unwrap().0, 400);
    assert_eq!(server.get("/elbow?k_max=0").unwrap().0, 400);
    let (status, body) = server.get("/table1?scale=5.0").unwrap();
    assert_eq!(status, 400);
    assert!(String::from_utf8(body).unwrap().contains("scale"));

    // --- Health reflects the cache and build counters.
    let health = String::from_utf8(get_ok(&server, "/health")).unwrap();
    assert!(
        health.contains("\"builds\": 1") || health.contains("\"builds\":1"),
        "{health}"
    );

    // --- Graceful shutdown: joins accept loop and workers, no panic.
    match Arc::try_unwrap(server) {
        Ok(server) => server.shutdown(),
        Err(_) => panic!("all client threads joined, the Arc must be unique"),
    }
}
