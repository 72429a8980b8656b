//! End-to-end observability smoke: boot a server, issue a known mix of
//! requests, and assert that `/metrics` parses as Prometheus text
//! exposition and that its counters reconcile exactly with the traffic
//! sent — the same check CI runs inside the determinism matrix.

use atlas_server::{ServerConfig, ServerHandle};

/// A seed no other test shares, so the first request is a cold build.
const SEED: u64 = 407;

fn get(server: &ServerHandle, path: &str) -> (u16, String) {
    let (status, body) = server.get(path).expect("request succeeds");
    (status, String::from_utf8(body).expect("UTF-8 body"))
}

/// Parse one Prometheus sample value by series name + exact label set.
fn sample(text: &str, name: &str, labels: &str) -> Option<f64> {
    let prefix = if labels.is_empty() {
        format!("{name} ")
    } else {
        format!("{name}{{{labels}}} ")
    };
    text.lines()
        .find(|l| l.starts_with(&prefix))
        .map(|l| l[prefix.len()..].trim().parse().expect("sample value"))
}

/// Validate the whole body line-by-line as text exposition format.
fn assert_parses_as_prometheus(text: &str) {
    assert!(!text.is_empty());
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("no value: {line}"));
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "unparseable value {value:?} in line: {line}"
        );
        let name = series.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in line: {line}"
        );
        if let Some(rest) = series.strip_prefix(name) {
            if !rest.is_empty() {
                assert!(
                    rest.starts_with('{') && rest.ends_with('}'),
                    "bad label block in line: {line}"
                );
            }
        }
    }
}

#[test]
fn metrics_reconcile_with_requests_sent() {
    let server = ServerHandle::start(ServerConfig::default()).expect("bind ephemeral port");

    // Known traffic mix: 3 × table1 (1 cold build + 2 cache hits),
    // 2 × tree, 1 × 404, 1 × 400.
    for _ in 0..3 {
        assert_eq!(get(&server, &format!("/table1?seed={SEED}")).0, 200);
    }
    for _ in 0..2 {
        assert_eq!(
            get(&server, &format!("/tree/pattern/euclidean?seed={SEED}")).0,
            200
        );
    }
    assert_eq!(get(&server, "/no/such/route").0, 404);
    assert_eq!(get(&server, &format!("/elbow?seed={SEED}&k_max=0")).0, 400);

    let (status, text) = get(&server, "/metrics");
    assert_eq!(status, 200);
    assert_parses_as_prometheus(&text);

    // Request counters match the traffic exactly.
    assert_eq!(
        sample(&text, "atlas_requests_total", "endpoint=\"/table1\""),
        Some(3.0)
    );
    assert_eq!(
        sample(
            &text,
            "atlas_requests_total",
            "endpoint=\"/tree/pattern/:metric\""
        ),
        Some(2.0)
    );
    assert_eq!(
        sample(&text, "atlas_requests_total", "endpoint=\"unrouted\""),
        Some(1.0)
    );
    assert_eq!(
        sample(&text, "atlas_requests_total", "endpoint=\"/elbow\""),
        Some(1.0)
    );
    // The /metrics scrape itself had not been recorded when it rendered.
    assert_eq!(
        sample(&text, "atlas_requests_total", "endpoint=\"/metrics\""),
        Some(0.0)
    );

    // Status classes.
    assert_eq!(
        sample(
            &text,
            "atlas_responses_total",
            "endpoint=\"/table1\",class=\"2xx\""
        ),
        Some(3.0)
    );
    assert_eq!(
        sample(
            &text,
            "atlas_responses_total",
            "endpoint=\"/elbow\",class=\"4xx\""
        ),
        Some(1.0)
    );
    assert_eq!(
        sample(
            &text,
            "atlas_responses_total",
            "endpoint=\"unrouted\",class=\"4xx\""
        ),
        Some(1.0)
    );

    // Latency histograms: count matches requests; +Inf bucket is the
    // total; sum is positive.
    assert_eq!(
        sample(
            &text,
            "atlas_request_duration_seconds_count",
            "endpoint=\"/table1\""
        ),
        Some(3.0)
    );
    assert_eq!(
        sample(
            &text,
            "atlas_request_duration_seconds_bucket",
            "endpoint=\"/table1\",le=\"+Inf\""
        ),
        Some(3.0)
    );
    assert!(
        sample(
            &text,
            "atlas_request_duration_seconds_sum",
            "endpoint=\"/table1\""
        )
        .unwrap()
            > 0.0
    );

    // Build telemetry: exactly one cold build, no dedup (sequential
    // requests), cache hits for the repeats (2 × table1 + 2 × tree).
    assert_eq!(sample(&text, "atlas_builds_total", ""), Some(1.0));
    assert_eq!(sample(&text, "atlas_build_dedup_total", ""), Some(0.0));
    assert_eq!(sample(&text, "atlas_cache_misses_total", ""), Some(1.0));
    assert_eq!(sample(&text, "atlas_cache_hits_total", ""), Some(4.0));

    // Pipeline spans flowed into the registry: all four stages plus a
    // per-cuisine mining span.
    for stage in ["generate", "mine", "features", "pdist"] {
        assert_eq!(
            sample(
                &text,
                "atlas_build_span_seconds_count",
                &format!("span=\"stage/{stage}\"")
            ),
            Some(1.0),
            "missing stage span {stage}"
        );
    }
    assert_eq!(
        sample(
            &text,
            "atlas_build_span_seconds_count",
            "span=\"mine/Italian\""
        ),
        Some(1.0)
    );

    // Queue-wait histogram saw every accepted connection so far.
    assert!(sample(&text, "atlas_queue_wait_seconds_count", "").unwrap() >= 7.0);

    // A second scrape includes the first one.
    let (_, text2) = get(&server, "/metrics");
    assert_eq!(
        sample(&text2, "atlas_requests_total", "endpoint=\"/metrics\""),
        Some(1.0)
    );

    // /health mirrors the same telemetry: per-endpoint p50/p99 and the
    // bounded ring of recent builds.
    let (status, health) = get(&server, "/health");
    assert_eq!(status, 200);
    let doc = serde_json::parse_value(&health).expect("health JSON");
    let latency = doc.get("latency_ms").expect("latency_ms");
    let table1 = latency.get("/table1").expect("latency for /table1");
    assert_eq!(table1.get("count").and_then(|v| v.as_f64()), Some(3.0));
    assert!(table1.get("p50").and_then(|v| v.as_f64()).unwrap() > 0.0);
    assert!(
        table1.get("p99").and_then(|v| v.as_f64()).unwrap()
            >= table1.get("p50").and_then(|v| v.as_f64()).unwrap()
    );
    let recent = doc
        .get("recent_builds_ms")
        .and_then(|v| v.as_array())
        .expect("recent_builds_ms");
    assert_eq!(recent.len(), 1, "one cold build so far");
    assert!(recent[0].get("total").and_then(|v| v.as_f64()).unwrap() > 0.0);

    server.shutdown();
}

/// `atlas_builds_by_corpus_total` keeps one series per registered
/// upload: corpora evicted from the registry or deleted lose theirs.
#[test]
fn corpus_build_series_follow_the_registry() {
    use recipedb::store::RecipeDbBuilder;
    use recipedb::Cuisine;

    let server = ServerHandle::start(ServerConfig {
        max_corpora: 2,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let corpus_series = |server: &ServerHandle| -> Vec<String> {
        get(server, "/metrics")
            .1
            .lines()
            .filter(|l| l.starts_with("atlas_builds_by_corpus_total{"))
            .filter(|l| !l.contains("\"synthetic\""))
            .map(str::to_string)
            .collect()
    };
    let mut digests = Vec::new();
    for i in 0..5 {
        let mut b = RecipeDbBuilder::new();
        let rice = b.catalog_mut().intern_ingredient(&format!("rice {i}"));
        b.add_recipe("r0", Cuisine::Japanese, vec![rice], vec![], vec![]);
        let json = recipedb::io::to_json(&b.build().unwrap()).unwrap();
        let (status, body) = server.post("/corpus", json.as_bytes()).unwrap();
        let body = String::from_utf8(body).unwrap();
        assert_eq!(status, 200, "{body}");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        let digest = v["corpus"].as_str().unwrap().to_string();
        assert_eq!(get(&server, &format!("/table1?corpus={digest}")).0, 200);
        digests.push(digest);
    }
    let series = corpus_series(&server);
    assert!(
        series.len() <= 2,
        "one series per registered corpus: {series:?}"
    );
    let last = &digests[4];
    assert!(series.iter().any(|l| l.contains(&last[..12])), "{series:?}");

    let (status, _) = server.delete(&format!("/corpus/{last}")).unwrap();
    assert_eq!(status, 200);
    let series = corpus_series(&server);
    assert!(
        series.iter().all(|l| !l.contains(&last[..12])),
        "a deleted corpus loses its series: {series:?}"
    );
    server.shutdown();
}
