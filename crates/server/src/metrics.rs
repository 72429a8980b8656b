//! Lock-light request-level metrics: atomic counters and fixed-bucket
//! log-scaled latency histograms, rendered in Prometheus text
//! exposition format.
//!
//! Everything on the request path is wait-free: counters are
//! `AtomicU64`s and histograms are fixed arrays of `AtomicU64` buckets
//! whose boundaries are compile-time constants (powers of two in
//! nanoseconds), so recording is an index computation plus one
//! `fetch_add` — no locks, no allocation, no floating-point
//! accumulation races (sums are integer nanoseconds). Build-time spans
//! (`stage/generate`, `mine/Italian`, ...) arrive through the
//! [`cuisine_atlas::pipeline::SpanSink`] trait and land in a
//! lazily-grown span table guarded by an `RwLock` — builds are rare,
//! requests are not, so only the rare path pays a lock.
//!
//! Bucket boundaries are *fixed* rather than adaptive on purpose: two
//! registries that saw the same events render byte-identical output,
//! and recording threads never coordinate (see DESIGN.md §8).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use cuisine_atlas::pipeline::SpanSink;

/// Number of finite histogram buckets.
pub const FINITE_BUCKETS: usize = 28;

/// Upper bounds (inclusive, `le` semantics) of the finite buckets, in
/// nanoseconds: `1024ns · 2^i` for `i in 0..28`, spanning ~1µs to
/// ~137s. A 29th implicit `+Inf` bucket catches the rest.
pub const BUCKET_BOUNDS_NANOS: [u64; FINITE_BUCKETS] = {
    let mut bounds = [0u64; FINITE_BUCKETS];
    let mut i = 0;
    while i < FINITE_BUCKETS {
        bounds[i] = 1024u64 << i;
        i += 1;
    }
    bounds
};

/// A fixed-bucket, log2-scaled latency histogram with atomic buckets.
///
/// Values are durations in nanoseconds. Bucket `i` counts samples `v`
/// with `bounds[i-1] < v <= bounds[i]`; the final bucket is `+Inf`.
/// Because bucket widths double, any quantile estimated from bucket
/// counts is within a factor of 2 of the true sample (see
/// [`HistogramSnapshot::quantile`] for the exact bound).
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; FINITE_BUCKETS + 1],
    sum_nanos: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the bucket a sample of `nanos` falls into.
    pub fn bucket_index(nanos: u64) -> usize {
        // First bound >= nanos; the +Inf bucket if none is.
        BUCKET_BOUNDS_NANOS
            .iter()
            .position(|&b| nanos <= b)
            .unwrap_or(FINITE_BUCKETS)
    }

    /// Record one sample.
    pub fn record(&self, d: Duration) {
        self.record_nanos(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record one sample given directly in nanoseconds.
    pub fn record_nanos(&self, nanos: u64) {
        self.buckets[Self::bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts and sum.
    ///
    /// The total count is derived from the bucket counts themselves, so
    /// a snapshot is always self-consistent even while other threads
    /// keep recording.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; FINITE_BUCKETS + 1];
        for (out, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *out = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    buckets: [u64; FINITE_BUCKETS + 1],
    sum_nanos: u64,
}

impl HistogramSnapshot {
    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all recorded samples, in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_nanos as f64 / 1e9
    }

    /// Per-bucket (non-cumulative) counts, `+Inf` last.
    pub fn bucket_counts(&self) -> &[u64; FINITE_BUCKETS + 1] {
        &self.buckets
    }

    /// Estimate the `q`-quantile (`0 < q <= 1`) in seconds, or `None`
    /// if the histogram is empty.
    ///
    /// The estimate interpolates linearly inside the bucket holding the
    /// target rank, so it always lies within that bucket's bounds —
    /// i.e. within a factor of 2 of the true sample for finite buckets
    /// (the `+Inf` bucket reports its lower bound).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let target = (q * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            seen += n;
            if seen >= target {
                let hi = if i < FINITE_BUCKETS {
                    BUCKET_BOUNDS_NANOS[i] as f64
                } else {
                    // +Inf bucket: report its lower bound, the largest
                    // finite boundary.
                    return Some(BUCKET_BOUNDS_NANOS[FINITE_BUCKETS - 1] as f64 / 1e9);
                };
                let lo = if i == 0 {
                    0.0
                } else {
                    BUCKET_BOUNDS_NANOS[i - 1] as f64
                };
                // Rank position inside this bucket, in (0, 1].
                let into = (target - (seen - n)) as f64 / n as f64;
                return Some((lo + (hi - lo) * into) / 1e9);
            }
        }
        None
    }
}

/// Counter block for one routed endpoint (labelled by route pattern,
/// never by raw path — cardinality stays bounded by the routing table).
#[derive(Debug)]
pub struct EndpointMetrics {
    label: &'static str,
    requests: AtomicU64,
    /// Status-class counts: index 0 ↔ 1xx ... index 4 ↔ 5xx.
    classes: [AtomicU64; 5],
    latency: Histogram,
}

impl EndpointMetrics {
    fn new(label: &'static str) -> Self {
        EndpointMetrics {
            label,
            requests: AtomicU64::new(0),
            classes: Default::default(),
            latency: Histogram::new(),
        }
    }

    /// The route pattern this block counts.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Requests recorded so far.
    pub fn request_count(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Snapshot of the handler-latency histogram.
    pub fn latency(&self) -> HistogramSnapshot {
        self.latency.snapshot()
    }
}

/// Label used for requests that matched no route (404s).
pub const UNROUTED_LABEL: &str = "unrouted";

/// The server-wide metrics registry: per-endpoint request counters and
/// latency histograms, queue-wait and connection counters, cache and
/// single-flight event counters, and build-time spans.
#[derive(Debug)]
pub struct MetricsRegistry {
    endpoints: Vec<EndpointMetrics>,
    unrouted: EndpointMetrics,
    queue_wait: Histogram,
    connections: AtomicU64,
    shed: AtomicU64,
    parse_errors: AtomicU64,
    handler_panics: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    builds: AtomicU64,
    dedup: AtomicU64,
    corpus_uploads: AtomicU64,
    corpus_rejects: AtomicU64,
    // Builds by corpus label ("synthetic" or a digest prefix). The
    // server drops the label of every corpus that leaves its registry,
    // so the map stays as small as the registry; builds are rare enough
    // that a lock is fine.
    builds_by_corpus: RwLock<BTreeMap<String, u64>>,
    spans: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// A registry with one counter block per route label. Labels must
    /// be the router's patterns (`/tree/pattern/:metric`, ...).
    pub fn new(labels: &[&'static str]) -> Self {
        MetricsRegistry {
            endpoints: labels.iter().map(|&l| EndpointMetrics::new(l)).collect(),
            unrouted: EndpointMetrics::new(UNROUTED_LABEL),
            queue_wait: Histogram::new(),
            connections: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            parse_errors: AtomicU64::new(0),
            handler_panics: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            dedup: AtomicU64::new(0),
            corpus_uploads: AtomicU64::new(0),
            corpus_rejects: AtomicU64::new(0),
            builds_by_corpus: RwLock::new(BTreeMap::new()),
            spans: RwLock::new(BTreeMap::new()),
        }
    }

    /// The counter block for a route label (the unrouted block when the
    /// label is unknown, so recording never fails).
    pub fn endpoint(&self, label: &str) -> &EndpointMetrics {
        self.endpoints
            .iter()
            .find(|e| e.label == label)
            .unwrap_or(&self.unrouted)
    }

    /// Every endpoint block, registration order, unrouted last.
    pub fn endpoints(&self) -> impl Iterator<Item = &EndpointMetrics> {
        self.endpoints.iter().chain(std::iter::once(&self.unrouted))
    }

    /// Record one completed request: its route label (`None` when no
    /// route matched), response status, and handler wall time.
    pub fn record_request(&self, label: Option<&str>, status: u16, handler: Duration) {
        let endpoint = match label {
            Some(l) => self.endpoint(l),
            None => &self.unrouted,
        };
        endpoint.requests.fetch_add(1, Ordering::Relaxed);
        let class = (status / 100).clamp(1, 5) as usize - 1;
        endpoint.classes[class].fetch_add(1, Ordering::Relaxed);
        endpoint.latency.record(handler);
    }

    /// Record how long an accepted connection waited in the pool queue.
    pub fn record_queue_wait(&self, wait: Duration) {
        self.queue_wait.record(wait);
    }

    /// Count one accepted connection.
    pub fn record_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one load-shed connection (503 before routing).
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one malformed request (400 before routing).
    pub fn record_parse_error(&self) {
        self.parse_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one request whose handler panicked (500, then close).
    pub fn record_handler_panic(&self) {
        self.handler_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one atlas-cache hit.
    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one atlas-cache miss.
    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one cold atlas build (a single-flight leader).
    pub fn record_build(&self) {
        self.builds.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one deduplicated build (a single-flight waiter that shared
    /// a leader's result instead of building).
    pub fn record_dedup(&self) {
        self.dedup.fetch_add(1, Ordering::Relaxed);
    }

    /// Lifetime `(hits, misses)` of the atlas cache.
    pub fn cache_totals(&self) -> (u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
        )
    }

    /// Cold builds performed since startup.
    pub fn build_total(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Builds avoided through single-flight deduplication.
    pub fn dedup_total(&self) -> u64 {
        self.dedup.load(Ordering::Relaxed)
    }

    /// Count one accepted corpus upload (including idempotent
    /// re-uploads of an already-registered digest).
    pub fn record_corpus_upload(&self) {
        self.corpus_uploads.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one rejected corpus upload (oversize, malformed, or
    /// failing validation).
    pub fn record_corpus_reject(&self) {
        self.corpus_rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// Accepted corpus uploads since startup.
    pub fn corpus_uploads(&self) -> u64 {
        self.corpus_uploads.load(Ordering::Relaxed)
    }

    /// Rejected corpus uploads since startup.
    pub fn corpus_rejects(&self) -> u64 {
        self.corpus_rejects.load(Ordering::Relaxed)
    }

    /// Attribute one cold build to a corpus label (`"synthetic"` for
    /// the generator, a digest prefix for uploads).
    pub fn record_build_for_corpus(&self, label: &str) {
        let mut map = self.builds_by_corpus.write().unwrap();
        *map.entry(label.to_string()).or_insert(0) += 1;
    }

    /// Keep only the per-corpus build series whose label passes `keep`.
    pub fn retain_builds_by_corpus(&self, keep: impl Fn(&str) -> bool) {
        self.builds_by_corpus
            .write()
            .unwrap()
            .retain(|label, _| keep(label));
    }

    /// Per-corpus build counts, `(label, builds)` in label order.
    pub fn builds_by_corpus(&self) -> Vec<(String, u64)> {
        let map = self.builds_by_corpus.read().unwrap();
        map.iter().map(|(k, &v)| (k.clone(), v)).collect()
    }

    /// Named build spans recorded so far, as `(name, snapshot)` pairs
    /// in lexicographic name order.
    pub fn span_snapshots(&self) -> Vec<(String, HistogramSnapshot)> {
        let spans = self.spans.read().unwrap();
        spans
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect()
    }

    /// Render the whole registry in Prometheus text exposition format.
    ///
    /// `extra` lines (cache gauges the registry does not own) are
    /// appended verbatim by the caller.
    pub fn render_prometheus(&self, extra: &str) -> String {
        let mut out = String::with_capacity(16 * 1024);

        out.push_str("# HELP atlas_requests_total Requests dispatched, by route pattern.\n");
        out.push_str("# TYPE atlas_requests_total counter\n");
        for e in self.endpoints() {
            let n = e.requests.load(Ordering::Relaxed);
            out.push_str(&format!(
                "atlas_requests_total{{endpoint=\"{}\"}} {}\n",
                e.label, n
            ));
        }

        out.push_str("# HELP atlas_responses_total Responses by route pattern and status class.\n");
        out.push_str("# TYPE atlas_responses_total counter\n");
        for e in self.endpoints() {
            for (i, class) in e.classes.iter().enumerate() {
                let n = class.load(Ordering::Relaxed);
                if n > 0 {
                    out.push_str(&format!(
                        "atlas_responses_total{{endpoint=\"{}\",class=\"{}xx\"}} {}\n",
                        e.label,
                        i + 1,
                        n
                    ));
                }
            }
        }

        out.push_str(
            "# HELP atlas_request_duration_seconds Handler wall time, by route pattern.\n",
        );
        out.push_str("# TYPE atlas_request_duration_seconds histogram\n");
        for e in self.endpoints() {
            let snap = e.latency.snapshot();
            if snap.count() == 0 {
                continue;
            }
            render_histogram(
                &mut out,
                "atlas_request_duration_seconds",
                &format!("endpoint=\"{}\"", e.label),
                &snap,
            );
        }

        out.push_str(
            "# HELP atlas_queue_wait_seconds Time accepted connections waited for a worker.\n",
        );
        out.push_str("# TYPE atlas_queue_wait_seconds histogram\n");
        render_histogram(
            &mut out,
            "atlas_queue_wait_seconds",
            "",
            &self.queue_wait.snapshot(),
        );

        for (name, help, counter) in [
            (
                "atlas_connections_total",
                "Connections handled by workers.",
                &self.connections,
            ),
            (
                "atlas_shed_total",
                "Connections answered 503 by load shedding.",
                &self.shed,
            ),
            (
                "atlas_parse_errors_total",
                "Requests rejected as malformed HTTP.",
                &self.parse_errors,
            ),
            (
                "atlas_handler_panics_total",
                "Requests whose handler panicked, answered 500.",
                &self.handler_panics,
            ),
            (
                "atlas_cache_hits_total",
                "Atlas cache hits.",
                &self.cache_hits,
            ),
            (
                "atlas_cache_misses_total",
                "Atlas cache misses.",
                &self.cache_misses,
            ),
            (
                "atlas_builds_total",
                "Cold atlas builds performed.",
                &self.builds,
            ),
            (
                "atlas_build_dedup_total",
                "Builds avoided by single-flight deduplication.",
                &self.dedup,
            ),
            (
                "atlas_corpus_uploads_total",
                "Corpus uploads accepted.",
                &self.corpus_uploads,
            ),
            (
                "atlas_corpus_upload_rejects_total",
                "Corpus uploads rejected before registration.",
                &self.corpus_rejects,
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            out.push_str(&format!("{name} {}\n", counter.load(Ordering::Relaxed)));
        }

        let by_corpus = self.builds_by_corpus();
        if !by_corpus.is_empty() {
            out.push_str(
                "# HELP atlas_builds_by_corpus_total Cold builds by corpus label.\n\
                 # TYPE atlas_builds_by_corpus_total counter\n",
            );
            for (label, n) in &by_corpus {
                out.push_str(&format!(
                    "atlas_builds_by_corpus_total{{corpus=\"{label}\"}} {n}\n"
                ));
            }
        }

        let spans = self.span_snapshots();
        if !spans.is_empty() {
            out.push_str(
                "# HELP atlas_build_span_seconds Pipeline build spans (stages and per-cuisine mining).\n",
            );
            out.push_str("# TYPE atlas_build_span_seconds histogram\n");
            for (name, snap) in &spans {
                render_histogram(
                    &mut out,
                    "atlas_build_span_seconds",
                    &format!("span=\"{name}\""),
                    snap,
                );
            }
        }

        out.push_str(extra);
        out
    }
}

impl SpanSink for MetricsRegistry {
    fn record_span(&self, name: &str, wall_ms: f64) {
        let nanos = (wall_ms * 1e6).max(0.0) as u64;
        if let Some(h) = self.spans.read().unwrap().get(name) {
            h.record_nanos(nanos);
            return;
        }
        let h = Arc::clone(
            self.spans
                .write()
                .unwrap()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        );
        h.record_nanos(nanos);
    }
}

/// Append one histogram's `_bucket`/`_sum`/`_count` lines. `labels` is
/// the rendered inner label list without braces (may be empty).
fn render_histogram(out: &mut String, name: &str, labels: &str, snap: &HistogramSnapshot) {
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    for (i, &n) in snap.bucket_counts().iter().enumerate() {
        cumulative += n;
        // Only the buckets that change the cumulative count (plus +Inf)
        // are emitted, keeping scrapes compact without losing anything.
        if n == 0 && i < FINITE_BUCKETS {
            continue;
        }
        let le = if i < FINITE_BUCKETS {
            format_seconds(BUCKET_BOUNDS_NANOS[i])
        } else {
            "+Inf".to_string()
        };
        out.push_str(&format!(
            "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}\n"
        ));
    }
    // Unlabelled series render bare (`name value`), not with `{}`.
    let block = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    out.push_str(&format!(
        "{name}_sum{block} {}\n",
        format_f64(snap.sum_seconds())
    ));
    out.push_str(&format!("{name}_count{block} {}\n", snap.count()));
}

/// Render a nanosecond boundary as seconds without float noise
/// (`1024ns` → `"0.000001024"`).
fn format_seconds(nanos: u64) -> String {
    let secs = nanos / 1_000_000_000;
    let frac = nanos % 1_000_000_000;
    if frac == 0 {
        format!("{secs}")
    } else {
        let mut s = format!("{secs}.{frac:09}");
        while s.ends_with('0') {
            s.pop();
        }
        s
    }
}

fn format_f64(v: f64) -> String {
    // Plain decimal; serde_json-style shortest form is overkill here.
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_boundaries_are_doubling_and_le_inclusive() {
        assert_eq!(BUCKET_BOUNDS_NANOS[0], 1024);
        for w in BUCKET_BOUNDS_NANOS.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
        // A value exactly on a boundary lands in that bucket (le
        // semantics); one past it lands in the next.
        for (i, &b) in BUCKET_BOUNDS_NANOS.iter().enumerate() {
            assert_eq!(Histogram::bucket_index(b), i, "on boundary {b}");
            assert_eq!(Histogram::bucket_index(b + 1), i + 1, "past boundary {b}");
        }
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(u64::MAX), FINITE_BUCKETS);
    }

    #[test]
    fn quantiles_are_within_their_buckets_bounds() {
        let h = Histogram::new();
        // 1000 samples spread log-uniformly from 2µs to ~2s.
        let mut samples = Vec::new();
        for i in 0..1000u64 {
            let nanos = 2048 + i * i * 2_000; // quadratic spread, max ~2s
            samples.push(nanos);
            h.record_nanos(nanos);
        }
        samples.sort_unstable();
        let snap = h.snapshot();
        for q in [0.5, 0.9, 0.99] {
            let est = snap.quantile(q).unwrap() * 1e9;
            let true_rank = ((q * samples.len() as f64).ceil() as usize).max(1) - 1;
            let true_value = samples[true_rank];
            let i = Histogram::bucket_index(true_value);
            let lo = if i == 0 {
                0
            } else {
                BUCKET_BOUNDS_NANOS[i - 1]
            };
            let hi = BUCKET_BOUNDS_NANOS[i];
            assert!(
                est >= lo as f64 && est <= hi as f64,
                "q={q}: estimate {est} outside bucket [{lo}, {hi}] of true value {true_value}"
            );
            // Doubling buckets ⇒ the estimate is within 2× of the truth
            // (up to the bucket's lower edge).
            assert!(est <= 2.0 * true_value as f64 && 2.0 * est >= true_value as f64);
        }
    }

    #[test]
    fn empty_histogram_has_no_quantile() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert!(snap.quantile(0.5).is_none());
    }

    #[test]
    fn concurrent_recording_conserves_counts_exactly() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 5_000;
        let h = Arc::new(Histogram::new());
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Deterministic per-thread spread across buckets.
                        h.record_nanos(1024 << ((t * PER_THREAD + i) % 20));
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(
            snap.count(),
            THREADS * PER_THREAD,
            "no sample lost or duplicated"
        );
        let mut expected_sum = 0u64;
        for k in 0..THREADS * PER_THREAD {
            expected_sum += 1024 << (k % 20);
        }
        assert_eq!(snap.sum_nanos, expected_sum, "sums conserve exactly");
    }

    #[test]
    fn registry_counts_requests_by_label_and_class() {
        let reg = MetricsRegistry::new(&["/health", "/table1"]);
        reg.record_request(Some("/table1"), 200, Duration::from_micros(100));
        reg.record_request(Some("/table1"), 200, Duration::from_micros(200));
        reg.record_request(Some("/table1"), 400, Duration::from_micros(10));
        reg.record_request(None, 404, Duration::from_micros(5));
        assert_eq!(reg.endpoint("/table1").request_count(), 3);
        assert_eq!(reg.endpoint("/health").request_count(), 0);
        assert_eq!(reg.endpoint(UNROUTED_LABEL).request_count(), 1);
        assert_eq!(reg.endpoint("/table1").latency().count(), 3);
        let text = reg.render_prometheus("");
        assert!(text.contains("atlas_requests_total{endpoint=\"/table1\"} 3"));
        assert!(text.contains("atlas_responses_total{endpoint=\"/table1\",class=\"2xx\"} 2"));
        assert!(text.contains("atlas_responses_total{endpoint=\"/table1\",class=\"4xx\"} 1"));
        assert!(text.contains("atlas_responses_total{endpoint=\"unrouted\",class=\"4xx\"} 1"));
    }

    #[test]
    fn spans_land_in_named_histograms() {
        let reg = MetricsRegistry::new(&[]);
        reg.record_span("stage/generate", 12.5);
        reg.record_span("stage/generate", 14.0);
        reg.record_span("mine/Italian", 3.0);
        let spans = reg.span_snapshots();
        let names: Vec<&str> = spans.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["mine/Italian", "stage/generate"]);
        assert_eq!(spans[1].1.count(), 2);
        let text = reg.render_prometheus("");
        assert!(text.contains("atlas_build_span_seconds_count{span=\"stage/generate\"} 2"));
    }

    #[test]
    fn corpus_counters_render_and_accumulate() {
        let reg = MetricsRegistry::new(&[]);
        reg.record_corpus_upload();
        reg.record_corpus_reject();
        reg.record_corpus_reject();
        reg.record_build_for_corpus("synthetic");
        reg.record_build_for_corpus("synthetic");
        reg.record_build_for_corpus("3f2a9c01");
        assert_eq!(reg.corpus_uploads(), 1);
        assert_eq!(reg.corpus_rejects(), 2);
        assert_eq!(
            reg.builds_by_corpus(),
            vec![("3f2a9c01".to_string(), 1), ("synthetic".to_string(), 2)]
        );
        let text = reg.render_prometheus("");
        assert!(text.contains("atlas_corpus_uploads_total 1"));
        assert!(text.contains("atlas_corpus_upload_rejects_total 2"));
        assert!(text.contains("atlas_builds_by_corpus_total{corpus=\"synthetic\"} 2"));
        assert!(text.contains("atlas_builds_by_corpus_total{corpus=\"3f2a9c01\"} 1"));
        reg.retain_builds_by_corpus(|label| label == "synthetic");
        assert_eq!(reg.builds_by_corpus(), vec![("synthetic".to_string(), 2)]);
    }

    #[test]
    fn prometheus_boundary_rendering_is_exact() {
        assert_eq!(format_seconds(1024), "0.000001024");
        assert_eq!(format_seconds(1_000_000_000), "1");
        assert_eq!(format_seconds(1024 << 27), "137.438953472");
    }
}
