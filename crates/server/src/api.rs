//! The JSON API: shared state, query-parameter parsing, and every
//! endpoint handler.
//!
//! All atlas-backed endpoints accept the same query parameters —
//! `seed`, `scale`, `linkage`, `min_support` — which select (or build)
//! an atlas in the cache, plus `corpus=<digest>` to run the same
//! pipeline over a corpus previously uploaded via `POST /corpus`
//! instead of the synthetic generator. Identical parameters always
//! serve identical bytes; concurrent cold requests for the same
//! parameters trigger exactly one build.
//!
//! The seven atlas routes share one handler: [`Artifact::parse`] maps a
//! path and query to an [`Artifact`], and [`Artifact::render`] builds its
//! body. `POST /batch` renders several artifacts of one atlas in a single
//! round trip. Each of its specs is a GET path without the leading slash,
//! decoded and parsed the same way, so a member's body is the GET
//! response's bytes. `repro --json` renders through the same function.

use std::collections::VecDeque;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant, SystemTime};

use atlas_store::SnapshotStore;
use clustering::hac::LinkageMethod;
use clustering::Metric;
use cuisine_atlas::compare::{geo_agreement, historical_claims};
use cuisine_atlas::pipeline::{AtlasConfig, BuildTimings, CuisineAtlas, SpanSink};
use cuisine_atlas::snapshot::{self, CorpusOrigin};
use cuisine_atlas::views::{AgreementView, ElbowView, FingerprintView, Table1View, TreeView};
use recipedb::{Cuisine, RecipeDbError};
use serde_json::json;
use serde_json::Serialize;

use crate::cache::{CacheKey, Lookup, Lru};
use crate::corpus::{CorpusInfo, CorpusRegistry};
use crate::error::ApiError;
use crate::http::{Request, Response};
use crate::metrics::MetricsRegistry;
use crate::router::{PathParams, Router};

/// Largest corpus scale the server will build on demand.
const MAX_SCALE: f64 = 1.0;
/// Largest k accepted by `/elbow`.
const MAX_ELBOW_K: usize = 26;
/// Largest per-extreme item count accepted by `/fingerprint`.
const MAX_FINGERPRINT_K: usize = 100;
/// Per-stage timings kept for the most recent cold builds — bounded so
/// `/health` stays O(1) however long the server runs, deep enough that
/// a build evicted from the LRU cache and rebuilt is still visible.
const RECENT_BUILDS: usize = 8;
/// Largest number of artifacts one `POST /batch` may request.
const MAX_BATCH_ARTIFACTS: usize = 32;
/// Uploaded corpora kept when [`AppState::new`] is used directly
/// (mirrors `ServerConfig::default().max_corpora`).
const DEFAULT_MAX_CORPORA: usize = 8;
/// Digest-prefix length used as the per-corpus metrics label.
const CORPUS_LABEL_LEN: usize = 12;
/// The per-corpus metrics label of the synthetic generator's corpora.
const SYNTHETIC_LABEL: &str = "synthetic";

/// Shared state behind every handler: the atlas cache (which also
/// deduplicates concurrent cold builds), the uploaded-corpus registry,
/// the optional persistent snapshot store, and the metrics registry
/// every request reports into.
pub struct AppState {
    cache: Lru<CacheKey, CuisineAtlas>,
    corpora: CorpusRegistry,
    store: Option<Arc<SnapshotStore>>,
    corpus_ttl: Option<Duration>,
    workers: usize,
    build_threads: usize,
    recent_timings: RwLock<VecDeque<BuildTimings>>,
    metrics: MetricsRegistry,
}

impl AppState {
    /// State with an atlas cache of `cache_capacity` entries, reporting
    /// `workers` in `/health` and building cold atlases over
    /// `build_threads` workers (`0` = all available parallelism).
    pub fn new(cache_capacity: usize, workers: usize, build_threads: usize) -> Self {
        Self::with_limits(cache_capacity, workers, build_threads, DEFAULT_MAX_CORPORA)
    }

    /// [`AppState::new`] with an explicit bound on registered corpora.
    pub fn with_limits(
        cache_capacity: usize,
        workers: usize,
        build_threads: usize,
        max_corpora: usize,
    ) -> Self {
        Self::with_persistence(
            cache_capacity,
            workers,
            build_threads,
            max_corpora,
            None,
            None,
        )
    }

    /// [`AppState::with_limits`] backed by a persistent snapshot store
    /// and an optional TTL for uploaded corpora. Uploaded corpora found
    /// in the store are re-registered immediately (the warm start), so
    /// `?corpus=` digests issued before a restart keep resolving.
    pub fn with_persistence(
        cache_capacity: usize,
        workers: usize,
        build_threads: usize,
        max_corpora: usize,
        store: Option<Arc<SnapshotStore>>,
        corpus_ttl: Option<Duration>,
    ) -> Self {
        let state = AppState {
            cache: Lru::new(cache_capacity),
            corpora: CorpusRegistry::new(max_corpora),
            store,
            corpus_ttl,
            workers,
            build_threads,
            recent_timings: RwLock::new(VecDeque::with_capacity(RECENT_BUILDS)),
            metrics: MetricsRegistry::new(&router().labels()),
        };
        state.restore_corpora();
        state
    }

    /// Re-register uploaded corpora persisted in the store, so digests
    /// handed out before a restart keep working. Oldest first, so the
    /// most recently persisted corpora win the registry's LRU cap when
    /// there are more snapshots than slots. Generated corpus files, which
    /// older builds wrote, are skipped: a generated atlas is rebuilt from
    /// its config, never restored, and was never addressable by digest.
    fn restore_corpora(&self) {
        let Some(store) = &self.store else { return };
        let mut stored: Vec<_> = store
            .corpora()
            .into_iter()
            .filter(|c| c.origin == CorpusOrigin::Uploaded)
            .collect();
        stored.sort_by(|a, b| {
            a.modified
                .cmp(&b.modified)
                .then_with(|| a.digest.cmp(&b.digest))
        });
        for c in stored {
            let Some(bytes) = store.load_corpus(&c.digest) else {
                continue;
            };
            match snapshot::decode_corpus(&bytes) {
                Ok(snap) => {
                    let recipes = snap.db.recipe_count();
                    let cuisines = snap.db.cuisines().count();
                    self.corpora.insert(CorpusInfo {
                        digest: snap.digest,
                        db: Arc::new(snap.db),
                        recipes,
                        cuisines,
                        bytes: snap.upload_bytes as usize,
                        registered_at: c.modified,
                    });
                }
                Err(e) => {
                    if e.is_corruption() {
                        store.quarantine_corpus(&c.digest);
                    }
                }
            }
        }
    }

    /// Number of atlas builds performed since startup. The cache builds
    /// each key once, which makes this strictly smaller than the number
    /// of cold requests under concurrency.
    pub fn build_count(&self) -> usize {
        self.metrics.build_total() as usize
    }

    /// Per-stage timings of up to the last `RECENT_BUILDS` (8) cold
    /// builds, most recent first.
    pub fn recent_build_timings(&self) -> Vec<BuildTimings> {
        self.recent_timings
            .read()
            .unwrap()
            .iter()
            .rev()
            .copied()
            .collect()
    }

    /// The request-level metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The uploaded-corpus registry.
    pub fn corpora(&self) -> &CorpusRegistry {
        &self.corpora
    }

    /// The persistent snapshot store, when one is configured.
    pub fn store(&self) -> Option<&Arc<SnapshotStore>> {
        self.store.as_ref()
    }

    /// Lifetime `(hits, misses)` of the atlas cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.metrics.cache_totals()
    }

    /// The atlas for `config` over the implicit (generator-backed)
    /// corpus — cached, or built once even under concurrent identical
    /// requests.
    pub fn atlas(&self, config: &AtlasConfig) -> Arc<CuisineAtlas> {
        self.atlas_for(None, config)
    }

    /// The corpus selected by a request's `corpus` query parameter:
    /// `None` for the implicit synthetic corpus, the registered upload
    /// for a known digest, and a 404 for an unknown one. Expired
    /// corpora are swept first, so a TTL'd digest 404s rather than
    /// serving stale data.
    pub fn resolve_corpus(&self, request: &Request) -> Result<Option<Arc<CorpusInfo>>, ApiError> {
        self.purge_expired();
        match request.query_param("corpus") {
            Some(digest) => self.corpora.get(digest).map(Some).ok_or_else(|| {
                ApiError::not_found(format!(
                    "unknown corpus {digest:?}; upload it via POST /corpus first"
                ))
            }),
            None => Ok(None),
        }
    }

    /// Remove a corpus everywhere it lives: the registry, the atlas
    /// cache, and the snapshot store (its corpus file plus every atlas
    /// snapshot built from it). The corpus file goes first: a build
    /// persists an upload's atlas only while that file is stored.
    pub fn purge_corpus(&self, digest: &str) -> CorpusRemoval {
        let registered = self.corpora.remove(digest);
        self.prune_corpus_labels();
        let cached_atlases = self
            .cache
            .remove_where(|k| k.corpus_digest() == Some(digest));
        let (corpus_snapshot, atlas_snapshots) = match &self.store {
            Some(store) => (
                store.remove_corpus(digest),
                store.remove_atlases_for_corpus(digest),
            ),
            None => (false, 0),
        };
        CorpusRemoval {
            registered,
            cached_atlases,
            atlas_snapshots,
            corpus_snapshot,
        }
    }

    /// Drop the per-corpus build series of corpora that left the
    /// registry, so `/metrics` keeps one series per registered upload
    /// (plus the synthetic corpus's).
    fn prune_corpus_labels(&self) {
        let live: Vec<String> = self
            .corpora
            .infos()
            .iter()
            .map(|i| corpus_label(&i.digest))
            .collect();
        self.metrics.retain_builds_by_corpus(|label| {
            label == SYNTHETIC_LABEL || live.iter().any(|l| l == label)
        });
    }

    /// Sweep uploaded corpora past the configured TTL (a lazy sweep run
    /// by the endpoints that observe the registry). Returns how many
    /// corpora expired.
    pub fn purge_expired(&self) -> usize {
        let Some(ttl) = self.corpus_ttl else { return 0 };
        let now = SystemTime::now();
        let expired: Vec<String> = self
            .corpora
            .infos()
            .iter()
            .filter(|i| {
                now.duration_since(i.registered_at)
                    .is_ok_and(|age| age > ttl)
            })
            .map(|i| i.digest.clone())
            .collect();
        for digest in &expired {
            self.purge_corpus(digest);
        }
        expired.len()
    }

    /// The atlas for `config` over an explicit corpus (`None` = the
    /// synthetic generator) — cached, or built once even under
    /// concurrent identical requests. Uploaded and generated corpora
    /// share one cache; their keys differ by corpus digest. Only an
    /// upload's atlas is restored from, written through to and spilled
    /// to the snapshot store: a generated atlas regrows from its config
    /// faster than its corpus frame decodes, so its key never touches
    /// the store. The server's `build_threads` setting overrides the
    /// config's: thread count never changes the built atlas (see
    /// `cuisine_atlas::pipeline`), only its wall-clock cost, so it is
    /// deliberately not part of the cache key.
    pub fn atlas_for(
        &self,
        corpus: Option<&Arc<CorpusInfo>>,
        config: &AtlasConfig,
    ) -> Arc<CuisineAtlas> {
        let key = match corpus {
            Some(info) => CacheKey::for_corpus(&info.digest, config),
            None => CacheKey::from_config(config),
        };
        let (atlas, lookup, evicted) = self.cache.get_or_build(
            &key,
            || self.metrics.record_cache_miss(),
            || {
                // Tier 2: an upload's disk snapshot. A restore touches
                // none of the build counters — that absence is the
                // warm-restart acceptance signal (`builds == 0` after a
                // restart).
                if let Some(restored) = corpus.and_then(|info| self.try_restore(&key, info)) {
                    return restored;
                }
                // Tier 3: a cold build, an upload's written through to
                // the store.
                self.metrics.record_build();
                self.metrics.record_build_for_corpus(&match corpus {
                    Some(info) => corpus_label(&info.digest),
                    None => SYNTHETIC_LABEL.to_string(),
                });
                let build_config = config.clone().with_build_threads(self.build_threads);
                let built = match corpus {
                    Some(info) => CuisineAtlas::from_shared_with_sink(
                        Arc::clone(&info.db),
                        &build_config,
                        &self.metrics,
                    ),
                    None => CuisineAtlas::build_with_sink(&build_config, &self.metrics),
                };
                let mut recent = self.recent_timings.write().unwrap();
                if recent.len() == RECENT_BUILDS {
                    recent.pop_front();
                }
                recent.push_back(built.timings());
                drop(recent);
                self.persist_snapshot(&key, &built);
                built
            },
        );
        match lookup {
            Lookup::Hit => self.metrics.record_cache_hit(),
            Lookup::Waited => self.metrics.record_dedup(),
            Lookup::Built => {}
        }
        // Spill LRU evictions of upload atlases to disk so a hot cache
        // can shrink without losing work (a no-op for snapshots already
        // written through).
        for (old_key, old_atlas) in evicted {
            self.persist_snapshot(&old_key, &old_atlas);
        }
        atlas
    }

    /// Try to satisfy a cache miss over an uploaded corpus from its
    /// atlas snapshot. Damaged files are quarantined and `None` falls
    /// back to a cold build — a corrupt store degrades to rebuild cost,
    /// never to an error response.
    fn try_restore(&self, key: &CacheKey, info: &CorpusInfo) -> Option<CuisineAtlas> {
        let store = self.store.as_ref()?;
        let store_id = key.store_id();
        let bytes = self.spanned("store/probe", || store.load_atlas(&store_id))?;
        let db = Arc::clone(&info.db);
        match self.spanned("store/load", || {
            snapshot::decode_atlas(&bytes, db, &info.digest, self.build_threads)
        }) {
            Ok(atlas) => Some(atlas),
            Err(e) => {
                // Only damaged content is quarantined; a frame from a
                // different build is left in place for a rollback to
                // that build, and treated as a miss.
                if e.is_corruption() {
                    store.quarantine_atlas(&store_id);
                }
                None
            }
        }
    }

    /// Persist an upload's built atlas; a generated atlas is never
    /// stored. An upload's corpus file is written only by the upload
    /// itself, and its atlas is persisted only while that file is
    /// stored, so a purge during the build is not undone. Best-effort:
    /// a failed disk write never fails the request that triggered it.
    fn persist_snapshot(&self, key: &CacheKey, atlas: &CuisineAtlas) {
        let (Some(store), Some(digest)) = (&self.store, key.corpus_digest()) else {
            return;
        };
        if !store.contains_corpus(digest) {
            return;
        }
        let store_id = key.store_id();
        if store.contains_atlas(&store_id) {
            return;
        }
        let bytes = snapshot::encode_atlas(atlas, digest);
        let _ = self.spanned("store/persist", || {
            store.persist_atlas(&store_id, digest, &bytes)
        });
        // A purge that removed the upload while this atlas was written
        // wins: it removed the corpus file before the atlas files.
        if !store.contains_corpus(digest) {
            store.remove_atlases_for_corpus(digest);
        }
    }

    /// Write-through persist of an uploaded corpus: `body` is the
    /// request body `info` was parsed and validated from, framed as is
    /// rather than re-serialized from `info.db`. Best-effort, like every
    /// store write.
    fn persist_corpus_snapshot(&self, info: &CorpusInfo, body: &[u8]) {
        let Some(store) = &self.store else { return };
        if store.contains_corpus(&info.digest) {
            return;
        }
        let bytes = snapshot::frame_corpus_json(
            &info.digest,
            CorpusOrigin::Uploaded,
            body.len() as u64,
            body,
        );
        let _ = self.spanned("store/persist", || {
            store.persist_corpus(&info.digest, CorpusOrigin::Uploaded, &bytes)
        });
    }

    /// Run `f`, reporting its wall time through the same span sink the
    /// pipeline's build stages use — store I/O shows up next to
    /// `stage/*` in `atlas_build_span_seconds`.
    fn spanned<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.metrics
            .record_span(name, start.elapsed().as_secs_f64() * 1e3);
        out
    }
}

/// What a corpus purge (`DELETE /corpus/{digest}` or a TTL expiry)
/// actually removed, across all three tiers.
#[derive(Debug, Default, Clone, Copy)]
pub struct CorpusRemoval {
    /// Whether the digest was registered in memory.
    pub registered: bool,
    /// Cached atlases dropped from the LRU cache.
    pub cached_atlases: usize,
    /// Atlas snapshot files deleted from disk.
    pub atlas_snapshots: usize,
    /// Whether a corpus snapshot file was deleted from disk.
    pub corpus_snapshot: bool,
}

impl CorpusRemoval {
    /// Whether anything was removed at all.
    pub fn any(&self) -> bool {
        self.registered
            || self.cached_atlases > 0
            || self.atlas_snapshots > 0
            || self.corpus_snapshot
    }
}

/// The bounded metrics label of an uploaded corpus: a digest prefix.
fn corpus_label(digest: &str) -> String {
    digest.chars().take(CORPUS_LABEL_LEN).collect()
}

/// Parse the shared atlas-selection query parameters.
///
/// Defaults mirror [`AtlasConfig::quick`] with seed 23 — the same atlas
/// the test suite shares — so a bare `GET /table1` is fast and
/// reproducible.
pub fn config_from_query(request: &Request) -> Result<AtlasConfig, ApiError> {
    let seed = match request.query_param("seed") {
        Some(s) => s
            .parse::<u64>()
            .map_err(|_| ApiError::bad_request(format!("bad seed: {s:?}")))?,
        None => 23,
    };
    let mut config = AtlasConfig::quick(seed);
    if let Some(s) = request.query_param("scale") {
        let scale = s
            .parse::<f64>()
            .map_err(|_| ApiError::bad_request(format!("bad scale: {s:?}")))?;
        if !(scale > 0.0 && scale <= MAX_SCALE) {
            return Err(ApiError::bad_request(format!(
                "scale must be in (0, {MAX_SCALE}], got {scale}"
            )));
        }
        config.corpus.scale = scale;
    }
    if let Some(s) = request.query_param("min_support") {
        let min_support = s
            .parse::<f64>()
            .map_err(|_| ApiError::bad_request(format!("bad min_support: {s:?}")))?;
        if !(min_support > 0.0 && min_support < 1.0) {
            return Err(ApiError::bad_request(format!(
                "min_support must be in (0, 1), got {min_support}"
            )));
        }
        config.min_support = min_support;
    }
    if let Some(s) = request.query_param("linkage") {
        config.linkage = LinkageMethod::from_name(s).ok_or_else(|| {
            ApiError::bad_request(format!(
                "unknown linkage {s:?}; expected one of: {}",
                LinkageMethod::ALL.map(|m| m.name()).join(", ")
            ))
        })?;
    }
    Ok(config)
}

fn ok_json<T: Serialize>(view: &T) -> Result<Response, ApiError> {
    serde_json::to_string(view)
        .map(|body| Response::json(200, body))
        .map_err(|e| ApiError::internal(format!("serialization failed: {e}")))
}

/// Render an [`ApiError`] as its JSON body string.
fn error_body(err: &ApiError) -> String {
    json!({ "error": (err.message.as_str()), "status": (err.status) }).to_string()
}

/// Render an [`ApiError`] as its JSON response.
pub fn error_response(err: &ApiError) -> Response {
    Response::json(err.status, error_body(err))
}

/// Build the full routing table.
pub fn router() -> Router<AppState> {
    Router::new()
        .get("/health", health)
        .get("/cuisines", cuisines)
        .get("/table1", artifact)
        .get("/tree/pattern/:metric", artifact)
        .get("/tree/authenticity", artifact)
        .get("/tree/geo", artifact)
        .get("/compare", artifact)
        .get("/fingerprint/:cuisine", artifact)
        .get("/elbow", artifact)
        .get("/metrics", metrics)
        .post("/corpus", upload_corpus)
        .delete("/corpus/:digest", delete_corpus)
        .post("/batch", batch)
}

// ---------------------------------------------------------------------
// Artifacts.
//
// `Artifact::parse` is the only map from a path and query to an
// artifact, and `Artifact::render` the only code that builds an
// artifact's view. The GET routes, `POST /batch` and `repro --json` all
// go through both, so a batch member is byte-identical to the GET
// response for the same path by construction, and the small-corpus
// guards apply to every caller.
// ---------------------------------------------------------------------

/// One of the paper's artifacts, with the request parameters its body
/// depends on beyond the atlas itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// Table I: the top significant patterns per cuisine.
    Table1,
    /// Figures 2–4: the pattern tree under a metric.
    PatternTree(Metric),
    /// Figure 5: the authenticity tree.
    AuthenticityTree,
    /// Figure 6: the geographic tree.
    GeoTree,
    /// Every cuisine tree scored against geography, with the historical
    /// claims of Section VII.
    Compare,
    /// A cuisine's authenticity fingerprint.
    Fingerprint {
        /// The cuisine.
        cuisine: Cuisine,
        /// Items listed at each extreme.
        k: usize,
    },
    /// Figure 1: the elbow curve.
    Elbow {
        /// Largest k swept; clamped to the atlas's cuisine count.
        k_max: usize,
    },
}

impl Artifact {
    /// The artifact a percent-decoded path (leading slash optional) and
    /// its decoded query name. The path is checked first, so an unknown
    /// artifact, metric or cuisine is a 404; then `k` or `k_max` (400).
    pub fn parse(path: &str, query: &[(String, String)]) -> Result<Artifact, ApiError> {
        let param = |name: &str| {
            query
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
        };
        let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        Ok(match segments.as_slice() {
            ["table1"] => Artifact::Table1,
            ["tree", "pattern", name] => Artifact::PatternTree(
                Metric::ALL
                    .into_iter()
                    .find(|m| m.name() == *name)
                    .ok_or_else(|| {
                        ApiError::not_found(format!(
                            "no tree for metric {name:?}; expected euclidean, cosine or jaccard"
                        ))
                    })?,
            ),
            ["tree", "authenticity"] => Artifact::AuthenticityTree,
            ["tree", "geo"] => Artifact::GeoTree,
            ["compare"] => Artifact::Compare,
            ["fingerprint", name] => Artifact::Fingerprint {
                cuisine: Cuisine::from_name(name)
                    .ok_or_else(|| ApiError::not_found(format!("unknown cuisine {name:?}")))?,
                k: parse_bounded(param("k"), "k", 5, MAX_FINGERPRINT_K)?,
            },
            ["elbow"] => Artifact::Elbow {
                k_max: parse_bounded(param("k_max"), "k_max", 16, MAX_ELBOW_K)?,
            },
            _ => {
                return Err(ApiError::not_found(format!(
                    "unknown artifact {path:?}; expected table1, tree/pattern/:metric, \
                     tree/authenticity, tree/geo, compare, fingerprint/:cuisine or elbow"
                )))
            }
        })
    }

    /// The artifact a `POST /batch` spec names. A spec is a GET path
    /// without its leading slash, query included
    /// (`fingerprint/Indian%20Subcontinent?k=3`), decoded the way a GET
    /// request target is.
    fn from_spec(spec: &str) -> Result<Artifact, ApiError> {
        let (path, query) = spec.split_once('?').unwrap_or((spec, ""));
        let bad = || ApiError::bad_request(format!("bad percent-encoding in artifact {spec:?}"));
        let path = crate::http::percent_decode(path).ok_or_else(bad)?;
        let query = crate::http::parse_query(query).ok_or_else(bad)?;
        Artifact::parse(&path, &query)
    }

    /// The artifact's JSON body over `atlas`. `seed` seeds the elbow's
    /// k-means; no other artifact reads it.
    pub fn render(&self, atlas: &CuisineAtlas, seed: u64) -> Result<String, ApiError> {
        let n = atlas.cuisines().len();
        // Artifacts that cluster cuisines need at least two of them; fewer
        // is a well-formed corpus the pipeline cannot run on — 422, not a
        // panic.
        let clusters = matches!(
            self,
            Artifact::PatternTree(_)
                | Artifact::AuthenticityTree
                | Artifact::GeoTree
                | Artifact::Elbow { .. }
        );
        if clusters && n < 2 {
            return Err(ApiError::unprocessable(format!(
                "corpus covers {n} cuisine(s); hierarchical clustering needs at least 2"
            )));
        }
        let body = match *self {
            Artifact::Table1 => serde_json::to_string(&Table1View::from_table(&atlas.table1())),
            Artifact::PatternTree(metric) => {
                serde_json::to_string(&TreeView::from_tree(&atlas.pattern_tree(metric)))
            }
            Artifact::AuthenticityTree => {
                serde_json::to_string(&TreeView::from_tree(&atlas.authenticity_tree()))
            }
            Artifact::GeoTree => {
                serde_json::to_string(&TreeView::from_tree(&atlas.geographic_tree()))
            }
            Artifact::Compare => {
                // The historical-claims check references specific cuisines
                // (Canada, France, India, ...), so it only makes sense over
                // the full 26-region universe.
                if n != Cuisine::COUNT {
                    return Err(ApiError::unprocessable(format!(
                        "corpus covers {n} of {} cuisines; /compare needs all of them",
                        Cuisine::COUNT
                    )));
                }
                let geo = atlas.geographic_tree();
                let trees = [
                    atlas.pattern_tree(Metric::Euclidean),
                    atlas.pattern_tree(Metric::Cosine),
                    atlas.pattern_tree(Metric::Jaccard),
                    atlas.authenticity_tree(),
                ];
                let views: Vec<AgreementView> = trees
                    .iter()
                    .map(|tree| {
                        AgreementView::from_parts(
                            &geo_agreement(tree, &geo),
                            &historical_claims(tree),
                        )
                    })
                    .collect();
                serde_json::to_string(&views)
            }
            Artifact::Fingerprint { cuisine, k } => {
                if !atlas.cuisines().contains(&cuisine) {
                    return Err(ApiError::not_found(format!(
                        "cuisine {} has no recipes in this corpus",
                        cuisine.name()
                    )));
                }
                serde_json::to_string(&FingerprintView::from_matrix(
                    atlas.authenticity_matrix(),
                    atlas.db(),
                    cuisine,
                    k,
                ))
            }
            Artifact::Elbow { k_max } => {
                // More clusters than cuisines is not meaningful; clamp
                // instead of erroring so a default k_max works for any
                // corpus. A no-op for the full 26-cuisine universe, where
                // k_max is already capped.
                let k_max = k_max.min(n);
                serde_json::to_string(&ElbowView {
                    k_max,
                    seed,
                    wcss: atlas.elbow_curve(k_max, seed),
                })
            }
        };
        body.map_err(|e| ApiError::internal(format!("serialization failed: {e}")))
    }
}

/// Parse a positive bounded integer query parameter.
fn parse_bounded(
    raw: Option<&str>,
    name: &str,
    default: usize,
    max: usize,
) -> Result<usize, ApiError> {
    match raw {
        Some(s) => {
            let k = s
                .parse::<usize>()
                .map_err(|_| ApiError::bad_request(format!("bad {name}: {s:?}")))?;
            if k == 0 || k > max {
                return Err(ApiError::bad_request(format!(
                    "{name} must be in 1..={max}, got {k}"
                )));
            }
            Ok(k)
        }
        None => Ok(default),
    }
}

fn timings_json(t: &BuildTimings) -> serde_json::Value {
    json!({
        "generate": (t.generate_ms),
        "mine": (t.mine_ms),
        "features": (t.features_ms),
        "pdist": (t.pdist_ms),
        "total": (t.total_ms()),
    })
}

fn health(state: &AppState, _: &Request, _: &PathParams) -> Result<Response, ApiError> {
    state.purge_expired();
    let (hits, misses) = state.cache_stats();
    let recent = state.recent_build_timings();
    let last_build_ms = recent.first().map(timings_json);
    let recent_builds_ms: Vec<serde_json::Value> = recent.iter().map(timings_json).collect();
    // Per-endpoint latency summary, only for endpoints that saw traffic.
    let mut latency_ms = serde_json::Map::new();
    for e in state.metrics.endpoints() {
        let snap = e.latency();
        if snap.count() == 0 {
            continue;
        }
        latency_ms.insert(
            e.label().to_string(),
            json!({
                "count": (snap.count()),
                "p50": (snap.quantile(0.5).map(|s| s * 1e3)),
                "p99": (snap.quantile(0.99).map(|s| s * 1e3)),
            }),
        );
    }
    // Per-corpus accounting: in-memory footprint plus (when a store is
    // configured) the disk footprint of each corpus and its atlases.
    let mut corpora_json = Vec::new();
    let mut corpus_memory_bytes: u64 = 0;
    let mut corpus_disk_bytes: u64 = 0;
    for info in state.corpora.infos() {
        let disk = state
            .store
            .as_ref()
            .map(|s| s.disk_usage_for(&info.digest))
            .unwrap_or_default();
        corpus_memory_bytes += info.bytes as u64;
        corpus_disk_bytes += disk.corpus_bytes + disk.atlas_bytes;
        corpora_json.push(json!({
            "corpus": (info.digest.as_str()),
            "recipes": (info.recipes),
            "cuisines": (info.cuisines),
            "memory_bytes": (info.bytes),
            "disk_bytes": (disk.corpus_bytes + disk.atlas_bytes),
            "atlas_snapshots": (disk.atlas_count),
        }));
    }
    let store_json = state.store.as_ref().map(|s| {
        let st = s.stats();
        json!({
            "data_dir": (s.root().display().to_string()),
            "read_only": (s.read_only()),
            "snapshot_hits": (st.hits),
            "snapshot_misses": (st.misses),
            "snapshot_writes": (st.writes),
            "snapshot_corrupt": (st.corrupt),
            "snapshot_evictions": (st.evictions),
            "atlas_files": (st.atlas_files),
            "corpus_files": (st.corpus_files),
            "disk_bytes": (st.total_bytes()),
            "max_disk_bytes": (st.max_disk_bytes),
        })
    });
    ok_json(&json!({
        "status": "ok",
        "workers": (state.workers),
        "build_threads": (par::resolve(state.build_threads)),
        "cached_atlases": (state.cache.len()),
        "builds": (state.build_count()),
        "cache_hits": hits,
        "cache_misses": misses,
        "last_build_ms": last_build_ms,
        "recent_builds_ms": recent_builds_ms,
        "latency_ms": (serde_json::Value::Object(latency_ms)),
        "corpora": (corpora_json),
        "corpus_memory_bytes": corpus_memory_bytes,
        "corpus_disk_bytes": corpus_disk_bytes,
        "store": store_json,
    }))
}

fn metrics(state: &AppState, _: &Request, _: &PathParams) -> Result<Response, ApiError> {
    // The cache's size gauge, appended to the registry's rendering so
    // /metrics is the one-stop scrape target.
    let mut extra = format!(
        "# HELP atlas_cached_atlases Atlases currently in the LRU cache.\n\
         # TYPE atlas_cached_atlases gauge\n\
         atlas_cached_atlases {}\n",
        state.cache.len(),
    );
    if let Some(store) = &state.store {
        let st = store.stats();
        extra.push_str(&format!(
            "# HELP atlas_store_snapshot_hits_total Disk snapshot loads that found a file.\n\
             # TYPE atlas_store_snapshot_hits_total counter\n\
             atlas_store_snapshot_hits_total {}\n\
             # HELP atlas_store_snapshot_misses_total Disk snapshot loads that found nothing.\n\
             # TYPE atlas_store_snapshot_misses_total counter\n\
             atlas_store_snapshot_misses_total {}\n\
             # HELP atlas_store_snapshot_writes_total Snapshot files written.\n\
             # TYPE atlas_store_snapshot_writes_total counter\n\
             atlas_store_snapshot_writes_total {}\n\
             # HELP atlas_store_snapshot_corrupt_total Snapshot files quarantined as damaged.\n\
             # TYPE atlas_store_snapshot_corrupt_total counter\n\
             atlas_store_snapshot_corrupt_total {}\n\
             # HELP atlas_store_snapshot_evictions_total Snapshot files evicted by the disk budget.\n\
             # TYPE atlas_store_snapshot_evictions_total counter\n\
             atlas_store_snapshot_evictions_total {}\n\
             # HELP atlas_store_atlas_files Atlas snapshot files currently stored.\n\
             # TYPE atlas_store_atlas_files gauge\n\
             atlas_store_atlas_files {}\n\
             # HELP atlas_store_corpus_files Corpus snapshot files currently stored.\n\
             # TYPE atlas_store_corpus_files gauge\n\
             atlas_store_corpus_files {}\n\
             # HELP atlas_store_disk_bytes Bytes currently stored across snapshots.\n\
             # TYPE atlas_store_disk_bytes gauge\n\
             atlas_store_disk_bytes {}\n\
             # HELP atlas_store_max_disk_bytes Configured disk budget (0 = unbounded).\n\
             # TYPE atlas_store_max_disk_bytes gauge\n\
             atlas_store_max_disk_bytes {}\n",
            st.hits,
            st.misses,
            st.writes,
            st.corrupt,
            st.evictions,
            st.atlas_files,
            st.corpus_files,
            st.total_bytes(),
            st.max_disk_bytes,
        ));
    }
    Ok(Response {
        status: 200,
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        body: state.metrics.render_prometheus(&extra).into_bytes(),
    })
}

fn cuisines(_: &AppState, _: &Request, _: &PathParams) -> Result<Response, ApiError> {
    let names: Vec<&str> = Cuisine::ALL.iter().map(|c| c.name()).collect();
    ok_json(&json!({ "count": (names.len()), "cuisines": names }))
}

/// Every atlas route: the artifact its path and query name, rendered
/// from the atlas its query selects.
fn artifact(state: &AppState, request: &Request, _: &PathParams) -> Result<Response, ApiError> {
    let artifact = Artifact::parse(&request.path, &request.query)?;
    let config = config_from_query(request)?;
    let corpus = state.resolve_corpus(request)?;
    let atlas = state.atlas_for(corpus.as_ref(), &config);
    Ok(Response::json(
        200,
        artifact.render(&atlas, config.corpus.seed)?,
    ))
}

/// `POST /corpus`: validate and register an uploaded RecipeDB JSON
/// snapshot, returning its digest id. Every rejection bumps the
/// corpus-reject counter; no input reaches a panic.
fn upload_corpus(
    state: &AppState,
    request: &Request,
    _: &PathParams,
) -> Result<Response, ApiError> {
    let result = register_corpus(state, request);
    if result.is_err() {
        state.metrics().record_corpus_reject();
    }
    result
}

fn register_corpus(state: &AppState, request: &Request) -> Result<Response, ApiError> {
    if request.body.is_empty() {
        return Err(ApiError::bad_request(
            "empty corpus upload; expected a RecipeDB JSON snapshot",
        ));
    }
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| ApiError::bad_request("corpus upload must be UTF-8 JSON"))?;
    let db = recipedb::io::from_json(text)
        .map_err(|e| ApiError::bad_request(format!("invalid corpus: {e}")))?;
    db.validate_upload().map_err(|e| match e {
        RecipeDbError::EmptyCorpus => ApiError::unprocessable(format!("invalid corpus: {e}")),
        other => ApiError::bad_request(format!("invalid corpus: {other}")),
    })?;
    let digest = recipedb::corpus_digest(&db);
    let recipes = db.recipe_count();
    let cuisines = db.cuisines().count();
    let (info, created) = state.corpora.insert(CorpusInfo {
        digest,
        db: Arc::new(db),
        recipes,
        cuisines,
        bytes: request.body.len(),
        registered_at: SystemTime::now(),
    });
    state.metrics().record_corpus_upload();
    if created {
        state.prune_corpus_labels();
        state.persist_corpus_snapshot(&info, &request.body);
    }
    ok_json(&json!({
        "corpus": (info.digest.as_str()),
        "recipes": (info.recipes),
        "cuisines": (info.cuisines),
        "bytes": (info.bytes),
        "already_registered": (!created),
    }))
}

/// `DELETE /corpus/{digest}`: remove an uploaded corpus from the
/// registry, the atlas cache, and the snapshot store — after this, the
/// digest 404s and nothing of it remains on disk.
fn delete_corpus(state: &AppState, _: &Request, params: &PathParams) -> Result<Response, ApiError> {
    state.purge_expired();
    let digest = params.get("digest").unwrap_or_default();
    let removal = state.purge_corpus(digest);
    if !removal.any() {
        return Err(ApiError::not_found(format!("unknown corpus {digest:?}")));
    }
    ok_json(&json!({
        "corpus": digest,
        "registered": (removal.registered),
        "cached_atlases": (removal.cached_atlases),
        "atlas_snapshots": (removal.atlas_snapshots),
        "corpus_snapshot": (removal.corpus_snapshot),
    }))
}

/// `POST /batch`: render several artifacts of one atlas in a single
/// round trip. The batch's own query selects the atlas, and each spec is
/// parsed by [`Artifact::from_spec`]. The whole batch shares one atlas
/// resolution, so at most one build happens however many artifacts are
/// requested; per-artifact failures are reported inline without failing
/// the batch.
fn batch(state: &AppState, request: &Request, _: &PathParams) -> Result<Response, ApiError> {
    let config = config_from_query(request)?;
    let corpus = state.resolve_corpus(request)?;
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| ApiError::bad_request("batch body must be UTF-8 JSON"))?;
    let parsed: serde_json::Value = serde_json::from_str(text)
        .map_err(|e| ApiError::bad_request(format!("bad batch JSON: {e}")))?;
    let artifacts = parsed
        .get("artifacts")
        .and_then(|v| v.as_array())
        .ok_or_else(|| ApiError::bad_request(r#"batch body needs an "artifacts" array"#))?;
    if artifacts.is_empty() {
        return Err(ApiError::bad_request("batch needs at least one artifact"));
    }
    if artifacts.len() > MAX_BATCH_ARTIFACTS {
        return Err(ApiError::bad_request(format!(
            "batch is capped at {MAX_BATCH_ARTIFACTS} artifacts, got {}",
            artifacts.len()
        )));
    }
    let specs: Vec<&str> = artifacts
        .iter()
        .map(|v| {
            v.as_str()
                .ok_or_else(|| ApiError::bad_request("batch artifacts must be strings"))
        })
        .collect::<Result<_, _>>()?;
    // One atlas serves the whole batch: built (or fetched) exactly once.
    let atlas = state.atlas_for(corpus.as_ref(), &config);
    let mut results = Vec::with_capacity(specs.len());
    for spec in &specs {
        let rendered = Artifact::from_spec(spec).and_then(|a| a.render(&atlas, config.corpus.seed));
        let (status, body) = match rendered {
            Ok(body) => (200, body),
            Err(err) => (err.status, error_body(&err)),
        };
        // Bodies are embedded verbatim (they are already JSON), keeping
        // each byte-identical to the individual endpoint's response.
        let spec_json = serde_json::Value::String(spec.to_string()).to_string();
        results.push(format!(
            "{{\"artifact\":{spec_json},\"status\":{status},\"body\":{body}}}"
        ));
    }
    let body = format!(
        "{{\"count\":{},\"results\":[{}]}}",
        results.len(),
        results.join(",")
    );
    Ok(Response::json(200, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(path: &str, query: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    #[test]
    fn defaults_mirror_quick_seed_23() {
        let config = config_from_query(&req("/table1", &[])).unwrap();
        let quick = AtlasConfig::quick(23);
        assert_eq!(
            CacheKey::from_config(&config),
            CacheKey::from_config(&quick)
        );
    }

    #[test]
    fn query_overrides_are_applied() {
        let config = config_from_query(&req(
            "/table1",
            &[
                ("seed", "7"),
                ("scale", "0.02"),
                ("min_support", "0.25"),
                ("linkage", "complete"),
            ],
        ))
        .unwrap();
        assert_eq!(config.corpus.seed, 7);
        assert_eq!(config.corpus.scale, 0.02);
        assert_eq!(config.min_support, 0.25);
        assert_eq!(config.linkage.name(), "complete");
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert_eq!(
            config_from_query(&req("/t", &[("seed", "x")]))
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            config_from_query(&req("/t", &[("scale", "0")]))
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            config_from_query(&req("/t", &[("scale", "2.0")]))
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            config_from_query(&req("/t", &[("min_support", "1.5")]))
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            config_from_query(&req("/t", &[("linkage", "mystery")]))
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            Artifact::parse("/tree/pattern/manhattan", &[])
                .unwrap_err()
                .status,
            404
        );
    }

    #[test]
    fn get_routes_and_batch_specs_parse_to_the_same_artifact() {
        let indian = Cuisine::from_name("Indian Subcontinent").unwrap();
        let cases = [
            ("/table1", Ok(Artifact::Table1)),
            (
                "/tree/pattern/cos%69ne",
                Ok(Artifact::PatternTree(Metric::Cosine)),
            ),
            ("/tree/authenticity", Ok(Artifact::AuthenticityTree)),
            ("/tree/geo", Ok(Artifact::GeoTree)),
            ("/compare", Ok(Artifact::Compare)),
            (
                "/fingerprint/Indian%20Subcontinent?k=3",
                Ok(Artifact::Fingerprint {
                    cuisine: indian,
                    k: 3,
                }),
            ),
            ("/elbow?k_max=6&seed=7", Ok(Artifact::Elbow { k_max: 6 })),
            ("/elbow", Ok(Artifact::Elbow { k_max: 16 })),
            ("/tree/pattern/manhattan", Err(404)),
            ("/fingerprint/Atlantis?k=0", Err(404)),
            ("/fingerprint/Japanese?k=0", Err(400)),
            ("/elbow?k_max=27", Err(400)),
        ];
        for (target, expected) in cases {
            let raw = format!("GET {target} HTTP/1.1\r\n\r\n");
            let request = crate::http::read_request(&mut raw.as_bytes()).unwrap();
            let from_get = Artifact::parse(&request.path, &request.query);
            assert_eq!(from_get.clone().map_err(|e| e.status), expected, "{target}");
            let from_spec = Artifact::from_spec(target.trim_start_matches('/'));
            assert_eq!(from_spec, from_get, "{target}");
        }
        // Only the atlas routes reach `Artifact::parse`.
        let routes = router().labels();
        let atlas_routes = routes.iter().filter(|r| {
            let path = r
                .replace(":metric", "cosine")
                .replace(":cuisine", "Japanese");
            Artifact::parse(&path, &[]).is_ok()
        });
        assert_eq!(atlas_routes.count(), 7);
    }

    #[test]
    fn cuisines_endpoint_needs_no_atlas() {
        let state = AppState::new(2, 1, 1);
        let resp = cuisines(&state, &req("/cuisines", &[]), &PathParams::default()).unwrap();
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"count\":") || text.contains("\"count\" :"));
        assert!(text.contains("Indian Subcontinent"));
        assert_eq!(state.build_count(), 0);
    }

    #[test]
    fn error_response_is_json_with_status() {
        let resp = error_response(&ApiError::not_found("nope"));
        assert_eq!(resp.status, 404);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("nope"));
        assert!(text.contains("404"));
    }
}
