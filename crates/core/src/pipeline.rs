//! The end-to-end cuisine-atlas pipeline: corpus → mining → features →
//! trees. This is the programmatic API behind every table and figure.
//!
//! # Parallelism and determinism
//!
//! Every stage of [`CuisineAtlas::build`] fans out over
//! [`AtlasConfig::build_threads`] workers — corpus generation (one RNG
//! stream per cuisine, reassembled in fixed order), per-cuisine FP-Growth
//! mining (largest cuisines first, huge ones split across conditional
//! trees), pairwise-distance matrices (row-parallel `pdist`) and the
//! elbow sweep (one worker per k). Each parallel stage is **byte-identical
//! to its sequential counterpart**: thread count is a pure wall-clock
//! knob, never an input to any result (see DESIGN.md §"Determinism under
//! parallelism").

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use clustering::condensed::CondensedMatrix;
use clustering::dendrogram::Dendrogram;
use clustering::distance::{jaccard_sets, Metric};
use clustering::hac::{linkage, LinkageMethod};
use clustering::kmeans::elbow_sweep_threads;
use recipedb::generator::{CorpusGenerator, GeneratorConfig};
use recipedb::{Cuisine, RecipeDb};

use crate::authenticity::AuthenticityMatrix;
use crate::features::PatternFeatures;
use crate::patterns::{self, CuisinePatterns, SignificantPattern};

/// Configuration of the full pipeline.
#[derive(Debug, Clone)]
pub struct AtlasConfig {
    /// Corpus generation parameters (ignored when a corpus is supplied via
    /// [`CuisineAtlas::from_db`]).
    pub corpus: GeneratorConfig,
    /// Mining support threshold — 0.2 in the paper.
    pub min_support: f64,
    /// HAC linkage method for all trees.
    pub linkage: LinkageMethod,
    /// An item frequent in at least this fraction of cuisines is
    /// "generic" and cannot anchor a Table I significant pattern.
    pub generic_fraction: f64,
    /// Significant patterns listed per cuisine in Table I.
    pub top_k: usize,
    /// Worker threads for the build (corpus generation, mining, distance
    /// matrices, elbow sweep). `0` means all available parallelism.
    /// Purely a wall-clock knob: every thread count produces bit-for-bit
    /// identical corpora, patterns, features and trees.
    pub build_threads: usize,
}

impl AtlasConfig {
    /// The paper's settings over the full-scale corpus (118k recipes).
    pub fn paper() -> Self {
        AtlasConfig {
            corpus: GeneratorConfig::full_paper(),
            min_support: 0.2,
            linkage: LinkageMethod::Average,
            generic_fraction: 0.5,
            top_k: 3,
            build_threads: 0,
        }
    }

    /// A fast configuration for tests and examples: a 5%-scale corpus with
    /// a per-cuisine floor that keeps every calibrated support at least
    /// two standard errors away from the mining threshold.
    pub fn quick(seed: u64) -> Self {
        let mut corpus = GeneratorConfig::paper_scale(0.05).with_seed(seed);
        corpus.min_recipes_per_cuisine = 1000;
        AtlasConfig {
            corpus,
            ..Self::paper()
        }
    }

    /// Replace the linkage method.
    pub fn with_linkage(mut self, method: LinkageMethod) -> Self {
        self.linkage = method;
        self
    }

    /// Replace the build thread count (`0` = all available parallelism).
    pub fn with_build_threads(mut self, threads: usize) -> Self {
        self.build_threads = threads;
        self
    }

    /// The concrete worker count this config builds with.
    pub fn effective_build_threads(&self) -> usize {
        par::resolve(self.build_threads)
    }
}

/// A sink for named wall-clock spans emitted while the pipeline runs.
///
/// [`CuisineAtlas::build_with_sink`] reports every stage
/// (`stage/generate`, `stage/mine`, `stage/features`, `stage/pdist`)
/// and each cuisine's mining time (`mine/Italian`, ...) through this
/// trait, so callers — the server's metrics registry, `repro --json` —
/// aggregate build telemetry however they like instead of being limited
/// to the fixed [`BuildTimings`] summary. Sinks must be thread-safe:
/// parallel stages report from worker threads.
pub trait SpanSink: Send + Sync {
    /// Record that span `name` took `wall_ms` milliseconds.
    fn record_span(&self, name: &str, wall_ms: f64);
}

/// A [`SpanSink`] that discards every span.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl SpanSink for NullSink {
    fn record_span(&self, _name: &str, _wall_ms: f64) {}
}

/// Time `f`, report it to `sink` under `name`, and return the result
/// with the measured milliseconds.
pub(crate) fn spanned<T>(sink: &dyn SpanSink, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = f();
    let wall_ms = ms_since(t);
    sink.record_span(name, wall_ms);
    (value, wall_ms)
}

/// Wall-clock cost of each [`CuisineAtlas::build`] stage, in
/// milliseconds. Surfaced by the server's `/health` endpoint. Assembled
/// from the same measurements that flow to the build's [`SpanSink`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BuildTimings {
    /// Corpus generation.
    pub generate_ms: f64,
    /// Per-cuisine FP-Growth mining.
    pub mine_ms: f64,
    /// Pattern-string canonicalisation + feature encoding.
    pub features_ms: f64,
    /// Pairwise-distance matrices (three pattern metrics + authenticity).
    pub pdist_ms: f64,
}

impl BuildTimings {
    /// Sum of all stages.
    pub fn total_ms(&self) -> f64 {
        self.generate_ms + self.mine_ms + self.features_ms + self.pdist_ms
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Lazily-initialised distance matrices shared by every tree request
/// against one atlas (the server holds atlases in an LRU cache and grows
/// trees per request — without this, each request re-ran `pdist`).
#[derive(Debug, Default)]
struct DistanceCaches {
    euclidean: OnceLock<CondensedMatrix>,
    cosine: OnceLock<CondensedMatrix>,
    jaccard: OnceLock<CondensedMatrix>,
    authenticity: OnceLock<crate::authenticity::AuthenticityMatrix>,
    authenticity_dist: OnceLock<CondensedMatrix>,
}

impl DistanceCaches {
    fn pattern_slot(&self, metric: Metric) -> &OnceLock<CondensedMatrix> {
        match metric {
            Metric::Euclidean => &self.euclidean,
            Metric::Cosine => &self.cosine,
            Metric::Jaccard => &self.jaccard,
        }
    }
}

/// A cuisine dendrogram plus the distance matrix it was grown from.
///
/// `cuisines` names the leaves: leaf index `i` of the dendrogram is
/// `cuisines[i]`. The paper's trees cover all 26 cuisines; trees built
/// from an uploaded corpus cover whatever subset is present.
#[derive(Debug, Clone)]
pub struct CuisineTree {
    /// What the tree was built from (for reports).
    pub description: String,
    /// The leaf cuisines, in distance-matrix index order.
    pub cuisines: Vec<Cuisine>,
    /// The pairwise cuisine distances.
    pub distances: CondensedMatrix,
    /// The agglomerative merge tree over the cuisines.
    pub dendrogram: Dendrogram,
}

impl CuisineTree {
    /// Grow a tree over `cuisines` from their distance matrix (leaf `i`
    /// is `cuisines[i]`). The snapshot decoder uses it to check each
    /// stored tree against its Newick; the atlas methods below are the
    /// primary constructors.
    pub fn from_distances_over(
        description: String,
        cuisines: Vec<Cuisine>,
        distances: CondensedMatrix,
        method: LinkageMethod,
    ) -> Self {
        Self::grow(description, cuisines, distances, method)
    }

    fn grow(
        description: String,
        cuisines: Vec<Cuisine>,
        distances: CondensedMatrix,
        method: LinkageMethod,
    ) -> Self {
        assert_eq!(
            cuisines.len(),
            distances.len(),
            "leaf list must match the distance matrix"
        );
        let merges = linkage(&distances, method);
        let dendrogram = Dendrogram::from_merges(distances.len(), &merges);
        CuisineTree {
            description,
            cuisines,
            distances,
            dendrogram,
        }
    }

    /// The cuisines in dendrogram display order.
    pub fn leaf_cuisines(&self) -> Vec<Cuisine> {
        self.dendrogram
            .leaf_order()
            .into_iter()
            .map(|i| self.cuisines[i])
            .collect()
    }
}

/// One row of the Table I report.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// The region.
    pub cuisine: Cuisine,
    /// Number of recipes mined.
    pub n_recipes: usize,
    /// Top significant patterns, best first.
    pub top_patterns: Vec<SignificantPattern>,
    /// Total frequent patterns at the support threshold.
    pub pattern_count: usize,
}

/// The Table I report.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// One row per cuisine, Table I order.
    pub rows: Vec<Table1Row>,
    /// The support threshold used.
    pub min_support: f64,
}

/// The built atlas: corpus + mined patterns + feature space, with tree
/// constructors for every figure.
///
/// `cuisines` is the atlas's *active cuisine list*: every per-cuisine
/// artifact (patterns, feature rows, distance-matrix indices, tree
/// leaves) is in its order. A generated corpus activates all 26 cuisines
/// (the paper's setting); an atlas assembled from a supplied corpus via
/// [`CuisineAtlas::from_shared`] activates exactly the cuisines present.
pub struct CuisineAtlas {
    config: AtlasConfig,
    db: Arc<RecipeDb>,
    cuisines: Vec<Cuisine>,
    patterns: Vec<CuisinePatterns>,
    features: PatternFeatures,
    caches: DistanceCaches,
    timings: BuildTimings,
}

impl CuisineAtlas {
    /// Generate the corpus described by `config` and build the atlas,
    /// using [`AtlasConfig::build_threads`] workers for every stage.
    pub fn build(config: &AtlasConfig) -> Self {
        Self::build_with_sink(config, &NullSink)
    }

    /// [`CuisineAtlas::build`], reporting every stage and per-cuisine
    /// mining span to `sink` as it completes.
    pub fn build_with_sink(config: &AtlasConfig, sink: &dyn SpanSink) -> Self {
        let threads = config.effective_build_threads();
        let (db, generate_ms) = spanned(sink, "stage/generate", || {
            CorpusGenerator::new(config.corpus.clone()).generate_with_threads(threads)
        });
        Self::assemble_with_sink(
            Arc::new(db),
            Cuisine::ALL.to_vec(),
            config,
            generate_ms,
            sink,
        )
    }

    /// Build the atlas over an existing corpus (e.g. loaded from JSON).
    pub fn from_db(db: RecipeDb, config: &AtlasConfig) -> Self {
        Self::from_shared(Arc::new(db), config)
    }

    /// Build the atlas over a shared corpus without cloning it — the
    /// server path, where one uploaded corpus backs many atlases. Only
    /// the cuisines actually present in the corpus are activated.
    pub fn from_shared(db: Arc<RecipeDb>, config: &AtlasConfig) -> Self {
        Self::from_shared_with_sink(db, config, &NullSink)
    }

    /// [`CuisineAtlas::from_shared`], reporting stage spans to `sink`.
    pub fn from_shared_with_sink(
        db: Arc<RecipeDb>,
        config: &AtlasConfig,
        sink: &dyn SpanSink,
    ) -> Self {
        let cuisines: Vec<Cuisine> = db.cuisines().collect();
        Self::assemble_with_sink(db, cuisines, config, 0.0, sink)
    }

    /// Mine, encode, and warm the distance caches, recording per-stage
    /// wall-clock timings both in [`BuildTimings`] and through `sink`.
    fn assemble_with_sink(
        db: Arc<RecipeDb>,
        cuisines: Vec<Cuisine>,
        config: &AtlasConfig,
        generate_ms: f64,
        sink: &dyn SpanSink,
    ) -> Self {
        let threads = config.effective_build_threads();
        let (patterns, mine_ms) = spanned(sink, "stage/mine", || {
            patterns::mine_cuisines_threads_observed(
                &db,
                &cuisines,
                config.min_support,
                threads,
                sink,
            )
        });
        let (features, features_ms) = spanned(sink, "stage/features", || {
            PatternFeatures::build(&db, &patterns)
        });
        let mut atlas = CuisineAtlas {
            config: config.clone(),
            db,
            cuisines,
            patterns,
            features,
            caches: DistanceCaches::default(),
            timings: BuildTimings::default(),
        };
        let (_, pdist_ms) = spanned(sink, "stage/pdist", || atlas.warm_distance_caches());
        atlas.timings = BuildTimings {
            generate_ms,
            mine_ms,
            features_ms,
            pdist_ms,
        };
        atlas
    }

    /// Force every cached distance matrix (three pattern metrics + the
    /// authenticity fingerprints), so tree requests against this atlas
    /// only pay linkage growth.
    fn warm_distance_caches(&self) {
        for metric in [Metric::Euclidean, Metric::Cosine, Metric::Jaccard] {
            let _ = self.pattern_distances(metric);
        }
        let _ = self.authenticity_distances();
    }

    /// Per-stage wall-clock timings of this atlas's build.
    pub fn timings(&self) -> BuildTimings {
        self.timings
    }

    /// The corpus.
    pub fn db(&self) -> &RecipeDb {
        &self.db
    }

    /// The active cuisines of this atlas, in artifact-index order (all
    /// 26 for generated corpora; the subset present for supplied ones).
    pub fn cuisines(&self) -> &[Cuisine] {
        &self.cuisines
    }

    /// The configuration.
    pub fn config(&self) -> &AtlasConfig {
        &self.config
    }

    /// The per-cuisine mined patterns, Table I order.
    pub fn patterns(&self) -> &[CuisinePatterns] {
        &self.patterns
    }

    /// The encoded pattern feature space.
    pub fn features(&self) -> &PatternFeatures {
        &self.features
    }

    /// **Table I** — top significant patterns per cuisine.
    pub fn table1(&self) -> Table1 {
        let generic = patterns::generic_items(&self.patterns, self.config.generic_fraction);
        let rows = self
            .patterns
            .iter()
            .map(|cp| Table1Row {
                cuisine: cp.cuisine,
                n_recipes: cp.n_recipes,
                top_patterns: patterns::significant_patterns(
                    &self.db,
                    cp,
                    &generic,
                    self.config.top_k,
                ),
                pattern_count: cp.pattern_count(),
            })
            .collect();
        Table1 {
            rows,
            min_support: self.config.min_support,
        }
    }

    /// **Figures 2–4** — the pattern-based cuisine tree under a metric.
    /// Euclidean and Cosine run on the binary incidence vectors; Jaccard
    /// runs directly on the pattern sets (equivalent to the binary-vector
    /// form, cheaper). Distance matrices are computed row-parallel on
    /// first use and cached for the atlas's lifetime.
    pub fn pattern_tree(&self, metric: Metric) -> CuisineTree {
        let description = format!("patterns/{metric}/{}", self.config.linkage);
        CuisineTree::grow(
            description,
            self.cuisines.clone(),
            self.pattern_distances(metric),
            self.config.linkage,
        )
    }

    /// The (cached) pairwise cuisine distances under `metric`.
    fn pattern_distances(&self, metric: Metric) -> CondensedMatrix {
        let threads = self.config.effective_build_threads();
        let compute = || match metric {
            Metric::Jaccard => {
                CondensedMatrix::par_from_fn(self.cuisines.len(), threads, |i, j| {
                    jaccard_sets(
                        &self.features.pattern_sets[i],
                        &self.features.pattern_sets[j],
                    )
                })
            }
            _ => CondensedMatrix::par_pdist(&self.features.binary, metric, threads),
        };
        self.caches
            .pattern_slot(metric)
            .get_or_init(compute)
            .clone()
    }

    /// **Figure 5** — the authenticity-based tree over ingredient
    /// relative-prevalence fingerprints (Euclidean distance).
    pub fn authenticity_tree(&self) -> CuisineTree {
        CuisineTree::grow(
            format!("authenticity/euclidean/{}", self.config.linkage),
            self.cuisines.clone(),
            self.authenticity_distances(),
            self.config.linkage,
        )
    }

    fn authenticity_distances(&self) -> CondensedMatrix {
        self.caches
            .authenticity_dist
            .get_or_init(|| {
                CondensedMatrix::par_pdist(
                    &self.authenticity_matrix().relative,
                    Metric::Euclidean,
                    self.config.effective_build_threads(),
                )
            })
            .clone()
    }

    /// The authenticity matrix itself (fingerprint inspection), built
    /// once per atlas.
    pub fn authenticity_matrix(&self) -> &AuthenticityMatrix {
        self.caches
            .authenticity
            .get_or_init(|| AuthenticityMatrix::ingredients_over(&self.db, &self.cuisines))
    }

    /// **Figure 6** — the geographic validation tree (over the active
    /// cuisines).
    pub fn geographic_tree(&self) -> CuisineTree {
        let distances = crate::geo::geographic_distances_over(&self.cuisines);
        CuisineTree::grow(
            format!("geography/haversine/{}", self.config.linkage),
            self.cuisines.clone(),
            distances,
            self.config.linkage,
        )
    }

    /// **Figure 1** — the k-means elbow curve (WCSS for k = 1..=k_max)
    /// over the binary pattern vectors, one worker per k.
    pub fn elbow_curve(&self, k_max: usize, seed: u64) -> Vec<f64> {
        elbow_sweep_threads(
            &self.features.binary,
            k_max,
            seed,
            self.config.effective_build_threads(),
        )
    }

    /// Reassemble an atlas from decoded snapshot parts (the
    /// [`crate::snapshot`] restore path), pre-populating every distance
    /// cache so no pipeline stage re-runs. The caller (the snapshot
    /// decoder) is responsible for having validated that the parts are
    /// mutually consistent.
    pub(crate) fn from_restored(parts: RestoredAtlas) -> Self {
        let caches = DistanceCaches::default();
        let _ = caches.euclidean.set(parts.euclidean);
        let _ = caches.cosine.set(parts.cosine);
        let _ = caches.jaccard.set(parts.jaccard);
        let _ = caches.authenticity.set(parts.authenticity);
        let _ = caches.authenticity_dist.set(parts.authenticity_dist);
        CuisineAtlas {
            config: parts.config,
            db: parts.db,
            cuisines: parts.cuisines,
            patterns: parts.patterns,
            features: parts.features,
            caches,
            timings: parts.timings,
        }
    }
}

/// Decoded parts of a persisted atlas, consumed by
/// [`CuisineAtlas::from_restored`].
pub(crate) struct RestoredAtlas {
    pub config: AtlasConfig,
    pub db: Arc<RecipeDb>,
    pub cuisines: Vec<Cuisine>,
    pub patterns: Vec<CuisinePatterns>,
    pub features: PatternFeatures,
    pub euclidean: CondensedMatrix,
    pub cosine: CondensedMatrix,
    pub jaccard: CondensedMatrix,
    pub authenticity: AuthenticityMatrix,
    pub authenticity_dist: CondensedMatrix,
    pub timings: BuildTimings,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atlas() -> &'static CuisineAtlas {
        crate::testutil::shared_atlas()
    }

    #[test]
    fn table1_has_26_populated_rows() {
        let t = atlas().table1();
        assert_eq!(t.rows.len(), 26);
        assert_eq!(t.min_support, 0.2);
        for row in &t.rows {
            assert!(
                !row.top_patterns.is_empty(),
                "{}: no significant patterns",
                row.cuisine
            );
            assert!(row.pattern_count >= row.top_patterns.len());
            assert!(
                row.top_patterns[0].support >= 0.2 - 0.03,
                "{}: top support {}",
                row.cuisine,
                row.top_patterns[0].support
            );
            for w in row.top_patterns.windows(2) {
                assert!(w[0].support >= w[1].support, "{}: unsorted", row.cuisine);
            }
        }
    }

    #[test]
    fn all_trees_cover_26_cuisines() {
        let a = atlas();
        for tree in [
            a.pattern_tree(Metric::Euclidean),
            a.pattern_tree(Metric::Cosine),
            a.pattern_tree(Metric::Jaccard),
            a.authenticity_tree(),
            a.geographic_tree(),
        ] {
            assert_eq!(tree.dendrogram.n_leaves(), 26, "{}", tree.description);
            let mut leaves = tree.dendrogram.leaf_order();
            leaves.sort_unstable();
            assert_eq!(leaves, (0..26).collect::<Vec<_>>(), "{}", tree.description);
        }
    }

    #[test]
    fn jaccard_tree_matches_binary_vector_jaccard() {
        // The set-based Jaccard shortcut must equal the vector form.
        let a = atlas();
        let set_tree = a.pattern_tree(Metric::Jaccard);
        let vec_d = CondensedMatrix::pdist(&a.features().binary, Metric::Jaccard);
        for (i, j, d) in set_tree.distances.iter_pairs() {
            assert!((d - vec_d.get(i, j)).abs() < 1e-12, "({i},{j})");
        }
    }

    #[test]
    fn elbow_curve_is_weakly_decreasing() {
        let a = atlas();
        let curve = a.elbow_curve(10, 5);
        assert_eq!(curve.len(), 10);
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] * 1.05 + 1e-9, "{:?}", curve);
        }
    }

    #[test]
    fn from_db_roundtrip_builds_identical_patterns() {
        let cfg = AtlasConfig::quick(13);
        let a = CuisineAtlas::build(&cfg);
        let json = recipedb::io::to_json(a.db()).unwrap();
        let db2 = recipedb::io::from_json(&json).unwrap();
        let b = CuisineAtlas::from_db(db2, &cfg);
        assert_eq!(
            a.patterns()[0].pattern_count(),
            b.patterns()[0].pattern_count()
        );
        assert_eq!(a.features().vocab_size(), b.features().vocab_size());
    }
}
