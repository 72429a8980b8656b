//! # cuisine-atlas — hierarchical clustering of world cuisines
//!
//! End-to-end reproduction of *Hierarchical Clustering of World Cuisines*
//! (Sharma, Upadhyay, Kalra, Arora, Ahmad, Aggarwal & Bagler — ICDE 2020
//! workshops / arXiv:2004.12283), built on three from-scratch substrates:
//!
//! * [`recipedb`] — the corpus (a calibrated synthetic RecipeDB stand-in);
//! * [`pattern_mining`] — FP-Growth (+ Apriori / Eclat baselines);
//! * [`clustering`] — HAC, k-means, dendrograms, validation indices.
//!
//! The pipeline mirrors the paper section by section:
//!
//! 1. **Pattern mining** ([`patterns`]) — per-cuisine frequent itemsets
//!    over concatenated ingredients + processes + utensils at support 0.2;
//!    the Table I report surfaces each cuisine's top *significant*
//!    patterns (closed itemsets containing at least one cuisine-
//!    distinctive item).
//! 2. **Feature vectors** ([`features`]) — the paper's "string pattern"
//!    canonicalisation + label encoding + binary incidence vectorization.
//! 3. **Pattern-based trees** ([`pipeline`]) — pdist under Euclidean /
//!    Cosine / Jaccard + hierarchical agglomerative clustering
//!    (Figures 2–4), plus the k-means elbow analysis (Figure 1).
//! 4. **Authenticity-based tree** ([`authenticity`]) — Ahn et al.'s
//!    relative-prevalence fingerprints (Figure 5).
//! 5. **Geographic validation** ([`geo`], [`compare`]) — haversine
//!    distance tree (Figure 6) and quantified tree-vs-geography agreement,
//!    including the paper's Canada–France and India–North-Africa claims.
//!
//! ## Quick start
//!
//! ```
//! use cuisine_atlas::{AtlasConfig, CuisineAtlas};
//! use clustering::Metric;
//!
//! let atlas = CuisineAtlas::build(&AtlasConfig::quick(42));
//! // Table I: top significant patterns per cuisine.
//! let table = atlas.table1();
//! assert_eq!(table.rows.len(), 26);
//! // Figure 2: the Euclidean pattern dendrogram.
//! let tree = atlas.pattern_tree(Metric::Euclidean);
//! assert_eq!(tree.dendrogram.n_leaves(), 26);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod authenticity;
pub mod compare;
pub mod experiments;
pub mod features;
pub mod geo;
pub mod patterns;
pub mod pipeline;
pub mod report;
pub mod snapshot;
pub mod views;

pub use pipeline::{AtlasConfig, CuisineAtlas, CuisineTree};

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures: building a quick atlas takes ~2s, so tests share
    //! one instance per binary.
    use std::sync::OnceLock;

    use crate::pipeline::{AtlasConfig, CuisineAtlas};

    static ATLAS: OnceLock<CuisineAtlas> = OnceLock::new();

    /// The shared quick atlas (seed 23).
    pub(crate) fn shared_atlas() -> &'static CuisineAtlas {
        ATLAS.get_or_init(|| CuisineAtlas::build(&AtlasConfig::quick(23)))
    }
}
