//! # recipedb — a RecipeDB-compatible recipe data substrate
//!
//! The paper *Hierarchical Clustering of World Cuisines* (Sharma et al.,
//! ICDE 2020) analyses 118,071 recipes from RecipeDB, grouped into 26
//! geo-cultural cuisines. RecipeDB itself is a proprietary scrape that is no
//! longer publicly downloadable, so this crate provides two things:
//!
//! 1. An **in-memory recipe store** ([`store::RecipeDb`]) with interned
//!    ingredient / process / utensil catalogs, cuisine indices, corpus
//!    statistics and JSON round-trip IO. Any corpus with the
//!    RecipeDB shape (recipes = unordered sets of ingredients, processes and
//!    utensils, each tagged with one of 26 regions) can be loaded into it.
//!
//! 2. A **calibrated synthetic corpus generator** ([`generator`]) that
//!    reproduces the published marginals of the RecipeDB snapshot used by
//!    the paper: the exact per-region recipe counts of Table I, ~20,280
//!    unique ingredients, 268 processes and 69 utensils, ~10 ingredients /
//!    ~12 processes / ~3 utensils per recipe, 14,601 recipes with no utensil
//!    information, and per-cuisine signature item bundles whose supports are
//!    tuned to the top patterns the paper reports (soy sauce for Japanese,
//!    fish sauce for Thai, olive oil for Greek, ...). The generator is fully
//!    deterministic given a seed.
//!
//! Downstream crates (`pattern-mining`, `clustering`, `cuisine-atlas`)
//! consume only co-occurrence statistics, so the calibrated synthetic corpus
//! exercises the exact code paths of the paper's pipeline and reproduces the
//! *shape* of its results.
//!
//! ## Quick start
//!
//! ```
//! use recipedb::generator::{CorpusGenerator, GeneratorConfig};
//!
//! // A 2% scale corpus for quick experiments (fully deterministic).
//! let config = GeneratorConfig::paper_scale(0.02).with_seed(42);
//! let db = CorpusGenerator::new(config).generate();
//! assert_eq!(db.cuisine_count(), 26);
//! let stats = db.stats();
//! assert!(stats.total_recipes > 1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod cuisine;
mod decode;
pub mod digest;
pub mod error;
pub mod generator;
pub mod io;
pub mod model;
pub mod stats;
pub mod store;

pub use catalog::{Catalog, TokenId};
pub use cuisine::Cuisine;
pub use digest::corpus_digest;
pub use error::RecipeDbError;
pub use model::{IngredientId, Item, ItemKind, ProcessId, Recipe, RecipeId, UtensilId};
pub use stats::CorpusStats;
pub use store::RecipeDb;
