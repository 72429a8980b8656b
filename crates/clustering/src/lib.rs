//! # clustering — hierarchical agglomerative clustering, k-means and
//! tree validation, from scratch
//!
//! This crate is the clustering substrate of the cuisine-atlas
//! reproduction. It provides the pieces the paper gets from scipy /
//! scikit-learn, re-implemented and tested:
//!
//! * [`distance`] — Euclidean, Cosine and Jaccard, the paper's three
//!   metrics;
//! * [`condensed`] — `pdist`-style condensed distance matrices;
//! * [`hac`] — agglomerative clustering with single / complete / average /
//!   weighted / ward / centroid / median linkage via the Lance–Williams
//!   recurrence (`scipy.cluster.hierarchy.linkage` equivalent), with
//!   [`slink`] as the independent single-linkage reference;
//! * [`dendrogram`] — the merge tree: leaf ordering, cutting, cophenetic
//!   distances, ASCII rendering and Newick export;
//! * [`kmeans`] — Lloyd's algorithm with k-means++ seeding, WCSS and the
//!   elbow sweep of the paper's Figure 1;
//! * [`validation`] — Pearson/Spearman and matrix correlation, cophenetic
//!   correlation and Baker's gamma;
//! * [`encode`] — label encoding and binary incidence vectorization (the
//!   paper's pattern-to-feature-vector step).
//!
//! ```
//! use clustering::condensed::CondensedMatrix;
//! use clustering::hac::{linkage, LinkageMethod};
//! use clustering::dendrogram::Dendrogram;
//!
//! // Three points on a line: 0 and 1 are close, 2 is far.
//! let d = CondensedMatrix::from_fn(3, |i, j| (i as f64 - j as f64).abs() * (j as f64));
//! let merges = linkage(&d, LinkageMethod::Average);
//! let tree = Dendrogram::from_merges(3, &merges);
//! assert_eq!(tree.leaf_order().len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod condensed;
pub mod dendrogram;
pub mod distance;
pub mod encode;
pub mod hac;
pub mod kmeans;
pub mod slink;
pub mod validation;

pub use condensed::CondensedMatrix;
pub use dendrogram::Dendrogram;
pub use distance::Metric;
pub use hac::{linkage, LinkageMethod, Merge};
