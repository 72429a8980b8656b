//! Cluster and dendrogram validation indices.
//!
//! The paper validates its cuisine trees *qualitatively* against a
//! geography-based tree. This module quantifies that comparison:
//!
//! * [`pearson`] / [`spearman`] correlation between condensed matrices;
//! * [`cophenetic_correlation`] — how faithfully a dendrogram preserves
//!   the input distances;
//! * [`bakers_gamma`] — rank correlation between two trees' cophenetic
//!   matrices (tree–tree similarity);
//! * [`matrix_correlation`] — Pearson correlation of two distance
//!   matrices over the same points.

use crate::condensed::CondensedMatrix;
use crate::dendrogram::Dendrogram;

/// Pearson correlation between two equal-length samples. Returns 0 when
/// either sample has zero variance.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "samples must have equal length");
    let n = x.len();
    if n == 0 {
        return 0.0;
    }
    let mx = x.iter().sum::<f64>() / n as f64;
    let my = y.iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (a, b) in x.iter().zip(y) {
        cov += (a - mx) * (b - my);
        vx += (a - mx) * (a - mx);
        vy += (b - my) * (b - my);
    }
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    cov / (vx * vy).sqrt()
}

/// Average ranks (ties get the mean of their positions).
fn ranks(x: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..x.len()).collect();
    idx.sort_by(|&a, &b| x[a].partial_cmp(&x[b]).unwrap_or(std::cmp::Ordering::Equal));
    let mut out = vec![0.0; x.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && (x[idx[j + 1]] - x[idx[i]]).abs() < 1e-12 {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg_rank;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation (Pearson over average ranks).
pub fn spearman(x: &[f64], y: &[f64]) -> f64 {
    pearson(&ranks(x), &ranks(y))
}

/// Cophenetic correlation coefficient of a dendrogram against the original
/// distances (scipy `cophenet`).
pub fn cophenetic_correlation(tree: &Dendrogram, original: &CondensedMatrix) -> f64 {
    let coph = tree.cophenetic();
    pearson(coph.data(), original.data())
}

/// Baker's gamma between two dendrograms over the same leaves: the
/// Spearman correlation of their cophenetic matrices. 1 means identical
/// merge structure; ~0 means unrelated.
pub fn bakers_gamma(a: &Dendrogram, b: &Dendrogram) -> f64 {
    assert_eq!(a.n_leaves(), b.n_leaves(), "trees must share leaves");
    spearman(a.cophenetic().data(), b.cophenetic().data())
}

/// Pearson correlation between two condensed distance matrices over the
/// same points (direct matrix-level tree/geography comparison).
pub fn matrix_correlation(a: &CondensedMatrix, b: &CondensedMatrix) -> f64 {
    assert_eq!(a.len(), b.len(), "matrices must be over the same points");
    pearson(a.data(), b.data())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Metric;
    use crate::hac::{linkage, LinkageMethod};

    #[test]
    fn pearson_basics() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), 0.0, "zero variance");
        assert_eq!(pearson(&[], &[]), 0.0);
    }

    #[test]
    fn spearman_is_rank_based() {
        // Monotone nonlinear relation: spearman 1, pearson < 1.
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [1.0, 8.0, 27.0, 64.0];
        assert!((spearman(&x, &y) - 1.0).abs() < 1e-12);
        assert!(pearson(&x, &y) < 1.0);
    }

    #[test]
    fn ranks_handle_ties() {
        let r = ranks(&[1.0, 2.0, 2.0, 5.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn cophenetic_correlation_high_for_well_separated_data() {
        let pts = vec![
            vec![0.0],
            vec![0.2],
            vec![0.4],
            vec![10.0],
            vec![10.2],
            vec![10.4],
        ];
        let d = CondensedMatrix::pdist(&pts, Metric::Euclidean);
        let tree = Dendrogram::from_merges(6, &linkage(&d, LinkageMethod::Average));
        let c = cophenetic_correlation(&tree, &d);
        assert!(c > 0.95, "clean structure -> high CCC, got {c}");
    }

    #[test]
    fn bakers_gamma_identity_and_symmetry() {
        let pts = vec![vec![0.0], vec![1.0], vec![4.0], vec![10.0], vec![11.0]];
        let d = CondensedMatrix::pdist(&pts, Metric::Euclidean);
        let t1 = Dendrogram::from_merges(5, &linkage(&d, LinkageMethod::Average));
        let t2 = Dendrogram::from_merges(5, &linkage(&d, LinkageMethod::Complete));
        assert!((bakers_gamma(&t1, &t1) - 1.0).abs() < 1e-9);
        let g12 = bakers_gamma(&t1, &t2);
        let g21 = bakers_gamma(&t2, &t1);
        assert!((g12 - g21).abs() < 1e-12);
        assert!(g12 > 0.5, "same data, different linkage: related trees");
    }

    #[test]
    fn matrix_correlation_of_identical_matrices() {
        let m = CondensedMatrix::from_fn(4, |i, j| (i * 3 + j) as f64);
        assert!((matrix_correlation(&m, &m) - 1.0).abs() < 1e-12);
    }
}
