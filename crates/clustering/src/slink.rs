//! SLINK (Sibson, *The Computer Journal* 1973) — the classic optimally
//! efficient single-linkage algorithm via the **pointer representation**:
//! for each point `i`, `lambda[i]` is the height at which `i` last ceases
//! to be the largest-indexed member of its cluster, and `pi[i]` is the
//! cluster it then joins. One pass per point, O(n²) time, O(n) memory —
//! no distance matrix mutation at all.
//!
//! Together with the Prim-MST path ([`crate::hac::single_linkage_mst`])
//! and the generic Lance–Williams driver, this gives three independent
//! single-linkage implementations that the tests cross-check exactly.

use crate::condensed::CondensedMatrix;
use crate::hac::{merges_from_weighted_pairs, Merge};

/// The SLINK pointer representation.
#[derive(Debug, Clone)]
pub struct PointerRepresentation {
    /// `pi[i]`: the point `i` points at (its own index for the last point).
    pub pi: Vec<usize>,
    /// `lambda[i]`: the height at which `i` merges into `pi[i]`
    /// (`f64::INFINITY` for the last point).
    pub lambda: Vec<f64>,
}

/// Run SLINK, producing the pointer representation.
///
/// # Panics
/// If the matrix has fewer than 2 points.
pub fn slink(dist: &CondensedMatrix) -> PointerRepresentation {
    let n = dist.len();
    assert!(n >= 2, "need at least 2 points to cluster");
    let mut pi = vec![0usize; n];
    let mut lambda = vec![f64::INFINITY; n];
    let mut m = vec![0.0f64; n];

    pi[0] = 0;
    lambda[0] = f64::INFINITY;
    for i in 1..n {
        // Step 1: i starts as its own cluster representative.
        pi[i] = i;
        lambda[i] = f64::INFINITY;
        // Step 2: distances from i to all previous points.
        for (j, mj) in m.iter_mut().enumerate().take(i) {
            *mj = dist.get(i, j);
        }
        // Step 3: the Sibson update.
        for j in 0..i {
            if lambda[j] >= m[j] {
                m[pi[j]] = m[pi[j]].min(lambda[j]);
                lambda[j] = m[j];
                pi[j] = i;
            } else {
                m[pi[j]] = m[pi[j]].min(m[j]);
            }
        }
        // Step 4: relabel chains that now merge below their lambda.
        for j in 0..i {
            if lambda[j] >= lambda[pi[j]] {
                pi[j] = i;
            }
        }
    }
    PointerRepresentation { pi, lambda }
}

/// Single-linkage merges via SLINK (scipy `Z`-matrix shape, height
/// sorted).
pub fn slink_linkage(dist: &CondensedMatrix) -> Vec<Merge> {
    let n = dist.len();
    let rep = slink(dist);
    // Each point except the last contributes one merge edge
    // (i joins pi[i] at height lambda[i]).
    let edges: Vec<(f64, usize, usize)> = (0..n)
        .filter(|&i| rep.lambda[i].is_finite())
        .map(|i| (rep.lambda[i], i, rep.pi[i]))
        .collect();
    debug_assert_eq!(edges.len(), n - 1);
    merges_from_weighted_pairs(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dendrogram::Dendrogram;
    use crate::distance::Metric;
    use crate::hac::single_linkage_mst;

    fn scatter(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 10_000) as f64 / 313.0 - 16.0
        };
        (0..n).map(|_| vec![next(), next()]).collect()
    }

    #[test]
    fn pointer_representation_invariants() {
        let pts = scatter(20, 3);
        let d = CondensedMatrix::pdist(&pts, Metric::Euclidean);
        let rep = slink(&d);
        let n = pts.len();
        // The last point is the terminal representative.
        assert_eq!(rep.pi[n - 1], n - 1);
        assert!(rep.lambda[n - 1].is_infinite());
        for i in 0..n - 1 {
            assert!(rep.pi[i] > i, "pi must point forward");
            assert!(rep.lambda[i].is_finite());
            assert!(rep.lambda[i] >= 0.0);
        }
    }

    #[test]
    fn matches_mst_single_linkage_exactly() {
        for seed in [1u64, 7, 42, 1337] {
            let pts = scatter(25, seed);
            let d = CondensedMatrix::pdist(&pts, Metric::Euclidean);
            let a = slink_linkage(&d);
            let b = single_linkage_mst(&d);
            assert_eq!(a.len(), b.len());
            // Distinct generic heights -> identical Z matrices.
            for (x, y) in a.iter().zip(&b) {
                assert!((x.distance - y.distance).abs() < 1e-9, "seed {seed}");
                assert_eq!((x.a, x.b, x.size), (y.a, y.b, y.size), "seed {seed}");
            }
        }
    }

    #[test]
    fn cophenetic_matches_mst_path() {
        let pts = scatter(18, 9);
        let d = CondensedMatrix::pdist(&pts, Metric::Euclidean);
        let t1 = Dendrogram::from_merges(18, &slink_linkage(&d));
        let t2 = Dendrogram::from_merges(18, &single_linkage_mst(&d));
        let (c1, c2) = (t1.cophenetic(), t2.cophenetic());
        for (i, j, v) in c1.iter_pairs() {
            assert!((v - c2.get(i, j)).abs() < 1e-9);
        }
    }

    #[test]
    fn line_example() {
        let pts = vec![vec![0.0], vec![1.0], vec![4.0], vec![10.0]];
        let d = CondensedMatrix::pdist(&pts, Metric::Euclidean);
        let m = slink_linkage(&d);
        let heights: Vec<f64> = m.iter().map(|x| x.distance).collect();
        assert_eq!(heights, vec![1.0, 3.0, 6.0]);
    }

    #[test]
    fn two_points() {
        let d = CondensedMatrix::from_condensed(2, vec![2.5]);
        let m = slink_linkage(&d);
        assert_eq!(m.len(), 1);
        assert!((m[0].distance - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 2 points")]
    fn single_point_rejected() {
        let d = CondensedMatrix::from_condensed(1, vec![]);
        let _ = slink(&d);
    }
}
