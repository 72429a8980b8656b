//! Hierarchical agglomerative clustering (HAC).
//!
//! Equivalent of `scipy.cluster.hierarchy.linkage`: starting from
//! singleton clusters, repeatedly merge the two closest clusters and
//! update inter-cluster distances with the **Lance–Williams** recurrence
//!
//! `d(k, i∪j) = αᵢ d(k,i) + αⱼ d(k,j) + β d(i,j) + γ |d(k,i) − d(k,j)|`
//!
//! whose coefficients select the linkage method. Ward, centroid and median
//! linkage follow the scipy convention: the recurrence runs on *squared*
//! Euclidean distances and the reported merge heights are square-rooted.
//!
//! Complexity: the generic path keeps a nearest-neighbour cache per active
//! cluster (O(n²) typical, O(n³) adversarial); single linkage additionally
//! has a guaranteed-O(n²) MST fast path ([`single_linkage_mst`]) used
//! automatically by [`linkage`].
//!
//! Cluster labels follow the scipy convention: leaves are `0..n`, the
//! cluster created by merge step `t` is `n + t`.

use crate::condensed::CondensedMatrix;

/// Linkage method for HAC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkageMethod {
    /// Minimum pairwise distance (chaining-prone; MST fast path).
    Single,
    /// Maximum pairwise distance.
    Complete,
    /// Unweighted average (UPGMA) — a common default for cuisine-style
    /// categorical profiles and the default of the cuisine-atlas pipeline.
    Average,
    /// Weighted average (WPGMA).
    Weighted,
    /// Ward's minimum-variance criterion (requires Euclidean input).
    Ward,
    /// Centroid linkage (UPGMC; requires Euclidean input, may invert).
    Centroid,
    /// Median linkage (WPGMC; requires Euclidean input, may invert).
    Median,
}

impl LinkageMethod {
    /// All methods, for sweeps.
    pub const ALL: [LinkageMethod; 7] = [
        LinkageMethod::Single,
        LinkageMethod::Complete,
        LinkageMethod::Average,
        LinkageMethod::Weighted,
        LinkageMethod::Ward,
        LinkageMethod::Centroid,
        LinkageMethod::Median,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            LinkageMethod::Single => "single",
            LinkageMethod::Complete => "complete",
            LinkageMethod::Average => "average",
            LinkageMethod::Weighted => "weighted",
            LinkageMethod::Ward => "ward",
            LinkageMethod::Centroid => "centroid",
            LinkageMethod::Median => "median",
        }
    }

    /// Whether the method operates on squared Euclidean distances
    /// internally (scipy convention).
    pub(crate) fn squares_internally(self) -> bool {
        matches!(
            self,
            LinkageMethod::Ward | LinkageMethod::Centroid | LinkageMethod::Median
        )
    }

    /// Whether merge heights are guaranteed non-decreasing.
    pub fn is_monotone(self) -> bool {
        !matches!(self, LinkageMethod::Centroid | LinkageMethod::Median)
    }

    /// Lance–Williams coefficients `(αᵢ, αⱼ, β, γ)` for merging clusters
    /// of sizes `ni`, `nj` as seen from a cluster of size `nk`.
    pub(crate) fn lance_williams(self, ni: f64, nj: f64, nk: f64) -> (f64, f64, f64, f64) {
        match self {
            LinkageMethod::Single => (0.5, 0.5, 0.0, -0.5),
            LinkageMethod::Complete => (0.5, 0.5, 0.0, 0.5),
            LinkageMethod::Average => {
                let s = ni + nj;
                (ni / s, nj / s, 0.0, 0.0)
            }
            LinkageMethod::Weighted => (0.5, 0.5, 0.0, 0.0),
            LinkageMethod::Ward => {
                let s = ni + nj + nk;
                ((ni + nk) / s, (nj + nk) / s, -nk / s, 0.0)
            }
            LinkageMethod::Centroid => {
                let s = ni + nj;
                (ni / s, nj / s, -(ni * nj) / (s * s), 0.0)
            }
            LinkageMethod::Median => (0.5, 0.5, -0.25, 0.0),
        }
    }
}

impl std::fmt::Display for LinkageMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One agglomeration step (a row of scipy's `Z` matrix).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// Label of the first merged cluster (`< n` means leaf).
    pub a: usize,
    /// Label of the second merged cluster.
    pub b: usize,
    /// Inter-cluster distance at which the merge happened.
    pub distance: f64,
    /// Number of leaves in the new cluster.
    pub size: usize,
}

/// Cluster a condensed distance matrix; returns the `n − 1` merges in
/// agglomeration order.
///
/// # Panics
/// If the matrix has fewer than 2 points.
pub fn linkage(dist: &CondensedMatrix, method: LinkageMethod) -> Vec<Merge> {
    assert!(dist.len() >= 2, "need at least 2 points to cluster");
    match method {
        LinkageMethod::Single => single_linkage_mst(dist),
        _ => linkage_generic(dist, method),
    }
}

/// Generic Lance–Williams agglomeration with nearest-neighbour caching.
fn linkage_generic(dist: &CondensedMatrix, method: LinkageMethod) -> Vec<Merge> {
    let n = dist.len();
    let working = if method.squares_internally() {
        dist.map(|d| d * d)
    } else {
        dist.clone()
    };
    let mut d = working.to_square();
    let mut active: Vec<bool> = vec![true; n];
    let mut label: Vec<usize> = (0..n).collect();
    let mut size: Vec<f64> = vec![1.0; n];

    // nn[i] = (distance to nearest active j != i, j); lazily repaired.
    let mut nn: Vec<(f64, usize)> = (0..n).map(|i| nearest(&d, &active, i)).collect();

    let mut merges = Vec::with_capacity(n - 1);
    for step in 0..(n - 1) {
        // Find the globally closest pair through the caches, repairing
        // stale entries (pointing at deactivated rows) on the fly.
        let mut best_i = usize::MAX;
        let mut best = f64::INFINITY;
        for i in 0..n {
            if !active[i] {
                continue;
            }
            if nn[i].1 != usize::MAX && !active[nn[i].1] {
                nn[i] = nearest(&d, &active, i);
            }
            if nn[i].1 != usize::MAX && nn[i].0 < best {
                best = nn[i].0;
                best_i = i;
            }
        }
        let i = best_i;
        let j = nn[i].1;
        debug_assert!(i != usize::MAX && j != usize::MAX);
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        let dij = d[i][j];

        let height = if method.squares_internally() {
            dij.max(0.0).sqrt()
        } else {
            dij
        };
        let (la, lb) = (label[i].min(label[j]), label[i].max(label[j]));
        let new_size = size[i] + size[j];
        merges.push(Merge {
            a: la,
            b: lb,
            distance: height,
            size: new_size as usize,
        });

        // Merge j into i.
        let (ni, nj) = (size[i], size[j]);
        active[j] = false;
        for k in 0..n {
            if !active[k] || k == i {
                continue;
            }
            let (ai, aj, beta, gamma) = method.lance_williams(ni, nj, size[k]);
            let dki = d[k][i];
            let dkj = d[k][j];
            let nd = ai * dki + aj * dkj + beta * dij + gamma * (dki - dkj).abs();
            d[k][i] = nd;
            d[i][k] = nd;
        }
        size[i] = new_size;
        label[i] = n + step;
        nn[i] = nearest(&d, &active, i);
        // Rows whose cached nn was i or j must be repaired; also any row
        // whose distance to i improved below its cached nn.
        for k in 0..n {
            if !active[k] || k == i {
                continue;
            }
            if nn[k].1 == i || nn[k].1 == j {
                nn[k] = nearest(&d, &active, k);
            } else if d[k][i] < nn[k].0 {
                nn[k] = (d[k][i], i);
            }
        }
    }
    merges
}

fn nearest(d: &[Vec<f64>], active: &[bool], i: usize) -> (f64, usize) {
    let mut best = (f64::INFINITY, usize::MAX);
    for (j, row) in d[i].iter().enumerate() {
        if j != i && active[j] && *row < best.0 {
            best = (*row, j);
        }
    }
    best
}

/// Single linkage via Prim's minimum-spanning-tree, O(n²): the single-
/// linkage dendrogram's merges are exactly the MST edges sorted by weight.
pub fn single_linkage_mst(dist: &CondensedMatrix) -> Vec<Merge> {
    let n = dist.len();
    assert!(n >= 2, "need at least 2 points to cluster");

    // Prim's algorithm.
    let mut in_tree = vec![false; n];
    let mut min_edge = vec![(f64::INFINITY, usize::MAX); n]; // (weight, from)
    let mut edges: Vec<(f64, usize, usize)> = Vec::with_capacity(n - 1);
    in_tree[0] = true;
    for (j, edge) in min_edge.iter_mut().enumerate().skip(1) {
        *edge = (dist.get(0, j), 0);
    }
    for _ in 1..n {
        let mut best = usize::MAX;
        let mut bw = f64::INFINITY;
        for (j, &(w, _)) in min_edge.iter().enumerate() {
            if !in_tree[j] && w < bw {
                bw = w;
                best = j;
            }
        }
        in_tree[best] = true;
        edges.push((bw, min_edge[best].1, best));
        for j in 0..n {
            if !in_tree[j] {
                let w = dist.get(best, j);
                if w < min_edge[j].0 {
                    min_edge[j] = (w, best);
                }
            }
        }
    }

    // Sort MST edges by weight and union-find into merges.
    merges_from_weighted_pairs(n, edges)
}

/// Convert `(height, leaf_rep_a, leaf_rep_b)` triples — discovered in any
/// order — into a height-sorted scipy-style merge list via union-find.
/// Shared by the MST single-linkage path and SLINK.
pub(crate) fn merges_from_weighted_pairs(
    n: usize,
    mut edges: Vec<(f64, usize, usize)>,
) -> Vec<Merge> {
    edges.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut cluster_of: Vec<usize> = (0..n).collect();
    let mut sizes: Vec<usize> = vec![1; 2 * n - 1];
    let mut merges = Vec::with_capacity(n - 1);
    for (step, (w, u, v)) in edges.into_iter().enumerate() {
        let ru = find(&mut parent, u);
        let rv = find(&mut parent, v);
        debug_assert_ne!(ru, rv, "edge joins an already-merged pair");
        let (la, lb) = {
            let (x, y) = (cluster_of[ru], cluster_of[rv]);
            (x.min(y), x.max(y))
        };
        let new_label = n + step;
        let new_size = sizes[la] + sizes[lb];
        sizes[new_label] = new_size;
        merges.push(Merge {
            a: la,
            b: lb,
            distance: w,
            size: new_size,
        });
        parent[rv] = ru;
        cluster_of[ru] = new_label;
    }
    merges
}

/// Cut a merge sequence into exactly `k` flat clusters (the scipy
/// `fcluster(..., criterion="maxclust")` equivalent): undo the last
/// `k − 1` merges. Returns a label in `0..k` per leaf.
pub fn cut_k(n_leaves: usize, merges: &[Merge], k: usize) -> Vec<usize> {
    assert!(k >= 1 && k <= n_leaves, "k must be in 1..=n_leaves");
    assert_eq!(merges.len(), n_leaves - 1, "merge list must be complete");
    // Apply the first n-k merges with union-find.
    let mut parent: Vec<usize> = (0..2 * n_leaves - 1).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (step, m) in merges.iter().take(n_leaves - k).enumerate() {
        let new_label = n_leaves + step;
        let ra = find(&mut parent, m.a);
        let rb = find(&mut parent, m.b);
        parent[ra] = new_label;
        parent[rb] = new_label;
    }
    // Relabel roots densely.
    let mut root_label: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    let mut labels = Vec::with_capacity(n_leaves);
    for leaf in 0..n_leaves {
        let r = find(&mut parent, leaf);
        let next = root_label.len();
        let l = *root_label.entry(r).or_insert(next);
        labels.push(l);
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Metric;

    fn line_points() -> CondensedMatrix {
        // 1-D points at 0, 1, 4, 10.
        let pts = vec![vec![0.0], vec![1.0], vec![4.0], vec![10.0]];
        CondensedMatrix::pdist(&pts, Metric::Euclidean)
    }

    #[test]
    fn single_linkage_on_line() {
        let m = linkage(&line_points(), LinkageMethod::Single);
        assert_eq!(m.len(), 3);
        assert_eq!((m[0].a, m[0].b), (0, 1));
        assert!((m[0].distance - 1.0).abs() < 1e-12);
        assert_eq!((m[1].a, m[1].b), (2, 4));
        assert!((m[1].distance - 3.0).abs() < 1e-12);
        assert_eq!((m[2].a, m[2].b), (3, 5));
        assert!((m[2].distance - 6.0).abs() < 1e-12);
        assert_eq!(m[2].size, 4);
    }

    #[test]
    fn complete_linkage_on_line() {
        let m = linkage(&line_points(), LinkageMethod::Complete);
        assert!((m[0].distance - 1.0).abs() < 1e-12);
        assert!((m[1].distance - 4.0).abs() < 1e-12);
        assert!((m[2].distance - 10.0).abs() < 1e-12);
    }

    #[test]
    fn average_linkage_on_line() {
        let m = linkage(&line_points(), LinkageMethod::Average);
        assert!((m[1].distance - 3.5).abs() < 1e-12);
        let last = m[2].distance;
        assert!((last - (10.0 + 9.0 + 6.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ward_linkage_matches_hand_computation() {
        let m = linkage(&line_points(), LinkageMethod::Ward);
        assert!((m[0].distance - 1.0).abs() < 1e-12);
        assert!((m[1].distance - (49.0f64 / 3.0).sqrt()).abs() < 1e-9);
        assert!((m[2].distance - (416.666_666_666_f64 / 4.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn monotone_methods_produce_nondecreasing_heights() {
        let pts: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![(i as f64 * 1.37).sin() * 5.0, (i as f64 * 0.77).cos() * 3.0])
            .collect();
        let d = CondensedMatrix::pdist(&pts, Metric::Euclidean);
        for method in LinkageMethod::ALL {
            if !method.is_monotone() {
                continue;
            }
            let m = linkage(&d, method);
            for w in m.windows(2) {
                assert!(
                    w[1].distance >= w[0].distance - 1e-9,
                    "{method}: heights decreased: {} then {}",
                    w[0].distance,
                    w[1].distance
                );
            }
        }
    }

    #[test]
    fn every_method_produces_a_valid_merge_sequence() {
        let pts: Vec<Vec<f64>> = (0..9)
            .map(|i| {
                vec![
                    (i % 3) as f64 * 4.0,
                    (i / 3) as f64 * 4.0 + (i as f64) * 0.01,
                ]
            })
            .collect();
        let d = CondensedMatrix::pdist(&pts, Metric::Euclidean);
        for method in LinkageMethod::ALL {
            let m = linkage(&d, method);
            assert_eq!(m.len(), 8, "{method}");
            // Labels: each cluster id used as input at most once.
            let mut used = std::collections::HashSet::new();
            for (step, merge) in m.iter().enumerate() {
                assert!(merge.a < merge.b, "{method}: canonical order");
                assert!(merge.b < 9 + step, "{method}: label from the future");
                assert!(used.insert(merge.a), "{method}: cluster {} reused", merge.a);
                assert!(used.insert(merge.b), "{method}: cluster {} reused", merge.b);
            }
            assert_eq!(m[7].size, 9, "{method}: final cluster holds all leaves");
        }
    }

    #[test]
    fn two_points_single_merge() {
        let d = CondensedMatrix::from_condensed(2, vec![3.5]);
        for method in LinkageMethod::ALL {
            let m = linkage(&d, method);
            assert_eq!(m.len(), 1);
            assert_eq!((m[0].a, m[0].b), (0, 1));
            assert!((m[0].distance - 3.5).abs() < 1e-12, "{method}");
        }
    }

    #[test]
    fn mst_single_equals_generic_single() {
        let pts: Vec<Vec<f64>> = (0..15)
            .map(|i| vec![(i as f64 * 2.13).sin() * 7.0, (i as f64 * 1.91).cos() * 2.0])
            .collect();
        let d = CondensedMatrix::pdist(&pts, Metric::Euclidean);
        let mst = single_linkage_mst(&d);
        let gen = linkage_generic(&d, LinkageMethod::Single);
        // Heights must agree as multisets (label assignment can permute at
        // ties; with generic data there are none).
        let mut h1: Vec<f64> = mst.iter().map(|m| m.distance).collect();
        let mut h2: Vec<f64> = gen.iter().map(|m| m.distance).collect();
        h1.sort_by(|a, b| a.partial_cmp(b).unwrap());
        h2.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (a, b) in h1.iter().zip(&h2) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn cut_k_produces_expected_partitions() {
        let m = linkage(&line_points(), LinkageMethod::Single);
        let labels2 = cut_k(4, &m, 2);
        // {0,1,4} vs {10}.
        assert_eq!(labels2[0], labels2[1]);
        assert_eq!(labels2[1], labels2[2]);
        assert_ne!(labels2[2], labels2[3]);
        let labels1 = cut_k(4, &m, 1);
        assert!(labels1.iter().all(|&l| l == 0));
        let labels4 = cut_k(4, &m, 4);
        let distinct: std::collections::HashSet<usize> = labels4.iter().copied().collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least 2 points")]
    fn single_point_panics() {
        let d = CondensedMatrix::from_condensed(1, vec![]);
        let _ = linkage(&d, LinkageMethod::Average);
    }
}
