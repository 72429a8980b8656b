//! K-means (Lloyd's algorithm) with k-means++ seeding, WCSS and the elbow
//! sweep.
//!
//! The paper applies k-means to its label-encoded categorical pattern
//! vectors and shows (Figure 1) that the elbow method fails — the WCSS
//! curve has no sharp knee — which motivates the hierarchical approach.
//! This module reproduces that machinery: [`kmeans`], [`elbow_sweep`] and
//! a quantified [`elbow_strength`] knee detector.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of one k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Cluster label per point, in `0..k`.
    pub labels: Vec<usize>,
    /// Cluster centroids, `k × dim`.
    pub centroids: Vec<Vec<f64>>,
    /// Within-cluster sum of squares (the elbow method's y-axis).
    pub wcss: f64,
    /// Lloyd iterations until convergence.
    pub iterations: usize,
}

/// Configuration for k-means.
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iter: usize,
    /// Number of random restarts (best WCSS wins).
    pub n_init: usize,
    /// RNG seed.
    pub seed: u64,
}

impl KMeansConfig {
    /// A default configuration for `k` clusters.
    pub fn new(k: usize) -> Self {
        KMeansConfig {
            k,
            max_iter: 100,
            n_init: 4,
            seed: 42,
        }
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// k-means++ seeding (Arthur & Vassilvitskii, 2007): first centroid
/// uniform, subsequent ones proportional to squared distance from the
/// nearest chosen centroid.
fn kmeanspp_init(points: &[Vec<f64>], k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let n = points.len();
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..n)].clone());
    let mut d2: Vec<f64> = points.iter().map(|p| sq_dist(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let chosen = if total <= f64::EPSILON {
            // All points coincide with chosen centroids: pick uniformly.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut idx = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target < w {
                    idx = i;
                    break;
                }
                target -= w;
            }
            idx
        };
        centroids.push(points[chosen].clone());
        let new = centroids.last().expect("just pushed");
        for (i, p) in points.iter().enumerate() {
            d2[i] = d2[i].min(sq_dist(p, new));
        }
    }
    centroids
}

/// Run k-means with `n_init` k-means++ restarts, returning the best run.
///
/// # Panics
/// If `points` is empty, rows have unequal lengths, or `k` is 0 or larger
/// than the number of points.
pub fn kmeans(points: &[Vec<f64>], config: &KMeansConfig) -> KMeansResult {
    let n = points.len();
    assert!(n > 0, "no points");
    let dim = points[0].len();
    assert!(points.iter().all(|p| p.len() == dim), "ragged point matrix");
    assert!(config.k >= 1 && config.k <= n, "k must be in 1..=n");

    let mut best: Option<KMeansResult> = None;
    for restart in 0..config.n_init.max(1) {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(restart as u64));
        let result = lloyd(points, config.k, config.max_iter, &mut rng);
        if best.as_ref().is_none_or(|b| result.wcss < b.wcss) {
            best = Some(result);
        }
    }
    best.expect("at least one restart")
}

fn lloyd(points: &[Vec<f64>], k: usize, max_iter: usize, rng: &mut StdRng) -> KMeansResult {
    let n = points.len();
    let dim = points[0].len();
    let mut centroids = kmeanspp_init(points, k, rng);
    let mut labels = vec![0usize; n];
    let mut iterations = 0;

    for it in 0..max_iter {
        iterations = it + 1;
        // Assignment step.
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let mut best_c = 0;
            let mut best_d = f64::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let d = sq_dist(p, centroid);
                if d < best_d {
                    best_d = d;
                    best_c = c;
                }
            }
            if labels[i] != best_c {
                labels[i] = best_c;
                changed = true;
            }
        }
        if !changed && it > 0 {
            break;
        }
        // Update step.
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (i, p) in points.iter().enumerate() {
            counts[labels[i]] += 1;
            for (s, &x) in sums[labels[i]].iter_mut().zip(p) {
                *s += x;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Empty cluster: reseed at the point farthest from its
                // centroid (standard fix).
                let (far, _) = points
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (i, sq_dist(p, &centroids[labels[i]])))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .expect("non-empty points");
                centroids[c] = points[far].clone();
            } else {
                for (j, s) in sums[c].iter().enumerate() {
                    centroids[c][j] = s / counts[c] as f64;
                }
            }
        }
    }

    let wcss = points
        .iter()
        .zip(&labels)
        .map(|(p, &l)| sq_dist(p, &centroids[l]))
        .sum();
    KMeansResult {
        labels,
        centroids,
        wcss,
        iterations,
    }
}

/// WCSS for each `k` in `1..=k_max` — the elbow curve of Figure 1.
pub fn elbow_sweep(points: &[Vec<f64>], k_max: usize, seed: u64) -> Vec<f64> {
    elbow_sweep_threads(points, k_max, seed, 1)
}

/// [`elbow_sweep`] over `threads` workers: each k's run is independently
/// seeded (`seed` plus the restart offset), so every k produces the exact
/// sequential result and the curve is identical for any thread count.
/// Larger k costs more, so k values are claimed in descending order.
pub fn elbow_sweep_threads(
    points: &[Vec<f64>],
    k_max: usize,
    seed: u64,
    threads: usize,
) -> Vec<f64> {
    let n_k = k_max.min(points.len());
    let claim_order: Vec<usize> = (0..n_k).rev().collect();
    par::map_claiming(threads, &claim_order, |i| {
        kmeans(points, &KMeansConfig::new(i + 1).with_seed(seed)).wcss
    })
}

/// Quantify how sharp the elbow of a WCSS curve is: the maximum normalized
/// second difference `(w[k−1] − w[k]) − (w[k] − w[k+1])` over the curve,
/// divided by `w[0]`. Values near 0 mean "no elbow" — the paper's Figure 1
/// finding; a clean two-cluster dataset scores far higher. Returns the
/// `(best_k, strength)` pair, or `None` for curves shorter than 3.
pub fn elbow_strength(wcss: &[f64]) -> Option<(usize, f64)> {
    if wcss.len() < 3 || wcss[0] <= 0.0 {
        return None;
    }
    let mut best = (0usize, f64::NEG_INFINITY);
    for k in 1..wcss.len() - 1 {
        let d2 = (wcss[k - 1] - wcss[k]) - (wcss[k] - wcss[k + 1]);
        if d2 > best.1 {
            best = (k + 1, d2); // k is 1-based cluster count here
        }
    }
    Some((best.0, best.1 / wcss[0]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(vec![0.0 + (i as f64) * 0.01, 0.0]);
            pts.push(vec![10.0 + (i as f64) * 0.01, 10.0]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let pts = two_blobs();
        let r = kmeans(&pts, &KMeansConfig::new(2));
        // Points alternate blob membership; labels must too.
        for i in (0..pts.len()).step_by(2) {
            assert_eq!(r.labels[i], r.labels[0]);
        }
        for i in (1..pts.len()).step_by(2) {
            assert_eq!(r.labels[i], r.labels[1]);
        }
        assert_ne!(r.labels[0], r.labels[1]);
        assert!(r.wcss < 1.0, "tight blobs -> small WCSS, got {}", r.wcss);
    }

    #[test]
    fn k_equals_one_centroid_is_mean() {
        let pts = vec![vec![0.0], vec![2.0], vec![4.0]];
        let r = kmeans(&pts, &KMeansConfig::new(1));
        assert!((r.centroids[0][0] - 2.0).abs() < 1e-9);
        assert!((r.wcss - 8.0).abs() < 1e-9);
        assert!(r.labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn k_equals_n_zero_wcss() {
        let pts = vec![vec![0.0], vec![5.0], vec![9.0]];
        let r = kmeans(&pts, &KMeansConfig::new(3));
        assert!(r.wcss < 1e-12);
    }

    #[test]
    fn wcss_nonincreasing_in_k() {
        let pts: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i as f64 * 1.7).sin() * 10.0, (i as f64 * 2.3).cos() * 10.0])
            .collect();
        let curve = elbow_sweep(&pts, 8, 7);
        for w in curve.windows(2) {
            // Allow tiny slack for local-minimum wiggle.
            assert!(
                w[1] <= w[0] * 1.05 + 1e-9,
                "WCSS rose: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn elbow_is_sharp_for_separated_blobs_and_detected_at_two() {
        let curve = elbow_sweep(&two_blobs(), 6, 3);
        let (k, strength) = elbow_strength(&curve).expect("curve long enough");
        assert_eq!(k, 2, "knee at k=2 for two blobs");
        assert!(strength > 0.1, "blobs give a sharp elbow, got {strength}");
    }

    #[test]
    fn elbow_is_flat_for_structureless_data() {
        // Uniform-ish scatter: no elbow.
        let pts: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                vec![
                    ((i * 2654435761u64 as usize) % 1000) as f64 / 100.0,
                    ((i * 40503 + 7) % 1000) as f64 / 100.0,
                ]
            })
            .collect();
        let curve = elbow_sweep(&pts, 8, 5);
        let (_, strength) = elbow_strength(&curve).expect("curve long enough");
        assert!(
            strength < 0.2,
            "structureless data must have weak elbow, got {strength}"
        );
    }

    #[test]
    fn elbow_sweep_threads_matches_sequential_exactly() {
        let pts: Vec<Vec<f64>> = (0..24)
            .map(|i| vec![(i as f64 * 1.3).sin() * 5.0, (i as f64 * 0.7).cos() * 5.0])
            .collect();
        let seq = elbow_sweep(&pts, 8, 11);
        for threads in [2, 3, 8] {
            let par = elbow_sweep_threads(&pts, 8, 11, threads);
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let pts = two_blobs();
        let a = kmeans(&pts, &KMeansConfig::new(3).with_seed(9));
        let b = kmeans(&pts, &KMeansConfig::new(3).with_seed(9));
        assert_eq!(a, b);
    }

    #[test]
    fn elbow_strength_edge_cases() {
        assert!(elbow_strength(&[1.0, 0.5]).is_none());
        assert!(elbow_strength(&[0.0, 0.0, 0.0]).is_none());
    }

    #[test]
    #[should_panic(expected = "k must be in 1..=n")]
    fn k_larger_than_n_panics() {
        let _ = kmeans(&[vec![1.0]], &KMeansConfig::new(2));
    }
}
