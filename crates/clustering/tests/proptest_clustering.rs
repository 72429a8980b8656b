//! Property-based invariants of the clustering substrate.

use proptest::prelude::*;

use clustering::condensed::CondensedMatrix;
use clustering::dendrogram::Dendrogram;
use clustering::distance::Metric;
use clustering::hac::{cut_k, linkage, LinkageMethod};
use clustering::kmeans::{kmeans, KMeansConfig};
use clustering::validation::{bakers_gamma, pearson, spearman};

fn arb_points() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-50.0f64..50.0, 3), 2..14)
}

fn monotone_methods() -> Vec<LinkageMethod> {
    LinkageMethod::ALL
        .into_iter()
        .filter(|m| m.is_monotone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn metric_axioms(a in prop::collection::vec(-10.0f64..10.0, 4),
                     b in prop::collection::vec(-10.0f64..10.0, 4),
                     c in prop::collection::vec(-10.0f64..10.0, 4)) {
        for m in [Metric::Euclidean, Metric::Jaccard] {
            let dab = m.distance(&a, &b);
            prop_assert!(dab >= 0.0);
            prop_assert!((dab - m.distance(&b, &a)).abs() < 1e-9, "{m}: symmetry");
            prop_assert!(m.distance(&a, &a).abs() < 1e-9, "{m}: identity");
            // Triangle inequality (true metrics only).
            if m == Metric::Euclidean {
                let dac = m.distance(&a, &c);
                let dcb = m.distance(&c, &b);
                prop_assert!(dab <= dac + dcb + 1e-9, "{m}: triangle");
            }
        }
    }

    #[test]
    fn linkage_produces_valid_tree_for_all_methods(pts in arb_points()) {
        let n = pts.len();
        let d = CondensedMatrix::pdist(&pts, Metric::Euclidean);
        for method in LinkageMethod::ALL {
            let merges = linkage(&d, method);
            prop_assert_eq!(merges.len(), n - 1, "{}", method);
            let tree = Dendrogram::from_merges(n, &merges);
            let mut order = tree.leaf_order();
            order.sort_unstable();
            prop_assert_eq!(order, (0..n).collect::<Vec<_>>(), "{}", method);
            prop_assert_eq!(merges.last().unwrap().size, n, "{}", method);
        }
    }

    #[test]
    fn monotone_linkages_have_nondecreasing_heights(pts in arb_points()) {
        let d = CondensedMatrix::pdist(&pts, Metric::Euclidean);
        for method in monotone_methods() {
            let merges = linkage(&d, method);
            for w in merges.windows(2) {
                prop_assert!(w[1].distance >= w[0].distance - 1e-9, "{}", method);
            }
        }
    }

    #[test]
    fn cophenetic_is_ultrametric_for_monotone_linkages(pts in arb_points()) {
        let n = pts.len();
        let d = CondensedMatrix::pdist(&pts, Metric::Euclidean);
        for method in monotone_methods() {
            let tree = Dendrogram::from_merges(n, &linkage(&d, method));
            let c = tree.cophenetic();
            for i in 0..n {
                for j in (i + 1)..n {
                    for k in (j + 1)..n {
                        let mut v = [c.get(i, j), c.get(i, k), c.get(j, k)];
                        v.sort_by(|x, y| x.partial_cmp(y).unwrap());
                        prop_assert!(v[2] - v[1] < 1e-9,
                            "{}: ultrametric violated ({:?})", method, v);
                    }
                }
            }
        }
    }

    #[test]
    fn single_linkage_cophenetic_lower_bounds_input(pts in arb_points()) {
        // For single linkage, coph(i,j) <= d(i,j): the path through the
        // MST can only shorten distances.
        let n = pts.len();
        let d = CondensedMatrix::pdist(&pts, Metric::Euclidean);
        let tree = Dendrogram::from_merges(n, &linkage(&d, LinkageMethod::Single));
        let c = tree.cophenetic();
        for (i, j, dist) in d.iter_pairs() {
            prop_assert!(c.get(i, j) <= dist + 1e-9);
        }
    }

    #[test]
    fn complete_linkage_cophenetic_upper_bounds_input(pts in arb_points()) {
        let n = pts.len();
        let d = CondensedMatrix::pdist(&pts, Metric::Euclidean);
        let tree = Dendrogram::from_merges(n, &linkage(&d, LinkageMethod::Complete));
        let c = tree.cophenetic();
        for (i, j, dist) in d.iter_pairs() {
            prop_assert!(c.get(i, j) >= dist - 1e-9);
        }
    }

    #[test]
    fn cut_k_yields_exactly_k_clusters(pts in arb_points(), k_frac in 0.0f64..1.0) {
        let n = pts.len();
        let k = 1 + ((n - 1) as f64 * k_frac) as usize;
        let d = CondensedMatrix::pdist(&pts, Metric::Euclidean);
        let merges = linkage(&d, LinkageMethod::Average);
        let labels = cut_k(n, &merges, k);
        let distinct: std::collections::HashSet<usize> = labels.iter().copied().collect();
        prop_assert_eq!(distinct.len(), k);
        prop_assert!(labels.iter().all(|&l| l < k));
    }

    #[test]
    fn cut_at_height_agrees_with_tree_structure(pts in arb_points()) {
        let n = pts.len();
        let d = CondensedMatrix::pdist(&pts, Metric::Euclidean);
        let merges = linkage(&d, LinkageMethod::Average);
        let tree = Dendrogram::from_merges(n, &merges);
        // Cutting above the root height gives one cluster; below the first
        // merge gives n clusters.
        let one = tree.cut_at_height(tree.max_height() + 1.0);
        prop_assert!(one.iter().all(|&l| l == 0));
        let all = tree.cut_at_height(merges[0].distance - 1e-9);
        let distinct: std::collections::HashSet<usize> = all.iter().copied().collect();
        prop_assert_eq!(distinct.len(), n);
    }

    #[test]
    fn bakers_gamma_self_is_one(pts in arb_points()) {
        prop_assume!(pts.len() >= 3);
        let n = pts.len();
        let d = CondensedMatrix::pdist(&pts, Metric::Euclidean);
        let tree = Dendrogram::from_merges(n, &linkage(&d, LinkageMethod::Average));
        let g = bakers_gamma(&tree, &tree);
        // Degenerate trees (all heights equal) have zero rank variance.
        if g != 0.0 {
            prop_assert!((g - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn kmeans_wcss_never_negative_and_labels_in_range(pts in arb_points(), k_frac in 0.0f64..1.0) {
        let n = pts.len();
        let k = 1 + ((n - 1) as f64 * k_frac) as usize;
        let r = kmeans(&pts, &KMeansConfig::new(k).with_seed(5));
        prop_assert!(r.wcss >= 0.0);
        prop_assert!(r.labels.iter().all(|&l| l < k));
        prop_assert_eq!(r.labels.len(), n);
        prop_assert_eq!(r.centroids.len(), k);
    }

    #[test]
    fn correlation_bounds(x in prop::collection::vec(-100.0f64..100.0, 3..30),
                          y in prop::collection::vec(-100.0f64..100.0, 3..30)) {
        let n = x.len().min(y.len());
        let p = pearson(&x[..n], &y[..n]);
        let s = spearman(&x[..n], &y[..n]);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&p));
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&s));
    }
}
