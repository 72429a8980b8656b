//! Vector distance metrics.
//!
//! The paper clusters cuisines under Euclidean, Cosine and Jaccard
//! distances (its equations 3–5 are informal; we implement the standard
//! definitions, which is also what the paper's scipy `pdist` call
//! computes).

/// A distance metric over `f64` vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// `sqrt(Σ (aᵢ − bᵢ)²)`.
    Euclidean,
    /// `1 − a·b / (‖a‖‖b‖)`; 0 for two zero vectors, 1 when exactly one
    /// is zero.
    Cosine,
    /// On the supports (non-zero coordinates): `1 − |A∩B| / |A∪B|`;
    /// 0 when both vectors are all-zero.
    Jaccard,
}

impl Metric {
    /// All metrics, for sweeps.
    pub const ALL: [Metric; 3] = [Metric::Euclidean, Metric::Cosine, Metric::Jaccard];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Euclidean => "euclidean",
            Metric::Cosine => "cosine",
            Metric::Jaccard => "jaccard",
        }
    }

    /// Distance between two equal-length vectors.
    ///
    /// # Panics
    /// If the vectors have different lengths.
    pub fn distance(self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "vectors must have equal length");
        match self {
            Metric::Euclidean => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt(),
            Metric::Cosine => {
                let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
                let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
                let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
                if na == 0.0 && nb == 0.0 {
                    0.0
                } else if na == 0.0 || nb == 0.0 {
                    1.0
                } else {
                    // Clamp for numerical safety: dot/(na·nb) ∈ [−1, 1].
                    (1.0 - (dot / (na * nb)).clamp(-1.0, 1.0)).max(0.0)
                }
            }
            Metric::Jaccard => {
                let mut inter = 0usize;
                let mut union = 0usize;
                for (x, y) in a.iter().zip(b) {
                    let xa = x.abs() > f64::EPSILON;
                    let ya = y.abs() > f64::EPSILON;
                    if xa || ya {
                        union += 1;
                        if xa && ya {
                            inter += 1;
                        }
                    }
                }
                if union == 0 {
                    0.0
                } else {
                    1.0 - inter as f64 / union as f64
                }
            }
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Jaccard distance between two sorted id sets (set form, used for
/// pattern-set distances without materializing vectors).
pub fn jaccard_sets(a: &[u32], b: &[u32]) -> f64 {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]));
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        1.0 - inter as f64 / union as f64
    }
}

/// Great-circle (haversine) distance in kilometres between two
/// `(latitude, longitude)` points in degrees. Used for the paper's
/// geographical validation tree (Figure 6).
pub fn haversine_km(a: (f64, f64), b: (f64, f64)) -> f64 {
    const R: f64 = 6371.0;
    let (lat1, lon1) = (a.0.to_radians(), a.1.to_radians());
    let (lat2, lon2) = (b.0.to_radians(), b.1.to_radians());
    let dlat = lat2 - lat1;
    let dlon = lon2 - lon1;
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * R * h.sqrt().asin()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_basics() {
        assert!((Metric::Euclidean.distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(Metric::Euclidean.distance(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn cosine_identical_orthogonal_and_zero() {
        assert!(Metric::Cosine.distance(&[1.0, 2.0], &[2.0, 4.0]).abs() < 1e-12);
        assert!((Metric::Cosine.distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
        assert_eq!(Metric::Cosine.distance(&[0.0, 0.0], &[0.0, 0.0]), 0.0);
        assert_eq!(Metric::Cosine.distance(&[0.0, 0.0], &[1.0, 0.0]), 1.0);
        // Opposite vectors: distance 2.
        assert!((Metric::Cosine.distance(&[1.0], &[-1.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn jaccard_vector_form() {
        // supports {0,1} vs {1,2}: intersection 1, union 3.
        let d = Metric::Jaccard.distance(&[1.0, 1.0, 0.0], &[0.0, 1.0, 1.0]);
        assert!((d - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(Metric::Jaccard.distance(&[0.0], &[0.0]), 0.0);
        assert_eq!(Metric::Jaccard.distance(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn jaccard_set_form_matches_vector_form() {
        let a = [0u32, 1];
        let b = [1u32, 2];
        assert!((jaccard_sets(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(jaccard_sets(&[], &[]), 0.0);
        assert_eq!(jaccard_sets(&[1], &[]), 1.0);
    }

    #[test]
    fn metric_axioms_spot_check() {
        let vs = [
            vec![0.0, 1.0, 2.0],
            vec![1.0, 1.0, 0.0],
            vec![-1.0, 0.5, 2.0],
        ];
        for m in Metric::ALL {
            for a in &vs {
                assert!(m.distance(a, a).abs() < 1e-12, "{m}: d(x,x)=0");
                for b in &vs {
                    let d1 = m.distance(a, b);
                    let d2 = m.distance(b, a);
                    assert!((d1 - d2).abs() < 1e-12, "{m}: symmetry");
                    assert!(d1 >= 0.0, "{m}: non-negativity");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn length_mismatch_panics() {
        Metric::Euclidean.distance(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn haversine_known_distances() {
        // London (51.5, -0.13) to Paris (48.85, 2.35): ~344 km.
        let d = haversine_km((51.5074, -0.1278), (48.8566, 2.3522));
        assert!((330.0..360.0).contains(&d), "London-Paris {d}");
        // Same point -> 0.
        assert!(haversine_km((10.0, 20.0), (10.0, 20.0)).abs() < 1e-9);
        // Antipodal-ish: half circumference ~ 20015 km.
        let d = haversine_km((0.0, 0.0), (0.0, 180.0));
        assert!((20000.0..20030.0).contains(&d));
    }

    #[test]
    fn display_names() {
        assert_eq!(Metric::Euclidean.to_string(), "euclidean");
        assert_eq!(Metric::Jaccard.to_string(), "jaccard");
    }
}
