//! The paper's pattern-to-feature-vector step (Section VI.A).
//!
//! All per-cuisine patterns are canonicalised to "string patterns",
//! compiled into one unique vocabulary, label-encoded, and each cuisine
//! becomes a binary incidence vector over that vocabulary (did the
//! cuisine exhibit the pattern?).

use clustering::encode::{incidence_matrix, LabelEncoder};
use recipedb::RecipeDb;

use crate::patterns::CuisinePatterns;

/// The encoded pattern space: vocabulary + per-cuisine feature vectors.
#[derive(Debug, Clone)]
pub struct PatternFeatures {
    /// Pattern-string vocabulary in code order.
    pub vocabulary: Vec<String>,
    /// Binary incidence matrix, `n_cuisines × vocab`.
    pub binary: Vec<Vec<f64>>,
    /// Per-cuisine encoded pattern id lists (sorted), for set-based
    /// distances.
    pub pattern_sets: Vec<Vec<u32>>,
}

impl PatternFeatures {
    /// Build the feature space from all cuisines' mined patterns.
    pub fn build(db: &RecipeDb, all: &[CuisinePatterns]) -> Self {
        let mut encoder: LabelEncoder<String> = LabelEncoder::new();
        let rows_binary: Vec<Vec<usize>> = all
            .iter()
            .map(|cp| {
                cp.itemsets
                    .iter()
                    .map(|f| encoder.fit_transform_one(&CuisinePatterns::pattern_string(db, f)))
                    .collect()
            })
            .collect();

        let binary = incidence_matrix(&rows_binary, encoder.len());
        let pattern_sets = rows_binary
            .into_iter()
            .map(|mut codes| {
                codes.sort_unstable();
                codes.dedup();
                codes.into_iter().map(|c| c as u32).collect()
            })
            .collect();

        PatternFeatures {
            vocabulary: encoder.vocabulary().to_vec(),
            binary,
            pattern_sets,
        }
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocabulary.len()
    }

    /// Number of shared patterns between two cuisines (by index).
    pub fn shared_patterns(&self, a: usize, b: usize) -> usize {
        let (sa, sb) = (&self.pattern_sets[a], &self.pattern_sets[b]);
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < sa.len() && j < sb.len() {
            match sa[i].cmp(&sb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipedb::Cuisine;

    fn features() -> (&'static RecipeDb, &'static PatternFeatures) {
        let atlas = crate::testutil::shared_atlas();
        (atlas.db(), atlas.features())
    }

    #[test]
    fn shapes_are_consistent() {
        let (_, f) = features();
        assert_eq!(f.binary.len(), 26);
        assert_eq!(f.pattern_sets.len(), 26);
        for row in &f.binary {
            assert_eq!(row.len(), f.vocab_size());
            assert!(row.iter().all(|&x| x == 0.0 || x == 1.0));
        }
    }

    #[test]
    fn vocabulary_is_unique() {
        let (_, f) = features();
        let mut v = f.vocabulary.clone();
        v.sort();
        let before = v.len();
        v.dedup();
        assert_eq!(before, v.len(), "duplicate pattern strings in vocabulary");
        assert!(
            f.vocab_size() > 26,
            "cross-cuisine vocabulary should be rich"
        );
    }

    #[test]
    fn binary_row_weight_equals_pattern_count() {
        let (_, f) = features();
        for (i, row) in f.binary.iter().enumerate() {
            let ones = row.iter().filter(|&&x| x == 1.0).count();
            assert_eq!(ones, f.pattern_sets[i].len(), "cuisine {i}");
        }
    }

    #[test]
    fn canada_shares_more_with_france_than_us() {
        // The corpus encodes the paper's headline claim; the feature space
        // must carry it through.
        let (_, f) = features();
        let ca = Cuisine::Canadian.index();
        let fr = Cuisine::French.index();
        let us = Cuisine::US.index();
        assert!(
            f.shared_patterns(ca, fr) > f.shared_patterns(ca, us),
            "Canada∩France {} vs Canada∩US {}",
            f.shared_patterns(ca, fr),
            f.shared_patterns(ca, us)
        );
    }

    #[test]
    fn generic_patterns_are_shared_by_most_cuisines() {
        let (db, f) = features();
        let _ = db;
        // The 'salt' singleton pattern exists and is present in most rows.
        let salt_code = f
            .vocabulary
            .iter()
            .position(|p| p == "salt")
            .expect("salt pattern in vocabulary");
        let holders = f.binary.iter().filter(|row| row[salt_code] == 1.0).count();
        assert!(holders >= 20, "salt pattern held by {holders}/26 cuisines");
    }
}
