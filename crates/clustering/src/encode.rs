//! Categorical encoding: the paper's label-encoding / vectorization step.
//!
//! The paper collects all per-cuisine "string patterns" into a unique set,
//! label-encodes them, and turns each cuisine's pattern collection into a
//! feature vector. [`LabelEncoder`] is the `sklearn.preprocessing.
//! LabelEncoder` equivalent; [`incidence_matrix`] builds the binary
//! entity × vocabulary matrix from encoded id lists.

use std::collections::HashMap;
use std::hash::Hash;

/// Maps hashable categorical values to dense `usize` codes.
#[derive(Debug, Clone, Default)]
pub struct LabelEncoder<T: Eq + Hash + Clone> {
    codes: HashMap<T, usize>,
    values: Vec<T>,
}

impl<T: Eq + Hash + Clone> LabelEncoder<T> {
    /// An empty encoder.
    pub fn new() -> Self {
        LabelEncoder {
            codes: HashMap::new(),
            values: Vec::new(),
        }
    }

    /// Encode a value, assigning a fresh code on first sight.
    pub fn fit_transform_one(&mut self, value: &T) -> usize {
        if let Some(&c) = self.codes.get(value) {
            return c;
        }
        let c = self.values.len();
        self.codes.insert(value.clone(), c);
        self.values.push(value.clone());
        c
    }

    /// Encode a batch.
    pub fn fit_transform(&mut self, values: impl IntoIterator<Item = T>) -> Vec<usize> {
        values
            .into_iter()
            .map(|v| self.fit_transform_one(&v))
            .collect()
    }

    /// Look up the code of an already-seen value.
    pub fn transform(&self, value: &T) -> Option<usize> {
        self.codes.get(value).copied()
    }

    /// Decode a code back to its value.
    pub fn inverse(&self, code: usize) -> Option<&T> {
        self.values.get(code)
    }

    /// Vocabulary size.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The vocabulary in code order.
    pub fn vocabulary(&self) -> &[T] {
        &self.values
    }
}

/// Build a binary incidence matrix: `rows[i]` contains the codes present
/// for entity `i`; the result is an `n × vocab_size` 0/1 matrix.
pub fn incidence_matrix(rows: &[Vec<usize>], vocab_size: usize) -> Vec<Vec<f64>> {
    rows.iter()
        .map(|codes| {
            let mut v = vec![0.0; vocab_size];
            for &c in codes {
                assert!(c < vocab_size, "code {c} out of vocabulary {vocab_size}");
                v[c] = 1.0;
            }
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_assigns_dense_stable_codes() {
        let mut enc = LabelEncoder::new();
        let a = enc.fit_transform_one(&"soy sauce");
        let b = enc.fit_transform_one(&"butter");
        let a2 = enc.fit_transform_one(&"soy sauce");
        assert_eq!(a, a2);
        assert_eq!((a, b), (0, 1));
        assert_eq!(enc.len(), 2);
        assert!(!enc.is_empty());
        assert_eq!(enc.inverse(1), Some(&"butter"));
        assert_eq!(enc.transform(&"butter"), Some(1));
        assert_eq!(enc.transform(&"missing"), None);
        assert_eq!(enc.vocabulary(), &["soy sauce", "butter"]);
    }

    #[test]
    fn batch_encode() {
        let mut enc = LabelEncoder::new();
        let codes = enc.fit_transform(vec!["a", "b", "a", "c"]);
        assert_eq!(codes, vec![0, 1, 0, 2]);
    }

    #[test]
    fn incidence_is_binary() {
        let m = incidence_matrix(&[vec![0, 2], vec![1], vec![]], 3);
        assert_eq!(m[0], vec![1.0, 0.0, 1.0]);
        assert_eq!(m[1], vec![0.0, 1.0, 0.0]);
        assert_eq!(m[2], vec![0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn incidence_checks_bounds() {
        let _ = incidence_matrix(&[vec![5]], 3);
    }
}
