//! `pdist`-style condensed distance matrices.
//!
//! A symmetric zero-diagonal `n × n` distance matrix is stored as the
//! `n(n−1)/2` upper-triangle entries in row-major order — the exact layout
//! of `scipy.spatial.distance.pdist`, which the paper feeds to its
//! hierarchical clustering.

use crate::distance::Metric;

/// A condensed (upper-triangle) pairwise distance matrix over `n` points.
#[derive(Debug, Clone, PartialEq)]
pub struct CondensedMatrix {
    n: usize,
    data: Vec<f64>,
}

impl CondensedMatrix {
    /// Build from a closure giving the distance for each pair `i < j`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                data.push(f(i, j));
            }
        }
        CondensedMatrix { n, data }
    }

    /// `pdist`: pairwise distances between rows of `points` under `metric`.
    ///
    /// # Panics
    /// If rows have inconsistent lengths.
    pub fn pdist(points: &[Vec<f64>], metric: Metric) -> Self {
        Self::from_fn(points.len(), |i, j| metric.distance(&points[i], &points[j]))
    }

    /// Parallel [`CondensedMatrix::from_fn`]: each row `i` of the upper
    /// triangle (`n − 1 − i` entries) is computed independently on a
    /// scoped thread pool and the segments are concatenated in row order,
    /// so the result is **byte-identical** to the sequential `from_fn`
    /// for any thread count — every entry is produced by the same single
    /// call `f(i, j)`, only on a different thread. Rows are claimed
    /// longest-first (row 0 is the widest).
    pub fn par_from_fn(n: usize, threads: usize, f: impl Fn(usize, usize) -> f64 + Sync) -> Self {
        if threads <= 1 || n < 3 {
            return Self::from_fn(n, f);
        }
        let rows = n.saturating_sub(1);
        // Row i has n-1-i entries: ascending index order is already the
        // descending-cost claim order.
        let segments: Vec<Vec<f64>> =
            par::map(threads, rows, |i| ((i + 1)..n).map(|j| f(i, j)).collect());
        let mut data = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for segment in segments {
            data.extend(segment);
        }
        CondensedMatrix { n, data }
    }

    /// Parallel [`CondensedMatrix::pdist`] over `threads` workers;
    /// byte-identical to the sequential form (see [`Self::par_from_fn`]).
    ///
    /// # Panics
    /// If rows have inconsistent lengths.
    pub fn par_pdist(points: &[Vec<f64>], metric: Metric, threads: usize) -> Self {
        Self::par_from_fn(points.len(), threads, |i, j| {
            metric.distance(&points[i], &points[j])
        })
    }

    /// Build from raw condensed data.
    ///
    /// # Panics
    /// If `data.len() != n(n−1)/2`. Degenerate sizes are well-defined:
    /// `n = 0` and `n = 1` both require an empty `data` (the naive
    /// `n * (n - 1) / 2` would underflow at `n = 0`).
    pub fn from_condensed(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            n * n.saturating_sub(1) / 2,
            "condensed length mismatch for n={n}"
        );
        CondensedMatrix { n, data }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether there are no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The condensed entries (upper triangle, row-major).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Index of pair `(i, j)`, `i ≠ j`, in the condensed layout.
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i != j && i < self.n && j < self.n);
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        // offset of row i = i*n - i(i+1)/2 ; column offset = j - i - 1.
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Distance between points `i` and `j` (0 when `i == j`).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        self.data[self.index(i, j)]
    }

    /// Set the distance between `i` and `j`.
    ///
    /// # Panics
    /// If `i == j`.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i != j, "diagonal is fixed at zero");
        let idx = self.index(i, j);
        self.data[idx] = value;
    }

    /// Apply `f` to every entry (e.g. squaring for Ward linkage).
    pub fn map(&self, f: impl Fn(f64) -> f64) -> CondensedMatrix {
        CondensedMatrix {
            n: self.n,
            data: self.data.iter().map(|&d| f(d)).collect(),
        }
    }

    /// Expand to a full square matrix.
    pub fn to_square(&self) -> Vec<Vec<f64>> {
        (0..self.n)
            .map(|i| (0..self.n).map(|j| self.get(i, j)).collect())
            .collect()
    }

    /// Iterate `(i, j, distance)` over all pairs `i < j`.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n).flat_map(move |i| ((i + 1)..self.n).map(move |j| (i, j, self.get(i, j))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_matches_scipy_pdist_order() {
        // For n=4 the condensed order is (0,1),(0,2),(0,3),(1,2),(1,3),(2,3).
        let m = CondensedMatrix::from_fn(4, |i, j| (10 * i + j) as f64);
        assert_eq!(m.data(), &[1.0, 2.0, 3.0, 12.0, 13.0, 23.0]);
        assert_eq!(m.get(1, 3), 13.0);
        assert_eq!(m.get(3, 1), 13.0, "symmetric access");
        assert_eq!(m.get(2, 2), 0.0);
    }

    #[test]
    fn pdist_euclidean() {
        let pts = vec![vec![0.0, 0.0], vec![3.0, 4.0], vec![0.0, 1.0]];
        let m = CondensedMatrix::pdist(&pts, Metric::Euclidean);
        assert!((m.get(0, 1) - 5.0).abs() < 1e-12);
        assert!((m.get(0, 2) - 1.0).abs() < 1e-12);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn set_and_map() {
        let mut m = CondensedMatrix::from_fn(3, |_, _| 2.0);
        m.set(0, 2, 7.0);
        assert_eq!(m.get(2, 0), 7.0);
        let sq = m.map(|d| d * d);
        assert_eq!(sq.get(0, 2), 49.0);
        assert_eq!(sq.get(0, 1), 4.0);
    }

    #[test]
    fn to_square_is_symmetric_zero_diagonal() {
        let m = CondensedMatrix::from_fn(3, |i, j| (i + j) as f64);
        let sq = m.to_square();
        for (i, row) in sq.iter().enumerate() {
            assert_eq!(row[i], 0.0);
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, sq[j][i]);
            }
        }
    }

    #[test]
    fn iter_pairs_covers_upper_triangle() {
        let m = CondensedMatrix::from_fn(4, |i, j| (i * 4 + j) as f64);
        let pairs: Vec<(usize, usize, f64)> = m.iter_pairs().collect();
        assert_eq!(pairs.len(), 6);
        assert!(pairs.iter().all(|&(i, j, _)| i < j));
    }

    #[test]
    fn par_from_fn_is_byte_identical_to_sequential() {
        let f = |i: usize, j: usize| ((i * 31 + j * 17) as f64).sin() / (j as f64);
        let seq = CondensedMatrix::from_fn(40, f);
        for threads in [1, 2, 3, 8] {
            let par = CondensedMatrix::par_from_fn(40, threads, f);
            assert_eq!(seq, par, "threads={threads}");
            // PartialEq on f64 vecs is exact bit-level equality except
            // for NaN/-0.0; double-check the bits to make the contract
            // explicit.
            for (a, b) in seq.data().iter().zip(par.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn par_pdist_matches_pdist_exactly() {
        let pts: Vec<Vec<f64>> = (0..30)
            .map(|i| (0..5).map(|d| ((i * 7 + d * 3) as f64).cos()).collect())
            .collect();
        for metric in [Metric::Euclidean, Metric::Cosine, Metric::Jaccard] {
            let seq = CondensedMatrix::pdist(&pts, metric);
            let par = CondensedMatrix::par_pdist(&pts, metric, 4);
            assert_eq!(seq, par, "{metric:?}");
        }
    }

    #[test]
    fn par_from_fn_tiny_inputs() {
        assert!(CondensedMatrix::par_from_fn(0, 4, |_, _| 1.0).is_empty());
        assert_eq!(CondensedMatrix::par_from_fn(1, 4, |_, _| 1.0).len(), 1);
        let two = CondensedMatrix::par_from_fn(2, 4, |i, j| (i + j) as f64);
        assert_eq!(two.get(0, 1), 1.0);
    }

    #[test]
    #[should_panic(expected = "condensed length mismatch")]
    fn from_condensed_checks_length() {
        let _ = CondensedMatrix::from_condensed(4, vec![0.0; 5]);
    }

    #[test]
    fn from_condensed_degenerate_sizes() {
        // n = 0: the length check must not underflow.
        let empty = CondensedMatrix::from_condensed(0, Vec::new());
        assert!(empty.is_empty());
        assert_eq!(empty.to_square(), Vec::<Vec<f64>>::new());
        assert_eq!(empty.iter_pairs().count(), 0);
        // n = 1: a single point has no pairs but a well-defined square.
        let one = CondensedMatrix::from_condensed(1, Vec::new());
        assert_eq!(one.len(), 1);
        assert!(!one.is_empty());
        assert_eq!(one.get(0, 0), 0.0);
        assert_eq!(one.to_square(), vec![vec![0.0]]);
        assert_eq!(one.iter_pairs().count(), 0);
    }

    #[test]
    #[should_panic(expected = "condensed length mismatch")]
    fn from_condensed_rejects_data_for_zero_points() {
        let _ = CondensedMatrix::from_condensed(0, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn set_diagonal_panics() {
        let mut m = CondensedMatrix::from_fn(3, |_, _| 1.0);
        m.set(1, 1, 5.0);
    }
}
