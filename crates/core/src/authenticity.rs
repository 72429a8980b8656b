//! Authenticity-based cuisine fingerprints (paper Section V.B, Figure 5),
//! after Ahn et al., *Flavor network and the principles of food pairing*
//! (Scientific Reports, 2011).
//!
//! The prevalence of ingredient `i` in cuisine `c` is the fraction of
//! `c`'s recipes containing `i`, `P_i^c = n_i^c / N^c` (the paper's
//! equation 1 is ambiguous about the normaliser; Ahn et al.'s
//! per-cuisine normalisation is used). The **relative prevalence**
//! (authenticity) is `p_i^c = P_i^c − ⟨P_i^k⟩_{k≠c}` — positive for items
//! over-represented in `c`, negative for items conspicuously absent; both
//! tails carry signal, which is why the fingerprint keeps the sign.

use std::collections::HashMap;

use recipedb::catalog::TokenId;
use recipedb::{Cuisine, ItemKind, RecipeDb};

/// Cuisines × items prevalence and relative-prevalence matrices.
///
/// Rows are in `cuisines` order — `Cuisine::ALL` for the paper's corpus,
/// or the subset actually present in an uploaded one, so a cuisine's row
/// index is its *position in `cuisines`*, not `Cuisine::index()`.
#[derive(Debug, Clone)]
pub struct AuthenticityMatrix {
    /// The cuisines covered, in row order.
    pub cuisines: Vec<Cuisine>,
    /// Item universe (token ids), in column order.
    pub items: Vec<TokenId>,
    /// `prevalence[c][j]` = P of item `items[j]` in cuisine `cuisines[c]`.
    pub prevalence: Vec<Vec<f64>>,
    /// `relative[c][j]` = prevalence − mean prevalence over other cuisines.
    pub relative: Vec<Vec<f64>>,
}

impl AuthenticityMatrix {
    /// Build over the ingredients of the corpus (the paper's Figure 5 is
    /// "dominantly based on ingredients") for an explicit cuisine list,
    /// rows in list order — `Cuisine::ALL`, or the subset present in an
    /// uploaded corpus. For a single-cuisine corpus there are no "other
    /// cuisines", so relative prevalence equals prevalence rather than
    /// dividing by zero.
    pub fn ingredients_over(db: &RecipeDb, cuisines: &[Cuisine]) -> Self {
        let n_cuisines = cuisines.len();

        // Count, per cuisine, in how many recipes each token occurs.
        let mut columns: HashMap<TokenId, usize> = HashMap::new();
        let mut counts: Vec<HashMap<TokenId, u32>> = Vec::with_capacity(n_cuisines);
        for &c in cuisines {
            let freq = db.item_frequencies(c);
            for (&tok, _) in freq.iter() {
                let kind = db.catalog().kind_of(tok).expect("token in catalog");
                if kind == ItemKind::Ingredient {
                    let next = columns.len();
                    columns.entry(tok).or_insert(next);
                }
            }
            counts.push(freq);
        }
        let mut items: Vec<(TokenId, usize)> = columns.into_iter().collect();
        items.sort_by_key(|&(tok, _)| tok);
        let col_of: HashMap<TokenId, usize> = items
            .iter()
            .enumerate()
            .map(|(j, &(tok, _))| (tok, j))
            .collect();
        let items: Vec<TokenId> = items.into_iter().map(|(t, _)| t).collect();

        let mut prevalence = vec![vec![0.0; items.len()]; n_cuisines];
        for (row, (&cuisine, freq)) in prevalence.iter_mut().zip(cuisines.iter().zip(&counts)) {
            let denom = db.recipes_in(cuisine).max(1) as f64;
            for (&tok, &n) in freq {
                if let Some(&j) = col_of.get(&tok) {
                    row[j] = n as f64 / denom;
                }
            }
        }

        // Relative prevalence: subtract the mean over the *other* cuisines.
        let mut relative = vec![vec![0.0; items.len()]; n_cuisines];
        for j in 0..items.len() {
            let total: f64 = prevalence.iter().map(|row| row[j]).sum();
            for c in 0..n_cuisines {
                let others = if n_cuisines > 1 {
                    (total - prevalence[c][j]) / (n_cuisines as f64 - 1.0)
                } else {
                    0.0
                };
                relative[c][j] = prevalence[c][j] - others;
            }
        }

        AuthenticityMatrix {
            cuisines: cuisines.to_vec(),
            items,
            prevalence,
            relative,
        }
    }

    /// Number of item columns.
    pub fn n_items(&self) -> usize {
        self.items.len()
    }

    /// Row index of a cuisine, if the matrix covers it.
    pub fn index_of(&self, cuisine: Cuisine) -> Option<usize> {
        self.cuisines.iter().position(|&c| c == cuisine)
    }

    fn row_of(&self, cuisine: Cuisine) -> &[f64] {
        let idx = self
            .index_of(cuisine)
            .unwrap_or_else(|| panic!("cuisine {cuisine} not covered by this matrix"));
        &self.relative[idx]
    }

    /// The fingerprint vector of a cuisine (its relative-prevalence row).
    ///
    /// # Panics
    /// If the matrix does not cover `cuisine` (see
    /// [`AuthenticityMatrix::index_of`]).
    pub fn fingerprint(&self, cuisine: Cuisine) -> &[f64] {
        self.row_of(cuisine)
    }

    /// The `k` most-authentic (largest relative prevalence) items of a
    /// cuisine, as `(token, relative_prevalence)` descending.
    pub fn most_authentic(&self, cuisine: Cuisine, k: usize) -> Vec<(TokenId, f64)> {
        let row = self.row_of(cuisine);
        let mut pairs: Vec<(TokenId, f64)> = self
            .items
            .iter()
            .copied()
            .zip(row.iter().copied())
            .collect();
        pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        pairs.truncate(k);
        pairs
    }

    /// The `k` least-authentic (most conspicuously absent) items.
    pub fn least_authentic(&self, cuisine: Cuisine, k: usize) -> Vec<(TokenId, f64)> {
        let row = self.row_of(cuisine);
        let mut pairs: Vec<(TokenId, f64)> = self
            .items
            .iter()
            .copied()
            .zip(row.iter().copied())
            .collect();
        pairs.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        pairs.truncate(k);
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipedb::generator::{CorpusGenerator, GeneratorConfig};

    fn db() -> RecipeDb {
        CorpusGenerator::new(GeneratorConfig::paper_scale(0.03).with_seed(3)).generate()
    }

    #[test]
    fn prevalence_rows_are_probabilities() {
        let m = AuthenticityMatrix::ingredients_over(&db(), &Cuisine::ALL);
        assert!(m.n_items() > 100);
        for row in &m.prevalence {
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn relative_prevalence_sums_to_zero_per_column() {
        // Σ_c (P_c − mean_{k≠c} P_k) = Σ_c P_c − Σ_c (T − P_c)/(n−1)
        //   = T − (nT − T)/(n−1) = 0.
        let m = AuthenticityMatrix::ingredients_over(&db(), &Cuisine::ALL);
        for j in (0..m.n_items()).step_by(97) {
            let s: f64 = m.relative.iter().map(|row| row[j]).sum();
            assert!(s.abs() < 1e-9, "column {j} sums to {s}");
        }
    }

    #[test]
    fn soy_sauce_is_most_authentic_to_east_asia() {
        let db = db();
        let m = AuthenticityMatrix::ingredients_over(&db, &Cuisine::ALL);
        let soy = db.catalog().token_of(recipedb::Item::Ingredient(
            db.catalog().ingredient("soy sauce").unwrap(),
        ));
        let col = m.items.iter().position(|&t| t == soy).expect("soy column");
        assert_eq!(
            m.index_of(Cuisine::Japanese),
            Some(Cuisine::Japanese.index())
        );
        let jp = m.relative[Cuisine::Japanese.index()][col];
        let uk = m.relative[Cuisine::UK.index()][col];
        assert!(jp > 0.3, "soy authentic to Japan, got {jp}");
        assert!(uk < 0.0, "soy counter-authentic to UK, got {uk}");
        // And it shows up in Japan's top-5 fingerprint.
        let top: Vec<TokenId> = m
            .most_authentic(Cuisine::Japanese, 5)
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        assert!(top.contains(&soy));
    }

    #[test]
    fn least_authentic_is_negative_for_signature_items_elsewhere() {
        let db = db();
        let m = AuthenticityMatrix::ingredients_over(&db, &Cuisine::ALL);
        let least = m.least_authentic(Cuisine::UK, 10);
        assert!(least.iter().all(|&(_, v)| v < 0.0));
    }

    #[test]
    fn single_cuisine_matrix_has_finite_relative_prevalence() {
        // One cuisine means no "other cuisines" to average over; relative
        // prevalence must degrade to prevalence, never divide by zero.
        let mut b = recipedb::store::RecipeDbBuilder::new();
        let s = b.catalog_mut().intern_ingredient("salt");
        b.add_recipe("r", Cuisine::UK, vec![s], vec![], vec![]);
        let db = b.build().unwrap();
        let m = AuthenticityMatrix::ingredients_over(&db, &[Cuisine::UK]);
        assert_eq!(m.cuisines, vec![Cuisine::UK]);
        assert!(m.relative.iter().flatten().all(|v| v.is_finite()));
        assert_eq!(m.fingerprint(Cuisine::UK), m.prevalence[0].as_slice());
        assert_eq!(m.index_of(Cuisine::Thai), None);
    }

    #[test]
    fn kinds_filter_restricts_columns() {
        let db = db();
        let ing = AuthenticityMatrix::ingredients_over(&db, &Cuisine::ALL);
        for &tok in &ing.items {
            assert_eq!(
                db.catalog().kind_of(tok),
                Some(ItemKind::Ingredient),
                "non-ingredient leaked into ingredient matrix"
            );
        }
    }
}
