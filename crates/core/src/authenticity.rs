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

use recipedb::catalog::TokenId;
use recipedb::{Cuisine, RecipeDb};

/// Cuisines × items relative-prevalence matrix.
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
    /// `relative[c][j]` = prevalence of item `items[j]` in cuisine
    /// `cuisines[c]` − its mean prevalence over the other cuisines.
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
        // Columns: the ingredients the covered recipes use, ascending. A
        // recipe's ingredient ids are sorted and distinct, and an
        // ingredient's token id is its ingredient id. Used ingredients
        // are first marked 0, then numbered.
        let mut column = vec![u32::MAX; db.catalog().ingredient_count()];
        for &c in cuisines {
            for r in db.cuisine_recipes(c) {
                for i in &r.ingredients {
                    column[i.0 as usize] = 0;
                }
            }
        }
        let mut items = Vec::with_capacity(column.iter().filter(|&&col| col == 0).count());
        for (id, col) in column.iter_mut().enumerate() {
            if *col == 0 {
                *col = items.len() as u32;
                items.push(TokenId(id as u32));
            }
        }

        // Prevalence: count each cuisine's recipes per ingredient straight
        // into its row (integer counts are exact in f64), then divide.
        let mut relative = vec![vec![0.0; items.len()]; cuisines.len()];
        for (row, &c) in relative.iter_mut().zip(cuisines) {
            for r in db.cuisine_recipes(c) {
                for i in &r.ingredients {
                    row[column[i.0 as usize] as usize] += 1.0;
                }
            }
            let denom = db.recipes_in(c).max(1) as f64;
            for p in row.iter_mut() {
                *p /= denom;
            }
        }
        drop(column);

        // Relative prevalence: subtract the mean over the *other*
        // cuisines, in place.
        let mut totals = vec![0.0; items.len()];
        for row in &relative {
            for (total, &p) in totals.iter_mut().zip(row) {
                *total += p;
            }
        }
        let n_cuisines = cuisines.len();
        for row in &mut relative {
            for (p, &total) in row.iter_mut().zip(&totals) {
                let others = if n_cuisines > 1 {
                    (total - *p) / (n_cuisines as f64 - 1.0)
                } else {
                    0.0
                };
                *p -= others;
            }
        }

        AuthenticityMatrix {
            cuisines: cuisines.to_vec(),
            items,
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
    use recipedb::ItemKind;

    fn db() -> RecipeDb {
        CorpusGenerator::new(GeneratorConfig::paper_scale(0.03).with_seed(3)).generate()
    }

    #[test]
    fn prevalence_rows_are_probabilities() {
        // Prevalence is counted here, item by item, and must both be a
        // probability and reproduce `relative` as P_c − mean_{k≠c} P_k.
        let db = db();
        let m = AuthenticityMatrix::ingredients_over(&db, &Cuisine::ALL);
        assert!(m.n_items() > 100);
        let n = Cuisine::ALL.len() as f64;
        for j in (0..m.n_items()).step_by(97) {
            let item = db.catalog().item_of(m.items[j]).unwrap();
            let p: Vec<f64> = Cuisine::ALL
                .iter()
                .map(|&c| db.item_support(item, c))
                .collect();
            assert!(p.iter().all(|p| (0.0..=1.0).contains(p)));
            let total: f64 = p.iter().sum();
            for (c, &pc) in p.iter().enumerate() {
                let expected = pc - (total - pc) / (n - 1.0);
                assert!((m.relative[c][j] - expected).abs() < 1e-12, "({c},{j})");
            }
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
        // Salt is in the only recipe: prevalence 1, and relative = prevalence.
        assert_eq!(m.fingerprint(Cuisine::UK), &[1.0]);
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
