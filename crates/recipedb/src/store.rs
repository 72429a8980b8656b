//! The in-memory recipe database: recipes + catalogs + cuisine indices.

use crate::catalog::{Catalog, TokenId};
use crate::cuisine::Cuisine;
use crate::error::RecipeDbError;
use crate::model::{Item, Recipe, RecipeId};
use crate::stats::CorpusStats;

/// An immutable-after-build, indexed recipe corpus.
///
/// Build one with [`RecipeDbBuilder`] (or via
/// [`crate::generator::CorpusGenerator`]), then query it. Recipes are stored
/// densely; `RecipeId(i)` is the recipe at position `i`.
///
/// Corpora are written by [`crate::io::to_json`] and read by
/// [`crate::io::from_json`], a typed single-pass decoder.
#[derive(Debug, Clone)]
pub struct RecipeDb {
    catalog: Catalog,
    recipes: Vec<Recipe>,
    /// recipe ids per cuisine, indexed by `Cuisine::index()`.
    by_cuisine: Vec<Vec<RecipeId>>,
}

serde_json::impl_serialize!(RecipeDb {
    catalog,
    recipes,
    by_cuisine
});

impl RecipeDb {
    /// The item catalog of this corpus.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Total number of recipes.
    pub fn recipe_count(&self) -> usize {
        self.recipes.len()
    }

    /// Number of cuisines with at least one recipe.
    pub fn cuisine_count(&self) -> usize {
        self.by_cuisine.iter().filter(|v| !v.is_empty()).count()
    }

    /// Fetch a recipe by id.
    pub fn recipe(&self, id: RecipeId) -> Option<&Recipe> {
        self.recipes.get(id.0 as usize)
    }

    /// Iterate over every recipe.
    pub fn recipes(&self) -> impl Iterator<Item = &Recipe> {
        self.recipes.iter()
    }

    /// Number of recipes in one cuisine.
    pub fn recipes_in(&self, cuisine: Cuisine) -> usize {
        self.by_cuisine[cuisine.index()].len()
    }

    /// Iterate over the recipes of one cuisine.
    pub fn cuisine_recipes(&self, cuisine: Cuisine) -> impl Iterator<Item = &Recipe> {
        self.by_cuisine[cuisine.index()]
            .iter()
            .map(move |&id| &self.recipes[id.0 as usize])
    }

    /// Cuisines present in the corpus, in Table I order.
    pub fn cuisines(&self) -> impl Iterator<Item = Cuisine> + '_ {
        Cuisine::ALL
            .iter()
            .copied()
            .filter(|c| !self.by_cuisine[c.index()].is_empty())
    }

    /// Number of recipes (optionally restricted to a cuisine) containing
    /// the given item.
    pub fn recipes_containing(&self, item: Item, cuisine: Option<Cuisine>) -> usize {
        match cuisine {
            Some(c) => self.cuisine_recipes(c).filter(|r| r.contains(item)).count(),
            None => self.recipes.iter().filter(|r| r.contains(item)).count(),
        }
    }

    /// The support of `item` within `cuisine`: the fraction of that
    /// cuisine's recipes that contain the item.
    pub fn item_support(&self, item: Item, cuisine: Cuisine) -> f64 {
        let n = self.recipes_in(cuisine);
        if n == 0 {
            return 0.0;
        }
        self.recipes_containing(item, Some(cuisine)) as f64 / n as f64
    }

    /// Convert each recipe of `cuisine` into a sorted unified-token
    /// transaction (the exact input shape of the pattern miner: the paper
    /// concatenates ingredients, processes and utensils per recipe).
    pub fn transactions_for(&self, cuisine: Cuisine) -> Vec<Vec<TokenId>> {
        self.cuisine_recipes(cuisine)
            .map(|r| self.recipe_tokens(r))
            .collect()
    }

    /// Tokenize one recipe into the unified token space (sorted, distinct).
    pub fn recipe_tokens(&self, recipe: &Recipe) -> Vec<TokenId> {
        let mut toks: Vec<TokenId> = recipe.items().map(|it| self.catalog.token_of(it)).collect();
        toks.sort_unstable();
        toks.dedup();
        toks
    }

    /// Compute corpus-wide statistics.
    pub fn stats(&self) -> CorpusStats {
        CorpusStats::compute(self)
    }

    /// Validate internal invariants (dense ids, in-range references,
    /// normalized item lists, and a consistent per-cuisine index). The
    /// builder and the decoder enforce this; exposed publicly for
    /// defensive use against externally-supplied snapshots.
    pub fn validate(&self) -> Result<(), RecipeDbError> {
        for (i, r) in self.recipes.iter().enumerate() {
            if r.id.0 as usize != i {
                return Err(RecipeDbError::InconsistentId {
                    expected: i as u32,
                    found: r.id.0,
                });
            }
            for item in r.items() {
                if self.catalog.name_of(item).is_none() {
                    return Err(RecipeDbError::DanglingReference {
                        recipe: r.id,
                        detail: format!("{item:?}"),
                    });
                }
            }
        }
        self.validate_index()
    }

    /// Check that `by_cuisine` is exactly the index the builder would
    /// derive: one list per cuisine, every listed id in range and of that
    /// cuisine, and every recipe indexed exactly once. An uploaded
    /// snapshot with a hand-edited index (e.g. a cuisine whose recipes
    /// exist but whose index list is empty) would otherwise silently
    /// corrupt every per-cuisine query.
    fn validate_index(&self) -> Result<(), RecipeDbError> {
        if self.by_cuisine.len() != Cuisine::COUNT {
            return Err(RecipeDbError::CorruptIndex {
                detail: format!(
                    "expected {} cuisine lists, found {}",
                    Cuisine::COUNT,
                    self.by_cuisine.len()
                ),
            });
        }
        let mut seen = vec![false; self.recipes.len()];
        for (c, ids) in self.by_cuisine.iter().enumerate() {
            let cuisine = Cuisine::ALL[c];
            for &id in ids {
                let Some(r) = self.recipes.get(id.0 as usize) else {
                    return Err(RecipeDbError::CorruptIndex {
                        detail: format!(
                            "cuisine {} indexes unknown recipe {}",
                            cuisine.name(),
                            id.0
                        ),
                    });
                };
                if r.cuisine != cuisine {
                    return Err(RecipeDbError::CorruptIndex {
                        detail: format!(
                            "recipe {} is {} but indexed under {}",
                            id.0,
                            r.cuisine.name(),
                            cuisine.name()
                        ),
                    });
                }
                if std::mem::replace(&mut seen[id.0 as usize], true) {
                    return Err(RecipeDbError::CorruptIndex {
                        detail: format!("recipe {} indexed more than once", id.0),
                    });
                }
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(RecipeDbError::CorruptIndex {
                detail: format!("recipe {missing} missing from the cuisine index"),
            });
        }
        Ok(())
    }

    /// Validation for externally-uploaded corpora: everything
    /// [`RecipeDb::validate`] checks, plus a non-empty store — an empty
    /// corpus makes every downstream artifact degenerate, so uploads
    /// reject it outright.
    pub fn validate_upload(&self) -> Result<(), RecipeDbError> {
        self.validate()?;
        if self.recipes.is_empty() {
            return Err(RecipeDbError::EmptyCorpus);
        }
        Ok(())
    }

    /// Assemble a corpus from decoded parts and check every invariant
    /// [`RecipeDb::validate`] checks.
    pub fn from_parts(
        catalog: Catalog,
        recipes: Vec<Recipe>,
        by_cuisine: Vec<Vec<RecipeId>>,
    ) -> Result<Self, RecipeDbError> {
        let db = RecipeDb {
            catalog,
            recipes,
            by_cuisine,
        };
        db.validate()?;
        Ok(db)
    }
}

/// Incremental builder for a [`RecipeDb`].
#[derive(Debug, Default)]
pub struct RecipeDbBuilder {
    catalog: Catalog,
    recipes: Vec<Recipe>,
}

impl RecipeDbBuilder {
    /// Start an empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable access to the catalog for interning names.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Read-only access to the catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Number of recipes added so far.
    pub fn recipe_count(&self) -> usize {
        self.recipes.len()
    }

    /// Add a recipe from name, cuisine and item lists. Ids are assigned
    /// densely; item lists are normalized (sorted + deduplicated).
    pub fn add_recipe(
        &mut self,
        name: impl Into<String>,
        cuisine: Cuisine,
        ingredients: Vec<crate::model::IngredientId>,
        processes: Vec<crate::model::ProcessId>,
        utensils: Vec<crate::model::UtensilId>,
    ) -> RecipeId {
        let id = RecipeId(u32::try_from(self.recipes.len()).expect("recipe id overflow"));
        let mut recipe = Recipe {
            id,
            name: name.into(),
            cuisine,
            ingredients,
            processes,
            utensils,
        };
        recipe.normalize();
        self.recipes.push(recipe);
        id
    }

    /// Finish building: index by cuisine and validate invariants.
    pub fn build(self) -> Result<RecipeDb, RecipeDbError> {
        let mut by_cuisine: Vec<Vec<RecipeId>> = vec![Vec::new(); Cuisine::COUNT];
        for r in &self.recipes {
            by_cuisine[r.cuisine.index()].push(r.id);
        }
        RecipeDb::from_parts(self.catalog, self.recipes, by_cuisine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_db() -> RecipeDb {
        let mut b = RecipeDbBuilder::new();
        let soy = b.catalog_mut().intern_ingredient("soy sauce");
        let rice = b.catalog_mut().intern_ingredient("rice");
        let heat = b.catalog_mut().intern_process("heat");
        let wok = b.catalog_mut().intern_utensil("wok");
        b.add_recipe(
            "r0",
            Cuisine::Japanese,
            vec![soy, rice],
            vec![heat],
            vec![wok],
        );
        b.add_recipe("r1", Cuisine::Japanese, vec![soy], vec![heat], vec![]);
        b.add_recipe("r2", Cuisine::Thai, vec![rice], vec![], vec![]);
        b.build().expect("valid db")
    }

    #[test]
    fn builder_assigns_dense_ids_and_indices() {
        let db = tiny_db();
        assert_eq!(db.recipe_count(), 3);
        assert_eq!(db.cuisine_count(), 2);
        assert_eq!(db.recipes_in(Cuisine::Japanese), 2);
        assert_eq!(db.recipes_in(Cuisine::Thai), 1);
        assert_eq!(db.recipes_in(Cuisine::French), 0);
        assert_eq!(db.recipe(RecipeId(1)).unwrap().name, "r1");
        assert!(db.recipe(RecipeId(9)).is_none());
    }

    #[test]
    fn item_support_is_fraction_of_cuisine_recipes() {
        let db = tiny_db();
        let soy = Item::Ingredient(db.catalog().ingredient("soy sauce").unwrap());
        assert!((db.item_support(soy, Cuisine::Japanese) - 1.0).abs() < 1e-12);
        assert_eq!(db.item_support(soy, Cuisine::Thai), 0.0);
        // Empty cuisine -> 0, no panic.
        assert_eq!(db.item_support(soy, Cuisine::French), 0.0);
    }

    #[test]
    fn transactions_are_sorted_distinct_tokens() {
        let db = tiny_db();
        let txs = db.transactions_for(Cuisine::Japanese);
        assert_eq!(txs.len(), 2);
        for t in &txs {
            let mut s = t.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(&s, t, "transaction must be sorted and deduplicated");
        }
        // r0 has 4 items across kinds.
        assert_eq!(txs[0].len(), 4);
    }

    #[test]
    fn cuisines_lists_nonempty_in_table_order() {
        let db = tiny_db();
        let cs: Vec<Cuisine> = db.cuisines().collect();
        assert_eq!(cs, vec![Cuisine::Japanese, Cuisine::Thai]);
    }

    #[test]
    fn recipes_containing_with_and_without_cuisine_filter() {
        let db = tiny_db();
        let rice = Item::Ingredient(db.catalog().ingredient("rice").unwrap());
        assert_eq!(db.recipes_containing(rice, None), 2);
        assert_eq!(db.recipes_containing(rice, Some(Cuisine::Thai)), 1);
    }

    #[test]
    fn validate_accepts_built_db() {
        assert!(tiny_db().validate().is_ok());
    }

    #[test]
    fn validate_rejects_corrupt_cuisine_index() {
        // Empty a cuisine's index list while its recipes still exist.
        let mut db = tiny_db();
        db.by_cuisine[Cuisine::Thai.index()].clear();
        assert!(matches!(
            db.validate(),
            Err(RecipeDbError::CorruptIndex { .. })
        ));

        // Index a recipe under the wrong cuisine.
        let mut db = tiny_db();
        let id = db.by_cuisine[Cuisine::Thai.index()].pop().unwrap();
        db.by_cuisine[Cuisine::French.index()].push(id);
        assert!(matches!(
            db.validate(),
            Err(RecipeDbError::CorruptIndex { .. })
        ));

        // Index the same recipe twice.
        let mut db = tiny_db();
        let id = db.by_cuisine[Cuisine::Thai.index()][0];
        db.by_cuisine[Cuisine::Thai.index()].push(id);
        assert!(matches!(
            db.validate(),
            Err(RecipeDbError::CorruptIndex { .. })
        ));

        // Wrong number of cuisine lists.
        let mut db = tiny_db();
        db.by_cuisine.pop();
        assert!(matches!(
            db.validate(),
            Err(RecipeDbError::CorruptIndex { .. })
        ));

        // Out-of-range recipe id in the index.
        let mut db = tiny_db();
        db.by_cuisine[Cuisine::Thai.index()].push(RecipeId(99));
        assert!(matches!(
            db.validate(),
            Err(RecipeDbError::CorruptIndex { .. })
        ));
    }

    #[test]
    fn validate_upload_rejects_empty_corpus() {
        let empty = RecipeDbBuilder::new().build().expect("empty db builds");
        assert!(empty.validate().is_ok(), "plain validate tolerates empty");
        assert!(matches!(
            empty.validate_upload(),
            Err(RecipeDbError::EmptyCorpus)
        ));
        assert!(tiny_db().validate_upload().is_ok());
    }
}
