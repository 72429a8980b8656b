//! Corpus-level statistics mirroring the figures quoted in the paper's
//! Data Collection section (Section III).

use crate::cuisine::Cuisine;
use crate::store::RecipeDb;

/// Aggregate statistics of a corpus.
///
/// The paper's reference values for the full RecipeDB snapshot:
/// 118,071 recipes; 20,280 unique ingredients; 268 unique processes;
/// 69 unique utensils; ~10 ingredients, ~12 processes, ~3 utensils per
/// recipe; 14,601 recipes with no utensil information.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusStats {
    /// Total recipes in the corpus.
    pub total_recipes: usize,
    /// Number of unique ingredient names.
    pub unique_ingredients: usize,
    /// Number of unique process names.
    pub unique_processes: usize,
    /// Number of unique utensil names.
    pub unique_utensils: usize,
    /// Mean ingredients per recipe.
    pub avg_ingredients: f64,
    /// Mean processes per recipe.
    pub avg_processes: f64,
    /// Mean utensils per recipe, over recipes that have utensil data.
    pub avg_utensils_when_present: f64,
    /// Recipes that carry no utensil information.
    pub recipes_without_utensils: usize,
    /// Recipes per cuisine, indexed by `Cuisine::index()`.
    pub recipes_per_cuisine: Vec<usize>,
}

impl CorpusStats {
    /// Compute statistics for a corpus.
    pub fn compute(db: &RecipeDb) -> CorpusStats {
        let total = db.recipe_count();
        let mut ing_sum = 0usize;
        let mut proc_sum = 0usize;
        let mut ute_sum = 0usize;
        let mut with_utensils = 0usize;
        for r in db.recipes() {
            ing_sum += r.ingredients.len();
            proc_sum += r.processes.len();
            if r.has_utensils() {
                ute_sum += r.utensils.len();
                with_utensils += 1;
            }
        }
        let denom = total.max(1) as f64;
        CorpusStats {
            total_recipes: total,
            unique_ingredients: db.catalog().ingredient_count(),
            unique_processes: db.catalog().process_count(),
            unique_utensils: db.catalog().utensil_count(),
            avg_ingredients: ing_sum as f64 / denom,
            avg_processes: proc_sum as f64 / denom,
            avg_utensils_when_present: ute_sum as f64 / with_utensils.max(1) as f64,
            recipes_without_utensils: total - with_utensils,
            recipes_per_cuisine: Cuisine::ALL.iter().map(|&c| db.recipes_in(c)).collect(),
        }
    }

    /// Render a small human-readable report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("recipes:               {}\n", self.total_recipes));
        out.push_str(&format!(
            "unique ingredients:    {}\n",
            self.unique_ingredients
        ));
        out.push_str(&format!(
            "unique processes:      {}\n",
            self.unique_processes
        ));
        out.push_str(&format!(
            "unique utensils:       {}\n",
            self.unique_utensils
        ));
        out.push_str(&format!(
            "avg ingredients/recipe: {:.2}\n",
            self.avg_ingredients
        ));
        out.push_str(&format!(
            "avg processes/recipe:   {:.2}\n",
            self.avg_processes
        ));
        out.push_str(&format!(
            "avg utensils/recipe (when present): {:.2}\n",
            self.avg_utensils_when_present
        ));
        out.push_str(&format!(
            "recipes without utensils: {}\n",
            self.recipes_without_utensils
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::RecipeDbBuilder;

    #[test]
    fn compute_on_tiny_corpus() {
        let mut b = RecipeDbBuilder::new();
        let a = b.catalog_mut().intern_ingredient("a");
        let c = b.catalog_mut().intern_ingredient("c");
        let p = b.catalog_mut().intern_process("p");
        let u = b.catalog_mut().intern_utensil("u");
        b.add_recipe("r0", Cuisine::UK, vec![a, c], vec![p], vec![u]);
        b.add_recipe("r1", Cuisine::UK, vec![a], vec![p], vec![]);
        let db = b.build().unwrap();
        let s = db.stats();
        assert_eq!(s.total_recipes, 2);
        assert_eq!(s.unique_ingredients, 2);
        assert_eq!(s.unique_processes, 1);
        assert_eq!(s.unique_utensils, 1);
        assert!((s.avg_ingredients - 1.5).abs() < 1e-12);
        assert!((s.avg_processes - 1.0).abs() < 1e-12);
        assert!((s.avg_utensils_when_present - 1.0).abs() < 1e-12);
        assert_eq!(s.recipes_without_utensils, 1);
        assert_eq!(s.recipes_per_cuisine[Cuisine::UK.index()], 2);
        let report = s.report();
        assert!(report.contains("recipes:               2"));
    }

    #[test]
    fn compute_on_empty_corpus_does_not_divide_by_zero() {
        let db = RecipeDbBuilder::new().build().unwrap();
        let s = db.stats();
        assert_eq!(s.total_recipes, 0);
        assert_eq!(s.avg_ingredients, 0.0);
        assert_eq!(s.avg_utensils_when_present, 0.0);
    }
}
