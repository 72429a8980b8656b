//! Per-cuisine frequent-pattern mining and the Table I significant-pattern
//! report.
//!
//! The paper runs FP-Growth per cuisine at support 0.2 over each recipe's
//! concatenated ingredients/processes/utensils, then reports the "topmost
//! significant patterns" per cuisine. Its Table I rows are clearly not the
//! raw highest-support itemsets (those would all be generic `salt`/`add`
//! combinations — the paper itself notes the mined patterns are "highly
//! skewed" towards such items). We make the selection rule explicit and
//! reproducible:
//!
//! * a pattern is **significant** if it is *closed* (no superset with equal
//!   support — collapses the subset lattice of each signature bundle onto
//!   the bundle itself) and contains at least one **distinctive** item;
//! * an item is *distinctive* if it clears the support threshold in fewer
//!   than half of the cuisines (`salt`, `add`, `heat`, ... are thereby
//!   generic, matching the paper's remark).

use std::collections::{HashMap, HashSet};

use pattern_mining::filter::closed;
use pattern_mining::fpgrowth::FpGrowth;
use pattern_mining::itemset::FrequentItemset;
use pattern_mining::parallel::ParallelFpGrowth;
use pattern_mining::transaction::TransactionDb;
use pattern_mining::Miner;
use recipedb::catalog::TokenId;
use recipedb::{Cuisine, RecipeDb};

/// Cuisines with at least this many recipes additionally split their own
/// FP-Growth run across threads (the per-cuisine fan-out alone leaves the
/// largest conditional trees of a huge cuisine as the critical path).
const LARGE_CUISINE_RECIPES: usize = 4096;
/// Inner-thread cap for one large cuisine's [`ParallelFpGrowth`].
const MAX_INNER_MINE_THREADS: usize = 4;

/// The mined frequent itemsets of one cuisine.
#[derive(Debug, Clone)]
pub struct CuisinePatterns {
    /// Which cuisine.
    pub cuisine: Cuisine,
    /// Number of recipes mined.
    pub n_recipes: usize,
    /// Every frequent itemset at the configured support (token-id space).
    pub itemsets: Vec<FrequentItemset>,
}

impl CuisinePatterns {
    /// Mine one cuisine from the corpus with FP-Growth.
    pub fn mine(db: &RecipeDb, cuisine: Cuisine, min_support: f64) -> Self {
        Self::mine_with_threads(db, cuisine, min_support, 1)
    }

    /// Mine one cuisine, splitting the FP-Growth conditional-tree work
    /// across `threads` workers when `threads > 1`. The parallel miner
    /// reproduces the sequential miner's output exactly (itemsets, counts
    /// *and* order), so results never depend on the thread count.
    pub fn mine_with_threads(
        db: &RecipeDb,
        cuisine: Cuisine,
        min_support: f64,
        threads: usize,
    ) -> Self {
        let rows: Vec<Vec<u32>> = db
            .transactions_for(cuisine)
            .into_iter()
            .map(|tx| tx.into_iter().map(|t| t.0).collect())
            .collect();
        let n_recipes = rows.len();
        let tdb = TransactionDb::from_rows(rows);
        let itemsets = if n_recipes == 0 {
            Vec::new()
        } else if threads > 1 {
            ParallelFpGrowth::new(min_support, threads).mine(&tdb)
        } else {
            FpGrowth::new(min_support).mine(&tdb)
        };
        CuisinePatterns {
            cuisine,
            n_recipes,
            itemsets,
        }
    }

    /// Number of frequent patterns (the Table I "Number of patterns"
    /// column).
    pub fn pattern_count(&self) -> usize {
        self.itemsets.len()
    }

    /// The canonical "string pattern" of an itemset: sorted item display
    /// names joined with `+` (the paper's string canonicalisation).
    pub fn pattern_string(db: &RecipeDb, itemset: &FrequentItemset) -> String {
        let mut names: Vec<&str> = itemset
            .items
            .items()
            .iter()
            .filter_map(|&t| db.catalog().token_name(TokenId(t)))
            .collect();
        names.sort_unstable();
        names.join("+")
    }

    /// All pattern strings of this cuisine.
    pub fn pattern_strings(&self, db: &RecipeDb) -> Vec<String> {
        self.itemsets
            .iter()
            .map(|f| Self::pattern_string(db, f))
            .collect()
    }
}

/// Mine every cuisine in Table I order.
pub fn mine_all(db: &RecipeDb, min_support: f64) -> Vec<CuisinePatterns> {
    mine_cuisines_threads_observed(
        db,
        &Cuisine::ALL,
        min_support,
        1,
        &crate::pipeline::NullSink,
    )
}

/// Mine an explicit cuisine list (results in list order) — uploaded
/// corpora may cover only a subset of the 26 cuisines — fanned out over
/// `threads` workers. Cuisines are claimed largest-first (recipe counts
/// span Korean's 668 to Italian's 16k at full scale), and cuisines above
/// `LARGE_CUISINE_RECIPES` (4096) recipes additionally run the multi-threaded
/// FP-Growth so the biggest mining job cannot dominate the critical path.
/// Per-cuisine wall-clock spans (`mine/Italian`, ...) are reported to
/// `sink` as each cuisine finishes. The output is identical for any
/// thread count.
pub fn mine_cuisines_threads_observed(
    db: &RecipeDb,
    cuisines: &[Cuisine],
    min_support: f64,
    threads: usize,
    sink: &dyn crate::pipeline::SpanSink,
) -> Vec<CuisinePatterns> {
    let mine_one = |cuisine: Cuisine, inner: usize| {
        let (mined, _) =
            crate::pipeline::spanned(sink, &format!("mine/{}", cuisine.name()), || {
                CuisinePatterns::mine_with_threads(db, cuisine, min_support, inner)
            });
        mined
    };
    if threads <= 1 {
        return cuisines.iter().map(|&c| mine_one(c, 1)).collect();
    }
    let costs: Vec<u64> = cuisines.iter().map(|&c| db.recipes_in(c) as u64).collect();
    let claim_order = par::descending_cost_order(&costs);
    par::map_claiming(threads, &claim_order, |i| {
        let cuisine = cuisines[i];
        let inner = if db.recipes_in(cuisine) >= LARGE_CUISINE_RECIPES {
            threads.min(MAX_INNER_MINE_THREADS)
        } else {
            1
        };
        mine_one(cuisine, inner)
    })
}

/// Items that clear the support threshold in at least
/// `generic_fraction × n_cuisines` cuisines — the "generic" stop-set
/// (`salt`, `onion`-level ubiquity). Computed from the mined singletons.
pub fn generic_items(all: &[CuisinePatterns], generic_fraction: f64) -> HashSet<u32> {
    let mut cuisine_hits: HashMap<u32, usize> = HashMap::new();
    for cp in all {
        for f in cp.itemsets.iter().filter(|f| f.items.len() == 1) {
            *cuisine_hits.entry(f.items.items()[0]).or_insert(0) += 1;
        }
    }
    let cutoff = (generic_fraction * all.len() as f64).ceil() as usize;
    cuisine_hits
        .into_iter()
        .filter(|&(_, hits)| hits >= cutoff)
        .map(|(item, _)| item)
        .collect()
}

/// A significant pattern surfaced for Table I.
#[derive(Debug, Clone)]
pub struct SignificantPattern {
    /// The canonical pattern string.
    pub pattern: String,
    /// Relative support within the cuisine.
    pub support: f64,
    /// Number of items in the pattern.
    pub len: usize,
}

/// Select the top-`k` significant patterns of one cuisine: closed frequent
/// itemsets containing at least one non-generic item, ranked by support
/// (ties: longer first, then lexicographic).
pub fn significant_patterns(
    db: &RecipeDb,
    cp: &CuisinePatterns,
    generic: &HashSet<u32>,
    k: usize,
) -> Vec<SignificantPattern> {
    let closed_sets = closed(&cp.itemsets);
    let mut candidates: Vec<SignificantPattern> = closed_sets
        .iter()
        .filter(|f| f.items.items().iter().any(|i| !generic.contains(i)))
        .map(|f| SignificantPattern {
            pattern: CuisinePatterns::pattern_string(db, f),
            support: f.support(cp.n_recipes),
            len: f.items.len(),
        })
        .collect();
    candidates.sort_by(|a, b| {
        b.support
            .partial_cmp(&a.support)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.len.cmp(&a.len))
            .then(a.pattern.cmp(&b.pattern))
    });
    candidates.truncate(k);
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipedb::generator::{CorpusGenerator, GeneratorConfig};

    fn small_db() -> RecipeDb {
        let mut cfg = GeneratorConfig::paper_scale(0.03).with_seed(1);
        cfg.min_recipes_per_cuisine = 150;
        CorpusGenerator::new(cfg).generate()
    }

    #[test]
    fn mining_every_cuisine_produces_patterns() {
        let db = small_db();
        let all = mine_all(&db, 0.2);
        assert_eq!(all.len(), 26);
        for cp in &all {
            assert!(cp.n_recipes > 0, "{}", cp.cuisine);
            assert!(
                cp.pattern_count() >= 10,
                "{}: only {} patterns",
                cp.cuisine,
                cp.pattern_count()
            );
            assert!(
                cp.pattern_count() <= 400,
                "{}: pattern explosion: {}",
                cp.cuisine,
                cp.pattern_count()
            );
        }
    }

    #[test]
    fn mine_all_threads_is_identical_to_sequential() {
        let db = small_db();
        let seq = mine_all(&db, 0.2);
        for threads in [2, 8] {
            let par = mine_cuisines_threads_observed(
                &db,
                &Cuisine::ALL,
                0.2,
                threads,
                &crate::pipeline::NullSink,
            );
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.cuisine, b.cuisine);
                assert_eq!(a.n_recipes, b.n_recipes);
                assert_eq!(a.itemsets, b.itemsets, "{}: threads {threads}", a.cuisine);
            }
        }
    }

    #[test]
    fn pattern_strings_are_sorted_plus_joined() {
        let db = small_db();
        let cp = CuisinePatterns::mine(&db, Cuisine::Japanese, 0.2);
        for (f, s) in cp.itemsets.iter().zip(cp.pattern_strings(&db)) {
            assert_eq!(s.split('+').count(), f.items.len());
            let parts: Vec<&str> = s.split('+').collect();
            let mut sorted = parts.clone();
            sorted.sort_unstable();
            assert_eq!(parts, sorted, "pattern string must be sorted: {s}");
        }
    }

    #[test]
    fn generic_items_include_salt_and_add() {
        let db = small_db();
        let all = mine_all(&db, 0.2);
        let generic = generic_items(&all, 0.5);
        let salt = db.catalog().token_of(recipedb::Item::Ingredient(
            db.catalog().ingredient("salt").unwrap(),
        ));
        let add = db.catalog().token_of(recipedb::Item::Process(
            db.catalog().process("add").unwrap(),
        ));
        assert!(generic.contains(&salt.0), "salt must be generic");
        assert!(generic.contains(&add.0), "add must be generic");
        // Soy sauce is frequent only in the Asian block -> distinctive.
        let soy = db.catalog().token_of(recipedb::Item::Ingredient(
            db.catalog().ingredient("soy sauce").unwrap(),
        ));
        assert!(!generic.contains(&soy.0), "soy sauce must be distinctive");
    }

    #[test]
    fn japanese_top_pattern_is_soy_sauce() {
        let db = small_db();
        let all = mine_all(&db, 0.2);
        let generic = generic_items(&all, 0.5);
        let jp = &all[Cuisine::Japanese.index()];
        let top = significant_patterns(&db, jp, &generic, 3);
        assert!(!top.is_empty());
        assert_eq!(top[0].pattern, "soy sauce", "got {:?}", top);
        assert!(
            (top[0].support - 0.45).abs() < 0.08,
            "support {}",
            top[0].support
        );
    }

    #[test]
    fn empty_cuisine_is_handled() {
        // A hand-built corpus with a single cuisine leaves others empty.
        let mut b = recipedb::store::RecipeDbBuilder::new();
        let s = b.catalog_mut().intern_ingredient("salt");
        b.add_recipe("r", Cuisine::UK, vec![s], vec![], vec![]);
        let db = b.build().unwrap();
        let cp = CuisinePatterns::mine(&db, Cuisine::Thai, 0.2);
        assert_eq!(cp.n_recipes, 0);
        assert!(cp.itemsets.is_empty());
        assert!(significant_patterns(&db, &cp, &HashSet::new(), 3).is_empty());
    }
}
