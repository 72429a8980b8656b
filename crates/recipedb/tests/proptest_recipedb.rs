//! Property-based invariants of the recipe substrate: arbitrary corpora
//! round-trip through JSON and export to the transaction format, and
//! corpus statistics agree with the recipes they summarise.

use proptest::prelude::*;

use recipedb::store::{RecipeDb, RecipeDbBuilder};
use recipedb::{io, Cuisine};

/// An arbitrary small corpus: up to 20 recipes over small item universes.
fn arb_db() -> impl Strategy<Value = RecipeDb> {
    let recipe = (
        0usize..26,                             // cuisine index
        prop::collection::vec(0usize..8, 0..6), // ingredient picks
        prop::collection::vec(0usize..4, 0..4), // process picks
        prop::collection::vec(0usize..3, 0..3), // utensil picks
    );
    prop::collection::vec(recipe, 1..20).prop_map(|rows| {
        let mut b = RecipeDbBuilder::new();
        let ings: Vec<_> = (0..8)
            .map(|i| b.catalog_mut().intern_ingredient(&format!("ing-{i}")))
            .collect();
        let procs: Vec<_> = (0..4)
            .map(|i| b.catalog_mut().intern_process(&format!("proc-{i}")))
            .collect();
        let utes: Vec<_> = (0..3)
            .map(|i| b.catalog_mut().intern_utensil(&format!("ute-{i}")))
            .collect();
        for (n, (c, ri, rp, ru)) in rows.into_iter().enumerate() {
            b.add_recipe(
                format!("r{n}"),
                Cuisine::from_index(c).unwrap(),
                ri.into_iter().map(|i| ings[i]).collect(),
                rp.into_iter().map(|i| procs[i]).collect(),
                ru.into_iter().map(|i| utes[i]).collect(),
            );
        }
        b.build().expect("valid corpus")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn json_roundtrip_is_lossless(db in arb_db()) {
        let json = io::to_json(&db).unwrap();
        let back = io::from_json(&json).unwrap();
        prop_assert_eq!(back.recipe_count(), db.recipe_count());
        prop_assert_eq!(back.catalog().token_count(), db.catalog().token_count());
        for (a, b) in db.recipes().zip(back.recipes()) {
            prop_assert_eq!(a, b);
        }
        // Name lookups survive (reverse index rebuilt).
        prop_assert_eq!(back.catalog().ingredient("ing-0"), db.catalog().ingredient("ing-0"));
    }

    #[test]
    fn json_roundtrip_preserves_corpus_digest(db in arb_db()) {
        // The digest is the server-side identity of an uploaded corpus:
        // serializing and re-parsing must never change it, or a
        // re-upload of the same corpus would register a second id.
        let digest = recipedb::corpus_digest(&db);
        let back = io::from_json(&io::to_json(&db).unwrap()).unwrap();
        prop_assert_eq!(recipedb::corpus_digest(&back), digest);
    }

    #[test]
    fn transactions_match_recipe_contents(db in arb_db()) {
        for &c in &Cuisine::ALL {
            let txs = db.transactions_for(c);
            let recipes: Vec<_> = db.cuisine_recipes(c).collect();
            prop_assert_eq!(txs.len(), recipes.len());
            for (tx, r) in txs.iter().zip(&recipes) {
                prop_assert_eq!(tx.len(), r.item_count(), "tokens == distinct items");
                for &tok in tx {
                    let item = db.catalog().item_of(tok).expect("token resolves");
                    prop_assert!(r.contains(item));
                }
            }
        }
    }

    #[test]
    fn stats_are_internally_consistent(db in arb_db()) {
        let s = db.stats();
        prop_assert_eq!(s.total_recipes, db.recipe_count());
        prop_assert_eq!(
            s.recipes_per_cuisine.iter().sum::<usize>(),
            db.recipe_count()
        );
        let with_utensils = db.recipes().filter(|r| r.has_utensils()).count();
        prop_assert_eq!(s.recipes_without_utensils, db.recipe_count() - with_utensils);
    }

    #[test]
    fn transaction_export_import_preserves_cooccurrence(db in arb_db()) {
        // The flat format keeps each recipe's co-occurrence structure: one
        // `cuisine<TAB>item|item|...` line per recipe, in recipe order,
        // naming every distinct item of the recipe.
        let mut buf = Vec::new();
        io::export_transactions(&db, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        prop_assert_eq!(text.lines().count(), db.recipe_count());
        for (r, line) in db.recipes().zip(text.lines()) {
            let (cuisine, items) = line.split_once('\t').expect("TAB separator");
            prop_assert_eq!(cuisine, r.cuisine.name());
            let n = items.split('|').filter(|s| !s.is_empty()).count();
            prop_assert_eq!(n, r.item_count());
        }
    }
}
