//! Differential test of the authenticity matrix: the dense construction
//! in `AuthenticityMatrix::ingredients_over` against the map-based one it
//! replaced, kept here as the reference. Columns must match exactly and
//! every relative prevalence bit for bit, on generated corpora at several
//! seeds and scales, on an uploaded cuisine subset (rows in the order
//! given), on a single-cuisine corpus and on a corpus whose catalog lists
//! ingredients no recipe uses.

use std::collections::HashMap;

use cuisine_atlas::authenticity::AuthenticityMatrix;
use recipedb::catalog::TokenId;
use recipedb::generator::{CorpusGenerator, GeneratorConfig};
use recipedb::store::RecipeDbBuilder;
use recipedb::{io, Cuisine, ItemKind, RecipeDb};

/// The map-based construction: per-cuisine token frequencies in hash
/// maps, a hash-mapped column index, a prevalence matrix and a separate
/// relative matrix.
fn reference(db: &RecipeDb, cuisines: &[Cuisine]) -> (Vec<TokenId>, Vec<Vec<f64>>) {
    let n_cuisines = cuisines.len();

    let mut columns: HashMap<TokenId, usize> = HashMap::new();
    let mut counts: Vec<HashMap<TokenId, u32>> = Vec::with_capacity(n_cuisines);
    for &c in cuisines {
        let mut freq: HashMap<TokenId, u32> = HashMap::new();
        for r in db.cuisine_recipes(c) {
            for tok in db.recipe_tokens(r) {
                *freq.entry(tok).or_insert(0) += 1;
            }
        }
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
    (items, relative)
}

fn assert_matches_reference(label: &str, db: &RecipeDb, cuisines: &[Cuisine]) {
    let m = AuthenticityMatrix::ingredients_over(db, cuisines);
    let (items, relative) = reference(db, cuisines);
    assert_eq!(m.cuisines, cuisines, "{label}: row order");
    assert_eq!(m.items, items, "{label}: columns");
    assert_eq!(m.relative.len(), relative.len(), "{label}: rows");
    for (c, (got, want)) in m.relative.iter().zip(&relative).enumerate() {
        assert_eq!(got.len(), want.len(), "{label}: row {c} length");
        for (j, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{label}: relative[{c}][{j}] is {g}, reference {w}"
            );
        }
    }
}

/// `db`'s recipes of `cuisines` over `db`'s whole catalog, through the
/// upload decoder.
fn uploaded_subset(db: &RecipeDb, cuisines: &[Cuisine]) -> RecipeDb {
    let mut b = RecipeDbBuilder::new();
    *b.catalog_mut() = db.catalog().clone();
    for r in db.recipes().filter(|r| cuisines.contains(&r.cuisine)) {
        b.add_recipe(
            r.name.clone(),
            r.cuisine,
            r.ingredients.clone(),
            r.processes.clone(),
            r.utensils.clone(),
        );
    }
    io::from_json(&io::to_json(&b.build().unwrap()).unwrap()).unwrap()
}

#[test]
fn generated_corpora_match_the_reference() {
    for seed in [1, 23, 7919] {
        for scale in [0.02, 0.05] {
            let db = CorpusGenerator::new(GeneratorConfig::paper_scale(scale).with_seed(seed))
                .generate();
            assert_matches_reference(&format!("seed {seed} scale {scale}"), &db, &Cuisine::ALL);
        }
    }
    let db = CorpusGenerator::new(GeneratorConfig::paper_scale(0.3)).generate();
    assert_matches_reference("paper_scale(0.3)", &db, &Cuisine::ALL);
}

#[test]
fn an_uploaded_subset_matches_the_reference_in_subset_order() {
    let full = CorpusGenerator::new(GeneratorConfig::paper_scale(0.05).with_seed(23)).generate();
    let subset = [
        Cuisine::Thai,
        Cuisine::IndianSubcontinent,
        Cuisine::Mexican,
        Cuisine::Italian,
        Cuisine::Korean,
        Cuisine::Japanese,
    ];
    let db = uploaded_subset(&full, &subset);
    // As an atlas over the upload orders them, and in the order listed.
    let present: Vec<Cuisine> = db.cuisines().collect();
    assert_eq!(present.len(), subset.len());
    assert_matches_reference("subset, Table I order", &db, &present);
    assert_matches_reference("subset, listed order", &db, &subset);
}

#[test]
fn a_single_cuisine_corpus_matches_the_reference() {
    let full = CorpusGenerator::new(GeneratorConfig::paper_scale(0.02).with_seed(1)).generate();
    let db = uploaded_subset(&full, &[Cuisine::Korean]);
    assert_matches_reference("single cuisine", &db, &[Cuisine::Korean]);
}

#[test]
fn catalog_ingredients_no_recipe_uses_get_no_column() {
    // Unused names before, between and after the used ones, in every
    // kind, and a used process that shares a name with an unused
    // ingredient.
    let mut b = RecipeDbBuilder::new();
    let c = b.catalog_mut();
    let unused_first = c.intern_ingredient("saffron");
    let salt = c.intern_ingredient("salt");
    c.intern_ingredient("truffle");
    let rice = c.intern_ingredient("rice");
    c.intern_ingredient("caviar");
    c.intern_ingredient("boil");
    let boil = c.intern_process("boil");
    c.intern_process("flambe");
    let wok = c.intern_utensil("wok");
    c.intern_utensil("tandoor");
    b.add_recipe(
        "a",
        Cuisine::Japanese,
        vec![rice, salt],
        vec![boil],
        vec![wok],
    );
    b.add_recipe("b", Cuisine::Japanese, vec![rice], vec![boil], vec![]);
    b.add_recipe("c", Cuisine::UK, vec![salt], vec![], vec![]);
    b.add_recipe("d", Cuisine::Thai, vec![rice, salt], vec![boil], vec![]);
    let db = b.build().unwrap();
    let cuisines: Vec<Cuisine> = db.cuisines().collect();
    assert_matches_reference("unused catalog names", &db, &cuisines);
    let m = AuthenticityMatrix::ingredients_over(&db, &cuisines);
    assert_eq!(m.items, vec![TokenId(salt.0), TokenId(rice.0)]);
    assert!(!m.items.contains(&TokenId(unused_first.0)));

    // The full corpus's catalog over three of its cuisines leaves most
    // catalog ingredients unused.
    let full = CorpusGenerator::new(GeneratorConfig::paper_scale(0.02).with_seed(23)).generate();
    let three = [Cuisine::Korean, Cuisine::UK, Cuisine::Caribbean];
    let db = uploaded_subset(&full, &three);
    let m = AuthenticityMatrix::ingredients_over(&db, &three);
    assert!(m.n_items() * 2 < db.catalog().ingredient_count());
    assert_matches_reference("three cuisines, full catalog", &db, &three);
}
