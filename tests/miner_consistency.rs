//! Cross-crate miner consistency: on real (synthetic-corpus) cuisine
//! transactions — not just the small random databases of the property
//! tests — the miner implementations agree exactly, and mined counts
//! match direct support counting.

use pattern_mining::apriori::Apriori;
use pattern_mining::charm::Charm;
use pattern_mining::eclat::Eclat;
use pattern_mining::fpgrowth::FpGrowth;
use pattern_mining::itemset::sort_canonical;
use pattern_mining::transaction::TransactionDb;
use pattern_mining::Miner;
use recipedb::generator::{CorpusGenerator, GeneratorConfig};
use recipedb::{Cuisine, RecipeDb};

fn corpus() -> RecipeDb {
    let mut cfg = GeneratorConfig::paper_scale(0.02).with_seed(77);
    cfg.min_recipes_per_cuisine = 150;
    CorpusGenerator::new(cfg).generate()
}

fn transactions(db: &RecipeDb, cuisine: Cuisine) -> TransactionDb {
    TransactionDb::from_rows(
        db.transactions_for(cuisine)
            .into_iter()
            .map(|tx| tx.into_iter().map(|t| t.0).collect())
            .collect(),
    )
}

#[test]
fn all_miners_agree_on_cuisine_transactions() {
    let db = corpus();
    for cuisine in [
        Cuisine::Korean,
        Cuisine::Italian,
        Cuisine::IndianSubcontinent,
    ] {
        let tdb = transactions(&db, cuisine);
        let mut fp = FpGrowth::new(0.2).mine(&tdb);
        let mut ap = Apriori::new(0.2).mine(&tdb);
        let mut ec = Eclat::new(0.2).mine(&tdb);
        sort_canonical(&mut fp);
        sort_canonical(&mut ap);
        sort_canonical(&mut ec);
        assert_eq!(fp, ap, "{cuisine}: apriori disagrees");
        assert_eq!(fp, ec, "{cuisine}: eclat disagrees");
        assert!(!fp.is_empty(), "{cuisine}: nothing mined");
    }
}

#[test]
fn charm_matches_filtered_closed_sets_on_cuisine_data() {
    let db = corpus();
    for cuisine in [Cuisine::Korean, Cuisine::NorthernAfrica, Cuisine::US] {
        let tdb = transactions(&db, cuisine);
        let mut reference = pattern_mining::filter::closed(&FpGrowth::new(0.2).mine(&tdb));
        let mut charm = Charm::new(0.2).mine(&tdb);
        sort_canonical(&mut reference);
        sort_canonical(&mut charm);
        assert_eq!(charm, reference, "{cuisine}");
        assert!(!charm.is_empty(), "{cuisine}");
    }
}

#[test]
fn mined_counts_match_direct_support_counting() {
    let db = corpus();
    let tdb = transactions(&db, Cuisine::Japanese);
    for f in FpGrowth::new(0.25).mine(&tdb) {
        let brute = tdb
            .rows()
            .iter()
            .filter(|row| f.items.is_contained_in(row))
            .count() as u64;
        assert_eq!(f.count, brute, "{}", f.items);
    }
}

#[test]
fn mining_threshold_semantics_match_paper_convention() {
    // "support of 0.2" means count >= ceil(0.2 * n): an itemset in exactly
    // 20% of recipes is frequent.
    let rows: Vec<Vec<u32>> = (0..10)
        .map(|i| if i < 2 { vec![1, 2] } else { vec![3] })
        .collect();
    let tdb = TransactionDb::from_rows(rows);
    let mined = FpGrowth::new(0.2).mine(&tdb);
    assert!(
        mined.iter().any(|f| f.items.items() == [1, 2]),
        "exactly-20% itemset kept"
    );
}
