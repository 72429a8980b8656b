//! Property-based cross-checks of the three miners.
//!
//! The central invariant: **FP-Growth, Apriori and Eclat return
//! identical itemsets with identical counts** on any input, and the
//! result obeys downward closure and brute-force support counting.

use proptest::prelude::*;

use pattern_mining::apriori::Apriori;
use pattern_mining::charm::Charm;
use pattern_mining::eclat::Eclat;
use pattern_mining::fpgrowth::FpGrowth;
use pattern_mining::itemset::{sort_canonical, FrequentItemset, Itemset};
use pattern_mining::transaction::TransactionDb;
use pattern_mining::{min_count, Miner};

fn arb_db() -> impl Strategy<Value = TransactionDb> {
    // Up to 40 transactions over a universe of 8 items, with skewed
    // lengths; small enough for brute force, rich enough for deep trees.
    prop::collection::vec(prop::collection::vec(0u32..8, 0..7), 0..40)
        .prop_map(TransactionDb::from_rows)
}

fn arb_support() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.1),
        Just(0.2),
        Just(0.35),
        Just(0.5),
        Just(0.8),
        Just(1.0)
    ]
}

/// Brute-force support of an itemset.
fn brute_count(db: &TransactionDb, items: &Itemset) -> u64 {
    db.rows()
        .iter()
        .filter(|row| items.is_contained_in(row))
        .count() as u64
}

/// Brute-force complete mining by subset enumeration over the universe.
fn brute_mine(db: &TransactionDb, min_support: f64) -> Vec<FrequentItemset> {
    let min_cnt = min_count(min_support, db.len());
    let mut out = Vec::new();
    let universe: Vec<u32> = {
        let mut u: Vec<u32> = db.item_counts().keys().copied().collect();
        u.sort_unstable();
        u
    };
    let k = universe.len();
    for mask in 1u32..(1u32 << k) {
        let items: Vec<u32> = (0..k)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| universe[i])
            .collect();
        let set = Itemset::from_sorted(items);
        let count = brute_count(db, &set);
        if count >= min_cnt {
            out.push(FrequentItemset { items: set, count });
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_miners_agree_with_brute_force(db in arb_db(), s in arb_support()) {
        prop_assume!(!db.is_empty());
        let mut brute = brute_mine(&db, s);
        sort_canonical(&mut brute);

        for (name, mut mined) in [
            ("fpgrowth", FpGrowth::new(s).mine(&db)),
            ("apriori", Apriori::new(s).mine(&db)),
            ("eclat", Eclat::new(s).mine(&db)),
        ] {
            sort_canonical(&mut mined);
            prop_assert_eq!(&mined, &brute, "{} disagrees with brute force", name);
        }
    }

    #[test]
    fn charm_equals_filtered_complete_mining(db in arb_db(), s in arb_support()) {
        prop_assume!(!db.is_empty());
        let mut reference = pattern_mining::filter::closed(&FpGrowth::new(s).mine(&db));
        let mut charm = Charm::new(s).mine(&db);
        sort_canonical(&mut reference);
        sort_canonical(&mut charm);
        prop_assert_eq!(charm, reference);
    }

    #[test]
    fn downward_closure_and_support_monotonicity(db in arb_db()) {
        prop_assume!(db.len() >= 2);
        let mined = FpGrowth::new(0.2).mine(&db);
        let lookup: std::collections::HashMap<&[u32], u64> =
            mined.iter().map(|f| (f.items.items(), f.count)).collect();
        for f in &mined {
            for sub in f.items.proper_subsets_one_smaller() {
                if sub.is_empty() { continue; }
                let sup = lookup.get(sub.items());
                prop_assert!(sup.is_some(), "subset {} of {} missing", sub, f.items);
                prop_assert!(*sup.unwrap() >= f.count);
            }
        }
    }

    #[test]
    fn raising_threshold_shrinks_result(db in arb_db()) {
        prop_assume!(!db.is_empty());
        let lo = FpGrowth::new(0.2).mine(&db);
        let hi = FpGrowth::new(0.5).mine(&db);
        let lo_set: std::collections::HashSet<&[u32]> =
            lo.iter().map(|f| f.items.items()).collect();
        prop_assert!(hi.len() <= lo.len());
        for f in &hi {
            prop_assert!(lo_set.contains(f.items.items()),
                "itemset {} frequent at 0.5 but not at 0.2", f.items);
        }
    }

    #[test]
    fn counts_are_exact(db in arb_db()) {
        prop_assume!(!db.is_empty());
        for f in FpGrowth::new(0.3).mine(&db) {
            prop_assert_eq!(f.count, brute_count(&db, &f.items));
        }
    }
}
