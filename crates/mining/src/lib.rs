//! # pattern-mining — frequent itemset mining from scratch
//!
//! Hand-written implementations of the mining algorithms the paper relies
//! on (it uses FP-Growth; Agrawal's Apriori and Zaki's Eclat are provided
//! as cross-checking baselines):
//!
//! * [`fpgrowth::FpGrowth`] — Han, Pei & Yin, *Mining frequent patterns
//!   without candidate generation*, SIGMOD 2000. The paper's miner.
//! * [`apriori::Apriori`] — Agrawal & Srikant, VLDB 1994. Level-wise
//!   candidate generation with downward-closure pruning.
//! * [`eclat::Eclat`] — vertical tid-list intersection, depth-first.
//!
//! All miners consume a [`transaction::TransactionDb`] (dense `u32` item
//! ids; the `recipedb` catalog maps names to ids) and produce the complete
//! set of frequent itemsets at a relative support threshold. The three
//! implementations are exhaustively cross-checked against each other in the
//! property-test suite: on any input they must return identical itemsets
//! with identical support counts.
//!
//! On top of raw itemsets the crate offers closed filtering ([`filter`])
//! used by the cuisine-atlas Table I report, and direct closed-itemset
//! mining with CHARM ([`charm`]), the test oracle for [`filter::closed`].
//! Every miner runs on one thread: callers that mine many databases
//! (the atlas mines each cuisine) fan out across databases instead.
//!
//! ```
//! use pattern_mining::transaction::TransactionDb;
//! use pattern_mining::fpgrowth::FpGrowth;
//! use pattern_mining::Miner;
//!
//! let db = TransactionDb::from_rows(vec![
//!     vec![0, 1, 2],
//!     vec![0, 1],
//!     vec![0, 3],
//!     vec![1, 2],
//! ]);
//! let found = FpGrowth::new(0.5).mine(&db);
//! // {0}, {1}, {2}, {0,1}, {1,2} are frequent at 50%.
//! assert_eq!(found.len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apriori;
pub mod charm;
pub mod eclat;
pub mod filter;
pub mod fpgrowth;
pub mod itemset;
pub mod transaction;

pub use itemset::{FrequentItemset, ItemId, Itemset};
pub use transaction::TransactionDb;

/// A complete frequent-itemset miner.
///
/// Implementations must return **every** itemset whose support count is at
/// least `ceil(min_support × |db|)` (with the convention that a relative
/// threshold `t` means `count ≥ t · n`, matching the paper's "support of
/// 0.2"), each with its exact support count. Order is unspecified;
/// [`itemset::sort_canonical`] gives a canonical order for comparison.
pub trait Miner {
    /// Mine all frequent itemsets from `db`.
    fn mine(&self, db: &TransactionDb) -> Vec<FrequentItemset>;

    /// The relative minimum support threshold in `(0, 1]`.
    fn min_support(&self) -> f64;
}

/// Convert a relative support threshold into an absolute count for a
/// database of `n` transactions: the smallest count `c` with `c ≥ t·n`,
/// and at least 1.
pub fn min_count(min_support: f64, n: usize) -> u64 {
    let raw = (min_support * n as f64).ceil() as u64;
    raw.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_count_rounds_up_and_floors_at_one() {
        assert_eq!(min_count(0.2, 10), 2);
        assert_eq!(min_count(0.2, 11), 3); // 2.2 -> 3
        assert_eq!(min_count(0.0, 10), 1);
        assert_eq!(min_count(1.0, 7), 7);
        assert_eq!(min_count(0.5, 0), 1);
    }
}
