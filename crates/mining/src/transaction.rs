//! The transaction database every miner consumes.

use std::collections::HashMap;

use crate::itemset::ItemId;

/// An immutable database of transactions. Each transaction is stored as a
/// sorted, duplicate-free list of item ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransactionDb {
    rows: Vec<Vec<ItemId>>,
}

impl TransactionDb {
    /// Build from rows; each row is normalized (sorted + deduplicated).
    pub fn from_rows(rows: Vec<Vec<ItemId>>) -> Self {
        let rows = rows
            .into_iter()
            .map(|mut r| {
                r.sort_unstable();
                r.dedup();
                r
            })
            .collect();
        TransactionDb { rows }
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The transactions.
    pub fn rows(&self) -> &[Vec<ItemId>] {
        &self.rows
    }

    /// One transaction.
    pub fn row(&self, i: usize) -> &[ItemId] {
        &self.rows[i]
    }

    /// Per-item support counts.
    pub fn item_counts(&self) -> HashMap<ItemId, u64> {
        let mut counts = HashMap::new();
        for row in &self.rows {
            for &item in row {
                *counts.entry(item).or_insert(0u64) += 1;
            }
        }
        counts
    }

    /// The largest item id present, if any.
    pub fn max_item(&self) -> Option<ItemId> {
        self.rows.iter().filter_map(|r| r.last()).max().copied()
    }

    /// Total number of item occurrences.
    pub fn total_items(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Vertical representation: item → sorted list of transaction indices.
    /// This is the input format of Eclat.
    pub fn tid_lists(&self) -> HashMap<ItemId, Vec<u32>> {
        let mut lists: HashMap<ItemId, Vec<u32>> = HashMap::new();
        for (tid, row) in self.rows.iter().enumerate() {
            for &item in row {
                lists.entry(item).or_default().push(tid as u32);
            }
        }
        lists
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_normalized() {
        let db = TransactionDb::from_rows(vec![vec![3, 1, 3], vec![]]);
        assert_eq!(db.row(0), &[1, 3]);
        assert_eq!(db.row(1), &[] as &[ItemId]);
        assert_eq!(db.len(), 2);
        assert!(!db.is_empty());
        assert_eq!(db.total_items(), 2);
    }

    #[test]
    fn item_counts_count_transactions() {
        let db = TransactionDb::from_rows(vec![vec![1, 2], vec![1], vec![2, 2]]);
        let counts = db.item_counts();
        assert_eq!(counts[&1], 2);
        assert_eq!(counts[&2], 2, "duplicates within a row count once");
        assert_eq!(db.max_item(), Some(2));
    }

    #[test]
    fn tid_lists_are_sorted() {
        let db = TransactionDb::from_rows(vec![vec![5], vec![5, 7], vec![7]]);
        let lists = db.tid_lists();
        assert_eq!(lists[&5], vec![0, 1]);
        assert_eq!(lists[&7], vec![1, 2]);
    }

    #[test]
    fn empty_db() {
        let db = TransactionDb::default();
        assert!(db.is_empty());
        assert_eq!(db.max_item(), None);
        assert!(db.item_counts().is_empty());
    }
}
