//! FP-Growth (Han, Pei & Yin, SIGMOD 2000): frequent-pattern mining
//! without candidate generation.
//!
//! The algorithm compresses the database into an **FP-tree** — a prefix
//! tree over transactions with items ordered by descending global
//! frequency — and then mines it recursively: for each item (bottom-up in
//! the frequency order), the set of prefix paths leading to its nodes form
//! a *conditional pattern base*, which is itself compressed into a
//! conditional FP-tree and mined for patterns ending in that item.
//!
//! Two standard optimizations are implemented:
//! * infrequent items are pruned and transactions re-sorted before
//!   insertion, which keeps the tree small;
//! * a **single-path shortcut**: when a (conditional) tree degenerates to
//!   one path, all `2^k − 1` item combinations along the path are emitted
//!   directly instead of recursing.

use std::collections::HashMap;

use crate::itemset::{FrequentItemset, ItemId, Itemset};
use crate::transaction::TransactionDb;
use crate::{min_count, Miner};

/// The FP-Growth miner. See the module docs.
#[derive(Debug, Clone)]
pub struct FpGrowth {
    min_support: f64,
}

impl FpGrowth {
    /// Create a miner with a relative minimum support in `(0, 1]`.
    pub fn new(min_support: f64) -> Self {
        assert!(
            min_support > 0.0 && min_support <= 1.0,
            "min_support must be in (0, 1], got {min_support}"
        );
        FpGrowth { min_support }
    }
}

impl Miner for FpGrowth {
    fn mine(&self, db: &TransactionDb) -> Vec<FrequentItemset> {
        if db.is_empty() {
            return Vec::new();
        }
        let min_cnt = min_count(self.min_support, db.len());

        // Global item frequencies; keep frequent ones, ranked by
        // descending count (ties by ascending id) for the tree order.
        let counts = db.item_counts();
        let mut frequent: Vec<(ItemId, u64)> =
            counts.into_iter().filter(|&(_, c)| c >= min_cnt).collect();
        frequent.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let rank: HashMap<ItemId, u32> = frequent
            .iter()
            .enumerate()
            .map(|(i, &(item, _))| (item, i as u32))
            .collect();
        if frequent.is_empty() {
            return Vec::new();
        }

        // Build the initial tree over rank-encoded transactions.
        let mut tree = FpTree::new(frequent.len());
        let mut encoded: Vec<u32> = Vec::new();
        for row in db.rows() {
            encoded.clear();
            encoded.extend(row.iter().filter_map(|it| rank.get(it).copied()));
            encoded.sort_unstable();
            tree.insert(&encoded, 1);
        }

        // Mine, translating ranks back to item ids at emission.
        let items_by_rank: Vec<ItemId> = frequent.iter().map(|&(it, _)| it).collect();
        let mut out = Vec::new();
        let mut suffix: Vec<u32> = Vec::new();
        mine_tree(&tree, min_cnt, &mut suffix, &mut |ranks, count| {
            let mut items: Vec<ItemId> = ranks.iter().map(|&r| items_by_rank[r as usize]).collect();
            items.sort_unstable();
            out.push(FrequentItemset {
                items: Itemset::from_sorted(items),
                count,
            });
        });
        out
    }

    fn min_support(&self) -> f64 {
        self.min_support
    }
}

/// A node-array FP-tree. `children` uses a per-node map from rank to node
/// index; `header` threads all nodes of the same rank together for
/// conditional-base extraction (the "header table").
struct FpTree {
    parent: Vec<u32>,
    item: Vec<u32>, // rank of the item at this node (u32::MAX at root)
    count: Vec<u64>,
    children: Vec<HashMap<u32, u32>>,
    /// header\[rank\] = indices of all nodes holding this rank.
    header: Vec<Vec<u32>>,
    /// total count per rank inside this tree.
    totals: Vec<u64>,
}

impl FpTree {
    fn new(n_ranks: usize) -> Self {
        FpTree {
            parent: vec![u32::MAX],
            item: vec![u32::MAX],
            count: vec![0],
            children: vec![HashMap::new()],
            header: vec![Vec::new(); n_ranks],
            totals: vec![0; n_ranks],
        }
    }

    /// Insert a rank-sorted transaction with multiplicity `add`.
    fn insert(&mut self, ranks: &[u32], add: u64) {
        let mut node = 0u32;
        for &r in ranks {
            let next = match self.children[node as usize].get(&r) {
                Some(&c) => c,
                None => {
                    let idx = self.parent.len() as u32;
                    self.parent.push(node);
                    self.item.push(r);
                    self.count.push(0);
                    self.children.push(HashMap::new());
                    self.children[node as usize].insert(r, idx);
                    self.header[r as usize].push(idx);
                    idx
                }
            };
            self.count[next as usize] += add;
            self.totals[r as usize] += add;
            node = next;
        }
    }

    /// Whether the tree consists of a single path from the root.
    fn single_path(&self) -> Option<Vec<(u32, u64)>> {
        let mut path = Vec::new();
        let mut node = 0u32;
        loop {
            let kids = &self.children[node as usize];
            match kids.len() {
                0 => return Some(path),
                1 => {
                    let &child = kids.values().next().expect("one child");
                    path.push((self.item[child as usize], self.count[child as usize]));
                    node = child;
                }
                _ => return None,
            }
        }
    }

    /// The prefix-path conditional pattern base of `rank`: for each node of
    /// `rank`, the path of ranks from its parent up to the root, weighted
    /// by the node count.
    fn conditional_base(&self, rank: u32) -> Vec<(Vec<u32>, u64)> {
        let mut base = Vec::new();
        for &node in &self.header[rank as usize] {
            let cnt = self.count[node as usize];
            let mut path = Vec::new();
            let mut cur = self.parent[node as usize];
            while cur != u32::MAX && self.item[cur as usize] != u32::MAX {
                path.push(self.item[cur as usize]);
                cur = self.parent[cur as usize];
            }
            path.reverse();
            base.push((path, cnt));
        }
        base
    }
}

/// Recursively mine `tree`, calling `emit(suffix_ranks, count)` for every
/// frequent itemset. `suffix` holds the ranks conditioned on so far.
fn mine_tree(
    tree: &FpTree,
    min_cnt: u64,
    suffix: &mut Vec<u32>,
    emit: &mut impl FnMut(&[u32], u64),
) {
    // Single-path shortcut: emit every combination along the path.
    if let Some(path) = tree.single_path() {
        emit_path_combinations(&path, min_cnt, suffix, emit);
        return;
    }

    // General case: iterate ranks bottom-up (ascending support order is
    // not required for correctness; any order visits each item once).
    for rank in (0..tree.header.len() as u32).rev() {
        let total = tree.totals[rank as usize];
        if total < min_cnt {
            continue;
        }
        suffix.push(rank);
        emit(suffix, total);
        if let Some(cond) = conditional_tree(tree, rank, min_cnt) {
            mine_tree(&cond, min_cnt, suffix, emit);
        }
        suffix.pop();
    }
}

/// Build the conditional FP-tree of `rank` within `tree`, pruning items
/// that fall under `min_cnt` in the conditional base. Returns `None` when
/// the conditional tree would be empty.
fn conditional_tree(tree: &FpTree, rank: u32, min_cnt: u64) -> Option<FpTree> {
    let base = tree.conditional_base(rank);
    let mut cond_counts: HashMap<u32, u64> = HashMap::new();
    for (path, cnt) in &base {
        for &r in path {
            *cond_counts.entry(r).or_insert(0) += cnt;
        }
    }
    let keep: std::collections::HashSet<u32> = cond_counts
        .iter()
        .filter(|&(_, &c)| c >= min_cnt)
        .map(|(&r, _)| r)
        .collect();
    if keep.is_empty() {
        return None;
    }
    let mut cond = FpTree::new(tree.header.len());
    let mut filtered: Vec<u32> = Vec::new();
    for (path, cnt) in &base {
        filtered.clear();
        filtered.extend(path.iter().copied().filter(|r| keep.contains(r)));
        // Paths are already in ascending rank order.
        cond.insert(&filtered, *cnt);
    }
    Some(cond)
}

/// Emit all non-empty combinations of the single path's items, each with
/// the minimum count along the chosen items, unioned with the suffix.
fn emit_path_combinations(
    path: &[(u32, u64)],
    min_cnt: u64,
    suffix: &mut Vec<u32>,
    emit: &mut impl FnMut(&[u32], u64),
) {
    // Counts along a root-to-leaf path are non-increasing, so the count of
    // a combination is the count of its deepest item; prune items below
    // min_cnt up front.
    let eligible: Vec<(u32, u64)> = path
        .iter()
        .copied()
        .take_while(|&(_, c)| c >= min_cnt)
        .collect();
    let n = eligible.len();
    if n == 0 {
        return;
    }
    // Enumerate subsets via bitmask; n is small in practice (tree depth).
    assert!(n < 64, "single path too long for subset enumeration");
    for mask in 1u64..(1u64 << n) {
        let mut count = u64::MAX;
        let before = suffix.len();
        for (i, &(rank, c)) in eligible.iter().enumerate() {
            if mask & (1 << i) != 0 {
                suffix.push(rank);
                count = count.min(c);
            }
        }
        emit(suffix, count);
        suffix.truncate(before);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemset::sort_canonical;

    fn mine(rows: Vec<Vec<ItemId>>, min_support: f64) -> Vec<FrequentItemset> {
        let db = TransactionDb::from_rows(rows);
        let mut out = FpGrowth::new(min_support).mine(&db);
        sort_canonical(&mut out);
        out
    }

    #[test]
    fn empty_db_yields_nothing() {
        assert!(mine(vec![], 0.5).is_empty());
    }

    #[test]
    fn textbook_example() {
        // Classic FP-growth example (Han et al., simplified).
        let rows = vec![
            vec![1, 2, 5],
            vec![2, 4],
            vec![2, 3],
            vec![1, 2, 4],
            vec![1, 3],
            vec![2, 3],
            vec![1, 3],
            vec![1, 2, 3, 5],
            vec![1, 2, 3],
        ];
        let out = mine(rows, 2.0 / 9.0);
        let get = |items: &[ItemId]| -> Option<u64> {
            out.iter()
                .find(|f| f.items.items() == items)
                .map(|f| f.count)
        };
        assert_eq!(get(&[1]), Some(6));
        assert_eq!(get(&[2]), Some(7));
        assert_eq!(get(&[3]), Some(6));
        assert_eq!(get(&[4]), Some(2));
        assert_eq!(get(&[5]), Some(2));
        assert_eq!(get(&[1, 2]), Some(4));
        assert_eq!(get(&[1, 3]), Some(4));
        assert_eq!(get(&[2, 3]), Some(4));
        assert_eq!(get(&[1, 2, 3]), Some(2));
        assert_eq!(get(&[1, 2, 5]), Some(2));
        assert_eq!(get(&[2, 5]), Some(2));
        assert_eq!(get(&[1, 5]), Some(2));
        assert_eq!(get(&[2, 4]), Some(2));
        // {4,5}, {3,5}, {1,4} etc. are below threshold.
        assert_eq!(get(&[3, 5]), None);
        assert_eq!(get(&[1, 4]), None);
    }

    #[test]
    fn single_transaction_emits_all_subsets() {
        let out = mine(vec![vec![1, 2, 3]], 1.0);
        assert_eq!(out.len(), 7, "2^3 - 1 subsets");
        assert!(out.iter().all(|f| f.count == 1));
    }

    #[test]
    fn identical_transactions_single_path() {
        let out = mine(vec![vec![1, 2], vec![1, 2], vec![1, 2]], 0.5);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|f| f.count == 3));
    }

    #[test]
    fn threshold_one_keeps_only_universal_items() {
        let out = mine(vec![vec![1, 2], vec![1, 3], vec![1]], 1.0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].items.items(), &[1]);
        assert_eq!(out[0].count, 3);
    }

    #[test]
    fn downward_closure_holds() {
        // Every subset of a frequent itemset is frequent with >= count.
        let rows: Vec<Vec<ItemId>> = (0..40)
            .map(|i| {
                (0..6)
                    .filter(|&j| (i + j) % (j + 2) == 0)
                    .map(|j| j as ItemId)
                    .collect()
            })
            .collect();
        let db = TransactionDb::from_rows(rows);
        let out = FpGrowth::new(0.1).mine(&db);
        let lookup: std::collections::HashMap<&[ItemId], u64> =
            out.iter().map(|f| (f.items.items(), f.count)).collect();
        for f in &out {
            for sub in f.items.proper_subsets_one_smaller() {
                if sub.is_empty() {
                    continue;
                }
                let sup = lookup
                    .get(sub.items())
                    .unwrap_or_else(|| panic!("subset {sub} of {} missing", f.items));
                assert!(*sup >= f.count);
            }
        }
    }

    #[test]
    #[should_panic(expected = "min_support must be in (0, 1]")]
    fn rejects_zero_support() {
        let _ = FpGrowth::new(0.0);
    }
}
