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
//!
//! Everything is counted densely. Item counts and ranks are arrays over
//! the item-id range `0..=max_item` (the miner is fed dense token ids);
//! a tree is one array of nodes linked first-child/next-sibling, with a
//! per-rank chain through the nodes of each rank (the header table); a
//! conditional pattern base is one flat buffer of ranks plus the end and
//! count of each path, counted into a per-rank array. The base and its
//! counts live in one scratch reused for the whole run, so a conditional
//! tree costs a few allocations, not one per node or path. None of this
//! moves the emission order, which depends only on the rank order.

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
        let Some(max_item) = db.max_item() else {
            return Vec::new();
        };
        let min_cnt = min_count(self.min_support, db.len());

        // Global item frequencies (rows are distinct, so this counts
        // transactions); keep frequent items, ranked by descending count
        // (ties by ascending id) for the tree order.
        let mut counts = vec![0u64; max_item as usize + 1];
        for row in db.rows() {
            for &item in row {
                counts[item as usize] += 1;
            }
        }
        let mut items_by_rank: Vec<ItemId> = (0..=max_item)
            .filter(|&item| counts[item as usize] >= min_cnt)
            .collect();
        if items_by_rank.is_empty() {
            return Vec::new();
        }
        items_by_rank.sort_by(|&a, &b| counts[b as usize].cmp(&counts[a as usize]).then(a.cmp(&b)));
        let mut rank = vec![NONE; counts.len()];
        for (r, &item) in items_by_rank.iter().enumerate() {
            rank[item as usize] = r as u32;
        }
        drop(counts);

        // Build the initial tree over rank-encoded transactions.
        let mut scratch = Scratch::default();
        let mut tree = FpTree::new(items_by_rank.len(), 0);
        for row in db.rows() {
            let encoded = &mut scratch.path;
            encoded.clear();
            encoded.extend(
                row.iter()
                    .map(|&it| rank[it as usize])
                    .filter(|&r| r != NONE),
            );
            encoded.sort_unstable();
            tree.insert(encoded, 1);
        }
        drop(rank);

        // Mine, translating ranks back to item ids at emission.
        let mut out = Vec::new();
        let mut suffix: Vec<u32> = Vec::new();
        mine_tree(
            &tree,
            min_cnt,
            &mut suffix,
            &mut scratch,
            &mut |ranks, count| {
                let mut items: Vec<ItemId> =
                    ranks.iter().map(|&r| items_by_rank[r as usize]).collect();
                items.sort_unstable();
                out.push(FrequentItemset {
                    items: Itemset::from_sorted(items),
                    count,
                });
            },
        );
        out
    }

    fn min_support(&self) -> f64 {
        self.min_support
    }
}

/// The absent index: no parent, child, sibling or next node of a rank.
const NONE: u32 = u32::MAX;

/// One FP-tree node. `link` threads the nodes of one rank together.
#[derive(Clone, Copy)]
struct Node {
    /// Rank of the item at this node (`NONE` at the root).
    rank: u32,
    parent: u32,
    first_child: u32,
    next_sibling: u32,
    link: u32,
    count: u64,
}

/// An FP-tree as one node array; node 0 is the root.
struct FpTree {
    nodes: Vec<Node>,
    /// heads\[rank\] = the most recently added node of this rank.
    heads: Vec<u32>,
    /// Total count per rank inside this tree.
    totals: Vec<u64>,
}

impl FpTree {
    /// An empty tree over ranks `0..n_ranks`, with room for `nodes`
    /// nodes besides the root.
    fn new(n_ranks: usize, nodes: usize) -> Self {
        let mut tree = FpTree {
            nodes: Vec::with_capacity(nodes + 1),
            heads: vec![NONE; n_ranks],
            totals: vec![0; n_ranks],
        };
        tree.nodes.push(Node {
            rank: NONE,
            parent: NONE,
            first_child: NONE,
            next_sibling: NONE,
            link: NONE,
            count: 0,
        });
        tree
    }

    /// Insert a rank-sorted transaction with multiplicity `add`.
    fn insert(&mut self, ranks: &[u32], add: u64) {
        let mut node = 0u32;
        for &r in ranks {
            let mut child = self.nodes[node as usize].first_child;
            while child != NONE && self.nodes[child as usize].rank != r {
                child = self.nodes[child as usize].next_sibling;
            }
            if child == NONE {
                child = self.nodes.len() as u32;
                self.nodes.push(Node {
                    rank: r,
                    parent: node,
                    first_child: NONE,
                    next_sibling: self.nodes[node as usize].first_child,
                    link: self.heads[r as usize],
                    count: 0,
                });
                self.nodes[node as usize].first_child = child;
                self.heads[r as usize] = child;
            }
            self.nodes[child as usize].count += add;
            self.totals[r as usize] += add;
            node = child;
        }
    }

    /// If the tree is a single path from the root, its `(rank, count)`
    /// nodes from the root down, written into `path`.
    fn single_path(&self, path: &mut Vec<(u32, u64)>) -> bool {
        path.clear();
        let mut node = self.nodes[0].first_child;
        while node != NONE {
            let n = self.nodes[node as usize];
            if n.next_sibling != NONE {
                return false;
            }
            path.push((n.rank, n.count));
            node = n.first_child;
        }
        true
    }
}

/// Buffers reused across every conditional tree of one run.
#[derive(Default)]
struct Scratch {
    /// The conditional base: every prefix path's ranks, root first.
    base: Vec<u32>,
    /// `(end in base, count)` of each prefix path.
    ends: Vec<(usize, u64)>,
    /// Per-rank count of the conditional base.
    counts: Vec<u64>,
    /// One path being inserted.
    path: Vec<u32>,
    /// The single path of a tree, for the shortcut.
    single: Vec<(u32, u64)>,
}

/// Recursively mine `tree`, calling `emit(suffix_ranks, count)` for every
/// frequent itemset. `suffix` holds the ranks conditioned on so far.
fn mine_tree(
    tree: &FpTree,
    min_cnt: u64,
    suffix: &mut Vec<u32>,
    scratch: &mut Scratch,
    emit: &mut impl FnMut(&[u32], u64),
) {
    // Single-path shortcut: emit every combination along the path.
    if tree.single_path(&mut scratch.single) {
        emit_path_combinations(&scratch.single, min_cnt, suffix, emit);
        return;
    }

    // General case: iterate ranks bottom-up (ascending support order is
    // not required for correctness; any order visits each item once).
    for rank in (0..tree.totals.len() as u32).rev() {
        let total = tree.totals[rank as usize];
        if total < min_cnt {
            continue;
        }
        suffix.push(rank);
        emit(suffix, total);
        if let Some(cond) = conditional_tree(tree, rank, min_cnt, scratch) {
            mine_tree(&cond, min_cnt, suffix, scratch, emit);
        }
        suffix.pop();
    }
}

/// Build the conditional FP-tree of `rank` within `tree` from its
/// prefix-path conditional base (for each node of `rank`, the ranks from
/// the root down to its parent, weighted by the node's count), pruning
/// ranks that fall under `min_cnt` in the base. Returns `None` when the
/// conditional tree would be empty.
fn conditional_tree(
    tree: &FpTree,
    rank: u32,
    min_cnt: u64,
    scratch: &mut Scratch,
) -> Option<FpTree> {
    let Scratch {
        base,
        ends,
        counts,
        path,
        ..
    } = scratch;
    base.clear();
    ends.clear();
    // Paths hold only ranks below `rank`, the only ones counted here.
    counts.clear();
    counts.resize(rank as usize, 0);
    let mut node = tree.heads[rank as usize];
    while node != NONE {
        let start = base.len();
        let count = tree.nodes[node as usize].count;
        let mut cur = tree.nodes[node as usize].parent;
        while cur != 0 {
            let r = tree.nodes[cur as usize].rank;
            base.push(r);
            counts[r as usize] += count;
            cur = tree.nodes[cur as usize].parent;
        }
        base[start..].reverse();
        ends.push((base.len(), count));
        node = tree.nodes[node as usize].link;
    }
    if counts.iter().all(|&c| c < min_cnt) {
        return None;
    }
    let mut cond = FpTree::new(rank as usize, base.len());
    let mut start = 0;
    for &(end, count) in ends.iter() {
        path.clear();
        path.extend(
            base[start..end]
                .iter()
                .copied()
                .filter(|&r| counts[r as usize] >= min_cnt),
        );
        // Paths are already in ascending rank order.
        cond.insert(path, count);
        start = end;
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
    let n = path.iter().take_while(|&&(_, c)| c >= min_cnt).count();
    if n == 0 {
        return;
    }
    let eligible = &path[..n];
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
