//! Multi-threaded FP-Growth.
//!
//! The frequent-itemset search space partitions cleanly by the *last* item
//! (in frequency-rank order) of each itemset: patterns ending at rank `r`
//! are exactly the patterns found by mining `r`'s conditional tree under
//! suffix `{r}`. The global FP-tree is built once (sequentially — it is a
//! single linear pass) and shared read-only; worker threads then claim
//! ranks and mine their conditional trees independently.
//!
//! Two properties matter beyond raw speed:
//!
//! * **Determinism** — per-rank results land in per-rank slots and are
//!   concatenated in the order the sequential miner visits ranks, so the
//!   output is *exactly* [`crate::fpgrowth::FpGrowth`]'s output — same
//!   itemsets, same counts, same order — for any thread count (asserted
//!   by the cross-check tests). Downstream feature encodings can therefore
//!   swap miners freely without perturbing a single byte.
//! * **Load balance** — conditional-tree cost is highly skewed: rare
//!   (high-rank) items sit deep in the tree with long prefix paths, so a
//!   naive ascending claim order starts the heaviest trees *last* and ends
//!   the run with one straggler thread grinding through them alone.
//!   Ranks are instead claimed in descending estimated cost
//!   ([`FpTree::rank_costs`]: total conditional-base path length), the
//!   classic longest-processing-time-first heuristic. The claim order
//!   affects wall-clock only, never the result.

use crate::fpgrowth::{conditional_tree, mine_tree, FpGrowth, FpTree};
use crate::itemset::{FrequentItemset, ItemId, Itemset};
use crate::transaction::TransactionDb;
use crate::{min_count, Miner};

/// Parallel FP-Growth over `n_threads` workers.
#[derive(Debug, Clone)]
pub struct ParallelFpGrowth {
    min_support: f64,
    n_threads: usize,
}

impl ParallelFpGrowth {
    /// Create a miner with a relative minimum support and a thread count
    /// (clamped to at least 1).
    pub fn new(min_support: f64, n_threads: usize) -> Self {
        assert!(
            min_support > 0.0 && min_support <= 1.0,
            "min_support must be in (0, 1], got {min_support}"
        );
        ParallelFpGrowth {
            min_support,
            n_threads: n_threads.max(1),
        }
    }
}

impl Miner for ParallelFpGrowth {
    fn mine(&self, db: &TransactionDb) -> Vec<FrequentItemset> {
        if db.is_empty() {
            return Vec::new();
        }
        let min_cnt = min_count(self.min_support, db.len());

        let counts = db.item_counts();
        let mut frequent: Vec<(ItemId, u64)> =
            counts.into_iter().filter(|&(_, c)| c >= min_cnt).collect();
        frequent.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        if frequent.is_empty() {
            return Vec::new();
        }
        let rank: std::collections::HashMap<ItemId, u32> = frequent
            .iter()
            .enumerate()
            .map(|(i, &(item, _))| (item, i as u32))
            .collect();
        let items_by_rank: Vec<ItemId> = frequent.iter().map(|&(it, _)| it).collect();

        let mut tree = FpTree::new(frequent.len());
        let mut encoded: Vec<u32> = Vec::new();
        for row in db.rows() {
            encoded.clear();
            encoded.extend(row.iter().filter_map(|it| rank.get(it).copied()));
            encoded.sort_unstable();
            tree.insert(&encoded, 1);
        }

        // A degenerate single-path tree is emitted via the sequential
        // miner's subset shortcut, which visits combinations in a
        // different order than the per-rank partition below; delegate so
        // the output order stays identical to FpGrowth's.
        if tree.single_path().is_some() {
            return FpGrowth::new(self.min_support).mine(db);
        }

        // One slot per rank, claimed heaviest-first.
        let claim_order = par::descending_cost_order(&tree.rank_costs());
        let tree_ref = &tree;
        let items_ref = &items_by_rank;
        let per_rank: Vec<Vec<FrequentItemset>> =
            par::map_claiming(self.n_threads, &claim_order, |r| {
                let r = r as u32;
                let total = tree_ref.totals[r as usize];
                if total < min_cnt {
                    return Vec::new();
                }
                let mut local: Vec<FrequentItemset> = Vec::new();
                let mut suffix: Vec<u32> = vec![r];
                let mut emit = |ranks: &[u32], count: u64| {
                    let mut items: Vec<ItemId> =
                        ranks.iter().map(|&rr| items_ref[rr as usize]).collect();
                    items.sort_unstable();
                    local.push(FrequentItemset {
                        items: Itemset::from_sorted(items),
                        count,
                    });
                };
                emit(&suffix, total);
                if let Some(cond) = conditional_tree(tree_ref, r, min_cnt) {
                    mine_tree(&cond, min_cnt, &mut suffix, &mut emit);
                }
                local
            });

        // Sequential FP-Growth visits ranks in descending order at the
        // top level; concatenating the slots the same way reproduces its
        // exact emission order.
        per_rank.into_iter().rev().flatten().collect()
    }

    fn min_support(&self) -> f64 {
        self.min_support
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpgrowth::FpGrowth;
    use crate::itemset::sort_canonical;

    fn random_db(seed: u64, n: usize, universe: u32, avg_len: usize) -> TransactionDb {
        // Tiny xorshift so the test needs no extra dev-dependency here.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rows = (0..n)
            .map(|_| {
                let len = (next() as usize % (2 * avg_len)).max(1);
                (0..len)
                    .map(|_| (next() % universe as u64) as u32)
                    .collect()
            })
            .collect();
        TransactionDb::from_rows(rows)
    }

    /// A deliberately skewed database: a handful of near-universal items
    /// plus a long zipf-ish tail, so conditional-tree costs differ by
    /// orders of magnitude across ranks.
    fn skewed_db(n: usize) -> TransactionDb {
        let rows = (0..n)
            .map(|i| {
                let mut row: Vec<ItemId> = vec![0, 1];
                for item in 2..40u32 {
                    if i % (item as usize) == 0 {
                        row.push(item);
                    }
                }
                row
            })
            .collect();
        TransactionDb::from_rows(rows)
    }

    #[test]
    fn matches_sequential_fpgrowth() {
        for seed in [1u64, 42, 1234] {
            let db = random_db(seed, 300, 20, 6);
            let mut seq = FpGrowth::new(0.1).mine(&db);
            let mut par = ParallelFpGrowth::new(0.1, 4).mine(&db);
            sort_canonical(&mut seq);
            sort_canonical(&mut par);
            assert_eq!(seq, par, "seed {seed}");
        }
    }

    #[test]
    fn emission_order_is_exactly_sequential() {
        // Stronger than set equality: the parallel miner must reproduce
        // FpGrowth's output byte-for-byte, *including order*, so feature
        // encoders downstream see identical streams.
        for seed in [3u64, 99] {
            let db = random_db(seed, 400, 25, 7);
            let seq = FpGrowth::new(0.08).mine(&db);
            for threads in [1, 2, 3, 8] {
                let par = ParallelFpGrowth::new(0.08, threads).mine(&db);
                assert_eq!(seq, par, "seed {seed} threads {threads}");
            }
        }
    }

    #[test]
    fn thread_count_never_changes_result_on_skewed_database() {
        // The load-balance fix (descending-cost claiming) must be purely
        // a scheduling change: on a database with wildly uneven
        // conditional-tree sizes, every thread count yields the exact
        // sequential output.
        let db = skewed_db(2520);
        let seq = FpGrowth::new(0.02).mine(&db);
        assert!(
            seq.len() > 100,
            "skewed db should be pattern-rich, got {}",
            seq.len()
        );
        for threads in [1, 2, 3, 5, 16] {
            let par = ParallelFpGrowth::new(0.02, threads).mine(&db);
            assert_eq!(seq, par, "threads {threads}");
        }
    }

    #[test]
    fn single_thread_degenerates_gracefully() {
        let db = random_db(7, 100, 10, 4);
        let mut seq = FpGrowth::new(0.2).mine(&db);
        let mut par = ParallelFpGrowth::new(0.2, 1).mine(&db);
        sort_canonical(&mut seq);
        sort_canonical(&mut par);
        assert_eq!(seq, par);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let db = TransactionDb::from_rows(vec![vec![1, 2], vec![1, 2], vec![2]]);
        let mut par = ParallelFpGrowth::new(0.5, 32).mine(&db);
        sort_canonical(&mut par);
        assert_eq!(par.len(), 3); // {1}, {2}, {1,2}
    }

    #[test]
    fn single_path_database_matches_sequential_order() {
        // All transactions identical -> the global tree is one path; the
        // parallel miner must still emit FpGrowth's exact order.
        let db = TransactionDb::from_rows(vec![vec![1, 2, 3]; 4]);
        let seq = FpGrowth::new(0.5).mine(&db);
        let par = ParallelFpGrowth::new(0.5, 4).mine(&db);
        assert_eq!(seq, par);
        assert_eq!(par.len(), 7, "2^3 - 1 subsets");
    }

    #[test]
    fn empty_db_yields_nothing() {
        assert!(ParallelFpGrowth::new(0.5, 4)
            .mine(&TransactionDb::default())
            .is_empty());
    }

    #[test]
    fn zero_threads_clamped_to_one() {
        let m = ParallelFpGrowth::new(0.5, 0);
        let db = TransactionDb::from_rows(vec![vec![1], vec![1]]);
        assert_eq!(m.mine(&db).len(), 1);
    }
}
