//! Post-processing of mined itemsets: **closed** filtering. An itemset
//! is *closed* if no proper superset has the same support.
//!
//! The cuisine-atlas Table I report surfaces the top **closed** patterns:
//! with the corpus's motif structure, a signature bundle is exactly the
//! closed set its sub-patterns collapse into (see `recipedb::generator`).

use std::collections::HashMap;

use crate::itemset::FrequentItemset;

/// Index itemsets by length for superset probing.
fn by_length(itemsets: &[FrequentItemset]) -> HashMap<usize, Vec<&FrequentItemset>> {
    let mut map: HashMap<usize, Vec<&FrequentItemset>> = HashMap::new();
    for f in itemsets {
        map.entry(f.items.len()).or_default().push(f);
    }
    map
}

/// Keep only closed itemsets: those with no proper superset of equal
/// support.
pub fn closed(itemsets: &[FrequentItemset]) -> Vec<FrequentItemset> {
    let index = by_length(itemsets);
    let max_len = index.keys().max().copied().unwrap_or(0);
    itemsets
        .iter()
        .filter(|f| {
            let len = f.items.len();
            !(len + 1..=max_len).any(|l| {
                index.get(&l).is_some_and(|cands| {
                    cands
                        .iter()
                        .any(|c| c.count == f.count && f.items.is_subset_of(&c.items))
                })
            })
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemset::{ItemId, Itemset};

    fn fi(items: Vec<ItemId>, count: u64) -> FrequentItemset {
        FrequentItemset {
            items: Itemset::new(items),
            count,
        }
    }

    #[test]
    fn closed_keeps_sets_with_strictly_larger_support_than_supersets() {
        let sets = vec![
            fi(vec![1], 5),    // closed: superset {1,2} has lower support
            fi(vec![2], 3),    // NOT closed: {1,2} has equal support
            fi(vec![1, 2], 3), // closed (maximal)
        ];
        let cl = closed(&sets);
        let items: Vec<&[ItemId]> = cl.iter().map(|f| f.items.items()).collect();
        assert!(items.contains(&&[1u32][..]));
        assert!(items.contains(&&[1u32, 2][..]));
        assert!(!items.contains(&&[2u32][..]));

        // {1} and {2} are not closed here ({1,2} has equal support).
        let sets = vec![
            fi(vec![1], 5),
            fi(vec![2], 5),
            fi(vec![1, 2], 5),
            fi(vec![3], 2),
        ];
        assert_eq!(closed(&sets).len(), 2);
    }

    #[test]
    fn empty_input_passes_through() {
        assert!(closed(&[]).is_empty());
    }
}
