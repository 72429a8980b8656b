//! Itemset types shared by every miner.

/// Dense item identifier. The `recipedb` catalog maps token names to these.
pub type ItemId = u32;

/// A sorted, duplicate-free set of items.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Itemset(Vec<ItemId>);

impl Itemset {
    /// Build from arbitrary items (sorted and deduplicated).
    pub fn new(mut items: Vec<ItemId>) -> Self {
        items.sort_unstable();
        items.dedup();
        Itemset(items)
    }

    /// Build from items already sorted and distinct.
    ///
    /// # Panics
    /// In debug builds, if `items` is not strictly increasing.
    pub fn from_sorted(items: Vec<ItemId>) -> Self {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "items must be strictly increasing"
        );
        Itemset(items)
    }

    /// A single-item set.
    pub fn singleton(item: ItemId) -> Self {
        Itemset(vec![item])
    }

    /// The items, sorted ascending.
    pub fn items(&self) -> &[ItemId] {
        &self.0
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether `item` is a member.
    pub fn contains(&self, item: ItemId) -> bool {
        self.0.binary_search(&item).is_ok()
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset_of(&self, other: &Itemset) -> bool {
        if self.0.len() > other.0.len() {
            return false;
        }
        let mut oi = other.0.iter();
        'outer: for &x in &self.0 {
            for &y in oi.by_ref() {
                match y.cmp(&x) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Whether `self ⊆ transaction` for a sorted transaction slice.
    pub fn is_contained_in(&self, transaction: &[ItemId]) -> bool {
        let mut ti = transaction.iter();
        'outer: for &x in &self.0 {
            for &y in ti.by_ref() {
                match y.cmp(&x) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// The union `self ∪ other`.
    pub fn union(&self, other: &Itemset) -> Itemset {
        let mut out = Vec::with_capacity(self.0.len() + other.0.len());
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.0[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.0[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.0[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.0[i..]);
        out.extend_from_slice(&other.0[j..]);
        Itemset(out)
    }

    /// The set extended with one more item.
    pub fn with(&self, item: ItemId) -> Itemset {
        let mut items = self.0.clone();
        match items.binary_search(&item) {
            Ok(_) => {}
            Err(pos) => items.insert(pos, item),
        }
        Itemset(items)
    }

    /// All `len-1`-sized subsets (used by Apriori pruning).
    pub fn proper_subsets_one_smaller(&self) -> impl Iterator<Item = Itemset> + '_ {
        (0..self.0.len()).map(move |skip| {
            Itemset(
                self.0
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != skip)
                    .map(|(_, &x)| x)
                    .collect(),
            )
        })
    }
}

impl std::fmt::Display for Itemset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, item) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, "}}")
    }
}

/// A frequent itemset with its exact support count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentItemset {
    /// The items.
    pub items: Itemset,
    /// Number of transactions containing the set.
    pub count: u64,
}

impl FrequentItemset {
    /// Relative support given the database size.
    pub fn support(&self, n_transactions: usize) -> f64 {
        if n_transactions == 0 {
            return 0.0;
        }
        self.count as f64 / n_transactions as f64
    }
}

/// Sort itemsets canonically: by length, then lexicographically by items.
/// Two complete miners' outputs compare equal after this sort.
pub fn sort_canonical(itemsets: &mut [FrequentItemset]) {
    itemsets.sort_by(|a, b| {
        a.items
            .len()
            .cmp(&b.items.len())
            .then_with(|| a.items.items().cmp(b.items.items()))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_and_dedups() {
        let s = Itemset::new(vec![3, 1, 3, 2]);
        assert_eq!(s.items(), &[1, 2, 3]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn subset_relation() {
        let a = Itemset::new(vec![1, 3]);
        let b = Itemset::new(vec![1, 2, 3]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_subset_of(&a));
        assert!(Itemset::new(vec![]).is_subset_of(&a));
        assert!(!Itemset::new(vec![4]).is_subset_of(&b));
    }

    #[test]
    fn containment_in_transaction() {
        let s = Itemset::new(vec![2, 5]);
        assert!(s.is_contained_in(&[1, 2, 3, 5, 9]));
        assert!(!s.is_contained_in(&[1, 2, 3]));
        assert!(!s.is_contained_in(&[]));
    }

    #[test]
    fn union_merges_sorted() {
        let a = Itemset::new(vec![1, 4]);
        let b = Itemset::new(vec![2, 4, 6]);
        assert_eq!(a.union(&b).items(), &[1, 2, 4, 6]);
    }

    #[test]
    fn with_inserts_in_place() {
        let a = Itemset::new(vec![1, 5]);
        assert_eq!(a.with(3).items(), &[1, 3, 5]);
        assert_eq!(a.with(5).items(), &[1, 5]);
        assert_eq!(a.with(9).items(), &[1, 5, 9]);
    }

    #[test]
    fn one_smaller_subsets() {
        let a = Itemset::new(vec![1, 2, 3]);
        let subs: Vec<Itemset> = a.proper_subsets_one_smaller().collect();
        assert_eq!(subs.len(), 3);
        assert!(subs.contains(&Itemset::new(vec![2, 3])));
        assert!(subs.contains(&Itemset::new(vec![1, 3])));
        assert!(subs.contains(&Itemset::new(vec![1, 2])));
    }

    #[test]
    fn canonical_sort_orders_by_length_then_lex() {
        let mut sets = vec![
            FrequentItemset {
                items: Itemset::new(vec![2]),
                count: 1,
            },
            FrequentItemset {
                items: Itemset::new(vec![1, 2]),
                count: 1,
            },
            FrequentItemset {
                items: Itemset::new(vec![1]),
                count: 1,
            },
        ];
        sort_canonical(&mut sets);
        assert_eq!(sets[0].items.items(), &[1]);
        assert_eq!(sets[1].items.items(), &[2]);
        assert_eq!(sets[2].items.items(), &[1, 2]);
    }

    #[test]
    fn support_fraction() {
        let f = FrequentItemset {
            items: Itemset::singleton(1),
            count: 3,
        };
        assert!((f.support(12) - 0.25).abs() < 1e-12);
        assert_eq!(f.support(0), 0.0);
    }

    #[test]
    fn display_format() {
        assert_eq!(Itemset::new(vec![2, 1]).to_string(), "{1, 2}");
        assert_eq!(Itemset::new(vec![]).to_string(), "{}");
    }
}
