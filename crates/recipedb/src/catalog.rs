//! String interning for ingredients, processes and utensils, plus a unified
//! token space used by the pattern miner.
//!
//! The paper's corpus has 20,280 unique ingredients, 268 unique processes
//! and 69 unique utensils; keeping them interned lets a recipe be a handful
//! of `u32`s and lets the miner work over dense integer ids. The
//! [`Catalog`] additionally exposes a *unified token space*: a bijection
//! between kinded [`Item`]s and dense [`TokenId`]s (`0..total_items`) so a
//! transaction database can mix all three kinds without collisions.

use std::collections::HashMap;

use crate::model::{IngredientId, Item, ItemKind, ProcessId, UtensilId};

/// A dense id in the unified (ingredient ∪ process ∪ utensil) token space.
///
/// Layout: `[0, n_ing)` are ingredients, `[n_ing, n_ing + n_proc)` are
/// processes, and the remainder are utensils. The layout is an internal
/// detail — use [`Catalog::token_of`] / [`Catalog::item_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TokenId(pub u32);

/// An append-only string interner with stable indices.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

// The reverse index is rebuilt from the names, so only they are written.
serde_json::impl_serialize!(Interner { names });

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its stable index.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("interner overflow");
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Look up an already-interned name.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// Resolve an index back to its name.
    pub fn resolve(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate over `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as u32, n.as_str()))
    }

    /// An interner over `names` in id order, with its reverse index (a
    /// name listed twice resolves to its last id).
    fn from_names(names: Vec<String>) -> Self {
        let index = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();
        Interner { names, index }
    }
}

/// The three interners of a corpus plus the unified token space.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    ingredients: Interner,
    processes: Interner,
    utensils: Interner,
}

serde_json::impl_serialize!(Catalog {
    ingredients,
    processes,
    utensils
});

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern an ingredient name.
    pub fn intern_ingredient(&mut self, name: &str) -> IngredientId {
        IngredientId(self.ingredients.intern(name))
    }

    /// Intern a process name.
    pub fn intern_process(&mut self, name: &str) -> ProcessId {
        ProcessId(self.processes.intern(name))
    }

    /// Intern a utensil name.
    pub fn intern_utensil(&mut self, name: &str) -> UtensilId {
        UtensilId(self.utensils.intern(name))
    }

    /// Look up an ingredient by name.
    pub fn ingredient(&self, name: &str) -> Option<IngredientId> {
        self.ingredients.get(name).map(IngredientId)
    }

    /// Look up a process by name.
    pub fn process(&self, name: &str) -> Option<ProcessId> {
        self.processes.get(name).map(ProcessId)
    }

    /// Look up a utensil by name.
    pub fn utensil(&self, name: &str) -> Option<UtensilId> {
        self.utensils.get(name).map(UtensilId)
    }

    /// Look up an item of any kind by name, trying ingredient, process,
    /// then utensil.
    pub fn item(&self, name: &str) -> Option<Item> {
        self.ingredient(name)
            .map(Item::Ingredient)
            .or_else(|| self.process(name).map(Item::Process))
            .or_else(|| self.utensil(name).map(Item::Utensil))
    }

    /// Resolve an item to its display name.
    pub fn name_of(&self, item: Item) -> Option<&str> {
        match item {
            Item::Ingredient(IngredientId(i)) => self.ingredients.resolve(i),
            Item::Process(ProcessId(i)) => self.processes.resolve(i),
            Item::Utensil(UtensilId(i)) => self.utensils.resolve(i),
        }
    }

    /// Number of unique ingredients.
    pub fn ingredient_count(&self) -> usize {
        self.ingredients.len()
    }

    /// Number of unique processes.
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// Number of unique utensils.
    pub fn utensil_count(&self) -> usize {
        self.utensils.len()
    }

    /// Total size of the unified token space.
    pub fn token_count(&self) -> usize {
        self.ingredient_count() + self.process_count() + self.utensil_count()
    }

    /// Map a kinded item into the unified dense token space.
    pub fn token_of(&self, item: Item) -> TokenId {
        let n_ing = self.ingredients.len() as u32;
        let n_proc = self.processes.len() as u32;
        match item {
            Item::Ingredient(IngredientId(i)) => {
                debug_assert!(i < n_ing, "ingredient id out of range");
                TokenId(i)
            }
            Item::Process(ProcessId(i)) => {
                debug_assert!(i < n_proc, "process id out of range");
                TokenId(n_ing + i)
            }
            Item::Utensil(UtensilId(i)) => {
                debug_assert!(
                    (i as usize) < self.utensils.len(),
                    "utensil id out of range"
                );
                TokenId(n_ing + n_proc + i)
            }
        }
    }

    /// Map a unified token back to its kinded item.
    pub fn item_of(&self, token: TokenId) -> Option<Item> {
        let n_ing = self.ingredients.len() as u32;
        let n_proc = self.processes.len() as u32;
        let n_ute = self.utensils.len() as u32;
        let t = token.0;
        if t < n_ing {
            Some(Item::Ingredient(IngredientId(t)))
        } else if t < n_ing + n_proc {
            Some(Item::Process(ProcessId(t - n_ing)))
        } else if t < n_ing + n_proc + n_ute {
            Some(Item::Utensil(UtensilId(t - n_ing - n_proc)))
        } else {
            None
        }
    }

    /// Resolve a unified token directly to its display name.
    pub fn token_name(&self, token: TokenId) -> Option<&str> {
        self.item_of(token).and_then(|it| self.name_of(it))
    }

    /// Iterate over all ingredient `(id, name)` pairs.
    pub fn ingredients(&self) -> impl Iterator<Item = (IngredientId, &str)> {
        self.ingredients.iter().map(|(i, n)| (IngredientId(i), n))
    }

    /// Iterate over all process `(id, name)` pairs.
    pub fn processes(&self) -> impl Iterator<Item = (ProcessId, &str)> {
        self.processes.iter().map(|(i, n)| (ProcessId(i), n))
    }

    /// Iterate over all utensil `(id, name)` pairs.
    pub fn utensils(&self) -> impl Iterator<Item = (UtensilId, &str)> {
        self.utensils.iter().map(|(i, n)| (UtensilId(i), n))
    }

    /// The kind of entity a unified token refers to.
    pub fn kind_of(&self, token: TokenId) -> Option<ItemKind> {
        self.item_of(token).map(Item::kind)
    }

    /// A catalog over three name lists in id order, as a decoded corpus
    /// holds them (a name listed twice resolves to its last id).
    pub fn from_names(
        ingredients: Vec<String>,
        processes: Vec<String>,
        utensils: Vec<String>,
    ) -> Self {
        Catalog {
            ingredients: Interner::from_names(ingredients),
            processes: Interner::from_names(processes),
            utensils: Interner::from_names(utensils),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_returns_stable_ids() {
        let mut i = Interner::new();
        let a = i.intern("salt");
        let b = i.intern("pepper");
        let a2 = i.intern("salt");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), Some("salt"));
        assert_eq!(i.len(), 2);
        assert!(!i.is_empty());
    }

    #[test]
    fn interner_get_without_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("salt"), None);
        i.intern("salt");
        assert_eq!(i.get("salt"), Some(0));
    }

    #[test]
    fn catalog_token_space_is_a_bijection() {
        let mut c = Catalog::new();
        let butter = c.intern_ingredient("butter");
        let salt = c.intern_ingredient("salt");
        let add = c.intern_process("add");
        let bowl = c.intern_utensil("bowl");

        let items = [
            Item::Ingredient(butter),
            Item::Ingredient(salt),
            Item::Process(add),
            Item::Utensil(bowl),
        ];
        for item in items {
            let tok = c.token_of(item);
            assert_eq!(c.item_of(tok), Some(item), "roundtrip failed for {item:?}");
        }
        // Dense and distinct.
        let toks: Vec<u32> = items.iter().map(|&i| c.token_of(i).0).collect();
        let mut sorted = toks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
        assert_eq!(c.token_count(), 4);
        assert_eq!(c.item_of(TokenId(4)), None);
    }

    #[test]
    fn catalog_lookup_by_name_prefers_ingredient() {
        let mut c = Catalog::new();
        let ing = c.intern_ingredient("blend");
        let _proc = c.intern_process("blend");
        assert_eq!(c.item("blend"), Some(Item::Ingredient(ing)));
        assert_eq!(c.item("missing"), None);
    }

    #[test]
    fn token_name_resolves_through_kinds() {
        let mut c = Catalog::new();
        c.intern_ingredient("soy sauce");
        let heat = c.intern_process("heat");
        let tok = c.token_of(Item::Process(heat));
        assert_eq!(c.token_name(tok), Some("heat"));
        assert_eq!(c.kind_of(tok), Some(ItemKind::Process));
    }

    #[test]
    fn interner_iter_in_id_order() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("b");
        let pairs: Vec<(u32, &str)> = i.iter().collect();
        assert_eq!(pairs, vec![(0, "a"), (1, "b")]);
    }
}
