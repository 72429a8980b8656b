//! Core entity types: typed identifiers, items and recipes.
//!
//! Every recipe is an *unordered* collection of ingredients, cooking
//! processes and utensils, exactly as the paper treats them ("Each recipe
//! was treated as an unordered list of ingredients, processes and
//! utensils"). Identifiers are small newtyped integers into the interned
//! [`crate::catalog::Catalog`].

use serde::{Deserialize, Serialize};

/// Identifier of a recipe within a [`crate::store::RecipeDb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RecipeId(pub u32);

/// Identifier of an interned ingredient name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct IngredientId(pub u32);

/// Identifier of an interned cooking-process name (e.g. "add", "heat").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcessId(pub u32);

/// Identifier of an interned utensil name (e.g. "bowl", "skillet").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct UtensilId(pub u32);

/// The three kinds of entities a recipe is composed of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ItemKind {
    /// A food ingredient ("soy sauce", "butter", ...).
    Ingredient,
    /// A cooking action ("add", "heat", "bake", ...).
    Process,
    /// A cooking vessel or tool ("bowl", "oven", "skillet", ...).
    Utensil,
}

impl ItemKind {
    /// All three kinds in a fixed order.
    pub const ALL: [ItemKind; 3] = [ItemKind::Ingredient, ItemKind::Process, ItemKind::Utensil];

    /// Human-readable singular label.
    pub fn label(self) -> &'static str {
        match self {
            ItemKind::Ingredient => "ingredient",
            ItemKind::Process => "process",
            ItemKind::Utensil => "utensil",
        }
    }
}

impl std::fmt::Display for ItemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A single kinded item reference — the atom the miner works over.
///
/// The paper concatenates ingredients, processes and utensils into one
/// transaction per recipe; `Item` preserves the kind so the same surface
/// string can exist as, say, both an ingredient and a process without
/// colliding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Item {
    /// An ingredient reference.
    Ingredient(IngredientId),
    /// A process reference.
    Process(ProcessId),
    /// A utensil reference.
    Utensil(UtensilId),
}

impl Item {
    /// The kind of this item.
    pub fn kind(self) -> ItemKind {
        match self {
            Item::Ingredient(_) => ItemKind::Ingredient,
            Item::Process(_) => ItemKind::Process,
            Item::Utensil(_) => ItemKind::Utensil,
        }
    }

    /// The raw interned index, independent of kind.
    pub fn raw(self) -> u32 {
        match self {
            Item::Ingredient(IngredientId(i)) => i,
            Item::Process(ProcessId(i)) => i,
            Item::Utensil(UtensilId(i)) => i,
        }
    }
}

/// A recipe: a named, cuisine-tagged unordered set of items.
///
/// Invariants maintained by [`crate::store::RecipeDb`]:
/// * `ingredients`, `processes` and `utensils` are sorted and deduplicated;
/// * `utensils` may be empty (14,601 of the 118,071 paper recipes have no
///   utensil information).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Recipe {
    /// Identifier within the owning store.
    pub id: RecipeId,
    /// Display name (synthetic corpora use a deterministic name).
    pub name: String,
    /// The geo-cultural cuisine this recipe belongs to.
    pub cuisine: crate::cuisine::Cuisine,
    /// Sorted, deduplicated ingredient ids.
    pub ingredients: Vec<IngredientId>,
    /// Sorted, deduplicated process ids.
    pub processes: Vec<ProcessId>,
    /// Sorted, deduplicated utensil ids (possibly empty).
    pub utensils: Vec<UtensilId>,
}

impl Recipe {
    /// Total number of items across all three kinds.
    pub fn item_count(&self) -> usize {
        self.ingredients.len() + self.processes.len() + self.utensils.len()
    }

    /// Whether the recipe has any utensil information.
    pub fn has_utensils(&self) -> bool {
        !self.utensils.is_empty()
    }

    /// Iterate over every item of the recipe as a kinded [`Item`].
    pub fn items(&self) -> impl Iterator<Item = Item> + '_ {
        self.ingredients
            .iter()
            .map(|&i| Item::Ingredient(i))
            .chain(self.processes.iter().map(|&p| Item::Process(p)))
            .chain(self.utensils.iter().map(|&u| Item::Utensil(u)))
    }

    /// Whether the recipe contains the given item.
    pub fn contains(&self, item: Item) -> bool {
        match item {
            Item::Ingredient(i) => self.ingredients.binary_search(&i).is_ok(),
            Item::Process(p) => self.processes.binary_search(&p).is_ok(),
            Item::Utensil(u) => self.utensils.binary_search(&u).is_ok(),
        }
    }

    /// Normalise the item lists: sort and deduplicate each kind.
    pub fn normalize(&mut self) {
        self.ingredients.sort_unstable();
        self.ingredients.dedup();
        self.processes.sort_unstable();
        self.processes.dedup();
        self.utensils.sort_unstable();
        self.utensils.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuisine::Cuisine;

    fn sample_recipe() -> Recipe {
        Recipe {
            id: RecipeId(7),
            name: "test".into(),
            cuisine: Cuisine::Japanese,
            ingredients: vec![IngredientId(2), IngredientId(5)],
            processes: vec![ProcessId(1)],
            utensils: vec![],
        }
    }

    #[test]
    fn item_count_sums_all_kinds() {
        assert_eq!(sample_recipe().item_count(), 3);
    }

    #[test]
    fn has_utensils_false_when_empty() {
        assert!(!sample_recipe().has_utensils());
    }

    #[test]
    fn items_iterates_every_kind_in_order() {
        let r = sample_recipe();
        let items: Vec<Item> = r.items().collect();
        assert_eq!(
            items,
            vec![
                Item::Ingredient(IngredientId(2)),
                Item::Ingredient(IngredientId(5)),
                Item::Process(ProcessId(1)),
            ]
        );
    }

    #[test]
    fn contains_uses_binary_search_on_sorted_lists() {
        let r = sample_recipe();
        assert!(r.contains(Item::Ingredient(IngredientId(5))));
        assert!(!r.contains(Item::Ingredient(IngredientId(3))));
        assert!(r.contains(Item::Process(ProcessId(1))));
        assert!(!r.contains(Item::Utensil(UtensilId(0))));
    }

    #[test]
    fn normalize_sorts_and_dedups() {
        let mut r = sample_recipe();
        r.ingredients = vec![IngredientId(9), IngredientId(1), IngredientId(9)];
        r.normalize();
        assert_eq!(r.ingredients, vec![IngredientId(1), IngredientId(9)]);
    }

    #[test]
    fn item_kind_roundtrip() {
        assert_eq!(
            Item::Ingredient(IngredientId(3)).kind(),
            ItemKind::Ingredient
        );
        assert_eq!(Item::Process(ProcessId(3)).kind(), ItemKind::Process);
        assert_eq!(Item::Utensil(UtensilId(3)).kind(), ItemKind::Utensil);
        assert_eq!(Item::Utensil(UtensilId(3)).raw(), 3);
    }

    #[test]
    fn item_kind_display_labels() {
        assert_eq!(ItemKind::Ingredient.to_string(), "ingredient");
        assert_eq!(ItemKind::Process.to_string(), "process");
        assert_eq!(ItemKind::Utensil.to_string(), "utensil");
    }
}
