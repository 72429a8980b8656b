//! The reference corpus decoder the typed one is checked against: parse
//! the text to a `serde_json::Value`, read the schema off the tree, and
//! validate with [`RecipeDb::from_parts`]. It follows the rules
//! `decode.rs` documents, each in the most direct form a tree allows:
//! an object lookup ignores unknown keys, the parser keeps a duplicate
//! key's last value, a missing field is an error, an id is any integral
//! number in `u32`, and a cuisine is the identifier its own `Serialize`
//! writes.

use recipedb::model::{IngredientId, ProcessId, Recipe, RecipeId, UtensilId};
use recipedb::store::RecipeDb;
use recipedb::{Catalog, Cuisine};
use serde_json::Value;

/// Decode `json` through the value tree, or say why not.
pub fn decode(json: &str) -> Result<RecipeDb, String> {
    let root = serde_json::parse_value(json).map_err(|e| e.to_string())?;
    let catalog = field(&root, "catalog")?;
    let names = |kind: &str| list(field(field(catalog, kind)?, "names")?, string);
    let catalog = Catalog::from_names(
        names("ingredients")?,
        names("processes")?,
        names("utensils")?,
    );
    let recipes = list(field(&root, "recipes")?, recipe)?;
    let by_cuisine = list(field(&root, "by_cuisine")?, |ids| {
        list(ids, |v| id(v).map(RecipeId))
    })?;
    RecipeDb::from_parts(catalog, recipes, by_cuisine).map_err(|e| e.to_string())
}

fn recipe(v: &Value) -> Result<Recipe, String> {
    Ok(Recipe {
        id: RecipeId(id(field(v, "id")?)?),
        name: string(field(v, "name")?)?,
        cuisine: cuisine(field(v, "cuisine")?)?,
        ingredients: list(field(v, "ingredients")?, |v| id(v).map(IngredientId))?,
        processes: list(field(v, "processes")?, |v| id(v).map(ProcessId))?,
        utensils: list(field(v, "utensils")?, |v| id(v).map(UtensilId))?,
    })
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.as_object()
        .ok_or_else(|| format!("expected an object holding `{key}`"))?
        .get(key)
        .ok_or_else(|| format!("missing field `{key}`"))
}

fn list<T>(v: &Value, item: impl Fn(&Value) -> Result<T, String>) -> Result<Vec<T>, String> {
    v.as_array()
        .ok_or("expected an array")?
        .iter()
        .map(item)
        .collect()
}

fn string(v: &Value) -> Result<String, String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| "expected a string".into())
}

fn id(v: &Value) -> Result<u32, String> {
    v.as_u64()
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| format!("expected a u32 id, got {v}"))
}

fn cuisine(v: &Value) -> Result<Cuisine, String> {
    let text = v.to_string();
    Cuisine::ALL
        .into_iter()
        .find(|c| serde_json::to_string(c).unwrap() == text)
        .ok_or_else(|| format!("unknown cuisine {text}"))
}
