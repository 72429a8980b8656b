//! Corpus (de)serialization: JSON round-trip and a compact CSV-like export
//! of recipe transactions for interoperability with external tooling.

use std::io::{BufWriter, Read, Write};
use std::path::Path;

use crate::error::RecipeDbError;
use crate::store::RecipeDb;

/// Serialize a corpus to compact JSON.
pub fn to_json(db: &RecipeDb) -> Result<String, RecipeDbError> {
    Ok(serde_json::to_string(db)?)
}

/// Decode a corpus from JSON in the schema [`to_json`] writes (any
/// formatting, unknown keys ignored) and validate its invariants, in
/// one linear pass that allocates little beyond the corpus it returns.
pub fn from_json(json: &str) -> Result<RecipeDb, RecipeDbError> {
    crate::decode::corpus(json)
}

/// Write a corpus as JSON to a writer.
pub fn write_json<W: Write>(db: &RecipeDb, mut writer: W) -> Result<(), RecipeDbError> {
    writer.write_all(to_json(db)?.as_bytes())?;
    writer.flush()?;
    Ok(())
}

/// Read a corpus as JSON from a reader (see [`from_json`]).
pub fn read_json<R: Read>(mut reader: R) -> Result<RecipeDb, RecipeDbError> {
    let mut json = String::new();
    reader.read_to_string(&mut json)?;
    from_json(&json)
}

/// Save a corpus to a JSON file.
pub fn save(db: &RecipeDb, path: impl AsRef<Path>) -> Result<(), RecipeDbError> {
    let f = std::fs::File::create(path)?;
    write_json(db, f)
}

/// Load a corpus from a JSON file.
pub fn load(path: impl AsRef<Path>) -> Result<RecipeDb, RecipeDbError> {
    let f = std::fs::File::open(path)?;
    read_json(f)
}

/// Export recipes as a flat transaction file: one line per recipe in the
/// form `cuisine<TAB>item1|item2|...` where each item is its display name.
/// This mirrors the pre-processing step of the paper ("Ingredients,
/// utensils and processes were concatenated").
pub fn export_transactions<W: Write>(db: &RecipeDb, writer: W) -> Result<(), RecipeDbError> {
    let mut w = BufWriter::new(writer);
    for r in db.recipes() {
        let names: Vec<&str> = r
            .items()
            .filter_map(|it| db.catalog().name_of(it))
            .collect();
        writeln!(w, "{}\t{}", r.cuisine.name(), names.join("|"))?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuisine::Cuisine;
    use crate::model::Item;
    use crate::store::RecipeDbBuilder;

    fn tiny_db() -> RecipeDb {
        let mut b = RecipeDbBuilder::new();
        let soy = b.catalog_mut().intern_ingredient("soy sauce");
        let heat = b.catalog_mut().intern_process("heat");
        let wok = b.catalog_mut().intern_utensil("wok");
        b.add_recipe("r0", Cuisine::Japanese, vec![soy], vec![heat], vec![wok]);
        b.add_recipe("r1", Cuisine::Thai, vec![soy], vec![], vec![]);
        b.build().unwrap()
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let db = tiny_db();
        let json = to_json(&db).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(back.recipe_count(), db.recipe_count());
        assert_eq!(back.catalog().ingredient_count(), 1);
        // Reverse index must be rebuilt: name lookup works after load.
        let soy = back.catalog().ingredient("soy sauce").unwrap();
        assert!(back
            .recipe(crate::model::RecipeId(0))
            .unwrap()
            .contains(Item::Ingredient(soy)));
        assert_eq!(back.recipes_in(Cuisine::Thai), 1);
    }

    #[test]
    fn transaction_export_format() {
        let db = tiny_db();
        let mut buf = Vec::new();
        export_transactions(&db, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("Japanese\t"));
        assert!(lines[0].contains("soy sauce"));
    }

    #[test]
    fn malformed_json_is_an_error_not_a_panic() {
        assert!(from_json("{not json").is_err());
        assert!(from_json("{}").is_err(), "missing fields rejected");
        assert!(from_json("[1,2,3]").is_err());
    }

    #[test]
    fn json_with_inconsistent_ids_fails_validation() {
        let db = tiny_db();
        let mut v: serde_json::Value = serde_json::from_str(&to_json(&db).unwrap()).unwrap();
        // Corrupt the first recipe's id.
        v["recipes"][0]["id"] = serde_json::json!(99);
        let err = from_json(&v.to_string());
        assert!(err.is_err(), "id/position mismatch must be caught");
    }

    #[test]
    fn json_with_corrupt_cuisine_index_fails_validation() {
        let db = tiny_db();
        let mut v: serde_json::Value = serde_json::from_str(&to_json(&db).unwrap()).unwrap();
        // Empty every index list: the recipes exist but are indexed
        // nowhere, which per-cuisine queries would silently miss.
        v["by_cuisine"] = serde_json::Value::Array(vec![serde_json::Value::Array(Vec::new()); 26]);
        let err = from_json(&v.to_string());
        assert!(err.is_err(), "inconsistent cuisine index must be caught");
    }

    #[test]
    fn file_roundtrip() {
        let db = tiny_db();
        let dir = std::env::temp_dir().join("recipedb-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.json");
        save(&db, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.recipe_count(), 2);
        std::fs::remove_file(&path).ok();
    }
}
