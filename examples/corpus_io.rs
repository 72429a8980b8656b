//! Corpus round-trip: generate a synthetic RecipeDB corpus, save it as
//! JSON and reload it, export the flat transaction file, and show that
//! the mining pipeline produces identical pattern counts over the
//! reloaded corpus — i.e. the analysis is a pure function of the data.
//!
//! ```sh
//! cargo run --release --example corpus_io [output-dir]
//! ```

use cuisine_atlas::patterns::mine_all;
use recipedb::generator::{CorpusGenerator, GeneratorConfig};
use recipedb::{io, Cuisine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    std::fs::create_dir_all(&dir)?;

    let mut cfg = GeneratorConfig::paper_scale(0.02).with_seed(123);
    cfg.min_recipes_per_cuisine = 150;
    let db = CorpusGenerator::new(cfg).generate();
    println!("generated {} recipes", db.recipe_count());

    // JSON round trip.
    let json_path = dir.join("cuisine-corpus.json");
    io::save(&db, &json_path)?;
    let reloaded = io::load(&json_path)?;
    println!(
        "saved + reloaded {} ({} bytes)",
        json_path.display(),
        std::fs::metadata(&json_path)?.len()
    );
    assert_eq!(reloaded.recipe_count(), db.recipe_count());

    // Flat transaction export (one line per recipe) for external tools.
    let tx_path = dir.join("cuisine-transactions.tsv");
    io::export_transactions(&db, std::fs::File::create(&tx_path)?)?;
    println!("exported transactions to {}", tx_path.display());

    // Mining is a pure function of the corpus: identical pattern counts.
    let before = mine_all(&db, 0.2);
    let after = mine_all(&reloaded, 0.2);
    for (a, b) in before.iter().zip(&after) {
        assert_eq!(a.pattern_count(), b.pattern_count(), "{}", a.cuisine);
    }
    println!(
        "pattern counts identical after round trip (e.g. {}: {} patterns)",
        Cuisine::Japanese,
        before[Cuisine::Japanese.index()].pattern_count()
    );

    std::fs::remove_file(&json_path).ok();
    std::fs::remove_file(&tx_path).ok();
    Ok(())
}
