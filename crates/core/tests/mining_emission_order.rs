//! FP-Growth's output pinned across commits: for every cuisine of two
//! seeded corpora, a SHA-256 over its mined itemsets *in emission order*
//! (items and counts) must equal the checked-in fixture, at one build
//! thread and at many.
//!
//! Order matters downstream, not just the set: an atlas snapshot stores
//! the patterns in order, and the feature vocabulary (hence the elbow's
//! float sums) follows it. Scale 1.0 gives twelve cuisines of 4,096
//! recipes or more, so a miner whose work depends on cuisine size is
//! pinned at the sizes where that would show.
//!
//! The fixture (`fixtures/mining_emission_order.txt`, one line per
//! cuisine: scale, recipes, itemsets, digest, cuisine) holds integers
//! and hashes only, so it is the same on every target. A change that
//! alters the mined output on purpose re-records it from this test's
//! failure message and says why.
//!
//! Set `ATLAS_TEST_THREADS` to vary the parallel side (default 4); CI
//! runs this under 2 and 8 threads.

use cuisine_atlas::patterns::{mine_cuisines_threads_observed, CuisinePatterns};
use cuisine_atlas::pipeline::NullSink;
use recipedb::digest::Sha256;
use recipedb::generator::{CorpusGenerator, GeneratorConfig};
use recipedb::Cuisine;

const FIXTURE: &str = include_str!("fixtures/mining_emission_order.txt");
const SEED: u64 = 23;
const MIN_SUPPORT: f64 = 0.2;
const SCALES: [&str; 2] = ["0.3", "1.0"];

fn parallel_threads() -> usize {
    std::env::var("ATLAS_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 2)
        .unwrap_or(4)
}

/// One fixture line: the cuisine's size, its itemset count and the
/// digest of its itemsets in emission order.
fn fixture_line(scale: &str, mined: &CuisinePatterns) -> String {
    let mut bytes = Vec::new();
    for f in &mined.itemsets {
        bytes.extend_from_slice(&(f.items.len() as u32).to_le_bytes());
        for &item in f.items.items() {
            bytes.extend_from_slice(&item.to_le_bytes());
        }
        bytes.extend_from_slice(&f.count.to_le_bytes());
    }
    format!(
        "{scale} {} {} {} {}",
        mined.n_recipes,
        mined.itemsets.len(),
        Sha256::hex_digest(&bytes),
        mined.cuisine.name()
    )
}

#[test]
fn every_cuisine_mines_the_recorded_itemsets_in_the_recorded_order() {
    let expected: Vec<&str> = FIXTURE.lines().collect();
    let n = parallel_threads();
    let mut failures = Vec::new();
    for threads in [1, n] {
        let mut actual = Vec::new();
        for scale in SCALES {
            let db = CorpusGenerator::new(
                GeneratorConfig::paper_scale(scale.parse().unwrap()).with_seed(SEED),
            )
            .generate_with_threads(n);
            let mined =
                mine_cuisines_threads_observed(&db, &Cuisine::ALL, MIN_SUPPORT, threads, &NullSink);
            actual.extend(mined.iter().map(|cp| fixture_line(scale, cp)));
        }
        if actual != expected {
            let differing: Vec<String> = expected
                .iter()
                .zip(&actual)
                .filter(|(want, got)| want != got)
                .map(|(want, got)| format!("  expected {want}\n  got      {got}"))
                .collect();
            failures.push(format!(
                "build threads {threads}: {} of {} cuisines differ from the fixture \
                 ({} lines expected, {} mined):\n{}\nfull list:\n{}",
                differing.len(),
                actual.len(),
                expected.len(),
                actual.len(),
                differing.join("\n"),
                actual.join("\n")
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}
