//! Parallel build speedup gate: a cold atlas build on every available
//! core must beat the same build on one thread. A wall-clock check, so
//! it is ignored by default; run it in release on an idle multi-core
//! host with `cargo test --release -p cuisine-atlas --test build_speedup
//! -- --ignored`.

use cuisine_atlas::pipeline::{AtlasConfig, CuisineAtlas};
use recipedb::generator::GeneratorConfig;

#[test]
#[ignore = "wall-clock gate; run in release with --ignored on a multi-core host"]
fn parallel_build_beats_sequential() {
    let host_threads = par::available();
    if host_threads <= 1 {
        eprintln!("build_speedup: skipped, single-core host has nothing to compare");
        return;
    }
    // The configuration `repro --scale 0.2` builds: seed 42, a floor of
    // 300 recipes per cuisine, the paper's mining and linkage settings.
    let mut corpus = GeneratorConfig::paper_scale(0.2).with_seed(42);
    corpus.min_recipes_per_cuisine = corpus.min_recipes_per_cuisine.max(300);
    let config = AtlasConfig {
        corpus,
        ..AtlasConfig::paper()
    };
    let total_ms = |threads: usize| {
        CuisineAtlas::build(&config.clone().with_build_threads(threads))
            .timings()
            .total_ms()
    };
    let sequential = total_ms(1);
    let parallel = total_ms(host_threads);
    eprintln!(
        "build_speedup: {:.2}x at {host_threads} threads ({sequential:.0} ms -> {parallel:.0} ms)",
        sequential / parallel
    );
    assert!(
        parallel < sequential,
        "{host_threads}-thread build ({parallel:.0} ms) is not faster than sequential ({sequential:.0} ms)"
    );
}
