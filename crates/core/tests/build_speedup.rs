//! Parallel build speedup gate: a cold atlas build on every available
//! core must beat the same build on one thread. Each side is timed over
//! three builds, interleaved one thread, all threads, one, all, one,
//! all, so a burst of host noise lands on both sides, and the medians
//! are compared. A wall-clock check, so it is ignored by default; run it
//! in release on an idle multi-core host with `cargo test --release -p
//! cuisine-atlas --test build_speedup -- --ignored`.

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
    let (mut sequential, mut parallel) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        sequential.push(total_ms(1));
        parallel.push(total_ms(host_threads));
    }
    let median = |runs: &mut Vec<f64>| {
        runs.sort_by(f64::total_cmp);
        runs[runs.len() / 2]
    };
    eprintln!(
        "build_speedup: 1 thread {sequential:.0?} ms, {host_threads} threads {parallel:.0?} ms"
    );
    let (sequential, parallel) = (median(&mut sequential), median(&mut parallel));
    eprintln!(
        "build_speedup: {:.2}x at {host_threads} threads (medians {sequential:.0} ms -> {parallel:.0} ms)",
        sequential / parallel
    );
    assert!(
        parallel < sequential,
        "{host_threads}-thread build ({parallel:.0} ms) is not faster than sequential ({sequential:.0} ms)"
    );
}
