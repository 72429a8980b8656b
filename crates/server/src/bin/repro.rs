//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--scale S] [--seed N] [--linkage METHOD] [--build-threads N]
//!       [--json] [--export-corpus PATH] [EXPERIMENT...]
//!
//! EXPERIMENT: table1 figure1 figure2 figure3 figure4 figure5 figure6
//!             validate stats all                   (default: all)
//! --scale S   corpus scale vs the paper's 118k recipes (default 1.0;
//!             must be finite and positive)
//! --seed N    generator seed (default 42)
//! --linkage M single|complete|average|weighted|ward|centroid|median
//!             (default average)
//! --build-threads N  worker threads for the atlas build; 0 = all
//!             available cores (default). Results are identical for
//!             every thread count — only wall-clock changes.
//! --json      emit each experiment's artifact as the server renders
//!             it (`atlas_server::api::Artifact`) instead of the text
//!             reports, followed by a metrics snapshot of the build's
//!             pipeline spans; `stats` has no JSON form
//! --export-corpus PATH  skip the experiments; generate the corpus for
//!             the configured scale/seed and write its RecipeDB JSON
//!             snapshot to PATH — the format `POST /corpus` accepts
//!             (see README "Bring your own corpus")
//! ```
//!
//! Arguments are checked before anything is built: a bad value or an
//! unknown experiment exits non-zero with a usage error.

use std::process::ExitCode;

use atlas_server::api::Artifact;
use atlas_server::metrics::MetricsRegistry;
use clustering::hac::LinkageMethod;
use clustering::Metric;
use cuisine_atlas::experiments;
use cuisine_atlas::pipeline::{AtlasConfig, CuisineAtlas};
use recipedb::generator::GeneratorConfig;
use serde_json::json;

struct Options {
    scale: f64,
    seed: u64,
    linkage: LinkageMethod,
    build_threads: usize,
    json: bool,
    export_corpus: Option<String>,
    experiments: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        scale: 1.0,
        seed: 42,
        linkage: LinkageMethod::Average,
        build_threads: 0,
        json: false,
        export_corpus: None,
        experiments: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                opts.scale = v.parse().map_err(|e| format!("bad --scale {v}: {e}"))?;
                if !(opts.scale.is_finite() && opts.scale > 0.0) {
                    return Err(format!("--scale must be finite and positive, got {v}"));
                }
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|e| format!("bad --seed {v}: {e}"))?;
            }
            "--linkage" => {
                let v = args.next().ok_or("--linkage needs a value")?;
                opts.linkage =
                    LinkageMethod::from_name(&v).ok_or_else(|| format!("unknown linkage {v}"))?;
            }
            "--build-threads" => {
                let v = args.next().ok_or("--build-threads needs a value")?;
                opts.build_threads = v
                    .parse()
                    .map_err(|e| format!("bad --build-threads {v}: {e}"))?;
            }
            "--json" => opts.json = true,
            "--export-corpus" => {
                opts.export_corpus = Some(args.next().ok_or("--export-corpus needs a PATH")?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: repro [--scale S] [--seed N] [--linkage M] [--build-threads N] \
                     [--json] [--export-corpus PATH] [EXPERIMENT...]"
                        .into(),
                )
            }
            exp if text_report(exp).is_some() => opts.experiments.push(exp.to_string()),
            other => return Err(format!("unknown experiment: {other}")),
        }
    }
    if opts.experiments.is_empty() {
        opts.experiments.push("all".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let mut corpus = GeneratorConfig::paper_scale(opts.scale).with_seed(opts.seed);
    // Keep tiny-scale runs statistically meaningful.
    corpus.min_recipes_per_cuisine = corpus.min_recipes_per_cuisine.max(300);
    let config = AtlasConfig {
        corpus,
        ..AtlasConfig::paper()
    }
    .with_linkage(opts.linkage)
    .with_build_threads(opts.build_threads);

    if let Some(path) = &opts.export_corpus {
        // Generate only — no mining or clustering — and write the
        // snapshot `POST /corpus` accepts.
        let db = recipedb::generator::CorpusGenerator::new(config.corpus.clone()).generate();
        eprintln!(
            "exporting corpus: {} recipes, digest {} ...",
            db.recipe_count(),
            recipedb::corpus_digest(&db)
        );
        return match recipedb::io::save(&db, path) {
            Ok(()) => {
                eprintln!("wrote {path}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    eprintln!(
        "building atlas: scale {} (~{} recipes), seed {}, linkage {}, {} build thread(s) ...",
        opts.scale,
        config.corpus.total_recipes(),
        opts.seed,
        opts.linkage,
        config.effective_build_threads(),
    );

    if opts.json {
        // Build through a metrics registry so the snapshot printed after
        // the views carries the same pipeline spans `atlas-server`
        // exports on /metrics.
        let registry = MetricsRegistry::new(&[]);
        let atlas = CuisineAtlas::build_with_sink(&config, &registry);
        return run_json(&atlas, &opts, &registry);
    }
    let atlas = CuisineAtlas::build(&config);

    for exp in &opts.experiments {
        let report = text_report(exp).expect("experiments are checked by parse_args");
        println!("{}", report(&atlas));
    }
    ExitCode::SUCCESS
}

/// The text report an experiment name selects, or `None` for an unknown
/// name.
fn text_report(name: &str) -> Option<fn(&CuisineAtlas) -> String> {
    let report: fn(&CuisineAtlas) -> String = match name {
        "table1" | "t1" => experiments::table1,
        "figure1" | "f1" => experiments::figure1_elbow,
        "figure2" | "f2" => experiments::figure2_euclidean,
        "figure3" | "f3" => experiments::figure3_cosine,
        "figure4" | "f4" => experiments::figure4_jaccard,
        "figure5" | "f5" => experiments::figure5_authenticity,
        "figure6" | "f6" => experiments::figure6_geography,
        "validate" | "q1" => experiments::validate,
        "stats" => |atlas| atlas.db().stats().report(),
        "all" => experiments::run_all,
        _ => return None,
    };
    Some(report)
}

/// The build's pipeline spans as one JSON document: count, total wall
/// time and p50/p99 per span, matching `atlas_build_span_seconds` on the
/// server's /metrics (milliseconds here, for consistency with
/// `BuildTimings`).
fn metrics_snapshot(registry: &MetricsRegistry) -> serde_json::Value {
    let mut spans = serde_json::Map::new();
    for (name, snap) in registry.span_snapshots() {
        spans.insert(
            name,
            json!({
                "count": (snap.count()),
                "total_ms": (snap.sum_seconds() * 1e3),
                "p50_ms": (snap.quantile(0.5).map(|s| s * 1e3)),
                "p99_ms": (snap.quantile(0.99).map(|s| s * 1e3)),
            }),
        );
    }
    let body = json!({ "spans": (serde_json::Value::Object(spans)) });
    json!({ "metrics": body })
}

/// The artifact an experiment prints in JSON mode, or `None` for one
/// with no JSON form.
fn json_artifact(name: &str) -> Option<Artifact> {
    Some(match name {
        "table1" | "t1" => Artifact::Table1,
        "figure1" | "f1" => Artifact::Elbow { k_max: 16 },
        "figure2" | "f2" => Artifact::PatternTree(Metric::Euclidean),
        "figure3" | "f3" => Artifact::PatternTree(Metric::Cosine),
        "figure4" | "f4" => Artifact::PatternTree(Metric::Jaccard),
        "figure5" | "f5" => Artifact::AuthenticityTree,
        "figure6" | "f6" => Artifact::GeoTree,
        "validate" | "q1" => Artifact::Compare,
        _ => return None,
    })
}

/// The members of the `all` JSON document, in its key order.
const ALL_JSON: [&str; 7] = [
    "table1", "figure2", "figure3", "figure4", "figure5", "figure6", "figure1",
];

/// JSON mode: each experiment becomes one document holding the body the
/// `atlas-server` route for its artifact serves (`all`: one object of
/// them), and a final metrics snapshot records the build's pipeline
/// spans.
fn run_json(atlas: &CuisineAtlas, opts: &Options, registry: &MetricsRegistry) -> ExitCode {
    let view = |name: &str| -> Result<serde_json::Value, String> {
        let artifact = json_artifact(name)
            .ok_or_else(|| format!("experiment {name} has no JSON view (text mode only)"))?;
        let body = artifact
            .render(atlas, opts.seed)
            .map_err(|e| format!("rendering {name}: {}", e.message))?;
        serde_json::from_str(&body).map_err(|e| format!("serializing {name}: {e}"))
    };
    for exp in &opts.experiments {
        let value = match exp.as_str() {
            "all" => ALL_JSON
                .iter()
                .map(|name| Ok((name.to_string(), view(name)?)))
                .collect::<Result<serde_json::Map, String>>()
                .map(serde_json::Value::Object),
            name => view(name),
        };
        match value {
            Ok(v) => println!("{}", v.to_json_pretty()),
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", metrics_snapshot(registry).to_json_pretty());
    ExitCode::SUCCESS
}
