//! One entry point per table/figure of the paper — the functions behind
//! the `repro` binary and the experiment index in DESIGN.md.
//!
//! | Id | Paper artifact | Function |
//! |----|----------------|----------|
//! | T1 | Table I        | [`table1`] |
//! | F1 | Figure 1 (elbow) | [`figure1_elbow`] |
//! | F2 | Figure 2 (HAC, Euclidean) | [`figure2_euclidean`] |
//! | F3 | Figure 3 (HAC, Cosine)    | [`figure3_cosine`] |
//! | F4 | Figure 4 (HAC, Jaccard)   | [`figure4_jaccard`] |
//! | F5 | Figure 5 (authenticity)   | [`figure5_authenticity`] |
//! | F6 | Figure 6 (geography)      | [`figure6_geography`] |
//! | Q1 | Validation & historical claims | [`validate`] |

use clustering::kmeans::elbow_strength;
use clustering::Metric;

use crate::compare::{geo_agreement, historical_claims};
use crate::pipeline::CuisineAtlas;
use crate::report::{render_elbow, render_table1, render_tree};

/// T1 — regenerate Table I.
pub fn table1(atlas: &CuisineAtlas) -> String {
    render_table1(&atlas.table1())
}

/// F1 — regenerate the elbow analysis of Figure 1. Returns the rendered
/// curve plus the quantified elbow strength (the paper's point: no sharp
/// elbow exists on this data).
pub fn figure1_elbow(atlas: &CuisineAtlas) -> String {
    let curve = atlas.elbow_curve(16, 1);
    let mut out = render_elbow(&curve);
    if let Some((k, strength)) = elbow_strength(&curve) {
        out.push_str(&format!(
            "\nStrongest knee: k={k} with normalized strength {strength:.4} \
             (paper: 'no sharp edge or elbow like structure is obtained')\n"
        ));
    }
    out
}

/// F2 — the Euclidean pattern dendrogram.
pub fn figure2_euclidean(atlas: &CuisineAtlas) -> String {
    render_tree(&atlas.pattern_tree(Metric::Euclidean))
}

/// F3 — the Cosine pattern dendrogram.
pub fn figure3_cosine(atlas: &CuisineAtlas) -> String {
    render_tree(&atlas.pattern_tree(Metric::Cosine))
}

/// F4 — the Jaccard pattern dendrogram.
pub fn figure4_jaccard(atlas: &CuisineAtlas) -> String {
    render_tree(&atlas.pattern_tree(Metric::Jaccard))
}

/// F5 — the authenticity-based dendrogram.
pub fn figure5_authenticity(atlas: &CuisineAtlas) -> String {
    render_tree(&atlas.authenticity_tree())
}

/// F6 — the geographic validation dendrogram.
pub fn figure6_geography(atlas: &CuisineAtlas) -> String {
    render_tree(&atlas.geographic_tree())
}

/// Q1 — the quantified validation of Section VII: every tree scored
/// against geography, plus the Canada–France and India–North-Africa
/// claims per tree.
pub fn validate(atlas: &CuisineAtlas) -> String {
    let geo = atlas.geographic_tree();
    let trees = vec![
        atlas.pattern_tree(Metric::Euclidean),
        atlas.pattern_tree(Metric::Cosine),
        atlas.pattern_tree(Metric::Jaccard),
        atlas.authenticity_tree(),
    ];
    let mut out = String::new();
    out.push_str("Validation against geography (Section VII)\n");
    out.push_str(&format!(
        "{:<36} {:>14} {:>14} {:>10} {:>10}\n",
        "tree", "corr(coph,geo)", "Baker's gamma", "CA~FR<US", "IN~NA<TH/SEA"
    ));
    for tree in &trees {
        let score = geo_agreement(tree, &geo);
        let claims = historical_claims(tree);
        out.push_str(&format!(
            "{:<36} {:>14.4} {:>14.4} {:>10} {:>12}\n",
            score.tree,
            score.cophenetic_vs_geo,
            score.bakers_gamma,
            claims.canada_closer_to_france_than_us,
            claims.india_closer_to_north_africa_than_neighbors
        ));
    }
    out.push_str(
        "\nPaper: Euclidean is the pattern metric closest to geography; the\n\
         authenticity tree is 'similar yet better'. Both historical claims\n\
         (Canada–France over Canada–US; India–NorthernAfrica over India's\n\
         Asian neighbours) must hold in every cuisine tree while geography\n\
         itself violates them.\n",
    );
    out
}

/// Run every experiment and concatenate the reports (the `repro -- all`
/// output).
pub fn run_all(atlas: &CuisineAtlas) -> String {
    let sections = [
        ("T1  Table I", table1(atlas)),
        ("F1  Figure 1 — elbow method", figure1_elbow(atlas)),
        ("F2  Figure 2 — HAC euclidean", figure2_euclidean(atlas)),
        ("F3  Figure 3 — HAC cosine", figure3_cosine(atlas)),
        ("F4  Figure 4 — HAC jaccard", figure4_jaccard(atlas)),
        (
            "F5  Figure 5 — HAC authenticity",
            figure5_authenticity(atlas),
        ),
        ("F6  Figure 6 — HAC geography", figure6_geography(atlas)),
        ("Q1  Validation", validate(atlas)),
    ];
    let mut out = String::new();
    for (title, body) in sections {
        out.push_str(&format!(
            "\n{}\n{}\n{}\n",
            "=".repeat(96),
            title,
            "=".repeat(96)
        ));
        out.push_str(&body);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_renders_nonempty() {
        let atlas = crate::testutil::shared_atlas();
        for (name, text) in [
            ("table1", table1(atlas)),
            ("figure1", figure1_elbow(atlas)),
            ("figure2", figure2_euclidean(atlas)),
            ("figure3", figure3_cosine(atlas)),
            ("figure4", figure4_jaccard(atlas)),
            ("figure5", figure5_authenticity(atlas)),
            ("figure6", figure6_geography(atlas)),
            ("validate", validate(atlas)),
        ] {
            assert!(text.len() > 100, "{name} output too small");
        }
    }

    #[test]
    fn run_all_contains_every_section() {
        let atlas = crate::testutil::shared_atlas();
        let all = run_all(atlas);
        for tag in ["T1", "F1", "F2", "F3", "F4", "F5", "F6", "Q1"] {
            assert!(all.contains(tag), "missing section {tag}");
        }
    }
}
