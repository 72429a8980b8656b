//! Serializable JSON views of the paper artifacts.
//!
//! Every consumer that emits machine-readable output — the `atlas-server`
//! endpoints and `repro --json` alike — goes through these types instead
//! of hand-formatting, so the wire format is defined once. Views are
//! plain data (`String` cuisine names, flat merge lists) rather than the
//! internal id-heavy structures. Each writes its JSON text directly
//! through `serde_json::Serialize`, its fields in declaration order;
//! nothing reads a view back.

use clustering::dendrogram::Node;
use recipedb::Cuisine;
use serde_json::impl_serialize;

use crate::authenticity::AuthenticityMatrix;
use crate::compare::{GeoAgreement, HistoricalClaims};
use crate::pipeline::{CuisineTree, Table1, Table1Row};

/// One agglomerative merge, scipy `Z`-matrix semantics: `a` and `b` are
/// node ids where ids `0..n_leaves` are leaves and `n_leaves + t` is the
/// cluster created by merge `t`.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeView {
    /// First merged node id.
    pub a: usize,
    /// Second merged node id.
    pub b: usize,
    /// Merge height (cophenetic distance of the joined clusters).
    pub height: f64,
    /// Leaves under the new cluster.
    pub size: usize,
}

impl_serialize!(MergeView { a, b, height, size });

/// A cuisine dendrogram as Newick plus an explicit merge list.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeView {
    /// What the tree was built from, e.g. `patterns/euclidean/average`.
    pub description: String,
    /// Number of leaves (26 for the paper's trees).
    pub n_leaves: usize,
    /// Cuisine names in dendrogram display order.
    pub leaves: Vec<String>,
    /// The tree in Newick format with branch lengths.
    pub newick: String,
    /// The merge sequence, heights ascending for monotone linkages.
    pub merges: Vec<MergeView>,
    /// Height of the root merge.
    pub max_height: f64,
}

impl_serialize!(TreeView {
    description,
    n_leaves,
    leaves,
    newick,
    merges,
    max_height
});

impl TreeView {
    /// Project a [`CuisineTree`] to its wire form.
    pub fn from_tree(tree: &CuisineTree) -> Self {
        let d = &tree.dendrogram;
        let n = d.n_leaves();
        let merges = (n..n + n.saturating_sub(1))
            .map(|id| match *d.node(id) {
                Node::Internal {
                    left,
                    right,
                    height,
                    count,
                } => MergeView {
                    a: left,
                    b: right,
                    height,
                    size: count,
                },
                Node::Leaf { .. } => unreachable!("arena ids >= n_leaves are merges"),
            })
            .collect();
        // Labels must match the tree's own leaf list — a subset-corpus
        // tree has fewer than 26 leaves.
        let labels: Vec<String> = tree.cuisines.iter().map(|c| c.name().to_string()).collect();
        TreeView {
            description: tree.description.clone(),
            n_leaves: n,
            leaves: tree
                .leaf_cuisines()
                .iter()
                .map(|c| c.name().to_string())
                .collect(),
            newick: d.to_newick(&labels),
            merges,
            max_height: d.max_height(),
        }
    }
}

/// One significant pattern of a Table I row.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternView {
    /// Canonical `a+b+c` pattern string (sorted item names).
    pub pattern: String,
    /// Relative support within the cuisine.
    pub support: f64,
    /// Number of items in the pattern.
    pub len: usize,
}

impl_serialize!(PatternView {
    pattern,
    support,
    len
});

/// One row of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1RowView {
    /// Region name.
    pub cuisine: String,
    /// Recipes mined.
    pub n_recipes: usize,
    /// Frequent patterns at the support threshold.
    pub pattern_count: usize,
    /// Top significant patterns, best first.
    pub top_patterns: Vec<PatternView>,
}

impl_serialize!(Table1RowView {
    cuisine,
    n_recipes,
    pattern_count,
    top_patterns
});

/// The full Table I report.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1View {
    /// Support threshold used for mining.
    pub min_support: f64,
    /// One row per cuisine, Table I order.
    pub rows: Vec<Table1RowView>,
}

impl_serialize!(Table1View { min_support, rows });

impl Table1View {
    /// Project a [`Table1`] to its wire form.
    pub fn from_table(t: &Table1) -> Self {
        Table1View {
            min_support: t.min_support,
            rows: t.rows.iter().map(Table1RowView::from_row).collect(),
        }
    }
}

impl Table1RowView {
    fn from_row(r: &Table1Row) -> Self {
        Table1RowView {
            cuisine: r.cuisine.name().to_string(),
            n_recipes: r.n_recipes,
            pattern_count: r.pattern_count,
            top_patterns: r
                .top_patterns
                .iter()
                .map(|p| PatternView {
                    pattern: p.pattern.clone(),
                    support: p.support,
                    len: p.len,
                })
                .collect(),
        }
    }
}

/// One scored ingredient of an authenticity fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct AuthenticityEntry {
    /// Ingredient display name.
    pub item: String,
    /// Relative prevalence score (higher = more authentic).
    pub score: f64,
}

impl_serialize!(AuthenticityEntry { item, score });

/// A cuisine's authenticity fingerprint, reduced to its extreme items
/// (the full vector spans the whole ingredient universe).
#[derive(Debug, Clone, PartialEq)]
pub struct FingerprintView {
    /// Region name.
    pub cuisine: String,
    /// Dimensionality of the full fingerprint vector.
    pub n_items: usize,
    /// Top-`k` most authentic ingredients, best first.
    pub most_authentic: Vec<AuthenticityEntry>,
    /// Bottom-`k` least authentic (most borrowed) ingredients.
    pub least_authentic: Vec<AuthenticityEntry>,
}

impl_serialize!(FingerprintView {
    cuisine,
    n_items,
    most_authentic,
    least_authentic
});

impl FingerprintView {
    /// Project one cuisine's fingerprint, keeping `k` items per extreme.
    pub fn from_matrix(
        matrix: &AuthenticityMatrix,
        db: &recipedb::RecipeDb,
        cuisine: Cuisine,
        k: usize,
    ) -> Self {
        let name_of = |t: recipedb::catalog::TokenId| {
            db.catalog()
                .token_name(t)
                .unwrap_or("<unknown>")
                .to_string()
        };
        FingerprintView {
            cuisine: cuisine.name().to_string(),
            n_items: matrix.fingerprint(cuisine).len(),
            most_authentic: matrix
                .most_authentic(cuisine, k)
                .into_iter()
                .map(|(t, score)| AuthenticityEntry {
                    item: name_of(t),
                    score,
                })
                .collect(),
            least_authentic: matrix
                .least_authentic(cuisine, k)
                .into_iter()
                .map(|(t, score)| AuthenticityEntry {
                    item: name_of(t),
                    score,
                })
                .collect(),
        }
    }
}

/// The k-means elbow curve (Figure 1).
#[derive(Debug, Clone, PartialEq)]
pub struct ElbowView {
    /// Largest k evaluated.
    pub k_max: usize,
    /// Seed of the k-means restarts.
    pub seed: u64,
    /// WCSS for k = 1..=k_max.
    pub wcss: Vec<f64>,
}

impl_serialize!(ElbowView { k_max, seed, wcss });

/// A tree's agreement with geography plus the paper's historical claims
/// (Section VII).
#[derive(Debug, Clone, PartialEq)]
pub struct AgreementView {
    /// Description of the scored tree.
    pub tree: String,
    /// Pearson correlation of cophenetic vs geographic distances.
    pub cophenetic_vs_geo: f64,
    /// Baker's gamma against the geographic dendrogram.
    pub bakers_gamma: f64,
    /// Canada joins France below Canada–US.
    pub canada_closer_to_france_than_us: bool,
    /// India joins Northern Africa below its geographic neighbours.
    pub india_closer_to_north_africa_than_neighbors: bool,
    /// Cophenetic evidence: (ca–fr, ca–us, in–nafr, in–thai, in–sea).
    pub evidence: [f64; 5],
}

impl_serialize!(AgreementView {
    tree,
    cophenetic_vs_geo,
    bakers_gamma,
    canada_closer_to_france_than_us,
    india_closer_to_north_africa_than_neighbors,
    evidence
});

impl AgreementView {
    /// Combine an agreement score and claims check into one wire record.
    pub fn from_parts(agreement: &GeoAgreement, claims: &HistoricalClaims) -> Self {
        AgreementView {
            tree: agreement.tree.clone(),
            cophenetic_vs_geo: agreement.cophenetic_vs_geo,
            bakers_gamma: agreement.bakers_gamma,
            canada_closer_to_france_than_us: claims.canada_closer_to_france_than_us,
            india_closer_to_north_africa_than_neighbors: claims
                .india_closer_to_north_africa_than_neighbors,
            evidence: claims.evidence,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{geo_agreement, historical_claims};
    use clustering::Metric;
    use serde_json::Value;

    fn atlas() -> &'static crate::pipeline::CuisineAtlas {
        crate::testutil::shared_atlas()
    }

    /// A view as a client reads it: written, then parsed back to a tree.
    fn parsed<T: serde_json::Serialize>(view: &T) -> Value {
        serde_json::from_str(&serde_json::to_string(view).unwrap()).unwrap()
    }

    fn keys(v: &Value) -> Vec<&str> {
        v.as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    fn strings(v: &Value) -> Vec<&str> {
        v.as_array()
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap())
            .collect()
    }

    fn floats(v: &Value) -> Vec<f64> {
        v.as_array()
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap())
            .collect()
    }

    #[test]
    fn tree_view_roundtrips_and_matches_tree() {
        let tree = atlas().pattern_tree(Metric::Euclidean);
        let view = TreeView::from_tree(&tree);
        assert_eq!(view.n_leaves, 26);
        assert_eq!(view.leaves.len(), 26);
        assert_eq!(view.merges.len(), 25);
        assert_eq!(view.merges.last().unwrap().size, 26);
        assert!(view.newick.ends_with(';'));
        for c in Cuisine::ALL {
            // Newick export replaces metacharacters in labels with `_`.
            let label = c.name().replace([' ', ','], "_");
            assert!(view.newick.contains(&label), "newick missing {c}");
        }
        assert!((view.max_height - tree.dendrogram.max_height()).abs() < 1e-12);

        let v = parsed(&view);
        assert_eq!(
            keys(&v),
            [
                "description",
                "n_leaves",
                "leaves",
                "newick",
                "merges",
                "max_height"
            ]
        );
        assert_eq!(v["description"].as_str(), Some(view.description.as_str()));
        assert_eq!(v["n_leaves"].as_u64(), Some(26));
        assert_eq!(strings(&v["leaves"]), view.leaves);
        assert_eq!(v["newick"].as_str(), Some(view.newick.as_str()));
        assert_eq!(v["max_height"].as_f64(), Some(view.max_height));
        let merges = v["merges"].as_array().unwrap();
        assert_eq!(merges.len(), view.merges.len());
        for (m, want) in merges.iter().zip(&view.merges) {
            assert_eq!(keys(m), ["a", "b", "height", "size"]);
            assert_eq!(m["a"].as_u64(), Some(want.a as u64));
            assert_eq!(m["b"].as_u64(), Some(want.b as u64));
            assert_eq!(m["height"].as_f64(), Some(want.height));
            assert_eq!(m["size"].as_u64(), Some(want.size as u64));
        }
    }

    #[test]
    fn table1_view_roundtrips() {
        let view = Table1View::from_table(&atlas().table1());
        assert_eq!(view.rows.len(), 26);
        assert!(view.rows.iter().all(|r| !r.top_patterns.is_empty()));
        let v = parsed(&view);
        assert_eq!(keys(&v), ["min_support", "rows"]);
        assert_eq!(v["min_support"].as_f64(), Some(view.min_support));
        let rows = v["rows"].as_array().unwrap();
        assert_eq!(rows.len(), view.rows.len());
        for (row, want) in rows.iter().zip(&view.rows) {
            assert_eq!(
                keys(row),
                ["cuisine", "n_recipes", "pattern_count", "top_patterns"]
            );
            assert_eq!(row["cuisine"].as_str(), Some(want.cuisine.as_str()));
            assert_eq!(row["n_recipes"].as_u64(), Some(want.n_recipes as u64));
            assert_eq!(
                row["pattern_count"].as_u64(),
                Some(want.pattern_count as u64)
            );
            let patterns = row["top_patterns"].as_array().unwrap();
            assert_eq!(patterns.len(), want.top_patterns.len());
            for (p, want) in patterns.iter().zip(&want.top_patterns) {
                assert_eq!(keys(p), ["pattern", "support", "len"]);
                assert_eq!(p["pattern"].as_str(), Some(want.pattern.as_str()));
                assert_eq!(p["support"].as_f64(), Some(want.support));
                assert_eq!(p["len"].as_u64(), Some(want.len as u64));
            }
        }
    }

    #[test]
    fn fingerprint_view_roundtrips_with_named_items() {
        let a = atlas();
        let m = a.authenticity_matrix();
        let view = FingerprintView::from_matrix(m, a.db(), Cuisine::Japanese, 5);
        assert_eq!(view.cuisine, "Japanese");
        assert_eq!(view.most_authentic.len(), 5);
        assert_eq!(view.least_authentic.len(), 5);
        assert!(view.n_items > 0);
        assert!(view.most_authentic.iter().all(|e| e.item != "<unknown>"));
        // Scores sorted best-first.
        for w in view.most_authentic.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        let v = parsed(&view);
        assert_eq!(
            keys(&v),
            ["cuisine", "n_items", "most_authentic", "least_authentic"]
        );
        assert_eq!(v["cuisine"].as_str(), Some("Japanese"));
        assert_eq!(v["n_items"].as_u64(), Some(view.n_items as u64));
        for (entries, want) in [
            (&v["most_authentic"], &view.most_authentic),
            (&v["least_authentic"], &view.least_authentic),
        ] {
            let entries = entries.as_array().unwrap();
            assert_eq!(entries.len(), want.len());
            for (e, want) in entries.iter().zip(want) {
                assert_eq!(keys(e), ["item", "score"]);
                assert_eq!(e["item"].as_str(), Some(want.item.as_str()));
                assert_eq!(e["score"].as_f64(), Some(want.score));
            }
        }
    }

    #[test]
    fn agreement_and_elbow_views_roundtrip() {
        let a = atlas();
        let geo = a.geographic_tree();
        let tree = a.authenticity_tree();
        let view =
            AgreementView::from_parts(&geo_agreement(&tree, &geo), &historical_claims(&tree));
        let v = parsed(&view);
        assert_eq!(
            keys(&v),
            [
                "tree",
                "cophenetic_vs_geo",
                "bakers_gamma",
                "canada_closer_to_france_than_us",
                "india_closer_to_north_africa_than_neighbors",
                "evidence"
            ]
        );
        assert_eq!(v["tree"].as_str(), Some(view.tree.as_str()));
        assert_eq!(
            v["cophenetic_vs_geo"].as_f64(),
            Some(view.cophenetic_vs_geo)
        );
        assert_eq!(v["bakers_gamma"].as_f64(), Some(view.bakers_gamma));
        assert_eq!(
            v["canada_closer_to_france_than_us"].as_bool(),
            Some(view.canada_closer_to_france_than_us)
        );
        assert_eq!(
            v["india_closer_to_north_africa_than_neighbors"].as_bool(),
            Some(view.india_closer_to_north_africa_than_neighbors)
        );
        assert_eq!(floats(&v["evidence"]), view.evidence);

        let elbow = ElbowView {
            k_max: 8,
            seed: 5,
            wcss: a.elbow_curve(8, 5),
        };
        assert_eq!(elbow.wcss.len(), 8);
        let v = parsed(&elbow);
        assert_eq!(keys(&v), ["k_max", "seed", "wcss"]);
        assert_eq!(v["k_max"].as_u64(), Some(8));
        assert_eq!(v["seed"].as_u64(), Some(5));
        assert_eq!(floats(&v["wcss"]), elbow.wcss);
    }
}
