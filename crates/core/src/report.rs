//! Text renderers for the tables and figures: Table I, the elbow curve
//! (Figure 1) and the dendrograms (Figures 2–6).

use recipedb::Cuisine;

use crate::pipeline::{CuisineTree, Table1};

/// Render Table I in the paper's column layout.
pub fn render_table1(table: &Table1) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "SIGNIFICANT PATTERNS MINED FROM CUISINES ACROSS THE WORLD (min support {:.2})\n",
        table.min_support
    ));
    out.push_str(&format!(
        "{:<24} {:>8}  {:<42} {:>7}  {:>9}\n",
        "Region", "Recipes", "Pattern", "Support", "#Patterns"
    ));
    out.push_str(&"-".repeat(96));
    out.push('\n');
    for row in &table.rows {
        for (i, p) in row.top_patterns.iter().enumerate() {
            if i == 0 {
                out.push_str(&format!(
                    "{:<24} {:>8}  {:<42} {:>7.2}  {:>9}\n",
                    row.cuisine.name(),
                    row.n_recipes,
                    p.pattern,
                    p.support,
                    row.pattern_count
                ));
            } else {
                out.push_str(&format!(
                    "{:<24} {:>8}  {:<42} {:>7.2}  {:>9}\n",
                    "", "", p.pattern, p.support, ""
                ));
            }
        }
    }
    out
}

/// Render the elbow curve as an ASCII chart (WCSS vs k), the shape of
/// Figure 1.
pub fn render_elbow(wcss: &[f64]) -> String {
    let mut out = String::new();
    out.push_str("Elbow method: WCSS vs number of clusters k\n");
    let max = wcss.iter().cloned().fold(f64::MIN, f64::max).max(1e-12);
    for (i, &w) in wcss.iter().enumerate() {
        let bar_len = ((w / max) * 50.0).round() as usize;
        out.push_str(&format!(
            "k={:<3} {:>12.2} |{}\n",
            i + 1,
            w,
            "█".repeat(bar_len)
        ));
    }
    out
}

/// Render a cuisine dendrogram: the ASCII tree plus the leaf order (the
/// axis labels of the paper's figures).
pub fn render_tree(tree: &CuisineTree) -> String {
    let labels: Vec<String> = Cuisine::ALL.iter().map(|c| c.name().to_string()).collect();
    let mut out = String::new();
    out.push_str(&format!("Dendrogram [{}]\n", tree.description));
    out.push_str(&tree.dendrogram.render_ascii(&labels));
    out.push_str("\nLeaf order: ");
    let order: Vec<&str> = tree
        .dendrogram
        .leaf_order()
        .into_iter()
        .map(|i| Cuisine::ALL[i].name())
        .collect();
    out.push_str(&order.join(" | "));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustering::Metric;

    #[test]
    fn table1_render_includes_every_region() {
        let atlas = crate::testutil::shared_atlas();
        let text = render_table1(&atlas.table1());
        for c in Cuisine::ALL {
            assert!(text.contains(c.name()), "missing {c}");
        }
        assert!(text.contains("Support"));
    }

    #[test]
    fn elbow_render_has_one_bar_per_k() {
        let text = render_elbow(&[100.0, 60.0, 40.0, 30.0]);
        assert_eq!(text.lines().count(), 5);
        assert!(text.contains("k=1"));
        assert!(text.contains("k=4"));
    }

    #[test]
    fn elbow_render_handles_zero_curve() {
        let text = render_elbow(&[0.0, 0.0]);
        assert!(text.contains("k=2"));
    }

    #[test]
    fn tree_render_lists_leaves_and_heights() {
        let atlas = crate::testutil::shared_atlas();
        let text = render_tree(&atlas.pattern_tree(Metric::Jaccard));
        for c in Cuisine::ALL {
            assert!(text.contains(c.name()), "missing {c}");
        }
        assert!(text.contains("Leaf order:"));
        assert!(text.contains("h="));
    }
}
