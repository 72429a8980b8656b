//! The dendrogram: a binary merge tree over leaves, with leaf ordering,
//! cutting, cophenetic distances, ASCII rendering and Newick export.
//!
//! Built from the [`crate::hac::Merge`] sequence. This is the structure
//! behind the paper's Figures 2–6.

use crate::condensed::CondensedMatrix;
use crate::hac::Merge;

/// A node of the dendrogram.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// An original observation.
    Leaf {
        /// Index of the observation in `0..n`.
        index: usize,
    },
    /// A merge of two children at a height.
    Internal {
        /// Left child (node index within the dendrogram arena).
        left: usize,
        /// Right child (node index within the dendrogram arena).
        right: usize,
        /// Merge height.
        height: f64,
        /// Number of leaves underneath.
        count: usize,
    },
}

/// A binary merge tree over `n` leaves, stored as an arena: nodes
/// `0..n` are leaves, node `n + t` is the cluster created by merge `t`,
/// and the root is the last node.
#[derive(Debug, Clone, PartialEq)]
pub struct Dendrogram {
    n_leaves: usize,
    nodes: Vec<Node>,
}

impl Dendrogram {
    /// Build from a complete merge sequence (scipy `Z` matrix semantics).
    ///
    /// # Panics
    /// If the merge list is not exactly `n_leaves − 1` long or references
    /// undefined clusters.
    pub fn from_merges(n_leaves: usize, merges: &[Merge]) -> Self {
        assert!(n_leaves >= 1);
        assert_eq!(
            merges.len(),
            n_leaves.saturating_sub(1),
            "incomplete merge list"
        );
        let mut nodes: Vec<Node> = (0..n_leaves).map(|index| Node::Leaf { index }).collect();
        for (t, m) in merges.iter().enumerate() {
            let id = n_leaves + t;
            assert!(
                m.a < id && m.b < id && m.a != m.b,
                "merge {t} references invalid clusters"
            );
            let count = Self::count_of(&nodes, m.a) + Self::count_of(&nodes, m.b);
            debug_assert_eq!(count, m.size, "merge {t} size mismatch");
            nodes.push(Node::Internal {
                left: m.a,
                right: m.b,
                height: m.distance,
                count,
            });
        }
        Dendrogram { n_leaves, nodes }
    }

    fn count_of(nodes: &[Node], id: usize) -> usize {
        match nodes[id] {
            Node::Leaf { .. } => 1,
            Node::Internal { count, .. } => count,
        }
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// The root node id.
    pub fn root(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Access a node.
    pub fn node(&self, id: usize) -> &Node {
        &self.nodes[id]
    }

    /// The height of the root merge (0 for a single leaf).
    pub fn max_height(&self) -> f64 {
        match self.nodes[self.root()] {
            Node::Leaf { .. } => 0.0,
            Node::Internal { height, .. } => height,
        }
    }

    /// Leaves in dendrogram display order (depth-first, left child first) —
    /// the order the paper's figures list the cuisines in.
    pub fn leaf_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.n_leaves);
        let mut stack = vec![self.root()];
        while let Some(id) = stack.pop() {
            match self.nodes[id] {
                Node::Leaf { index } => order.push(index),
                Node::Internal { left, right, .. } => {
                    // Right pushed first so left is visited first.
                    stack.push(right);
                    stack.push(left);
                }
            }
        }
        order
    }

    /// Cophenetic distance matrix: the distance between two leaves is the
    /// height of their lowest common ancestor.
    pub fn cophenetic(&self) -> CondensedMatrix {
        let mut m = CondensedMatrix::from_fn(self.n_leaves, |_, _| 0.0);
        // Leaf sets bottom-up; pairs across (left, right) get the height.
        let mut leafsets: Vec<Vec<usize>> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let set = match *node {
                Node::Leaf { index } => vec![index],
                Node::Internal {
                    left,
                    right,
                    height,
                    ..
                } => {
                    for &a in &leafsets[left] {
                        for &b in &leafsets[right] {
                            m.set(a, b, height);
                        }
                    }
                    let mut s = leafsets[left].clone();
                    s.extend_from_slice(&leafsets[right]);
                    s
                }
            };
            leafsets.push(set);
        }
        m
    }

    /// Flat clusters obtained by cutting at `height`: leaves joined by
    /// merges with `distance <= height` share a label. Labels are dense,
    /// in leaf-index order of first occurrence.
    pub fn cut_at_height(&self, height: f64) -> Vec<usize> {
        let mut parent: Vec<usize> = (0..self.nodes.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (id, node) in self.nodes.iter().enumerate() {
            if let Node::Internal {
                left,
                right,
                height: h,
                ..
            } = *node
            {
                if h <= height {
                    let rl = find(&mut parent, left);
                    let rr = find(&mut parent, right);
                    parent[rl] = id;
                    parent[rr] = id;
                }
            }
        }
        let mut root_label: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        (0..self.n_leaves)
            .map(|leaf| {
                let r = find(&mut parent, leaf);
                let next = root_label.len();
                *root_label.entry(r).or_insert(next)
            })
            .collect()
    }

    /// Flat clusters with exactly `k` groups: undo the last `k − 1`
    /// merges (internal nodes are stored in merge order). Labels are
    /// dense, assigned in leaf-index order of first occurrence.
    ///
    /// # Panics
    /// If `k` is 0 or exceeds the number of leaves.
    pub fn cut_k(&self, k: usize) -> Vec<usize> {
        assert!(k >= 1 && k <= self.n_leaves, "k must be in 1..=n_leaves");
        let mut parent: Vec<usize> = (0..self.nodes.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        // Apply the first n - k merges (nodes n .. 2n - k - 1).
        let applied = self.n_leaves.saturating_sub(k);
        for t in 0..applied {
            let id = self.n_leaves + t;
            if let Node::Internal { left, right, .. } = self.nodes[id] {
                let rl = find(&mut parent, left);
                let rr = find(&mut parent, right);
                parent[rl] = id;
                parent[rr] = id;
            }
        }
        let mut root_label: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        (0..self.n_leaves)
            .map(|leaf| {
                let r = find(&mut parent, leaf);
                let next = root_label.len();
                *root_label.entry(r).or_insert(next)
            })
            .collect()
    }

    /// Render as an ASCII tree, heights annotated on internal nodes.
    ///
    /// ```text
    /// ─┬ h=6.00
    ///  ├─┬ h=3.00
    ///  │ ├─┬ h=1.00
    ///  │ │ ├── a
    ///  │ │ └── b
    ///  │ └── c
    ///  └── d
    /// ```
    pub fn render_ascii(&self, labels: &[String]) -> String {
        assert_eq!(labels.len(), self.n_leaves, "one label per leaf");
        let mut out = String::new();
        self.render_node(self.root(), "", "─", "", labels, &mut out);
        out
    }

    fn render_node(
        &self,
        id: usize,
        prefix: &str,
        connector: &str,
        child_prefix: &str,
        labels: &[String],
        out: &mut String,
    ) {
        match self.nodes[id] {
            Node::Leaf { index } => {
                out.push_str(&format!("{prefix}{connector}── {}\n", labels[index]));
            }
            Node::Internal {
                left,
                right,
                height,
                ..
            } => {
                out.push_str(&format!("{prefix}{connector}┬ h={height:.3}\n"));
                self.render_node(
                    left,
                    &format!("{child_prefix} "),
                    "├─",
                    &format!("{child_prefix} │"),
                    labels,
                    out,
                );
                self.render_node(
                    right,
                    &format!("{child_prefix} "),
                    "└─",
                    &format!("{child_prefix}  "),
                    labels,
                    out,
                );
            }
        }
    }

    /// Newick export (heights become branch lengths; leaf names must not
    /// contain Newick metacharacters).
    pub fn to_newick(&self, labels: &[String]) -> String {
        assert_eq!(labels.len(), self.n_leaves, "one label per leaf");
        let mut s = self.newick_node(self.root(), self.max_height(), labels);
        s.push(';');
        s
    }

    fn newick_node(&self, id: usize, parent_height: f64, labels: &[String]) -> String {
        match self.nodes[id] {
            Node::Leaf { index } => {
                format!(
                    "{}:{:.6}",
                    labels[index].replace([' ', ','], "_"),
                    parent_height
                )
            }
            Node::Internal {
                left,
                right,
                height,
                ..
            } => {
                let l = self.newick_node(left, height, labels);
                let r = self.newick_node(right, height, labels);
                format!("({l},{r}):{:.6}", (parent_height - height).max(0.0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Metric;
    use crate::hac::{linkage, LinkageMethod};

    fn line_tree() -> Dendrogram {
        let pts = vec![vec![0.0], vec![1.0], vec![4.0], vec![10.0]];
        let d = CondensedMatrix::pdist(&pts, Metric::Euclidean);
        Dendrogram::from_merges(4, &linkage(&d, LinkageMethod::Single))
    }

    #[test]
    fn structure_and_counts() {
        let t = line_tree();
        assert_eq!(t.n_leaves(), 4);
        assert_eq!(t.root(), 6);
        assert!((t.max_height() - 6.0).abs() < 1e-12);
        match *t.node(t.root()) {
            Node::Internal { count, .. } => assert_eq!(count, 4),
            _ => panic!("root must be internal"),
        }
    }

    #[test]
    fn leaf_order_contains_each_leaf_once() {
        let t = line_tree();
        let mut order = t.leaf_order();
        assert_eq!(order.len(), 4);
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn leaf_order_keeps_merged_leaves_adjacent() {
        let t = line_tree();
        let order = t.leaf_order();
        let pos = |x: usize| order.iter().position(|&o| o == x).unwrap();
        // 0 and 1 merged first -> adjacent.
        assert_eq!(pos(0).abs_diff(pos(1)), 1);
    }

    #[test]
    fn cophenetic_distances_are_lca_heights() {
        let t = line_tree();
        let c = t.cophenetic();
        assert!((c.get(0, 1) - 1.0).abs() < 1e-12);
        assert!((c.get(0, 2) - 3.0).abs() < 1e-12);
        assert!((c.get(1, 2) - 3.0).abs() < 1e-12);
        assert!((c.get(0, 3) - 6.0).abs() < 1e-12);
        // Ultrametric: max of the two "sides" equals the third.
        for i in 0..4 {
            for j in (i + 1)..4 {
                for k in (j + 1)..4 {
                    let (a, b, c3) = (c.get(i, j), c.get(i, k), c.get(j, k));
                    let mut v = [a, b, c3];
                    v.sort_by(|x, y| x.partial_cmp(y).unwrap());
                    assert!((v[1] - v[2]).abs() < 1e-9, "ultrametric violated");
                }
            }
        }
    }

    #[test]
    fn cut_k_matches_hac_cut_k() {
        let pts = vec![vec![0.0], vec![1.0], vec![4.0], vec![10.0], vec![11.5]];
        let d = CondensedMatrix::pdist(&pts, Metric::Euclidean);
        let merges = linkage(&d, LinkageMethod::Average);
        let tree = Dendrogram::from_merges(5, &merges);
        for k in 1..=5 {
            assert_eq!(tree.cut_k(k), crate::hac::cut_k(5, &merges, k), "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "k must be in 1..=n_leaves")]
    fn cut_k_rejects_zero() {
        let _ = line_tree().cut_k(0);
    }

    #[test]
    fn cut_at_height_partitions() {
        let t = line_tree();
        assert_eq!(t.cut_at_height(0.5), vec![0, 1, 2, 3]);
        let at2 = t.cut_at_height(2.0);
        assert_eq!(at2[0], at2[1]);
        assert_ne!(at2[1], at2[2]);
        let all = t.cut_at_height(100.0);
        assert!(all.iter().all(|&l| l == 0));
    }

    #[test]
    fn ascii_render_mentions_every_label_and_height() {
        let t = line_tree();
        let labels: Vec<String> = ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
        let art = t.render_ascii(&labels);
        for l in &labels {
            assert!(art.contains(l.as_str()), "missing {l} in:\n{art}");
        }
        assert!(art.contains("h=6.000"));
        assert!(art.contains("h=1.000"));
        assert_eq!(art.lines().count(), 7, "4 leaves + 3 internal nodes");
    }

    #[test]
    fn newick_is_balanced_and_terminated() {
        let t = line_tree();
        let labels: Vec<String> = ["a", "b", "c d", "e"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let nw = t.to_newick(&labels);
        assert!(nw.ends_with(';'));
        assert_eq!(
            nw.matches('(').count(),
            nw.matches(')').count(),
            "unbalanced parens in {nw}"
        );
        assert!(nw.contains("c_d"), "spaces escaped");
    }

    #[test]
    fn single_leaf_tree() {
        let t = Dendrogram::from_merges(1, &[]);
        assert_eq!(t.leaf_order(), vec![0]);
        assert_eq!(t.max_height(), 0.0);
        assert_eq!(t.cut_at_height(1.0), vec![0]);
    }

    #[test]
    #[should_panic(expected = "incomplete merge list")]
    fn wrong_merge_count_panics() {
        let _ = Dendrogram::from_merges(3, &[]);
    }
}
