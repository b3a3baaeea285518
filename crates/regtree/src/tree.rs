//! Recursive-partitioning regression tree construction.

use crate::Dataset;

/// An axis-aligned hyper-rectangle in unit coordinates, stored as a
/// center and per-dimension sizes (paper §2.5).
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    /// Center of the rectangle.
    pub center: Vec<f64>,
    /// Side length along each dimension.
    pub size: Vec<f64>,
}

impl Rect {
    /// The unit cube `[0, 1]^n`.
    pub fn unit(dim: usize) -> Self {
        Rect {
            center: vec![0.5; dim],
            size: vec![1.0; dim],
        }
    }

    /// Lower corner along dimension `k`.
    pub fn lo(&self, k: usize) -> f64 {
        self.center[k] - self.size[k] / 2.0
    }

    /// Upper corner along dimension `k`.
    pub fn hi(&self, k: usize) -> f64 {
        self.center[k] + self.size[k] / 2.0
    }

    /// Splits the rectangle at `value` along dimension `k` into
    /// (left, right) halves.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside the rectangle along `k`.
    pub fn split_at(&self, k: usize, value: f64) -> (Rect, Rect) {
        let (lo, hi) = (self.lo(k), self.hi(k));
        assert!(
            value > lo - 1e-12 && value < hi + 1e-12,
            "split {value} outside [{lo}, {hi}] in dim {k}"
        );
        let mut left = self.clone();
        left.center[k] = (lo + value) / 2.0;
        left.size[k] = value - lo;
        let mut right = self.clone();
        right.center[k] = (value + hi) / 2.0;
        right.size[k] = hi - value;
        (left, right)
    }

    /// True if the point lies inside the rectangle (closed bounds).
    pub fn contains(&self, x: &[f64]) -> bool {
        x.iter()
            .enumerate()
            .all(|(k, &v)| v >= self.lo(k) - 1e-12 && v <= self.hi(k) + 1e-12)
    }
}

/// A committed split: partition dimension and boundary value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Split {
    /// Index of the partitioned parameter (the paper's `k`).
    pub param: usize,
    /// Boundary value in unit coordinates (the paper's `b`): points with
    /// `x[param] <= value` go left.
    pub value: f64,
}

/// One entry of the split history, used for the paper's Table 5 and
/// Figure 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitRecord {
    /// Index of the node that was split.
    pub node: usize,
    /// The partitioned parameter.
    pub param: usize,
    /// The boundary value in unit coordinates.
    pub value: f64,
    /// Depth of the split (root split has depth 1, like the paper).
    pub depth: usize,
    /// Reduction in total sum of squared error achieved by this split.
    pub sse_reduction: f64,
}

/// A node of the regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The hyper-rectangle of design space this node covers.
    pub rect: Rect,
    /// Number of sample points in the node.
    pub count: usize,
    /// Mean response of the node's points.
    pub mean: f64,
    /// Sum of squared deviations of the node's points from `mean`.
    pub sse: f64,
    /// Depth (root = 0).
    pub depth: usize,
    /// The split applied at this node, if it is internal.
    pub split: Option<Split>,
    /// Indices of the (left, right) children, if internal.
    pub children: Option<(usize, usize)>,
}

impl Node {
    /// True for terminal (leaf) nodes.
    pub fn is_leaf(&self) -> bool {
        self.children.is_none()
    }
}

/// A fitted regression tree (paper §2.4).
///
/// Nodes are stored in an arena; index 0 is the root. The tree predicts
/// with the piecewise-constant leaf means, and exposes its structure for
/// the RBF-center derivation of §2.5.
///
/// # Examples
///
/// ```
/// use ppm_regtree::{Dataset, RegressionTree};
///
/// let pts: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
/// let y: Vec<f64> = pts.iter().map(|p| p[0] * 2.0).collect();
/// let data = Dataset::new(pts, y)?;
/// let tree = RegressionTree::fit(&data, 2);
/// let pred = tree.predict(&[0.5]);
/// assert!((pred - 1.0).abs() < 0.3);
/// # Ok::<(), ppm_regtree::DatasetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    splits: Vec<SplitRecord>,
    p_min: usize,
    dim: usize,
}

impl RegressionTree {
    /// Fits a tree to the dataset, splitting until every leaf holds at
    /// most `p_min` points (or no split reduces the error).
    ///
    /// # Panics
    ///
    /// Panics if `p_min == 0`.
    pub fn fit(data: &Dataset, p_min: usize) -> Self {
        assert!(p_min >= 1, "p_min must be at least 1");
        let _span = ppm_telemetry::span("stage.tree");
        let dim = data.dim();
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            splits: Vec::new(),
            p_min,
            dim,
        };
        let all: Vec<usize> = (0..data.len()).collect();
        let root = tree.make_node(data, &all, Rect::unit(dim), 0);
        tree.nodes.push(root);
        tree.grow(data, 0, all);
        // Order the recorded splits by decreasing significance (SSE
        // reduction), which is how the paper's Table 5 ranks them.
        tree.splits
            .sort_by(|a, b| b.sse_reduction.total_cmp(&a.sse_reduction));
        ppm_telemetry::counter("regtree.fits").inc();
        ppm_telemetry::counter("regtree.nodes_split").add(tree.splits.len() as u64);
        let leaf_sizes = ppm_telemetry::histogram("regtree.leaf_size");
        for node in tree.nodes.iter().filter(|n| n.is_leaf()) {
            leaf_sizes.record(node.count as u64);
        }
        tree
    }

    fn make_node(&self, data: &Dataset, indices: &[usize], rect: Rect, depth: usize) -> Node {
        let count = indices.len();
        let mean = indices.iter().map(|&i| data.response(i)).sum::<f64>() / count.max(1) as f64;
        let sse = indices
            .iter()
            .map(|&i| {
                let d = data.response(i) - mean;
                d * d
            })
            .sum();
        Node {
            rect,
            count,
            mean,
            sse,
            depth,
            split: None,
            children: None,
        }
    }

    fn grow(&mut self, data: &Dataset, node_idx: usize, indices: Vec<usize>) {
        if indices.len() <= self.p_min {
            return;
        }
        let Some((split, gain)) = best_split(data, &indices) else {
            return; // all points identical in x or y
        };
        let (mut left_idx, mut right_idx) = (Vec::new(), Vec::new());
        for &i in &indices {
            if data.point(i)[split.param] <= split.value {
                left_idx.push(i);
            } else {
                right_idx.push(i);
            }
        }
        debug_assert!(!left_idx.is_empty() && !right_idx.is_empty());

        let depth = self.nodes[node_idx].depth;
        // Clamp the boundary into the node's rectangle: the data-driven
        // midpoint always lies inside it by construction.
        let (lrect, rrect) = self.nodes[node_idx].rect.split_at(split.param, split.value);
        let lnode = self.make_node(data, &left_idx, lrect, depth + 1);
        let rnode = self.make_node(data, &right_idx, rrect, depth + 1);
        let li = self.nodes.len();
        self.nodes.push(lnode);
        let ri = self.nodes.len();
        self.nodes.push(rnode);
        self.nodes[node_idx].split = Some(split);
        self.nodes[node_idx].children = Some((li, ri));
        self.splits.push(SplitRecord {
            node: node_idx,
            param: split.param,
            value: split.value,
            depth: depth + 1,
            sse_reduction: gain,
        });
        self.grow(data, li, left_idx);
        self.grow(data, ri, right_idx);
    }

    /// The arena of nodes; index 0 is the root.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// One node by index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn node(&self, idx: usize) -> &Node {
        &self.nodes[idx]
    }

    /// The split history, ordered by decreasing SSE reduction
    /// ("most significant" first, as in the paper's Table 5).
    pub fn splits(&self) -> &[SplitRecord] {
        &self.splits
    }

    /// The `p_min` used to fit this tree.
    pub fn p_min(&self) -> usize {
        self.p_min
    }

    /// The input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Total SSE reduction attributed to each input parameter — a
    /// variance-based importance measure (the quantity behind the
    /// paper's Table 5 ranking, aggregated per parameter).
    pub fn importance(&self) -> Vec<f64> {
        let mut imp = vec![0.0; self.dim];
        for s in &self.splits {
            imp[s.param] += s.sse_reduction;
        }
        imp
    }

    /// Predicts with the piecewise-constant leaf means.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.nodes[self.leaf_index(x)].mean
    }

    /// The arena index of the leaf whose region contains `x` — the
    /// partition cell the tree assigns the point to. Useful for
    /// attributing residuals to tree regions.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn leaf_index(&self, x: &[f64]) -> usize {
        assert_eq!(x.len(), self.dim, "dimension mismatch");
        let mut idx = 0;
        loop {
            let node = &self.nodes[idx];
            match (node.split, node.children) {
                (Some(split), Some((l, r))) => {
                    idx = if x[split.param] <= split.value { l } else { r };
                }
                _ => return idx,
            }
        }
    }
}

/// Finds the (k, b) minimizing E(k, b) over all dimensions and all
/// midpoints between consecutive distinct sorted values. Returns the
/// split and the SSE reduction, or `None` if no split separates the data.
fn best_split(data: &Dataset, indices: &[usize]) -> Option<(Split, f64)> {
    let p = indices.len();
    debug_assert!(p >= 2);
    let total_mean = indices.iter().map(|&i| data.response(i)).sum::<f64>() / p as f64;
    let total_sse: f64 = indices
        .iter()
        .map(|&i| {
            let d = data.response(i) - total_mean;
            d * d
        })
        .sum();

    let mut best: Option<(Split, f64)> = None;
    let dim = data.dim();
    let mut order: Vec<usize> = Vec::with_capacity(p);
    for k in 0..dim {
        order.clear();
        order.extend_from_slice(indices);
        order.sort_by(|&a, &b| data.point(a)[k].total_cmp(&data.point(b)[k]));
        // Prefix sums over the sorted order let every boundary be
        // evaluated in O(1).
        let mut sum_l = 0.0;
        let mut sumsq_l = 0.0;
        let sum_total: f64 = order.iter().map(|&i| data.response(i)).sum();
        let sumsq_total: f64 = order
            .iter()
            .map(|&i| data.response(i) * data.response(i))
            .sum();
        for cut in 0..(p - 1) {
            let yi = data.response(order[cut]);
            sum_l += yi;
            sumsq_l += yi * yi;
            let x_here = data.point(order[cut])[k];
            let x_next = data.point(order[cut + 1])[k];
            if x_next - x_here <= 1e-12 {
                continue; // can't separate equal coordinates
            }
            let pl = (cut + 1) as f64;
            let pr = (p - cut - 1) as f64;
            let sse_l = sumsq_l - sum_l * sum_l / pl;
            let sum_r = sum_total - sum_l;
            let sse_r = (sumsq_total - sumsq_l) - sum_r * sum_r / pr;
            let e = sse_l + sse_r; // E(k,b) up to the constant 1/p factor
            let boundary = (x_here + x_next) / 2.0;
            let candidate = Split {
                param: k,
                value: boundary,
            };
            let better = match &best {
                None => true,
                Some((_, best_gain)) => total_sse - e > *best_gain + 1e-15,
            };
            if better {
                best = Some((candidate, total_sse - e));
            }
        }
    }
    // Only split when it genuinely reduces the error; a pure-noise-free
    // constant region gains nothing.
    best.filter(|(_, gain)| *gain > 1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_rng::Rng;

    fn step_data() -> Dataset {
        let pts: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64 / 15.0]).collect();
        let y: Vec<f64> = pts
            .iter()
            .map(|p| if p[0] < 0.5 { 1.0 } else { 5.0 })
            .collect();
        Dataset::new(pts, y).unwrap()
    }

    #[test]
    fn rect_split_partitions() {
        let r = Rect::unit(2);
        let (l, rr) = r.split_at(0, 0.3);
        assert!((l.lo(0) - 0.0).abs() < 1e-12);
        assert!((l.hi(0) - 0.3).abs() < 1e-12);
        assert!((rr.lo(0) - 0.3).abs() < 1e-12);
        assert!((rr.hi(0) - 1.0).abs() < 1e-12);
        // Dimension 1 untouched.
        assert_eq!(l.size[1], 1.0);
    }

    #[test]
    fn rect_contains() {
        let r = Rect::unit(2);
        assert!(r.contains(&[0.0, 1.0]));
        assert!(!r.contains(&[1.1, 0.5]));
    }

    #[test]
    fn step_function_splits_at_step() {
        let tree = RegressionTree::fit(&step_data(), 1);
        let split = tree.node(0).split.unwrap();
        assert_eq!(split.param, 0);
        assert!((split.value - 0.5).abs() < 0.05, "split at {}", split.value);
        // The step function is perfectly fit by two leaves; no further
        // splits have positive gain.
        assert_eq!(tree.num_leaves(), 2);
        assert_eq!(tree.predict(&[0.2]), 1.0);
        assert_eq!(tree.predict(&[0.9]), 5.0);
    }

    #[test]
    fn constant_response_never_splits() {
        let pts: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let y = vec![2.5; 10];
        let tree = RegressionTree::fit(&Dataset::new(pts, y).unwrap(), 1);
        assert_eq!(tree.nodes().len(), 1);
        assert_eq!(tree.predict(&[0.7]), 2.5);
    }

    #[test]
    fn p_min_bounds_leaf_sizes() {
        let mut rng = Rng::seed_from_u64(10);
        let pts: Vec<Vec<f64>> = (0..64)
            .map(|_| vec![rng.unit_f64(), rng.unit_f64()])
            .collect();
        let y: Vec<f64> = pts
            .iter()
            .map(|p| p[0] * 3.0 + (p[1] * 7.0).sin())
            .collect();
        let data = Dataset::new(pts, y).unwrap();
        for p_min in [1usize, 2, 4, 8] {
            let tree = RegressionTree::fit(&data, p_min);
            for n in tree.nodes() {
                if n.is_leaf() {
                    assert!(
                        n.count <= p_min || n.sse < 1e-12,
                        "leaf with {} points at p_min={p_min}",
                        n.count
                    );
                }
            }
        }
    }

    #[test]
    fn children_rects_partition_parent() {
        let mut rng = Rng::seed_from_u64(12);
        let pts: Vec<Vec<f64>> = (0..40)
            .map(|_| vec![rng.unit_f64(), rng.unit_f64(), rng.unit_f64()])
            .collect();
        let y: Vec<f64> = pts.iter().map(|p| p[0] + p[1] * p[2]).collect();
        let tree = RegressionTree::fit(&Dataset::new(pts, y).unwrap(), 2);
        for n in tree.nodes() {
            if let (Some(split), Some((l, r))) = (n.split, n.children) {
                let (ln, rn) = (tree.node(l), tree.node(r));
                assert_eq!(n.count, ln.count + rn.count);
                // Rect edges meet exactly at the split value.
                assert!((ln.hi_edge(split.param) - split.value).abs() < 1e-9);
                assert!((rn.lo_edge(split.param) - split.value).abs() < 1e-9);
            }
        }
    }

    impl Node {
        fn hi_edge(&self, k: usize) -> f64 {
            self.rect.hi(k)
        }
        fn lo_edge(&self, k: usize) -> f64 {
            self.rect.lo(k)
        }
    }

    #[test]
    fn splits_ranked_by_sse_reduction() {
        let mut rng = Rng::seed_from_u64(13);
        let pts: Vec<Vec<f64>> = (0..50)
            .map(|_| vec![rng.unit_f64(), rng.unit_f64()])
            .collect();
        // Dimension 0 dominates the response.
        let y: Vec<f64> = pts.iter().map(|p| 10.0 * p[0] + 0.5 * p[1]).collect();
        let tree = RegressionTree::fit(&Dataset::new(pts, y).unwrap(), 2);
        let splits = tree.splits();
        assert!(!splits.is_empty());
        for w in splits.windows(2) {
            assert!(w[0].sse_reduction >= w[1].sse_reduction);
        }
        assert_eq!(splits[0].param, 0, "dominant parameter should split first");
        assert_eq!(splits[0].depth, 1, "most significant split is the root's");
    }

    #[test]
    fn importance_concentrates_on_the_driving_parameter() {
        let mut rng = Rng::seed_from_u64(15);
        let pts: Vec<Vec<f64>> = (0..80)
            .map(|_| vec![rng.unit_f64(), rng.unit_f64(), rng.unit_f64()])
            .collect();
        let y: Vec<f64> = pts.iter().map(|p| 5.0 * p[1] + 0.2 * p[0]).collect();
        let tree = RegressionTree::fit(&Dataset::new(pts, y).unwrap(), 2);
        let imp = tree.importance();
        assert_eq!(imp.len(), 3);
        assert!(imp[1] > imp[0] && imp[1] > imp[2], "{imp:?}");
        // Total importance equals the sum over recorded splits.
        let total: f64 = tree.splits().iter().map(|s| s.sse_reduction).sum();
        assert!((imp.iter().sum::<f64>() - total).abs() < 1e-9);
    }

    #[test]
    fn predict_on_training_points_with_pmin_1_is_exact() {
        let mut rng = Rng::seed_from_u64(14);
        // Distinct x guarantee every point is separable.
        let pts: Vec<Vec<f64>> = (0..32)
            .map(|i| vec![(i as f64 + rng.unit_f64() * 0.5) / 32.0])
            .collect();
        let y: Vec<f64> = pts.iter().map(|p| (p[0] * 13.0).sin()).collect();
        let data = Dataset::new(pts.clone(), y.clone()).unwrap();
        let tree = RegressionTree::fit(&data, 1);
        for (p, &t) in pts.iter().zip(&y) {
            assert!((tree.predict(p) - t).abs() < 1e-9);
        }
    }

    #[test]
    fn random_tree_counts_are_consistent() {
        for seed in 0..32u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let n = 4 + rng.below(56) as usize;
            let pts: Vec<Vec<f64>> = (0..n)
                .map(|_| vec![rng.unit_f64(), rng.unit_f64()])
                .collect();
            let y: Vec<f64> = pts.iter().map(|p| p[0] - p[1] * p[1]).collect();
            let tree = RegressionTree::fit(&Dataset::new(pts, y).unwrap(), 1);
            // Leaf counts sum to n.
            let leaf_total: usize = tree
                .nodes()
                .iter()
                .filter(|nd| nd.is_leaf())
                .map(|nd| nd.count)
                .sum();
            assert_eq!(leaf_total, n, "seed {seed}");
            assert_eq!(tree.node(0).count, n, "seed {seed}");
        }
    }

    #[test]
    fn leaf_index_always_names_a_containing_leaf() {
        for seed in 0..16u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let pts: Vec<Vec<f64>> = (0..40)
                .map(|_| vec![rng.unit_f64(), rng.unit_f64()])
                .collect();
            let y: Vec<f64> = pts.iter().map(|p| p[0] * 3.0 - p[1]).collect();
            let tree = RegressionTree::fit(&Dataset::new(pts, y).unwrap(), 2);
            for _ in 0..20 {
                let x = [rng.unit_f64(), rng.unit_f64()];
                let idx = tree.leaf_index(&x);
                let node = tree.node(idx);
                assert!(node.is_leaf(), "seed {seed}: index {idx} is internal");
                assert!(node.rect.contains(&x), "seed {seed}: leaf rect misses x");
                assert_eq!(tree.predict(&x), node.mean);
            }
        }
    }

    #[test]
    fn random_prediction_is_some_leaf_mean() {
        for seed in 0..32u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let pts: Vec<Vec<f64>> = (0..30)
                .map(|_| vec![rng.unit_f64(), rng.unit_f64()])
                .collect();
            let y: Vec<f64> = pts.iter().map(|p| p[0] * 2.0 + p[1]).collect();
            let tree = RegressionTree::fit(&Dataset::new(pts, y).unwrap(), 3);
            let x = [rng.unit_f64(), rng.unit_f64()];
            let pred = tree.predict(&x);
            let found = tree
                .nodes()
                .iter()
                .filter(|n| n.is_leaf())
                .any(|n| (n.mean - pred).abs() < 1e-12);
            assert!(found, "seed {seed}: prediction {pred} is not any leaf mean");
        }
    }
}
