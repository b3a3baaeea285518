//! Tree-ordered subset selection of RBF centers (paper §2.5).
//!
//! Every node of the regression tree contributes one candidate basis
//! function: center at the node's hyper-rectangle center, radius equal
//! to the rectangle size scaled by α (paper Eq. 8). Candidates are then
//! admitted into the model by the selection-ordering strategy of Orr et
//! al.: starting at the root, each internal node and its two children are
//! toggled through all 8 inclusion combinations, the combination that
//! minimizes the model-selection criterion is committed, and the search
//! descends to the children.

use ppm_linalg::{Cholesky, Matrix};
use ppm_regtree::{Dataset, RegressionTree};

use crate::{Criterion, Rbf, RbfNetwork};

/// Configuration of the subset-selection search.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionConfig {
    /// The criterion to minimize (the paper uses AICc).
    pub criterion: Criterion,
    /// Radius scale α: RBF radius = α × tree-region size (paper Eq. 8).
    pub alpha: f64,
    /// Optional hard cap on the number of centers.
    pub max_centers: Option<usize>,
}

impl SelectionConfig {
    /// A configuration with the given α and the paper's AICc criterion.
    pub fn with_alpha(alpha: f64) -> Self {
        SelectionConfig {
            criterion: Criterion::Aicc,
            alpha,
            max_centers: None,
        }
    }
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig::with_alpha(7.0)
    }
}

/// The outcome of subset selection: the fitted network plus diagnostics.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// The fitted network (selected centers with least-squares weights).
    pub network: RbfNetwork,
    /// Indices (into the tree's node arena) of the selected centers.
    pub selected_nodes: Vec<usize>,
    /// Final criterion value.
    pub score: f64,
    /// Final residual sum of squares on the training sample.
    pub sse: f64,
}

/// Runs tree-ordered subset selection and returns the fitted network.
///
/// Each internal node factors the committed selection minus its trio
/// once; every inclusion combination then extends that factor by its
/// own trio columns, O(m²) per combination instead of O(m³). The choice
/// at each node is the one a full factorization of every combination
/// makes (near-ties are rescored in full), and the final selection is
/// refitted in ascending node order, so the returned weights, score and
/// SSE are those of a full factorization.
///
/// # Panics
///
/// Panics if `config.alpha` is not positive and finite, or if the tree
/// and dataset dimensions disagree.
pub fn select_centers(
    tree: &RegressionTree,
    data: &Dataset,
    config: &SelectionConfig,
) -> SelectionResult {
    let search = Search::new(tree, data, config);
    let mut selected = vec![false; search.candidates.len()];
    let mut current = search.score_extension(&mut search.bordered(Vec::new()), &[]);

    // Breadth-first descent through the tree, toggling each internal
    // node together with its two children (8 combinations).
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(0usize);
    while let Some(idx) = queue.pop_front() {
        let node = tree.node(idx);
        let Some((l, r)) = node.children else {
            continue;
        };
        let trio = [idx, l, r];
        let committed = current_mask(&selected, &trio);
        // The incumbent first, then the alternatives in mask order. A
        // non-empty committed trio is re-scored against this node's base
        // like the others; an empty one is the base itself and keeps the
        // score it won with.
        let masks: Vec<u8> = std::iter::once(committed)
            .chain((0u8..8).filter(|&mask| mask != committed))
            .collect();
        apply_mask(&mut selected, &trio, 0);
        let mut base = search.bordered(selected_cols(&selected));
        let mut options: Vec<Scored> = masks
            .iter()
            .map(|&mask| match mask {
                0 if committed == 0 => current,
                _ => search.score_extension(&mut base, &trio_cols(&trio, mask)),
            })
            .collect();
        let win = pick(&mut options, |i| {
            apply_mask(&mut selected, &trio, masks[i]);
            search.evaluate(&selected_cols(&selected)).score
        });
        apply_mask(&mut selected, &trio, masks[win]);
        current = options[win];
        queue.push_back(l);
        queue.push_back(r);
    }
    search.finish(selected)
}

/// Plain greedy forward selection over all tree-node candidates: add
/// the center that most improves the criterion until no addition helps.
/// Provided as an ablation baseline against the tree-ordered strategy.
/// Each step factors the committed selection once and scores every
/// candidate as one added row.
///
/// # Panics
///
/// Panics under the same conditions as [`select_centers`].
pub fn select_centers_forward(
    tree: &RegressionTree,
    data: &Dataset,
    config: &SelectionConfig,
) -> SelectionResult {
    let search = Search::new(tree, data, config);
    let mut selected = vec![false; search.candidates.len()];
    let mut current = search.score_extension(&mut search.bordered(Vec::new()), &[]);
    loop {
        let mut base = search.bordered(selected_cols(&selected));
        let additions: Vec<usize> = (0..selected.len()).filter(|&i| !selected[i]).collect();
        // Stopping is option 0, so it wins ties like the incumbent does.
        let mut options = vec![current];
        options.extend(
            additions
                .iter()
                .map(|&i| search.score_extension(&mut base, &[i])),
        );
        let win = pick(&mut options, |k| {
            let mut with = selected.clone();
            if k > 0 {
                with[additions[k - 1]] = true;
            }
            search.evaluate(&selected_cols(&with)).score
        });
        if win == 0 {
            break;
        }
        selected[additions[win - 1]] = true;
        current = options[win];
    }
    search.finish(selected)
}

/// Uses *every leaf* of the regression tree as a center (no selection),
/// with ridge-stabilized weights. An ablation baseline showing why
/// subset selection matters.
///
/// # Panics
///
/// Panics under the same conditions as [`select_centers`].
pub fn select_all_leaves(
    tree: &RegressionTree,
    data: &Dataset,
    config: &SelectionConfig,
) -> SelectionResult {
    let search = Search::new(tree, data, config);
    let mut selected: Vec<bool> = tree.nodes().iter().map(|n| n.is_leaf()).collect();
    // Never exceed the data count; drop the deepest leaves if needed.
    let mut count = selected.iter().filter(|&&s| s).count();
    if count + 1 >= data.len() {
        let mut order: Vec<usize> = (0..selected.len()).filter(|&i| selected[i]).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(tree.node(i).depth));
        for &i in &order {
            if count + 1 < data.len() {
                break;
            }
            selected[i] = false;
            count -= 1;
        }
    }
    search.finish(selected)
}

/// Width of the band above the lowest criterion value within which
/// bordered scores are not trusted to order selections.
///
/// A selection scored through a bordered factor meets its columns in a
/// different order than the ascending full factorization, so its score
/// can differ in the last bits: by at most ~1e-5 over the equivalence
/// tests' samples and ~1e-6 over real builds of 60–200 points. Choices
/// between options less than this band apart are rescored exactly; the
/// band holds twice the largest difference seen fifty times over.
const TIE_BAND: f64 = 1e-3;

/// A criterion value for one option of a search step.
#[derive(Debug, Clone, Copy)]
struct Scored {
    score: f64,
    /// Whether `score` is the full ascending factorization's own value
    /// (bordered values are within half of [`TIE_BAND`] of it).
    exact: bool,
}

/// Chooses among `options` exactly as a search that factors every option
/// in full would: the lowest criterion value wins and ties go to the
/// lowest index, with the incumbent selection at index 0.
///
/// An option more than [`TIE_BAND`] above the lowest bordered value has
/// a strictly higher exact value than the lowest option, so it cannot
/// win. If only one option lies within the band it wins outright;
/// otherwise every option in the band is rescored through
/// `exact(index)` — the full ascending factorization — and the winner is
/// taken from those exact values.
fn pick(options: &mut [Scored], mut exact: impl FnMut(usize) -> f64) -> usize {
    let min = options
        .iter()
        .map(|o| o.score)
        .fold(f64::INFINITY, f64::min);
    if min == f64::INFINITY {
        return 0;
    }
    let near: Vec<usize> = (0..options.len())
        .filter(|&i| options[i].score - min <= TIE_BAND)
        .collect();
    if let [only] = near[..] {
        return only;
    }
    for &i in &near {
        if !options[i].exact {
            options[i] = Scored {
                score: exact(i),
                exact: true,
            };
        }
    }
    let mut best = near[0];
    for &i in &near[1..] {
        if options[i].score < options[best].score {
            best = i;
        }
    }
    best
}

#[derive(Debug, Clone)]
struct Evaluation {
    score: f64,
    sse: f64,
    weights: Option<Vec<f64>>,
}

impl Evaluation {
    /// A selection the criterion cannot score (too many centers, or a
    /// system that would not factor even with a ridge).
    const REJECTED: Evaluation = Evaluation {
        score: f64::INFINITY,
        sse: f64::INFINITY,
        weights: None,
    };
}

fn current_mask(selected: &[bool], trio: &[usize; 3]) -> u8 {
    trio.iter()
        .enumerate()
        .map(|(bit, &i)| (selected[i] as u8) << bit)
        .sum()
}

/// The members of `trio` in `mask`, in trio order.
fn trio_cols(trio: &[usize; 3], mask: u8) -> Vec<usize> {
    (0..3)
        .filter(|bit| mask & (1 << bit) != 0)
        .map(|bit| trio[bit])
        .collect()
}

fn apply_mask(selected: &mut [bool], trio: &[usize; 3], mask: u8) {
    for (bit, &i) in trio.iter().enumerate() {
        selected[i] = mask & (1 << bit) != 0;
    }
}

/// The indices of the selected candidates, ascending.
fn selected_cols(selected: &[bool]) -> Vec<usize> {
    selected
        .iter()
        .enumerate()
        .filter_map(|(i, &s)| s.then_some(i))
        .collect()
}

/// The smallest pivot a scored column may add to a bordered factor, as
/// a fraction of its Gram diagonal entry: `L[n][n]² / G[n][n]`, the
/// squared share of the column lying outside the span of the columns
/// before it. Below this the block's condition number passes ~1e12, and
/// weights fitted through two different column orders no longer agree to
/// rounding, so such selections are scored by the ascending refactor
/// (see DESIGN §5).
const MIN_PIVOT_RATIO: f64 = 1e-12;

/// One selection run: the candidate basis functions and the
/// normal-equations view of their design matrix, shared by every
/// strategy.
///
/// The subset search scores thousands of selections against the same
/// candidate set, so the Gram matrix `HᵀH` and right-hand side `Hᵀy`
/// over *all* candidates are computed once, and each scored selection
/// reads its sub-block from them. The residual is still taken over the
/// full design matrix, kept transposed so that each selected center
/// contributes one contiguous axpy.
struct Search<'a> {
    config: &'a SelectionConfig,
    /// Candidate basis functions, one per tree node (paper Eq. 8).
    candidates: Vec<Rbf>,
    /// The candidate design matrix transposed: row `c` holds candidate
    /// `c`'s activation at every sample point.
    h_cols: Matrix,
    /// Gram matrix `HᵀH` over all candidates.
    gram: Matrix,
    /// Right-hand side `Hᵀy` over all candidates.
    hty: Vec<f64>,
    /// Training responses.
    y: &'a [f64],
}

/// A factored base selection that scored selections extend by their
/// own columns and then truncate back to.
struct Bordered {
    /// The base columns ascending, then the columns being scored.
    cols: Vec<usize>,
    /// How many of `cols` belong to the base.
    base: usize,
    /// Cholesky factor of the base block; `None` if it is not positive
    /// definite, which no extension can repair.
    chol: Option<Cholesky>,
    /// `Hᵀy` gathered over `cols`.
    rhs: Vec<f64>,
    /// The forward-solved right-hand side `L⁻¹ Hᵀy` over the factored
    /// columns.
    z: Vec<f64>,
    /// Scratch for one bordered row of the Gram block.
    row: Vec<f64>,
}

impl<'a> Search<'a> {
    fn new(tree: &RegressionTree, data: &'a Dataset, config: &'a SelectionConfig) -> Self {
        assert!(
            config.alpha.is_finite() && config.alpha > 0.0,
            "alpha must be positive, got {}",
            config.alpha
        );
        assert_eq!(tree.dim(), data.dim(), "tree/data dimension mismatch");
        let candidates: Vec<Rbf> = tree
            .nodes()
            .iter()
            .map(|n| {
                let radius = n.rect.size.iter().map(|&s| config.alpha * s).collect();
                Rbf::new(n.rect.center.clone(), radius)
            })
            .collect();
        let h_full = RbfNetwork::design_matrix(&candidates, data.points());
        Search {
            config,
            gram: h_full.gram(),
            hty: h_full.t_matvec(data.y()),
            h_cols: h_full.transpose(),
            candidates,
            y: data.y(),
        }
    }

    /// The outcome of a selection of `m` centers that is decided without
    /// a solve: over the cap, empty, or at least as many centers as
    /// points.
    fn screen(&self, m: usize) -> Option<Evaluation> {
        if self.config.max_centers.is_some_and(|cap| m > cap) {
            return Some(Evaluation::REJECTED);
        }
        if m == 0 {
            let sse: f64 = self.y.iter().map(|v| v * v).sum();
            return Some(Evaluation {
                score: self.config.criterion.score(self.y.len(), 0, sse),
                sse,
                weights: None,
            });
        }
        // More centers than points can never be scored by AICc/GCV and
        // would be singular anyway.
        (m >= self.y.len()).then_some(Evaluation::REJECTED)
    }

    /// Extends `chol` by the Gram row of the last of `cols` against all
    /// of them.
    fn push_col(&self, chol: &mut Cholesky, cols: &[usize], row: &mut Vec<f64>) -> bool {
        let g = self.gram.row(cols[cols.len() - 1]);
        row.clear();
        row.extend(cols.iter().map(|&c| g[c]));
        chol.push_row(row)
    }

    /// [`Search::push_col`] for a column being scored, which must also
    /// keep its pivot above [`MIN_PIVOT_RATIO`] of its Gram diagonal.
    fn extend_col(&self, chol: &mut Cholesky, cols: &[usize], row: &mut Vec<f64>) -> bool {
        let n = cols.len() - 1;
        self.push_col(chol, cols, row) && chol.diag(n) * chol.diag(n) > MIN_PIVOT_RATIO * row[n]
    }

    /// Factors the base selection `cols` (ascending) once, for every
    /// [`Search::score_extension`] at this step.
    fn bordered(&self, cols: Vec<usize>) -> Bordered {
        let m = cols.len();
        let mut chol = Cholesky::with_capacity(m + 3);
        let mut row = Vec::with_capacity(m + 3);
        let factored = (1..=m).all(|i| self.push_col(&mut chol, &cols[..i], &mut row));
        let rhs: Vec<f64> = cols.iter().map(|&c| self.hty[c]).collect();
        let mut z = Vec::with_capacity(m + 3);
        let chol = factored.then(|| {
            chol.extend_forward(&mut z, &rhs);
            chol
        });
        Bordered {
            cols,
            base: m,
            chol,
            rhs,
            z,
            row,
        }
    }

    /// Scores the base selection plus `extra` by extending the base
    /// factor with `extra`'s columns in order. If a new pivot is not
    /// positive, or so small that the block is numerically singular, the
    /// selection is scored by [`Search::evaluate`]'s full ascending
    /// factorization with its ridge fallback instead. Counts one
    /// `rbf.subset_evals` per selection that reaches a solve; exact
    /// rescoring in [`pick`] and the final refit are not counted.
    fn score_extension(&self, b: &mut Bordered, extra: &[usize]) -> Scored {
        if let Some(eval) = self.screen(b.base + extra.len()) {
            return Scored {
                score: eval.score,
                exact: true,
            };
        }
        b.cols.extend_from_slice(extra);
        let (eval, exact) = match self.solve_extended(b) {
            Some(w) => (self.scored(&b.cols, w), false),
            None => {
                let mut cols = b.cols.clone();
                cols.sort_unstable();
                (self.evaluate(&cols), true)
            }
        };
        b.cols.truncate(b.base);
        if eval.weights.is_some() {
            ppm_telemetry::counter("rbf.subset_evals").inc();
        }
        Scored {
            score: eval.score,
            exact,
        }
    }

    /// Weights for all of `b.cols` from the extended factor, leaving `b`
    /// truncated back to its base; `None` if the base or an added pivot
    /// is not positive definite.
    fn solve_extended(&self, b: &mut Bordered) -> Option<Vec<f64>> {
        let Bordered {
            cols,
            base,
            chol,
            rhs,
            z,
            row,
        } = b;
        let chol = chol.as_mut()?;
        let base = *base;
        let mut w = None;
        if (base + 1..=cols.len()).all(|i| self.extend_col(chol, &cols[..i], row)) {
            rhs.extend(cols[base..].iter().map(|&c| self.hty[c]));
            chol.extend_forward(z, rhs);
            w = Some(chol.back_substitute(z));
            rhs.truncate(base);
            z.truncate(base);
        }
        chol.truncate(base);
        w
    }

    /// Fits weights for the selection `cols` (ascending) by a full
    /// Cholesky factorization of its Gram block and scores it.
    fn evaluate(&self, cols: &[usize]) -> Evaluation {
        if let Some(eval) = self.screen(cols.len()) {
            return eval;
        }
        let m = cols.len();
        let g = Matrix::from_fn(m, m, |a, b| self.gram[(cols[a], cols[b])]);
        let rhs: Vec<f64> = cols.iter().map(|&c| self.hty[c]).collect();
        // Greedy selection explores degenerate candidate sets (e.g. a parent
        // and child with nearly identical wide RBFs); fall back to a tiny
        // scaled ridge rather than failing.
        let w = match Cholesky::new(&g).map(|c| c.solve(&rhs)) {
            Some(w) => w,
            None => {
                let scale = (0..m).map(|a| g[(a, a)]).fold(0.0_f64, f64::max).max(1.0);
                let mut ridged = g;
                for a in 0..m {
                    ridged[(a, a)] += 1e-9 * scale;
                }
                match Cholesky::new(&ridged).map(|c| c.solve(&rhs)) {
                    Some(w) => w,
                    None => return Evaluation::REJECTED,
                }
            }
        };
        self.scored(cols, w)
    }

    /// Scores weights `w` on `cols` by their residual on the training
    /// sample, read off the full design matrix (no catastrophic
    /// cancellation, unlike the yᵀy − wᵀHᵀy shortcut). Each point sums
    /// its centers in the order of `cols`.
    fn scored(&self, cols: &[usize], w: Vec<f64>) -> Evaluation {
        let mut fit = vec![0.0; self.y.len()];
        for (&wi, &c) in w.iter().zip(cols) {
            for (f, &h) in fit.iter_mut().zip(self.h_cols.row(c)) {
                *f += wi * h;
            }
        }
        let mut sse = 0.0;
        for (&f, &y) in fit.iter().zip(self.y) {
            let d = f - y;
            sse += d * d;
        }
        Evaluation {
            score: self.config.criterion.score(self.y.len(), cols.len(), sse),
            sse,
            weights: Some(w),
        }
    }

    /// Refits the final selection in ascending order and builds the
    /// result. Never returns an empty model: an empty selection falls
    /// back to the root center, whose wide RBF acts as a quasi-constant
    /// term.
    fn finish(self, mut selected: Vec<bool>) -> SelectionResult {
        if !selected.iter().any(|&s| s) {
            selected[0] = true;
        }
        let selected_nodes = selected_cols(&selected);
        let fitted = self.evaluate(&selected_nodes);
        let weights = fitted.weights.expect("non-empty model has weights");
        let bases: Vec<Rbf> = selected_nodes
            .iter()
            .map(|&i| self.candidates[i].clone())
            .collect();
        SelectionResult {
            network: RbfNetwork::new(bases, weights),
            selected_nodes,
            score: fitted.score,
            sse: fitted.sse,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_regtree::RegressionTree;
    use ppm_rng::Rng;

    /// A smooth response plus a little irreducible roughness, mimicking
    /// the regime of real simulator output (an RBF model can never fit
    /// it exactly, so AICc trades fit against center count).
    fn smooth_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng::seed_from_u64(seed);
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.unit_f64(), rng.unit_f64()])
            .collect();
        let y: Vec<f64> = pts
            .iter()
            .map(|p| 2.0 + (3.0 * p[0]).sin() + p[1] * p[1] + 0.03 * rng.normal())
            .collect();
        Dataset::new(pts, y).unwrap()
    }

    #[test]
    fn selection_fits_smooth_function() {
        let data = smooth_dataset(60, 42);
        let tree = RegressionTree::fit(&data, 1);
        let result = select_centers(&tree, &data, &SelectionConfig::with_alpha(6.0));
        // Training fit should be decent.
        let var: f64 = {
            let mean = data.mean_response();
            data.y().iter().map(|v| (v - mean) * (v - mean)).sum()
        };
        assert!(
            result.sse < 0.2 * var,
            "sse {} vs variance {var}",
            result.sse
        );
        // Far fewer centers than points (paper: "much less than half").
        assert!(result.network.num_centers() < data.len() / 2);
    }

    #[test]
    fn selection_generalizes_to_held_out_points() {
        let data = smooth_dataset(80, 7);
        let tree = RegressionTree::fit(&data, 1);
        let result = select_centers(&tree, &data, &SelectionConfig::with_alpha(6.0));
        let mut rng = Rng::seed_from_u64(1000);
        let mut worst: f64 = 0.0;
        for _ in 0..50 {
            let x = vec![rng.unit_f64(), rng.unit_f64()];
            let truth = 2.0 + (3.0 * x[0]).sin() + x[1] * x[1];
            let err = ((result.network.predict(&x) - truth) / truth).abs();
            worst = worst.max(err);
        }
        assert!(worst < 0.30, "worst relative error {worst}");
    }

    #[test]
    fn selected_nodes_match_network_size() {
        let data = smooth_dataset(40, 3);
        let tree = RegressionTree::fit(&data, 2);
        let result = select_centers(&tree, &data, &SelectionConfig::default());
        assert_eq!(result.selected_nodes.len(), result.network.num_centers());
        for &i in &result.selected_nodes {
            assert!(i < tree.nodes().len());
        }
    }

    #[test]
    fn constant_data_selects_minimal_model() {
        let pts: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
        let y = vec![3.0; 20];
        let data = Dataset::new(pts, y).unwrap();
        let tree = RegressionTree::fit(&data, 1); // a single root node
        let result = select_centers(&tree, &data, &SelectionConfig::default());
        assert_eq!(result.network.num_centers(), 1);
        // Prediction reproduces the constant everywhere in the core of
        // the region (wide RBF is nearly flat).
        assert!((result.network.predict(&[0.5]) - 3.0).abs() < 0.05);
    }

    #[test]
    fn max_centers_is_respected() {
        let data = smooth_dataset(60, 11);
        let tree = RegressionTree::fit(&data, 1);
        let config = SelectionConfig {
            max_centers: Some(3),
            ..SelectionConfig::default()
        };
        let result = select_centers(&tree, &data, &config);
        assert!(result.network.num_centers() <= 3);
    }

    #[test]
    fn forward_selection_also_fits() {
        let data = smooth_dataset(50, 21);
        let tree = RegressionTree::fit(&data, 1);
        let config = SelectionConfig::with_alpha(6.0);
        let fwd = select_centers_forward(&tree, &data, &config);
        assert!(fwd.network.num_centers() >= 1);
        assert!(fwd.sse.is_finite());
        // Greedy forward should achieve a competitive criterion value.
        let orr = select_centers(&tree, &data, &config);
        assert!(
            fwd.score <= orr.score + 50.0,
            "fwd {} vs orr {}",
            fwd.score,
            orr.score
        );
    }

    #[test]
    fn all_leaves_uses_every_leaf_up_to_data_count() {
        let data = smooth_dataset(40, 33);
        let tree = RegressionTree::fit(&data, 4);
        let result = select_all_leaves(
            data_tree_config(&tree),
            &data,
            &SelectionConfig::with_alpha(6.0),
        );
        let leaves = tree.num_leaves();
        assert!(result.network.num_centers() <= leaves);
        assert!(result.network.num_centers() >= leaves.min(data.len() - 2));
    }

    fn data_tree_config(tree: &RegressionTree) -> &RegressionTree {
        tree
    }

    /// The tree-ordered search that factors every scored selection in
    /// full, in ascending node order: the reference the bordered search
    /// must reproduce. `max_m` records the largest selection it scored.
    fn brute_force(
        tree: &RegressionTree,
        data: &Dataset,
        config: &SelectionConfig,
        max_m: &mut usize,
    ) -> SelectionResult {
        let search = Search::new(tree, data, config);
        let mut eval = |selected: &[bool]| {
            let cols = selected_cols(selected);
            *max_m = (*max_m).max(cols.len());
            search.evaluate(&cols)
        };
        let mut selected = vec![false; search.candidates.len()];
        let mut current = eval(&selected);
        let mut queue = std::collections::VecDeque::from([0usize]);
        while let Some(idx) = queue.pop_front() {
            let Some((l, r)) = tree.node(idx).children else {
                continue;
            };
            let trio = [idx, l, r];
            let mut best_mask = current_mask(&selected, &trio);
            let mut best_eval = current.clone();
            for mask in 0u8..8 {
                if mask == current_mask(&selected, &trio) {
                    continue;
                }
                apply_mask(&mut selected, &trio, mask);
                let e = eval(&selected);
                if e.score < best_eval.score {
                    best_eval = e;
                    best_mask = mask;
                }
            }
            apply_mask(&mut selected, &trio, best_mask);
            current = best_eval;
            queue.extend([l, r]);
        }
        if !selected.iter().any(|&s| s) {
            selected[0] = true;
            current = eval(&selected);
        }
        let selected_nodes = selected_cols(&selected);
        let bases = selected_nodes
            .iter()
            .map(|&i| search.candidates[i].clone())
            .collect();
        SelectionResult {
            network: RbfNetwork::new(bases, current.weights.unwrap()),
            selected_nodes,
            score: current.score,
            sse: current.sse,
        }
    }

    /// Greedy forward selection refactoring every candidate set in full.
    fn brute_force_forward(
        tree: &RegressionTree,
        data: &Dataset,
        config: &SelectionConfig,
    ) -> SelectionResult {
        let search = Search::new(tree, data, config);
        let mut selected = vec![false; search.candidates.len()];
        let mut current = search.evaluate(&[]);
        loop {
            let mut best: Option<(usize, Evaluation)> = None;
            for i in 0..selected.len() {
                if selected[i] {
                    continue;
                }
                selected[i] = true;
                let e = search.evaluate(&selected_cols(&selected));
                selected[i] = false;
                if e.score < current.score && best.as_ref().is_none_or(|(_, b)| e.score < b.score) {
                    best = Some((i, e));
                }
            }
            let Some((i, e)) = best else { break };
            selected[i] = true;
            current = e;
        }
        search.finish(selected)
    }

    fn assert_identical(got: &SelectionResult, want: &SelectionResult, what: &str) {
        assert_eq!(got.selected_nodes, want.selected_nodes, "{what}: nodes");
        assert_eq!(got.score.to_bits(), want.score.to_bits(), "{what}: score");
        assert_eq!(got.sse.to_bits(), want.sse.to_bits(), "{what}: sse");
        let bits = |r: &SelectionResult| -> Vec<u64> {
            r.network.weights().iter().map(|w| w.to_bits()).collect()
        };
        assert_eq!(bits(got), bits(want), "{what}: weights");
        assert_eq!(got.network, want.network, "{what}: network");
    }

    /// A 9-D sample shaped like the design space: a smooth CPI-like
    /// surface with interactions and a little noise.
    fn nine_d_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng::seed_from_u64(seed);
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..9).map(|_| rng.unit_f64()).collect())
            .collect();
        let y = pts
            .iter()
            .map(|p| {
                1.0 + 0.8 * p[0] + 0.5 * (3.0 * p[1]).sin() + p[2] * p[3] + 0.3 * p[4] * p[4]
                    - 0.2 * p[5]
                    + 0.1 * (p[6] - p[7]).abs()
                    + 0.02 * rng.normal()
            })
            .collect();
        Dataset::new(pts, y).unwrap()
    }

    /// `data` with its first `k` points repeated (same responses).
    fn with_duplicates(data: &Dataset, k: usize) -> Dataset {
        let mut pts = data.points().to_vec();
        let mut y = data.y().to_vec();
        pts.extend_from_slice(&data.points()[..k]);
        y.extend_from_slice(&data.y()[..k]);
        Dataset::new(pts, y).unwrap()
    }

    /// Runs the bordered and brute-force searches over a small grid and
    /// asserts they return the same result bit for bit; returns the
    /// largest selection the reference scored.
    fn check_grid(
        name: &str,
        data: &Dataset,
        p_mins: &[usize],
        configs: &[SelectionConfig],
    ) -> usize {
        let mut max_m = 0;
        for &p_min in p_mins {
            let tree = RegressionTree::fit(data, p_min);
            for config in configs {
                let what = format!("{name} p_min={p_min} {config:?}");
                let want = brute_force(&tree, data, config, &mut max_m);
                assert_identical(&select_centers(&tree, data, config), &want, &what);
            }
        }
        max_m
    }

    fn alphas(alphas: &[f64]) -> Vec<SelectionConfig> {
        alphas
            .iter()
            .map(|&a| SelectionConfig::with_alpha(a))
            .collect()
    }

    #[test]
    fn bordered_search_matches_brute_force_in_2d() {
        for (n, seed) in [(20usize, 1u64), (45, 2), (80, 3)] {
            let data = smooth_dataset(n, seed);
            check_grid("2-D", &data, &[1, 2], &alphas(&[2.0, 6.0, 12.0]));
        }
    }

    #[test]
    fn bordered_search_matches_brute_force_in_9d() {
        for (n, seed) in [(30usize, 4u64), (60, 5)] {
            let data = nine_d_dataset(n, seed);
            check_grid("9-D", &data, &[1, 3], &alphas(&[3.0, 7.0, 12.0]));
        }
    }

    #[test]
    fn bordered_search_matches_brute_force_on_degenerate_samples() {
        // Repeated points give repeated candidate columns and
        // non-positive-definite blocks, exercising the ridge fallback.
        check_grid(
            "dup 2-D",
            &with_duplicates(&smooth_dataset(30, 6), 12),
            &[1, 2],
            &alphas(&[2.0, 8.0]),
        );
        check_grid(
            "dup 9-D",
            &with_duplicates(&nine_d_dataset(25, 7), 10),
            &[1],
            &alphas(&[5.0]),
        );
        // A constant response splits nothing: the root alone is fitted.
        let pts = smooth_dataset(24, 8).points().to_vec();
        let constant = Dataset::new(pts, vec![3.0; 24]).unwrap();
        check_grid("constant", &constant, &[1], &alphas(&[4.0]));
        // Radii far beyond the paper's grid make every candidate nearly
        // flat: Gram blocks are numerically singular, new pivots fall
        // below MIN_PIVOT_RATIO or go non-positive, and the ridge path
        // decides.
        check_grid(
            "wide 2-D",
            &smooth_dataset(60, 0),
            &[1],
            &alphas(&[1e2, 1e4, 1e6]),
        );
        check_grid(
            "wide 9-D",
            &nine_d_dataset(40, 15),
            &[1],
            &alphas(&[3e2, 1e4]),
        );
    }

    #[test]
    fn bordered_search_matches_brute_force_under_a_center_cap() {
        let configs: Vec<SelectionConfig> = [1, 3, 5]
            .into_iter()
            .map(|cap| SelectionConfig {
                max_centers: Some(cap),
                ..SelectionConfig::with_alpha(6.0)
            })
            .collect();
        check_grid("cap 2-D", &smooth_dataset(50, 9), &[1], &configs);
        check_grid("cap 9-D", &nine_d_dataset(40, 10), &[1], &configs);
    }

    /// BIC never saturates, so a tiny sample drives the search into
    /// selections of `p - 1` and more centers (rejected by the screen
    /// or the criterion); GCV and AICc meet their own limits there.
    #[test]
    fn bordered_search_matches_brute_force_at_the_point_count() {
        for criterion in [Criterion::Bic, Criterion::Gcv, Criterion::Aicc] {
            let configs: Vec<SelectionConfig> = [1.0, 3.0]
                .into_iter()
                .map(|alpha| SelectionConfig {
                    criterion,
                    ..SelectionConfig::with_alpha(alpha)
                })
                .collect();
            let data = smooth_dataset(12, 12);
            let max_m = check_grid("small", &data, &[1], &configs);
            assert!(
                max_m + 1 >= data.len(),
                "{criterion:?} scored at most {max_m} centers"
            );
        }
    }

    #[test]
    fn forward_selection_matches_brute_force() {
        for (data, alpha) in [(smooth_dataset(40, 13), 6.0), (nine_d_dataset(30, 14), 7.0)] {
            let tree = RegressionTree::fit(&data, 1);
            let config = SelectionConfig::with_alpha(alpha);
            assert_identical(
                &select_centers_forward(&tree, &data, &config),
                &brute_force_forward(&tree, &data, &config),
                "forward",
            );
        }
    }

    /// The paper-scale case: 200 points in 9-D over the full default
    /// 27-cell (p_min, α) grid. Run with
    /// `cargo test --release -p ppm-rbf -- --ignored`.
    #[test]
    #[ignore = "paper scale; run in release with --ignored"]
    fn bordered_search_matches_brute_force_at_paper_scale() {
        let data = nine_d_dataset(200, 2006);
        let grid = crate::RbfTrainer::default();
        check_grid(
            "paper",
            &data,
            &grid.p_min_candidates,
            &alphas(&grid.alpha_candidates),
        );
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn invalid_alpha_panics() {
        let data = smooth_dataset(10, 0);
        let tree = RegressionTree::fit(&data, 1);
        select_centers(&tree, &data, &SelectionConfig::with_alpha(0.0));
    }
}
