//! From-scratch ML classifiers for NIDS evaluation (paper §V-B):
//! CART decision tree, random forest, multinomial logistic regression,
//! k-nearest-neighbours and Gaussian naive Bayes.

use kinet_tensor::Matrix;
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// A multi-class classifier over dense feature matrices.
pub trait Classifier {
    /// Short model name.
    fn name(&self) -> &str;

    /// Trains on `x` (`n × d`) with labels `y` in `0..n_classes`.
    ///
    /// # Panics
    ///
    /// Panics when `x.rows() != y.len()` or the data is empty.
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize);

    /// Predicts one class per row.
    fn predict(&self, x: &Matrix) -> Vec<usize>;
}

/// Accuracy of predictions against ground truth.
///
/// # Panics
///
/// Panics when lengths differ or are zero.
pub fn accuracy(pred: &[usize], truth: &[usize]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "prediction/truth length mismatch");
    assert!(!pred.is_empty(), "accuracy of empty predictions");
    pred.iter().zip(truth).filter(|(p, t)| p == t).count() as f64 / pred.len() as f64
}

/// Macro-averaged F1 score over `n_classes`.
pub fn macro_f1(pred: &[usize], truth: &[usize], n_classes: usize) -> f64 {
    let mut f1_sum = 0.0;
    for c in 0..n_classes {
        let tp = pred
            .iter()
            .zip(truth)
            .filter(|(p, t)| **p == c && **t == c)
            .count() as f64;
        let fp = pred
            .iter()
            .zip(truth)
            .filter(|(p, t)| **p == c && **t != c)
            .count() as f64;
        let fneg = pred
            .iter()
            .zip(truth)
            .filter(|(p, t)| **p != c && **t == c)
            .count() as f64;
        let precision = if tp + fp > 0.0 { tp / (tp + fp) } else { 0.0 };
        let recall = if tp + fneg > 0.0 {
            tp / (tp + fneg)
        } else {
            0.0
        };
        f1_sum += if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
    }
    f1_sum / n_classes as f64
}

// ---------------------------------------------------------------- tree --

#[derive(Clone, Debug)]
enum TreeNode {
    Leaf {
        class: usize,
    },
    Split {
        feature: usize,
        threshold: f32,
        left: Box<TreeNode>,
        right: Box<TreeNode>,
    },
}

/// Most candidate thresholds one (node, feature) search tries.
const MAX_CANDIDATES: usize = 12;

/// `f32::total_cmp`'s order as an unsigned key.
fn order_key(v: f32) -> u32 {
    let bits = v.to_bits();
    if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    }
}

/// A fit's columns, coded once for every node's split search: each cell
/// becomes its index among its column's distinct values in `total_cmp`
/// order, distinct by bits (so `-0.0` and `+0.0` have codes of their own,
/// and so does each NaN bit pattern). Code order is value order, so a
/// node marks its codes and walks them in order instead of sorting.
struct RankCodes {
    rows: usize,
    /// Column-major: column `f`'s codes are `codes[f * rows..(f + 1) * rows]`.
    codes: Vec<u32>,
    /// Column `f`'s distinct values in code order are
    /// `values[starts[f]..starts[f + 1]]`.
    values: Vec<f32>,
    starts: Vec<usize>,
    /// Per column, the codes `lo..hi` that are not NaN: `total_cmp` puts
    /// negative NaNs first and positive NaNs last.
    numbers: Vec<(u32, u32)>,
    /// The most distinct values any column has.
    widest: usize,
}

impl RankCodes {
    /// Codes every column of `x` with one sort per column.
    fn new(x: &Matrix) -> Self {
        let (n, d) = x.shape();
        assert!(u32::try_from(n).is_ok(), "too many rows to rank-code");
        let mut codes = vec![0u32; n * d];
        let mut values = Vec::new();
        let mut starts = Vec::with_capacity(d + 1);
        let mut numbers = Vec::with_capacity(d);
        let mut keyed: Vec<u64> = Vec::with_capacity(n);
        let mut widest = 0;
        for (f, column) in codes.chunks_exact_mut(n.max(1)).take(d).enumerate() {
            keyed.clear();
            keyed.extend((0..n).map(|r| u64::from(order_key(x[(r, f)])) << 32 | r as u64));
            keyed.sort_unstable();
            let start = values.len();
            starts.push(start);
            let mut last_key = None;
            for &k in &keyed {
                let r = (k & u64::from(u32::MAX)) as usize;
                if last_key != Some(k >> 32) {
                    last_key = Some(k >> 32);
                    values.push(x[(r, f)]);
                }
                column[r] = (values.len() - start - 1) as u32;
            }
            let distinct = &values[start..];
            widest = widest.max(distinct.len());
            let lo = distinct.partition_point(|v| v.is_nan() && v.is_sign_negative());
            let hi = distinct.partition_point(|v| !(v.is_nan() && v.is_sign_positive()));
            numbers.push((lo as u32, hi as u32));
        }
        starts.push(values.len());
        Self {
            rows: n,
            codes,
            values,
            starts,
            numbers,
            widest,
        }
    }

    /// Column `f`'s codes, one per row of the fit.
    fn codes_of(&self, f: usize) -> &[u32] {
        &self.codes[f * self.rows..(f + 1) * self.rows]
    }

    /// Column `f`'s distinct values, indexed by code.
    fn distinct_of(&self, f: usize) -> &[f32] {
        &self.values[self.starts[f]..self.starts[f + 1]]
    }
}

/// What every node of one tree reads: the features, their rank codes, the
/// labels, and each row's multiplicity (its bootstrap draw count in a
/// forest, 1 in a lone tree).
struct TrainSet<'a> {
    x: &'a Matrix,
    codes: &'a RankCodes,
    y: &'a [usize],
    weights: &'a [u32],
    n_classes: usize,
}

/// What one tree's build carries from node to node: the feature-subsample
/// RNG and the split search's buffers, reused across features and nodes.
struct BuildState {
    rng: StdRng,
    /// The sampled features of the node being split.
    features: Vec<usize>,
    /// The node's weighted class counts.
    counts: Vec<usize>,
    /// A bitset over a wide column's codes; all clear between searches.
    marks: Vec<u64>,
    /// The node's codes on one feature, ascending.
    present: Vec<u32>,
    /// The distinct values the quantile thresholds are taken from.
    vals: Vec<f32>,
    /// The candidate thresholds, in the order they are tried.
    thresholds: Vec<f32>,
    /// Per code, the first candidate whose left side holds it
    /// (`MAX_CANDIDATES` when none does).
    first_left: Vec<u8>,
    /// Weighted counts per (first candidate, class).
    hist: Vec<usize>,
    /// Per-class counts left and right of the current threshold.
    left: Vec<usize>,
    right: Vec<usize>,
    /// Right-side rows set aside while a node's rows are partitioned.
    parked: Vec<usize>,
}

impl BuildState {
    fn new(seed: u64, set: &TrainSet<'_>) -> Self {
        let widest = set.codes.widest;
        Self {
            rng: StdRng::seed_from_u64(seed),
            features: Vec::with_capacity(set.x.cols()),
            counts: Vec::with_capacity(set.n_classes + 1),
            marks: vec![0; widest.div_ceil(64)],
            present: Vec::with_capacity(widest),
            vals: Vec::with_capacity(set.x.rows()),
            thresholds: Vec::with_capacity(MAX_CANDIDATES),
            first_left: vec![0; widest],
            hist: Vec::with_capacity((MAX_CANDIDATES + 1) * (set.n_classes + 1)),
            left: Vec::with_capacity(set.n_classes + 1),
            right: Vec::with_capacity(set.n_classes + 1),
            parked: Vec::with_capacity(set.x.rows()),
        }
    }

    /// Offers the node's candidate splits on feature `f` to `best`. The
    /// candidates are up to 12 quantile midpoints `(v[i] + v[i+1]) / 2` of
    /// the node's distinct values `v`, built by walking the node's codes
    /// in order: `==` merges `±0.0`, and each NaN row (counted with its
    /// multiplicity) adds an entry of its own. Each code is given the
    /// first candidate whose left side (`x <= thr`) holds it, one pass
    /// over the rows counts rows per (first candidate, class), and a
    /// running sum over the candidates gives each one's left counts. A
    /// candidate is taken when its Gini gain beats the best so far (the
    /// first must beat `1e-9`).
    fn search_feature(
        &mut self,
        set: &TrainSet<'_>,
        f: usize,
        rows: &[usize],
        total: usize,
        parent_gini: f64,
        best: &mut Option<(f64, usize, f32)>,
    ) {
        let codes = set.codes.codes_of(f);
        let distinct = set.codes.distinct_of(f);
        let (lo, hi) = set.codes.numbers[f];

        // The node's codes, ascending: from a register word when the
        // column has at most 64 codes, else from the bitset.
        self.present.clear();
        if distinct.len() <= 64 {
            let mut word = 0u64;
            for &r in rows {
                word |= 1 << codes[r];
            }
            push_set_bits(word, 0, &mut self.present);
        } else {
            for &r in rows {
                let c = codes[r] as usize;
                self.marks[c / 64] |= 1 << (c % 64);
            }
            let n_words = distinct.len().div_ceil(64);
            for (i, word) in self.marks[..n_words].iter_mut().enumerate() {
                push_set_bits(std::mem::take(word), i * 64, &mut self.present);
            }
        }

        // The weighted NaN rows, each its own entry: negative NaNs sort
        // first and positive NaNs last.
        let (mut nan_below, mut nan_above) = (0, 0);
        if self.present.first().is_some_and(|&c| c < lo)
            || self.present.last().is_some_and(|&c| c >= hi)
        {
            for &r in rows {
                let w = set.weights[r] as usize;
                if codes[r] < lo {
                    nan_below += w;
                } else if codes[r] >= hi {
                    nan_above += w;
                }
            }
        }
        self.vals.clear();
        self.vals.resize(nan_below, f32::NAN);
        for &c in &self.present {
            let v = distinct[c as usize];
            if !v.is_nan() && self.vals.last() != Some(&v) {
                self.vals.push(v);
            }
        }
        self.vals.resize(self.vals.len() + nan_above, f32::NAN);
        if self.vals.len() < 2 {
            return;
        }

        let n_vals = self.vals.len();
        let n_cand = MAX_CANDIDATES.min(n_vals - 1);
        self.thresholds.clear();
        for ci in 0..n_cand {
            let q = (ci + 1) as f64 / (n_cand + 1) as f64;
            let idx = ((q * (n_vals - 1) as f64) as usize).min(n_vals - 2);
            self.thresholds
                .push((self.vals[idx] + self.vals[idx + 1]) / 2.0);
        }
        // Midpoints of nondecreasing pairs never decrease, so the codes,
        // walked in value order, reach their first candidate in order too.
        // Nothing is `<= NaN` and NaN is `<=` nothing: a NaN threshold
        // holds no code, and a NaN code is held by no threshold.
        debug_assert!(
            self.thresholds
                .iter()
                .filter(|t| !t.is_nan())
                .is_sorted_by(|a, b| a <= b),
            "split thresholds must not decrease"
        );
        let mut ci = 0;
        for &c in &self.present {
            let v = distinct[c as usize];
            self.first_left[c as usize] = if v.is_nan() {
                MAX_CANDIDATES as u8
            } else {
                while ci < n_cand && (self.thresholds[ci].is_nan() || v > self.thresholds[ci]) {
                    ci += 1;
                }
                ci as u8
            };
        }

        let stride = self.counts.len();
        self.hist.clear();
        self.hist.resize((MAX_CANDIDATES + 1) * stride, 0);
        for &r in rows {
            let slot = usize::from(self.first_left[codes[r] as usize]) * stride + set.y[r];
            self.hist[slot] += set.weights[r] as usize;
        }

        self.left.clear();
        self.left.resize(stride, 0);
        self.right.clear();
        self.right.resize(stride, 0);
        let mut ln = 0;
        for (&thr, held) in self.thresholds.iter().zip(self.hist.chunks_exact(stride)) {
            for (l, &h) in self.left.iter_mut().zip(held) {
                *l += h;
                ln += h;
            }
            let rn = total - ln;
            // a NaN threshold's left side is empty
            if thr.is_nan() || ln == 0 || rn == 0 {
                continue;
            }
            for ((r, &c), &l) in self.right.iter_mut().zip(&self.counts).zip(&self.left) {
                *r = c - l;
            }
            let w_gini = (ln as f64 * DecisionTree::gini(&self.left, ln)
                + rn as f64 * DecisionTree::gini(&self.right, rn))
                / total as f64;
            let gain = parent_gini - w_gini;
            if best.map(|(g, _, _)| gain > g).unwrap_or(gain > 1e-9) {
                *best = Some((gain, f, thr));
            }
        }
    }
}

/// Appends the positions of `word`'s set bits, plus `base`, ascending.
fn push_set_bits(mut word: u64, base: usize, out: &mut Vec<u32>) {
    while word != 0 {
        out.push((base + word.trailing_zeros() as usize) as u32);
        word &= word - 1;
    }
}

/// Moves the rows that pass `goes_left` to the front of `rows`, each side
/// keeping its order, and returns how many went left.
fn partition_rows(
    rows: &mut [usize],
    parked: &mut Vec<usize>,
    goes_left: impl Fn(usize) -> bool,
) -> usize {
    parked.clear();
    let mut n_left = 0;
    for i in 0..rows.len() {
        let r = rows[i];
        if goes_left(r) {
            rows[n_left] = r;
            n_left += 1;
        } else {
            parked.push(r);
        }
    }
    rows[n_left..].copy_from_slice(parked);
    n_left
}

/// CART decision tree with Gini impurity and quantile candidate splits.
#[derive(Clone, Debug)]
pub struct DecisionTree {
    max_depth: usize,
    min_samples: usize,
    feature_subsample: Option<usize>,
    seed: u64,
    root: Option<TreeNode>,
}

impl DecisionTree {
    /// A tree with the given depth cap.
    pub fn new(max_depth: usize) -> Self {
        Self {
            max_depth,
            min_samples: 4,
            feature_subsample: None,
            seed: 0,
            root: None,
        }
    }

    fn with_feature_subsample(mut self, k: usize, seed: u64) -> Self {
        self.feature_subsample = Some(k.max(1));
        self.seed = seed;
        self
    }

    fn gini(counts: &[usize], total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let mut g = 1.0;
        for &c in counts {
            let p = c as f64 / total as f64;
            g -= p * p;
        }
        g
    }

    fn majority(counts: &[usize]) -> usize {
        counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Grows the tree over `rows`: distinct rows of `set`, ascending.
    fn grow(&mut self, set: &TrainSet<'_>, rows: &mut [usize]) {
        let mut state = BuildState::new(self.seed, set);
        self.root = Some(self.build(set, rows, 0, &mut state));
    }

    /// Grows the subtree over `rows`, each counted `set.weights[r]` times.
    /// The node stops at the depth cap, below `min_samples` weighted rows,
    /// or when it is pure; otherwise each sampled feature, in order, offers
    /// its candidates to [`BuildState::search_feature`], and the best
    /// split's two sides are grown in turn. The tree depends only on each
    /// node's multiset of `(value, label)` pairs, so it matches the one
    /// grown on a copy holding each row `weights[r]` times.
    fn build(
        &self,
        set: &TrainSet<'_>,
        rows: &mut [usize],
        depth: usize,
        state: &mut BuildState,
    ) -> TreeNode {
        state.counts.clear();
        state.counts.resize(set.n_classes + 1, 0);
        let mut total = 0;
        for &r in rows.iter() {
            let w = set.weights[r] as usize;
            state.counts[set.y[r]] += w;
            total += w;
        }
        let node_class = Self::majority(&state.counts);
        if depth >= self.max_depth
            || total < self.min_samples
            || state.counts.iter().filter(|&&c| c > 0).count() <= 1
        {
            return TreeNode::Leaf { class: node_class };
        }

        let d = set.x.cols();
        state.features.clear();
        state.features.extend(0..d);
        if let Some(k) = self.feature_subsample {
            for i in (1..d).rev() {
                let j = state.rng.random_range(0..=i);
                state.features.swap(i, j);
            }
            state.features.truncate(k.min(d));
        }

        let parent_gini = Self::gini(&state.counts, total);
        let mut best: Option<(f64, usize, f32)> = None;
        for i in 0..state.features.len() {
            let f = state.features[i];
            state.search_feature(set, f, rows, total, parent_gini, &mut best);
        }

        match best {
            None => TreeNode::Leaf { class: node_class },
            Some((_, feature, threshold)) => {
                let n_left = partition_rows(rows, &mut state.parked, |r| {
                    set.x[(r, feature)] <= threshold
                });
                let (left_rows, right_rows) = rows.split_at_mut(n_left);
                let left = self.build(set, left_rows, depth + 1, state);
                let right = self.build(set, right_rows, depth + 1, state);
                TreeNode::Split {
                    feature,
                    threshold,
                    left: Box::new(left),
                    right: Box::new(right),
                }
            }
        }
    }

    fn predict_row(&self, x: &Matrix, r: usize) -> usize {
        let mut node = self.root.as_ref().expect("classifier not fitted");
        loop {
            match node {
                TreeNode::Leaf { class } => return *class,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[(r, *feature)] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

impl Default for DecisionTree {
    fn default() -> Self {
        Self::new(10)
    }
}

impl Classifier for DecisionTree {
    fn name(&self) -> &str {
        "DecisionTree"
    }

    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize) {
        assert_eq!(x.rows(), y.len(), "feature/label mismatch");
        assert!(!y.is_empty(), "cannot fit on empty data");
        let codes = RankCodes::new(x);
        let weights = vec![1; x.rows()];
        let set = TrainSet {
            x,
            codes: &codes,
            y,
            weights: &weights,
            n_classes,
        };
        let mut rows: Vec<usize> = (0..x.rows()).collect();
        self.grow(&set, &mut rows);
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        (0..x.rows()).map(|r| self.predict_row(x, r)).collect()
    }
}

// -------------------------------------------------------------- forest --

/// Bagged random forest with √d feature subsampling per split.
#[derive(Clone, Debug)]
pub struct RandomForest {
    n_trees: usize,
    max_depth: usize,
    seed: u64,
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// A forest of `n_trees` trees with the given depth cap.
    pub fn new(n_trees: usize, max_depth: usize) -> Self {
        Self {
            n_trees,
            max_depth,
            seed: 7,
            trees: Vec::new(),
            n_classes: 0,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for RandomForest {
    fn default() -> Self {
        Self::new(20, 10)
    }
}

impl Classifier for RandomForest {
    fn name(&self) -> &str {
        "RandomForest"
    }

    /// Fits each tree on a bootstrap sample of `x`: the rank codes are
    /// built once and shared, and a tree grows on `x` itself, each row
    /// counted as often as it was drawn.
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize) {
        assert_eq!(x.rows(), y.len(), "feature/label mismatch");
        assert!(!y.is_empty(), "cannot fit on empty data");
        self.n_classes = n_classes;
        self.trees.clear();
        let n = x.rows();
        let k = (x.cols() as f64).sqrt().ceil() as usize;
        let codes = RankCodes::new(x);
        let mut weights = vec![0u32; n];
        let mut rows = Vec::with_capacity(n);
        let mut rng = StdRng::seed_from_u64(self.seed);
        for t in 0..self.n_trees {
            weights.fill(0);
            for _ in 0..n {
                weights[rng.random_range(0..n)] += 1;
            }
            rows.clear();
            rows.extend((0..n).filter(|&r| weights[r] > 0));
            let set = TrainSet {
                x,
                codes: &codes,
                y,
                weights: &weights,
                n_classes,
            };
            let mut tree = DecisionTree::new(self.max_depth)
                .with_feature_subsample(k, self.seed.wrapping_add(t as u64));
            tree.grow(&set, &mut rows);
            self.trees.push(tree);
        }
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        assert!(!self.trees.is_empty(), "classifier not fitted");
        let votes: Vec<Vec<usize>> = self.trees.iter().map(|t| t.predict(x)).collect();
        (0..x.rows())
            .map(|r| {
                let mut counts = vec![0usize; self.n_classes + 1];
                for v in &votes {
                    counts[v[r]] += 1;
                }
                DecisionTree::majority(&counts)
            })
            .collect()
    }
}

// ------------------------------------------------------------ logistic --

/// Multinomial logistic regression trained by full-batch gradient descent
/// with momentum. Features are standardized internally so the step size is
/// scale-free.
#[derive(Clone, Debug)]
pub struct LogisticRegression {
    epochs: usize,
    lr: f32,
    l2: f32,
    w: Option<Matrix>,
    b: Option<Matrix>,
    mu: Option<Matrix>,
    sd: Option<Matrix>,
}

impl LogisticRegression {
    /// A model trained for `epochs` full-batch steps.
    pub fn new(epochs: usize, lr: f32) -> Self {
        Self {
            epochs,
            lr,
            l2: 1e-4,
            w: None,
            b: None,
            mu: None,
            sd: None,
        }
    }
}

impl Default for LogisticRegression {
    fn default() -> Self {
        Self::new(200, 0.5)
    }
}

impl Classifier for LogisticRegression {
    fn name(&self) -> &str {
        "LogisticRegression"
    }

    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize) {
        assert_eq!(x.rows(), y.len(), "feature/label mismatch");
        assert!(!y.is_empty(), "cannot fit on empty data");
        let (x, mu, sd) = x.standardize_columns();
        let (n, d) = x.shape();
        let k = n_classes.max(2);
        let mut w = Matrix::zeros(d, k);
        let mut b = Matrix::zeros(1, k);
        let mut vw = Matrix::zeros(d, k);
        let mut vb = Matrix::zeros(1, k);
        let onehot = Matrix::from_fn(n, k, |r, c| if y[r] == c { 1.0 } else { 0.0 });
        for _ in 0..self.epochs {
            let logits = x.matmul(&w).add_row_broadcast(&b);
            let probs = softmax_rows(&logits);
            let mut err = probs.sub(&onehot);
            err.scale_inplace(1.0 / n as f32);
            // Fused momentum updates: same per-element operation order as
            // the allocating `v.scale(0.9).add(&g)` formulation.
            let mut gw = x.matmul_tn(&err);
            gw.add_assign_scaled(&w, self.l2);
            let gb = err.sum_rows();
            for (v, &g) in vw.as_mut_slice().iter_mut().zip(gw.as_slice()) {
                *v = *v * 0.9 + g;
            }
            for (v, &g) in vb.as_mut_slice().iter_mut().zip(gb.as_slice()) {
                *v = *v * 0.9 + g;
            }
            w.add_assign_scaled(&vw, -self.lr);
            b.add_assign_scaled(&vb, -self.lr);
        }
        self.w = Some(w);
        self.b = Some(b);
        self.mu = Some(mu);
        self.sd = Some(sd);
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        let w = self.w.as_ref().expect("classifier not fitted");
        let b = self.b.as_ref().expect("classifier not fitted");
        let mu = self.mu.as_ref().expect("classifier not fitted");
        let sd = self.sd.as_ref().expect("classifier not fitted");
        let x = x.sub_row_broadcast(mu).div_row_broadcast(sd);
        x.matmul(w).add_row_broadcast(b).argmax_rows()
    }
}

fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

// ----------------------------------------------------------------- knn --

/// Brute-force k-nearest-neighbours with Euclidean distance, subsampling
/// the reference set for tractability on large tables.
#[derive(Clone, Debug)]
pub struct KNearest {
    k: usize,
    max_reference: usize,
    x: Option<Matrix>,
    y: Vec<usize>,
}

impl KNearest {
    /// A k-NN classifier with the given neighbourhood size.
    pub fn new(k: usize) -> Self {
        Self {
            k: k.max(1),
            max_reference: 4000,
            x: None,
            y: Vec::new(),
        }
    }
}

impl Default for KNearest {
    fn default() -> Self {
        Self::new(5)
    }
}

impl Classifier for KNearest {
    fn name(&self) -> &str {
        "kNN"
    }

    fn fit(&mut self, x: &Matrix, y: &[usize], _n_classes: usize) {
        assert_eq!(x.rows(), y.len(), "feature/label mismatch");
        assert!(!y.is_empty(), "cannot fit on empty data");
        if x.rows() > self.max_reference {
            let mut rng = StdRng::seed_from_u64(13);
            let rows: Vec<usize> = (0..self.max_reference)
                .map(|_| rng.random_range(0..x.rows()))
                .collect();
            self.x = Some(x.select_rows(&rows));
            self.y = rows.iter().map(|&r| y[r]).collect();
        } else {
            self.x = Some(x.clone());
            self.y = y.to_vec();
        }
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        let train = self.x.as_ref().expect("classifier not fitted");
        let n_classes = self.y.iter().copied().max().unwrap_or(0) + 1;
        (0..x.rows())
            .map(|r| {
                let query = x.row(r);
                let mut dists: Vec<(f32, usize)> = (0..train.rows())
                    .map(|tr| {
                        let row = train.row(tr);
                        let d: f32 = query.iter().zip(row).map(|(a, b)| (a - b) * (a - b)).sum();
                        (d, self.y[tr])
                    })
                    .collect();
                dists.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut counts = vec![0usize; n_classes + 1];
                for (_, label) in dists.iter().take(self.k) {
                    counts[*label] += 1;
                }
                DecisionTree::majority(&counts)
            })
            .collect()
    }
}

// -------------------------------------------------------------- bayes --

/// Gaussian naive Bayes over the encoded features.
#[derive(Clone, Debug, Default)]
pub struct GaussianNb {
    priors: Vec<f64>,
    means: Vec<Vec<f64>>,
    vars: Vec<Vec<f64>>,
}

impl GaussianNb {
    /// Creates an unfitted model.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Classifier for GaussianNb {
    fn name(&self) -> &str {
        "NaiveBayes"
    }

    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize) {
        assert_eq!(x.rows(), y.len(), "feature/label mismatch");
        assert!(!y.is_empty(), "cannot fit on empty data");
        let d = x.cols();
        let k = n_classes.max(1);
        let mut counts = vec![0usize; k];
        let mut means = vec![vec![0.0f64; d]; k];
        let mut sq = vec![vec![0.0f64; d]; k];
        for (r, &label) in y.iter().enumerate() {
            let c = label.min(k - 1);
            counts[c] += 1;
            for (j, &v) in x.row(r).iter().enumerate() {
                means[c][j] += v as f64;
                sq[c][j] += (v as f64) * (v as f64);
            }
        }
        let total: usize = counts.iter().sum();
        self.priors = counts
            .iter()
            .map(|&c| ((c as f64) + 1.0) / ((total + k) as f64))
            .collect();
        for c in 0..k {
            let n = counts[c].max(1) as f64;
            for j in 0..d {
                means[c][j] /= n;
                sq[c][j] = (sq[c][j] / n - means[c][j] * means[c][j]).max(1e-4);
            }
        }
        self.means = means;
        self.vars = sq;
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        assert!(!self.priors.is_empty(), "classifier not fitted");
        (0..x.rows())
            .map(|r| {
                let mut best = 0;
                let mut best_ll = f64::NEG_INFINITY;
                for c in 0..self.priors.len() {
                    let mut ll = self.priors[c].ln();
                    for (j, &v) in x.row(r).iter().enumerate() {
                        let mu = self.means[c][j];
                        let var = self.vars[c][j];
                        let z = (v as f64 - mu) * (v as f64 - mu) / var;
                        ll += -0.5 * (z + var.ln());
                    }
                    if ll > best_ll {
                        best_ll = ll;
                        best = c;
                    }
                }
                best
            })
            .collect()
    }
}

/// The standard five-classifier NIDS panel used in Figures 3–4.
pub fn standard_panel() -> Vec<Box<dyn Classifier>> {
    vec![
        Box::new(DecisionTree::new(10)),
        Box::new(RandomForest::new(16, 10)),
        Box::new(LogisticRegression::default()),
        Box::new(KNearest::new(5)),
        Box::new(GaussianNb::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two Gaussian blobs, linearly separable.
    fn blobs(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Matrix::from_fn(n, 2, |r, _| {
            let base = if r % 2 == 0 { -2.0 } else { 2.0 };
            base + (rng.random::<f32>() - 0.5)
        });
        let y = (0..n).map(|r| r % 2).collect();
        (x, y)
    }

    /// XOR pattern — requires a non-linear boundary.
    fn xor(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Matrix::zeros(n, 2);
        let mut y = Vec::with_capacity(n);
        for r in 0..n {
            let a = rng.random::<f32>() > 0.5;
            let b = rng.random::<f32>() > 0.5;
            x[(r, 0)] = if a { 1.0 } else { 0.0 } + 0.1 * (rng.random::<f32>() - 0.5);
            x[(r, 1)] = if b { 1.0 } else { 0.0 } + 0.1 * (rng.random::<f32>() - 0.5);
            y.push(usize::from(a ^ b));
        }
        (x, y)
    }

    fn check_learns(
        clf: &mut dyn Classifier,
        data: fn(usize, u64) -> (Matrix, Vec<usize>),
        floor: f64,
    ) {
        let (xtr, ytr) = data(400, 1);
        let (xte, yte) = data(200, 2);
        clf.fit(&xtr, &ytr, 2);
        let acc = accuracy(&clf.predict(&xte), &yte);
        assert!(acc >= floor, "{} accuracy {acc} < {floor}", clf.name());
    }

    #[test]
    fn tree_learns_blobs_and_xor() {
        check_learns(&mut DecisionTree::new(8), blobs, 0.95);
        check_learns(&mut DecisionTree::new(8), xor, 0.9);
    }

    /// The split search before the one-pass sweep, kept verbatim as the
    /// reference the sweep must match bit for bit: every quantile
    /// candidate rescans the node's rows with `<=`.
    fn rescan_build(
        tree: &DecisionTree,
        x: &Matrix,
        y: &[usize],
        rows: &[usize],
        n_classes: usize,
        depth: usize,
        rng: &mut StdRng,
    ) -> TreeNode {
        let mut counts = vec![0usize; n_classes + 1];
        for &r in rows {
            counts[y[r]] += 1;
        }
        let node_class = DecisionTree::majority(&counts);
        if depth >= tree.max_depth
            || rows.len() < tree.min_samples
            || counts.iter().filter(|&&c| c > 0).count() <= 1
        {
            return TreeNode::Leaf { class: node_class };
        }
        let d = x.cols();
        let features: Vec<usize> = match tree.feature_subsample {
            Some(k) => {
                let mut fs: Vec<usize> = (0..d).collect();
                for i in (1..fs.len()).rev() {
                    fs.swap(i, rng.random_range(0..=i));
                }
                fs.truncate(k.min(d));
                fs
            }
            None => (0..d).collect(),
        };
        let parent_gini = DecisionTree::gini(&counts[..n_classes + 1], rows.len());
        let mut best: Option<(f64, usize, f32)> = None;
        for &f in &features {
            let mut vals: Vec<f32> = rows.iter().map(|&r| x[(r, f)]).collect();
            vals.sort_by(f32::total_cmp);
            vals.dedup();
            if vals.len() < 2 {
                continue;
            }
            let n_cand = 12.min(vals.len() - 1);
            for ci in 0..n_cand {
                let q = (ci + 1) as f64 / (n_cand + 1) as f64;
                let idx = ((q * (vals.len() - 1) as f64) as usize).min(vals.len() - 2);
                let thr = (vals[idx] + vals[idx + 1]) / 2.0;
                let mut lc = vec![0usize; n_classes + 1];
                let mut rc = vec![0usize; n_classes + 1];
                let mut ln = 0;
                for &r in rows {
                    if x[(r, f)] <= thr {
                        lc[y[r]] += 1;
                        ln += 1;
                    } else {
                        rc[y[r]] += 1;
                    }
                }
                let rn = rows.len() - ln;
                if ln == 0 || rn == 0 {
                    continue;
                }
                let w_gini = (ln as f64 * DecisionTree::gini(&lc, ln)
                    + rn as f64 * DecisionTree::gini(&rc, rn))
                    / rows.len() as f64;
                let gain = parent_gini - w_gini;
                if best.map(|(g, _, _)| gain > g).unwrap_or(gain > 1e-9) {
                    best = Some((gain, f, thr));
                }
            }
        }
        match best {
            None => TreeNode::Leaf { class: node_class },
            Some((_, feature, threshold)) => {
                let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
                    rows.iter().partition(|&&r| x[(r, feature)] <= threshold);
                let left = rescan_build(tree, x, y, &left_rows, n_classes, depth + 1, rng);
                let right = rescan_build(tree, x, y, &right_rows, n_classes, depth + 1, rng);
                TreeNode::Split {
                    feature,
                    threshold,
                    left: Box::new(left),
                    right: Box::new(right),
                }
            }
        }
    }

    /// Pre-order walk: `Split` as `(feature, threshold bits)`, `Leaf` as
    /// `(usize::MAX, class)`.
    fn walk(node: &TreeNode, out: &mut Vec<(usize, u64)>) {
        match node {
            TreeNode::Leaf { class } => out.push((usize::MAX, *class as u64)),
            TreeNode::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                out.push((*feature, u64::from(threshold.to_bits())));
                walk(left, out);
                walk(right, out);
            }
        }
    }

    /// Nine columns of split-search edge cases: a continuous column,
    /// coarse duplicates with both zeros, IEEE specials (NaN of both
    /// signs, ±inf, ±0.0, ±MAX, subnormals), a constant, 1–3 distinct
    /// values, a continuous column with NaNs of both signs, a ±0.0-only
    /// column, a ±inf column whose midpoint is NaN, and values near
    /// ±MAX whose midpoints overflow. Labels (3 classes) follow several
    /// columns plus 20% noise.
    fn edge_case_matrix(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1.0,
            -1.0,
            f32::MAX,
            -f32::MAX,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
        ];
        let few: Vec<f32> = (0..1 + seed as usize % 3)
            .map(|_| (rng.random::<f32>() * 8.0).floor() - 4.0)
            .collect();
        let signed_zero = |rng: &mut StdRng| if rng.random::<f32>() < 0.5 { 0.0 } else { -0.0 };
        let mut x = Matrix::zeros(n, 9);
        let mut y = Vec::with_capacity(n);
        for r in 0..n {
            let c1 = ((rng.random::<f32>() * 5.0).floor() - 2.0) * 0.5;
            let nan = if rng.random::<f32>() < 0.5 {
                f32::NAN
            } else {
                -f32::NAN
            };
            x[(r, 0)] = rng.random::<f32>() * 4.0 - 2.0;
            x[(r, 1)] = if c1 == 0.0 { signed_zero(&mut rng) } else { c1 };
            x[(r, 2)] = specials[rng.random_range(0..specials.len())];
            x[(r, 3)] = 3.25;
            x[(r, 4)] = few[rng.random_range(0..few.len())];
            x[(r, 5)] = if rng.random::<f32>() < 0.15 {
                nan
            } else {
                rng.random::<f32>()
            };
            x[(r, 6)] = signed_zero(&mut rng);
            x[(r, 7)] = if rng.random::<f32>() < 0.5 {
                f32::INFINITY
            } else {
                f32::NEG_INFINITY
            };
            x[(r, 8)] = f32::MAX
                * (rng.random::<f32>() * 2.0 - 1.0).signum()
                * (0.9 + 0.1 * rng.random::<f32>());
            let signal = usize::from(x[(r, 0)] > 0.0)
                + usize::from(x[(r, 2)] <= 0.0)
                + usize::from(x[(r, 5)].is_nan())
                + usize::from(x[(r, 7)] > 0.0);
            y.push(if rng.random::<f32>() < 0.2 {
                rng.random_range(0..3usize)
            } else {
                signal % 3
            });
        }
        (x, y)
    }

    #[test]
    fn sweep_split_search_matches_the_rescan_bit_for_bit() {
        for seed in 0..60u64 {
            let n = [5, 17, 64, 300][seed as usize % 4];
            let (x, y) = edge_case_matrix(n, seed);
            for (depth, subsample) in [(10, None), (3, None), (10, Some(3)), (6, Some(1))] {
                let mut tree = DecisionTree::new(depth);
                if let Some(k) = subsample {
                    tree = tree.with_feature_subsample(k, seed.wrapping_mul(31));
                }
                tree.fit(&x, &y, 3);
                let rows: Vec<usize> = (0..n).collect();
                let mut rng = StdRng::seed_from_u64(tree.seed);
                let reference = rescan_build(&tree, &x, &y, &rows, 3, 0, &mut rng);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                walk(tree.root.as_ref().expect("fitted"), &mut got);
                walk(&reference, &mut want);
                assert_eq!(
                    got, want,
                    "seed {seed}, depth {depth}, subsample {subsample:?}"
                );
            }
        }
    }

    /// Each forest tree, grown on `x` with its bootstrap draws as row
    /// multiplicities, equals the rescan run on a copy of the drawn rows
    /// with the same per-tree subsample seed.
    #[test]
    fn weighted_forest_trees_match_the_rescan_on_bootstrap_copies() {
        for seed in 0..60u64 {
            let n = [5, 17, 64, 300][seed as usize % 4];
            let (x, y) = edge_case_matrix(n, seed);
            let mut forest = RandomForest::new(5, 6).with_seed(seed);
            forest.fit(&x, &y, 3);
            let mut draws = StdRng::seed_from_u64(seed);
            for (t, tree) in forest.trees.iter().enumerate() {
                let drawn: Vec<usize> = (0..n).map(|_| draws.random_range(0..n)).collect();
                let bx = x.select_rows(&drawn);
                let by: Vec<usize> = drawn.iter().map(|&r| y[r]).collect();
                let all: Vec<usize> = (0..n).collect();
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t as u64));
                let reference = rescan_build(tree, &bx, &by, &all, 3, 0, &mut rng);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                walk(tree.root.as_ref().expect("fitted"), &mut got);
                walk(&reference, &mut want);
                assert_eq!(got, want, "seed {seed}, tree {t}");
            }
        }
    }

    /// FNV-1a over a forest's pre-order walks: `(feature, threshold
    /// bits)` per split, `(usize::MAX, class)` per leaf.
    fn forest_digest(forest: &RandomForest) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for tree in &forest.trees {
            let mut nodes = Vec::new();
            walk(tree.root.as_ref().expect("fitted"), &mut nodes);
            for (a, b) in nodes {
                for byte in (a as u64).to_le_bytes().into_iter().chain(b.to_le_bytes()) {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }

    /// Pins the trees of a round-sized forest on real encoded flows, so a
    /// change to the split search that moves any split or leaf fails here.
    #[test]
    fn forest_on_encoded_lab_flows_is_pinned() {
        use crate::encode::MlEncoder;
        use kinet_datasets::lab::{LabSimConfig, LabSimulator};
        let table = LabSimulator::new(LabSimConfig::small(2_000, 11))
            .generate()
            .expect("lab flows");
        let encoder = MlEncoder::fit(&table, LabSimulator::label_column()).expect("encoder fits");
        let (x, y) = encoder.encode(&table).expect("flows encode");
        assert_eq!(x.shape(), (2_000, 24), "a round pool's feature shape");
        let mut forest = RandomForest::new(12, 10);
        forest.fit(&x, &y, encoder.n_classes());
        assert_eq!(forest_digest(&forest), 0x4180_ed3c_e257_1090);
    }

    #[test]
    fn forest_learns_xor() {
        check_learns(&mut RandomForest::new(12, 8), xor, 0.9);
    }

    #[test]
    fn logistic_learns_blobs() {
        check_learns(&mut LogisticRegression::default(), blobs, 0.95);
    }

    #[test]
    fn knn_learns_xor() {
        check_learns(&mut KNearest::new(3), xor, 0.9);
    }

    #[test]
    fn bayes_learns_blobs() {
        check_learns(&mut GaussianNb::new(), blobs, 0.95);
    }

    #[test]
    fn metrics_helpers() {
        assert_eq!(accuracy(&[1, 0, 1], &[1, 1, 1]), 2.0 / 3.0);
        let f1 = macro_f1(&[0, 1, 0, 1], &[0, 1, 1, 1], 2);
        assert!(f1 > 0.5 && f1 < 1.0);
        let perfect = macro_f1(&[0, 1], &[0, 1], 2);
        assert!((perfect - 1.0).abs() < 1e-12);
    }

    #[test]
    fn panel_has_five_members() {
        assert_eq!(standard_panel().len(), 5);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_length_checked() {
        let _ = accuracy(&[0], &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn predict_before_fit_panics() {
        let t = DecisionTree::new(3);
        let _ = t.predict(&Matrix::zeros(1, 2));
    }

    #[test]
    fn multiclass_support() {
        // 3 clearly separated classes on one axis
        let x = Matrix::from_fn(300, 1, |r, _| {
            (r % 3) as f32 * 10.0 + (r as f32 % 7.0) * 0.01
        });
        let y: Vec<usize> = (0..300).map(|r| r % 3).collect();
        for clf in standard_panel().iter_mut() {
            clf.fit(&x, &y, 3);
            let acc = accuracy(&clf.predict(&x), &y);
            assert!(acc > 0.95, "{}: {acc}", clf.name());
        }
    }
}
