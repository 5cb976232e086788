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

/// What one tree's build carries from node to node: the feature-subsample
/// RNG and the split search's buffers, reused across features and nodes.
struct BuildState {
    rng: StdRng,
    /// The node's `(value, label)` pairs on one feature, sorted by value.
    pairs: Vec<(f32, usize)>,
    /// The distinct values the quantile thresholds are taken from.
    vals: Vec<f32>,
    /// Per-class counts left and right of the current threshold.
    left: Vec<usize>,
    right: Vec<usize>,
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

    /// Grows the subtree over `rows`. Each sampled feature's candidates
    /// are up to 12 quantile midpoints of its distinct values; one sort of
    /// the node's `(value, label)` pairs and one forward sweep give every
    /// candidate's left counts (`x <= thr`), and the right counts are the
    /// node's counts minus those. A candidate is taken when its Gini gain
    /// beats the best so far (first over `1e-9`), in feature-then-threshold
    /// order.
    fn build(
        &self,
        x: &Matrix,
        y: &[usize],
        rows: &[usize],
        n_classes: usize,
        depth: usize,
        state: &mut BuildState,
    ) -> TreeNode {
        let mut counts = vec![0usize; n_classes + 1];
        for &r in rows {
            counts[y[r]] += 1;
        }
        let node_class = Self::majority(&counts);
        if depth >= self.max_depth
            || rows.len() < self.min_samples
            || counts.iter().filter(|&&c| c > 0).count() <= 1
        {
            return TreeNode::Leaf { class: node_class };
        }

        let d = x.cols();
        let features: Vec<usize> = match self.feature_subsample {
            Some(k) => {
                let mut fs: Vec<usize> = (0..d).collect();
                for i in (1..fs.len()).rev() {
                    fs.swap(i, state.rng.random_range(0..=i));
                }
                fs.truncate(k.min(d));
                fs
            }
            None => (0..d).collect(),
        };

        let parent_gini = Self::gini(&counts[..n_classes + 1], rows.len());
        let mut best: Option<(f64, usize, f32)> = None;
        let BuildState {
            pairs,
            vals,
            left,
            right,
            ..
        } = state;
        for &f in &features {
            pairs.clear();
            pairs.extend(rows.iter().map(|&r| (x[(r, f)], y[r])));
            pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            // quantile candidate thresholds: the distinct values in
            // `total_cmp` order (`==` merges ±0.0, never NaNs)
            vals.clear();
            for &(v, _) in pairs.iter() {
                if vals.last() != Some(&v) {
                    vals.push(v);
                }
            }
            if vals.len() < 2 {
                continue;
            }
            // NaN rows never pass `<= thr`: `total_cmp` puts negative
            // NaNs first and positive NaNs last, so the sweep runs over
            // the non-NaN middle and the NaN rows always count right.
            let lo = pairs.partition_point(|p| p.0.is_nan() && p.0.is_sign_negative());
            let hi = pairs.partition_point(|p| !(p.0.is_nan() && p.0.is_sign_positive()));
            let sweep = &pairs[lo..hi];
            left.clear();
            left.resize(counts.len(), 0);
            right.clear();
            right.resize(counts.len(), 0);
            let mut ln = 0;
            let mut last_thr = f32::NEG_INFINITY;
            let n_cand = 12.min(vals.len() - 1);
            for ci in 0..n_cand {
                let q = (ci + 1) as f64 / (n_cand + 1) as f64;
                let idx = ((q * (vals.len() - 1) as f64) as usize).min(vals.len() - 2);
                let thr = (vals[idx] + vals[idx + 1]) / 2.0;
                if thr.is_nan() {
                    // nothing is `<= NaN`: the empty left side is skipped
                    continue;
                }
                // Midpoints of nondecreasing pairs never decrease, so
                // the left side only grows along the candidates.
                debug_assert!(thr >= last_thr, "split thresholds must not decrease");
                last_thr = thr;
                while ln < sweep.len() && sweep[ln].0 <= thr {
                    left[sweep[ln].1] += 1;
                    ln += 1;
                }
                let rn = rows.len() - ln;
                if ln == 0 || rn == 0 {
                    continue;
                }
                for ((r, &c), &l) in right.iter_mut().zip(&counts).zip(left.iter()) {
                    *r = c - l;
                }
                let w_gini = (ln as f64 * Self::gini(left, ln) + rn as f64 * Self::gini(right, rn))
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
                let left = self.build(x, y, &left_rows, n_classes, depth + 1, state);
                let right = self.build(x, y, &right_rows, n_classes, depth + 1, state);
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
        let rows: Vec<usize> = (0..x.rows()).collect();
        let mut state = BuildState {
            rng: StdRng::seed_from_u64(self.seed),
            pairs: Vec::with_capacity(rows.len()),
            vals: Vec::with_capacity(rows.len()),
            left: Vec::new(),
            right: Vec::new(),
        };
        self.root = Some(self.build(x, y, &rows, n_classes, 0, &mut state));
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

    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize) {
        assert_eq!(x.rows(), y.len(), "feature/label mismatch");
        assert!(!y.is_empty(), "cannot fit on empty data");
        self.n_classes = n_classes;
        self.trees.clear();
        let k = (x.cols() as f64).sqrt().ceil() as usize;
        let mut rng = StdRng::seed_from_u64(self.seed);
        for t in 0..self.n_trees {
            // bootstrap sample
            let rows: Vec<usize> = (0..x.rows())
                .map(|_| rng.random_range(0..x.rows()))
                .collect();
            let bx = x.select_rows(&rows);
            let by: Vec<usize> = rows.iter().map(|&r| y[r]).collect();
            let mut tree = DecisionTree::new(self.max_depth)
                .with_feature_subsample(k, self.seed.wrapping_add(t as u64));
            tree.fit(&bx, &by, n_classes);
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
