//! The resident fleet service: a multi-round orchestrator that survives
//! process restarts, membership churn, hung rounds, and torn snapshot
//! writes — and keeps answering flow-scoring queries the whole time.
//!
//! One [`FleetService::run`] executes `rounds` scheduled fleet rounds on
//! top of [`crate::sim::FleetSim`]:
//!
//! * **Durable snapshots** — after every round the service state
//!   (generation counter, partial [`ServiceReport`] with one fleet digest
//!   per round, last committed serving model) is committed to a
//!   [`SnapshotStore`] as a generation-stamped, checksummed record, under
//!   a digest of the service's configuration. On startup the service scans
//!   the store newest-first, rejects torn/flipped/mis-stamped records
//!   loudly (they land in [`StorageFaultReport::rejected_snapshots`]),
//!   resumes from the newest intact generation, and re-runs whatever the
//!   lost suffix contained.
//! * **Membership churn** — a scripted [`ChurnPlan`] adds and removes
//!   members between rounds. Each round's [`FleetConfig`] pins
//!   `member_ids` to the surviving membership, so a member keeps its
//!   shard stream no matter which slot churn leaves it in, quorum is
//!   re-derived from the live member count, and (when the union protocol
//!   is on) joiners fold into the class-vocabulary union the round they
//!   appear. Scripted leaves may shrink the fleet below
//!   `ChurnConfig::min_members`, which fails the whole service with the
//!   loud, distinctly-exit-coded [`FleetError::MembershipCollapse`].
//! * **Watchdog deadlines** — rounds run with the virtual-tick watchdog
//!   deadline [`FleetConfig::watchdog_ticks`]; a hung phase yields
//!   [`RoundVerdict::Aborted`] and the service proceeds to the next round
//!   instead of wedging forever.
//! * **Degraded-mode serving** — a [`ServingHandle`] keeps the last
//!   *committed* generation's pooled model (a multinomial-logistic flow
//!   classifier) and scores incoming flow batches during every round,
//!   including aborted and failed ones.
//!   Every answer carries the answering generation and a staleness
//!   counter (rounds since that generation committed), so a consumer can
//!   tell fresh verdicts from degraded ones.
//!
//! Everything the service does is deterministic: churn is scripted, round
//! seeds and serving flows derive from the config seed; all waiting is virtual
//! ticks. The final [`ServiceReport::deterministic_fingerprint`] is
//! bit-identical for every `KINET_THREADS` value, and a resumed run
//! converges to the same ledger as an uninterrupted one.

use crate::config::FleetConfig;
use crate::error::FleetError;
use crate::fault::{self, DeviceFaultSpec};
use crate::report::{RoundRecord, RoundServingStats, RoundVerdict, ServiceReport};
use crate::sim::FleetSim;
use crate::storage::{fnv1a64, SnapshotStore};
use kinet_data::{ColumnKind, Table};
use kinet_datasets::lab::{LabSimConfig, LabSimulator};
use kinet_obs::{kv, Recorder};
use serde::{Deserialize, Serialize};

/// Domain-separation salt for served flow batches.
const SERVE_SALT: u64 = 0x53_45_52_56_45; // "SERVE"
/// Full-batch gradient-descent epochs for the serving classifier trained
/// at each commit.
const SERVING_EPOCHS: usize = 40;
/// The most label classes [`ServingModel::train`] fits: the epoch kernel
/// is instantiated once per class count up to this bound.
pub const MAX_SERVING_CLASSES: usize = 16;
/// Odd multiplier for per-round seed mixing (round 0 keeps the base seed,
/// so a 1-round service is bit-identical to a bare `FleetSim` run).
const ROUND_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Scripted membership churn for a resident service. The default (no
/// joins, no leaves) keeps the bootstrap membership for every round.
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnConfig {
    /// `(round, count)`: exactly `count` fresh members join before the
    /// named round (ids continue from the highest ever seen).
    pub scripted_joins: Vec<(usize, usize)>,
    /// `(round, member_id)`: the named member leaves before the named
    /// round. Scripted leaves ignore `min_members` — they exist to model
    /// real outages, including fatal ones.
    pub scripted_leaves: Vec<(usize, u64)>,
    /// Membership floor: a round scheduled with fewer members fails the
    /// service with [`FleetError::MembershipCollapse`].
    pub min_members: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self {
            scripted_joins: Vec::new(),
            scripted_leaves: Vec::new(),
            min_members: 1,
        }
    }
}

/// One round's derived membership.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundMembership {
    /// Member ids present (sorted).
    pub members: Vec<u64>,
    /// Ids that joined before this round (sorted).
    pub joined: Vec<u64>,
    /// Ids that left before this round (sorted).
    pub left: Vec<u64>,
}

/// The fully derived churn schedule: membership for every round, a pure
/// function of `(rounds, initial membership, config)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChurnPlan {
    /// Per-round memberships, `rounds` entries.
    pub rounds: Vec<RoundMembership>,
}

impl ChurnPlan {
    /// Derives the schedule. Round 0 always runs the bootstrap
    /// membership; the scripted leaves, then the scripted joins, apply
    /// before each later round.
    pub fn derive(rounds: usize, initial: &[u64], cfg: &ChurnConfig) -> Self {
        let mut current: Vec<u64> = initial.to_vec();
        current.sort_unstable();
        let mut next_id = current.iter().max().map(|m| m + 1).unwrap_or(0);
        let mut out = Vec::with_capacity(rounds);
        for r in 0..rounds {
            let mut joined = Vec::new();
            let mut left = Vec::new();
            if r > 0 {
                for (round, id) in &cfg.scripted_leaves {
                    if *round == r {
                        if let Some(pos) = current.iter().position(|m| m == id) {
                            current.remove(pos);
                            left.push(*id);
                        }
                    }
                }
                for (round, count) in &cfg.scripted_joins {
                    if *round == r {
                        for _ in 0..*count {
                            current.push(next_id);
                            joined.push(next_id);
                            next_id += 1;
                        }
                    }
                }
                current.sort_unstable();
                joined.sort_unstable();
                left.sort_unstable();
            }
            out.push(RoundMembership {
                members: current.clone(),
                joined,
                left,
            });
        }
        Self { rounds: out }
    }
}

/// Degraded-mode serving knobs. The classifier installed at each commit
/// always trains for a fixed 40 epochs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServingConfig {
    /// Master switch.
    pub enabled: bool,
    /// Flow batches scored per scheduled round.
    pub batches_per_round: usize,
    /// Rows per flow batch.
    pub batch_rows: usize,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            batches_per_round: 4,
            batch_rows: 128,
        }
    }
}

impl ServingConfig {
    /// Serving switched on with the given batch shape.
    pub fn enabled(batches_per_round: usize, batch_rows: usize) -> Self {
        Self {
            enabled: true,
            batches_per_round,
            batch_rows,
        }
    }
}

/// Configuration of a resident fleet service.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Per-round template. `n_devices`/`member_ids` define the bootstrap
    /// membership; each round overrides them with the churned membership,
    /// and `device_attack_fraction` is rebuilt from
    /// [`ServiceConfig::member_attack_fraction`].
    pub fleet: FleetConfig,
    /// Rounds to schedule.
    pub rounds: usize,
    /// Scripted membership churn.
    pub churn: ChurnConfig,
    /// `(round, faults)` fault-injection overrides for specific rounds;
    /// other rounds use the template's faults. Device indices address
    /// that round's churned membership.
    pub round_faults: Vec<(usize, Vec<DeviceFaultSpec>)>,
    /// `(member_id, fraction)` attack-mix overrides that follow members
    /// across slots as churn reshuffles them.
    pub member_attack_fraction: Vec<(u64, f64)>,
    /// Degraded-mode serving knobs.
    pub serving: ServingConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            fleet: FleetConfig::default(),
            rounds: 1,
            churn: ChurnConfig::default(),
            round_faults: Vec::new(),
            member_attack_fraction: Vec::new(),
            serving: ServingConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// Validates internal consistency, including every round's faults
    /// against the membership churn leaves that round with.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Config`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), FleetError> {
        let bad = |m: &str| Err(FleetError::Config(m.to_string()));
        self.fleet.validate()?;
        if self.rounds == 0 {
            return bad("service rounds must be positive");
        }
        if self.churn.min_members == 0 {
            return bad("churn.min_members must be positive");
        }
        let scripted_rounds = self
            .churn
            .scripted_joins
            .iter()
            .map(|(r, _)| *r)
            .chain(self.churn.scripted_leaves.iter().map(|(r, _)| *r));
        for round in scripted_rounds {
            if round == 0 || round >= self.rounds {
                return Err(FleetError::Config(format!(
                    "scripted churn at round {round} outside 1..{}",
                    self.rounds
                )));
            }
        }
        for (round, _) in &self.round_faults {
            if *round >= self.rounds {
                return Err(FleetError::Config(format!(
                    "fault override for unscheduled round {round}"
                )));
            }
        }
        // A round below `min_members` collapses the service, so neither
        // it nor any later round runs; their faults go unchecked.
        let plan = ChurnPlan::derive(self.rounds, &self.initial_members(), &self.churn);
        for (round, membership) in plan.rounds.iter().enumerate() {
            if membership.members.len() < self.churn.min_members {
                break;
            }
            fault::validate_specs(self.faults_for(round), membership.members.len())
                .map_err(|m| FleetError::Config(format!("round {round}: {m}")))?;
        }
        for (_, f) in &self.member_attack_fraction {
            if !(0.0..=1.0).contains(f) {
                return bad("member attack fractions must be in [0, 1]");
            }
        }
        if self.serving.enabled
            && (self.serving.batches_per_round == 0 || self.serving.batch_rows == 0)
        {
            return bad("serving knobs must be positive when serving is enabled");
        }
        Ok(())
    }

    /// Bootstrap membership: explicit `member_ids` or slot indices.
    fn initial_members(&self) -> Vec<u64> {
        if self.fleet.member_ids.is_empty() {
            (0..self.fleet.n_devices as u64).collect()
        } else {
            self.fleet.member_ids.clone()
        }
    }

    /// The faults round `round` runs with: its override, else the
    /// template's.
    fn faults_for(&self, round: usize) -> &[DeviceFaultSpec] {
        self.round_faults
            .iter()
            .find(|(r, _)| *r == round)
            .map_or(&self.fleet.fault, |(_, faults)| faults)
    }
}

/// Per-feature encoding recipe for the pooled serving classifier. Unlike the
/// evaluation-side encoder this one is serializable, so a committed
/// generation can be reloaded and keep scoring after a restart: numeric
/// columns carry `(mean, sd)` for z-scoring, categorical columns carry
/// their sorted vocabulary for one-hot encoding (unseen categories encode
/// as all-zeros), and the label column carries the class list.
///
/// The encoded feature layout is the numeric z-scores in column order,
/// then one one-hot block per categorical column. Neither the fit nor the
/// scorer materializes it densely: both read the table's columns through
/// [`FlowColumns`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServingEncoder {
    /// `(column, mean, sd)` per continuous feature.
    numeric: Vec<(String, f64, f64)>,
    /// `(column, sorted vocabulary)` per categorical feature.
    categorical: Vec<(String, Vec<String>)>,
    /// Sorted label classes.
    labels: Vec<String>,
    /// The label column name (excluded from features).
    label_column: String,
}

impl ServingEncoder {
    /// Fits the recipe on a pooled training table.
    pub fn fit(pool: &Table, label_column: &str) -> Result<Self, FleetError> {
        let mut numeric = Vec::new();
        let mut categorical = Vec::new();
        for col in pool.schema().iter() {
            if col.name() == label_column {
                continue;
            }
            match col.kind() {
                ColumnKind::Continuous => {
                    let values = pool.num_column(col.name())?;
                    let n = values.len().max(1) as f64;
                    let mean = values.iter().sum::<f64>() / n;
                    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
                    let sd = var.sqrt();
                    let sd = if sd > 1e-9 { sd } else { 1.0 };
                    numeric.push((col.name().to_string(), mean, sd));
                }
                ColumnKind::Categorical => {
                    let vocab = pool.category_counts(col.name())?.into_keys().collect();
                    categorical.push((col.name().to_string(), vocab));
                }
            }
        }
        let labels: Vec<String> = pool.category_counts(label_column)?.into_keys().collect();
        if labels.is_empty() {
            return Err(FleetError::Internal(
                "serving encoder fitted on a pool with no labels".into(),
            ));
        }
        Ok(Self {
            numeric,
            categorical,
            labels,
            label_column: label_column.to_string(),
        })
    }

    /// Encoded feature width.
    pub fn width(&self) -> usize {
        self.numeric.len() + self.categorical.iter().map(|(_, v)| v.len()).sum::<usize>()
    }

    /// The sorted label classes.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Borrows a table's feature columns in encoder order. The label
    /// column (if present) is ignored.
    fn columns<'a>(&'a self, table: &'a Table) -> Result<FlowColumns<'a>, FleetError> {
        let numeric = self
            .numeric
            .iter()
            .map(|(name, mean, sd)| Ok((table.num_column(name)?, *mean, *sd)))
            .collect::<Result<_, FleetError>>()?;
        let categorical = self
            .categorical
            .iter()
            .map(|(name, vocab)| Ok((table.cat_column(name)?, vocab.as_slice())))
            .collect::<Result<_, FleetError>>()?;
        Ok(FlowColumns {
            numeric,
            categorical,
        })
    }

    /// Label indices for a table's label column.
    fn label_indices(&self, table: &Table) -> Result<Vec<usize>, FleetError> {
        let values = table.cat_column(&self.label_column)?;
        values
            .iter()
            .map(|v| {
                self.labels.binary_search(v).map_err(|_| {
                    FleetError::Internal(format!("label {v:?} missing from serving vocab"))
                })
            })
            .collect()
    }
}

/// A table's feature columns, borrowed in encoder order and paired with
/// their encoding: `(values, mean, sd)` per numeric feature and
/// `(values, sorted vocabulary)` per categorical one.
struct FlowColumns<'a> {
    numeric: Vec<(&'a [f64], f64, f64)>,
    categorical: Vec<(&'a [String], &'a [String])>,
}

/// Position of `value` in a categorical vocabulary, `None` if unseen.
/// Serving vocabularies are short (3–8 entries on the lab data), where a
/// linear `==` scan beats `binary_search`'s string ordering.
fn hot_index(vocab: &[String], value: &str) -> Option<usize> {
    vocab.iter().position(|v| v == value)
}

/// The transpose of a row-major matrix with `cols` columns.
fn transpose(m: &[f64], cols: usize) -> Vec<f64> {
    let cols = cols.max(1);
    let rows = m.len() / cols;
    let mut out = vec![0.0; rows * cols];
    for (i, row) in m.chunks_exact(cols).enumerate() {
        for (j, v) in row.iter().enumerate() {
            if let Some(o) = out.get_mut(j * rows + i) {
                *o = *v;
            }
        }
    }
    out
}

/// One answered flow batch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchScore {
    /// Rows scored (rejected rows excluded).
    pub rows: usize,
    /// Rows flagged as some attack class.
    pub attack_flagged: usize,
    /// Rows refused without a verdict because a feature or a logit is not
    /// finite: a NaN or infinite cell, or one so far out that its z-score
    /// or a logit overflows.
    pub rejected_nonfinite: usize,
    /// Rows with at least one category the encoder never saw. They are
    /// still scored, with an all-zero block for that column (rejected rows
    /// included in the count).
    pub unknown_category: usize,
    /// Generation that answered.
    pub generation: u64,
    /// Rounds since that generation committed (0 = fresh).
    pub staleness: u64,
}

/// The pooled model a committed generation serves with: a multinomial
/// logistic flow classifier over the [`ServingEncoder`] features. It is
/// serializable so a restarted service keeps serving generation `N`
/// while round `N + 1` trains.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServingModel {
    encoder: ServingEncoder,
    /// Row-major `labels × width` classifier weights (the snapshot
    /// format; the fit and the scorer work on the `width × labels`
    /// transpose).
    class_weights: Vec<f64>,
    class_bias: Vec<f64>,
    /// Which label indices count as attacks.
    is_attack: Vec<bool>,
}

impl ServingModel {
    /// Trains the classifier on a committed round's pool. Full-batch
    /// gradient descent from zero weights, single-threaded and
    /// deterministic; `_seed` is unused (the fit draws nothing at random).
    ///
    /// Rows train sparse: a term whose feature is exactly zero is dropped.
    /// That is bit-identical to the dense sums as long as the weights stay
    /// finite: a gradient starts at `+0.0` and `+0 + ±0 = +0`, so a zero
    /// term never changes one, and a logit can differ only in the sign of
    /// a zero, which `exp` erases. Weights and gradients are kept
    /// feature-major (`width × labels`), so each nonzero feature touches
    /// one contiguous vector of all the classes. The epochs run in
    /// `train_epoch`, instantiated at the pool's class count, so every
    /// per-class loop has a compile-time length; every element still gets
    /// its terms in the same order.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] when the pool holds more than
    /// [`MAX_SERVING_CLASSES`] label classes.
    pub fn train(pool: &Table, epochs: usize, _seed: u64) -> Result<Self, FleetError> {
        if pool.n_rows() == 0 {
            return Err(FleetError::Internal(
                "serving model trained on an empty pool".into(),
            ));
        }
        let label_column = LabSimulator::label_column();
        let encoder = ServingEncoder::fit(pool, label_column)?;
        let w = encoder.width();
        let k = encoder.labels.len();
        let real = SparseRows::from_columns(&encoder.columns(pool)?, pool.n_rows());
        let targets = encoder.label_indices(pool)?;
        let (weights, class_bias) = match k {
            1 => fit_classes::<1>(&real, &targets, w, epochs),
            2 => fit_classes::<2>(&real, &targets, w, epochs),
            3 => fit_classes::<3>(&real, &targets, w, epochs),
            4 => fit_classes::<4>(&real, &targets, w, epochs),
            5 => fit_classes::<5>(&real, &targets, w, epochs),
            6 => fit_classes::<6>(&real, &targets, w, epochs),
            7 => fit_classes::<7>(&real, &targets, w, epochs),
            8 => fit_classes::<8>(&real, &targets, w, epochs),
            9 => fit_classes::<9>(&real, &targets, w, epochs),
            10 => fit_classes::<10>(&real, &targets, w, epochs),
            11 => fit_classes::<11>(&real, &targets, w, epochs),
            12 => fit_classes::<12>(&real, &targets, w, epochs),
            13 => fit_classes::<13>(&real, &targets, w, epochs),
            14 => fit_classes::<14>(&real, &targets, w, epochs),
            15 => fit_classes::<15>(&real, &targets, w, epochs),
            16 => fit_classes::<16>(&real, &targets, w, epochs),
            _ => {
                return Err(FleetError::Config(format!(
                    "serving pool has {k} label classes; the serving fit takes 1 to \
                     {MAX_SERVING_CLASSES}"
                )))
            }
        };

        let attacks = LabSimulator::attack_events();
        let is_attack = encoder
            .labels
            .iter()
            .map(|l| attacks.contains(&l.as_str()))
            .collect();
        Ok(Self {
            encoder,
            class_weights: transpose(&weights, k),
            class_bias,
            is_attack,
        })
    }

    /// The classifier weights feature-major (`width × labels`), the
    /// layout the scorer reads.
    fn feature_major(&self) -> Vec<f64> {
        transpose(&self.class_weights, self.encoder.width())
    }

    /// Scores one flow batch straight from its columns, given the
    /// model's [`ServingModel::feature_major`] weights: resolves the
    /// columns, allocates the batch's buffers, then runs the
    /// allocation-free [`ServingModel::score_rows`]. Generation and
    /// staleness are left 0 for [`ServingHandle::answer`] to stamp.
    fn score(&self, flows: &Table, weights: &[f64]) -> Result<BatchScore, FleetError> {
        let n = flows.n_rows();
        let mut score = BatchScore::default();
        if n == 0 {
            return Ok(score);
        }
        let columns = self.encoder.columns(flows)?;
        let mut logits = vec![0.0; n * self.class_bias.len()];
        let mut unknown = vec![false; n];
        self.score_rows(&columns, weights, &mut logits, &mut unknown, &mut score)?;
        Ok(score)
    }

    /// Hot per-batch scorer over a batch's columns. `logits` holds one
    /// `labels`-wide row per flow, seeded with the biases; each numeric
    /// column adds `weights[j] · z` to every row whose z-score is nonzero,
    /// and each categorical column adds the hot value's weight vector
    /// (`weights` is feature-major, `width × labels`). Every logit gets
    /// its terms in ascending feature order, as a dense dot product
    /// would; the skipped terms are exact zeros, which can change a logit
    /// only in the sign of a zero, and `>` in the argmax ignores that.
    /// Rows whose logits are not all finite are rejected unscored; the
    /// rest are argmaxed and counted into `score`.
    ///
    /// Allocation lives in [`ServingModel::score`]; this loop must stay
    /// allocation-free (enforced by `kinet_lint`'s hotlist) and
    /// panic-free (enforced by the panic-path audit): the shapes are
    /// checked once up front as a typed error, and the loops walk
    /// exact-chunk iterators and checked slices instead of indexing.
    fn score_rows(
        &self,
        columns: &FlowColumns<'_>,
        weights: &[f64],
        logits: &mut [f64],
        unknown: &mut [bool],
        score: &mut BatchScore,
    ) -> Result<(), FleetError> {
        let k = self.class_bias.len();
        let n_rows = unknown.len();
        let width = self.encoder.width();
        let short_column = columns.numeric.iter().any(|(v, _, _)| v.len() != n_rows)
            || columns.categorical.iter().any(|(v, _)| v.len() != n_rows);
        if k == 0
            || short_column
            || weights.len() != width * k
            || logits.len() != n_rows * k
            || self.is_attack.len() != k
        {
            return Err(FleetError::Config(
                "serving model shape mismatch: encoder width disagrees with the installed weights"
                    .into(),
            ));
        }
        for row in logits.chunks_exact_mut(k) {
            row.copy_from_slice(&self.class_bias);
        }
        let (numeric_weights, mut rest) = weights
            .split_at_checked(columns.numeric.len() * k)
            .unwrap_or((weights, &[]));
        for ((values, mean, sd), w) in columns.numeric.iter().zip(numeric_weights.chunks_exact(k)) {
            for (row, v) in logits.chunks_exact_mut(k).zip(values.iter()) {
                let z = (v - mean) / sd;
                if z != 0.0 {
                    for (l, wv) in row.iter_mut().zip(w) {
                        *l += wv * z;
                    }
                }
            }
        }
        for (values, vocab) in &columns.categorical {
            let (block, tail) = rest
                .split_at_checked(vocab.len() * k)
                .unwrap_or((rest, &[]));
            rest = tail;
            for ((row, v), unseen) in logits
                .chunks_exact_mut(k)
                .zip(values.iter())
                .zip(unknown.iter_mut())
            {
                let hot = hot_index(vocab, v).and_then(|i| block.get(i * k..(i + 1) * k));
                match hot {
                    Some(w) => {
                        for (l, wv) in row.iter_mut().zip(w) {
                            *l += wv;
                        }
                    }
                    None => *unseen = true,
                }
            }
        }
        score.unknown_category = unknown.iter().filter(|&&u| u).count();
        for row in logits.chunks_exact(k) {
            let mut best = 0usize;
            let mut best_logit = f64::NEG_INFINITY;
            let mut finite = true;
            for (c, &logit) in row.iter().enumerate() {
                finite &= logit.is_finite();
                if logit > best_logit {
                    best_logit = logit;
                    best = c;
                }
            }
            if !finite {
                score.rejected_nonfinite += 1;
                continue;
            }
            score.rows += 1;
            if self.is_attack.get(best) == Some(&true) {
                score.attack_flagged += 1;
            }
        }
        Ok(())
    }
}

/// Runs the serving fit's epochs at a compile-time class count `K`:
/// allocates the feature-major weights and gradients (`width` vectors of
/// `K` classes) once, then calls [`train_epoch`] per epoch. Returns the
/// flattened feature-major (`width × K`) weights and the biases.
fn fit_classes<const K: usize>(
    rows: &SparseRows,
    targets: &[usize],
    width: usize,
    epochs: usize,
) -> (Vec<f64>, Vec<f64>) {
    let mut weights = vec![[0.0; K]; width];
    let mut grad_w = vec![[0.0; K]; width];
    let mut bias = [0.0; K];
    let lr = 0.5;
    let scale = lr / targets.len() as f64;
    for _ in 0..epochs {
        train_epoch(rows, targets, scale, &mut weights, &mut bias, &mut grad_w);
    }
    (weights.as_flattened().to_vec(), bias.to_vec())
}

/// One full-batch gradient-descent epoch of the serving classifier over
/// `K` classes. `grad_w` is scratch, reset here. Per row, each logit sums
/// its terms from `-0.0` in column order, as `Iterator::sum` does, then
/// adds its bias; the softmax takes the max, then `exp`s and sums in
/// class order, then divides. Each gradient sums its rows in order, and
/// the update is `w -= scale · g`.
///
/// The per-class loops walk `[f64; K]` arrays, so they have a
/// compile-time length. This loop must stay allocation-free (enforced by
/// `kinet_lint`'s hotlist) and panic-free (it is reachable from the
/// service loop): it reads rows and weights through checked accessors.
fn train_epoch<const K: usize>(
    rows: &SparseRows,
    targets: &[usize],
    scale: f64,
    weights: &mut [[f64; K]],
    bias: &mut [f64; K],
    grad_w: &mut [[f64; K]],
) {
    grad_w.fill([0.0; K]);
    let mut grad_b = [0.0; K];
    for (bounds, &t) in rows.offsets.windows(2).zip(targets) {
        let &[start, end] = bounds else { continue };
        let x = rows.entries.get(start..end).unwrap_or_default();
        let mut probs = [-0.0; K];
        for &(j, v) in x {
            if let Some(wj) = weights.get(j) {
                for (o, wv) in probs.iter_mut().zip(wj) {
                    *o += wv * v;
                }
            }
        }
        for (o, b) in probs.iter_mut().zip(&*bias) {
            *o += *b;
        }
        // The max over four lanes, then across them: `max` is exact, so
        // the order can change only the sign of a zero max, which
        // `o - max` and `exp` erase.
        let mut lanes = [f64::NEG_INFINITY; 4];
        for chunk in probs.chunks(4) {
            for (l, &o) in lanes.iter_mut().zip(chunk) {
                *l = l.max(o);
            }
        }
        let max = lanes.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for o in &mut probs {
            *o = (*o - max).exp();
            sum += *o;
        }
        for o in &mut probs {
            *o /= sum;
        }
        if let Some(p) = probs.get_mut(t) {
            *p -= 1.0;
        }
        for (g, p) in grad_b.iter_mut().zip(&probs) {
            *g += p;
        }
        for &(j, v) in x {
            if let Some(gj) = grad_w.get_mut(j) {
                for (g, p) in gj.iter_mut().zip(&probs) {
                    *g += p * v;
                }
            }
        }
    }
    for (wj, gj) in weights.iter_mut().zip(&*grad_w) {
        for (wv, g) in wj.iter_mut().zip(gj) {
            *wv -= scale * g;
        }
    }
    for (bv, g) in bias.iter_mut().zip(&grad_b) {
        *bv -= scale * g;
    }
}

/// Row-major features with the exact zeros dropped, in one flat buffer:
/// row `r`'s nonzero `(column, value)` entries, in column order, are
/// `entries[offsets[r]..offsets[r + 1]]`.
struct SparseRows {
    offsets: Vec<usize>,
    entries: Vec<(usize, f64)>,
}

impl SparseRows {
    /// The nonzero encoded features of a table's first `n_rows` rows:
    /// the nonzero z-scores, then one `1.0` per seen category.
    fn from_columns(columns: &FlowColumns<'_>, n_rows: usize) -> Self {
        let mut offsets = Vec::with_capacity(n_rows + 1);
        offsets.push(0);
        let mut entries = Vec::new();
        for r in 0..n_rows {
            for (j, (values, mean, sd)) in columns.numeric.iter().enumerate() {
                let z = values.get(r).map_or(0.0, |v| (v - mean) / sd);
                if z != 0.0 {
                    entries.push((j, z));
                }
            }
            let mut offset = columns.numeric.len();
            for (values, vocab) in &columns.categorical {
                if let Some(i) = values.get(r).and_then(|v| hot_index(vocab, v)) {
                    entries.push((offset + i, 1.0));
                }
                offset += vocab.len();
            }
            offsets.push(entries.len());
        }
        Self { offsets, entries }
    }
}

/// The serving side of the resident service: holds the last *committed*
/// generation's classifier and answers flow batches with explicit staleness.
#[derive(Clone, Debug, Default)]
pub struct ServingHandle {
    installed: Option<Installed>,
}

/// One installed generation. `weights` is the model's
/// [`ServingModel::feature_major`] view, built once here rather than on
/// every answered batch.
#[derive(Clone, Debug)]
struct Installed {
    model: ServingModel,
    weights: Vec<f64>,
    generation: u64,
    committed_round: usize,
}

impl ServingHandle {
    /// A handle with nothing installed (answers `None` until the first
    /// commit).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Installs a freshly committed generation's classifier.
    pub fn install(&mut self, model: ServingModel, generation: u64, committed_round: usize) {
        self.installed = Some(Installed {
            weights: model.feature_major(),
            model,
            generation,
            committed_round,
        });
    }

    /// The installed model, if any.
    pub fn model(&self) -> Option<&ServingModel> {
        self.installed.as_ref().map(|i| &i.model)
    }

    /// Scores a flow batch against the installed generation.
    /// `current_round` is the round in flight, used only to stamp
    /// staleness. Returns `Ok(None)` when no generation has committed
    /// yet — the caller counts an unanswered batch.
    pub fn answer(
        &self,
        flows: &Table,
        current_round: usize,
    ) -> Result<Option<BatchScore>, FleetError> {
        let Some(installed) = self.installed.as_ref() else {
            return Ok(None);
        };
        Ok(Some(BatchScore {
            generation: installed.generation,
            staleness: current_round.saturating_sub(installed.committed_round) as u64,
            ..installed.model.score(flows, &installed.weights)?
        }))
    }
}

/// `text`'s [`fnv1a64`] as 16 lowercase hex digits, the form every digest
/// in a snapshot takes. A string, not a number: the vendored serde keeps
/// numbers as `f64`, so a `u64` above 2^53 would come back changed.
fn hex_digest(text: &str) -> String {
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// What one durable snapshot record carries: enough to resume the service
/// (and its serving handle) exactly where the last committed round left
/// it.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct ServiceSnapshot {
    /// [`hex_digest`] of [`FleetService::config_key`]; a mismatch means
    /// the snapshot belongs to a different service, or to a build with
    /// another snapshot format, and is ignored.
    config_key: String,
    /// First round the resumed service should run.
    next_round: usize,
    /// Last committed generation.
    generation: u64,
    /// Round the generation committed at (staleness anchor).
    committed_round: Option<usize>,
    /// Ledger so far — a resumed run's final report matches an
    /// uninterrupted one.
    partial: ServiceReport,
    /// The committed serving classifier.
    serving: Option<ServingModel>,
}

/// The resident multi-round fleet service.
#[derive(Clone, Debug)]
pub struct FleetService {
    cfg: ServiceConfig,
}

impl FleetService {
    /// Builds a service over the given configuration.
    pub fn new(cfg: ServiceConfig) -> Self {
        Self { cfg }
    }

    /// The configuration identity snapshots are stamped with.
    pub fn config_key(&self) -> String {
        format!("{:?}", self.cfg)
    }

    /// The per-round [`FleetConfig`]: churned membership, member-pinned
    /// attack mixes, per-round seed and fault plan.
    fn round_config(&self, round: usize, membership: &RoundMembership) -> FleetConfig {
        let mut cfg = self.cfg.fleet.clone();
        cfg.n_devices = membership.members.len();
        cfg.member_ids = membership.members.clone();
        cfg.seed = if round == 0 {
            self.cfg.fleet.seed
        } else {
            self.cfg.fleet.seed ^ (round as u64).wrapping_mul(ROUND_MIX)
        };
        cfg.device_attack_fraction = membership
            .members
            .iter()
            .enumerate()
            .filter_map(|(slot, member)| {
                self.cfg
                    .member_attack_fraction
                    .iter()
                    .find(|(m, _)| m == member)
                    .map(|(_, f)| (slot, *f))
            })
            .collect();
        cfg.fault = self.cfg.faults_for(round).to_vec();
        cfg
    }

    /// Runs (or resumes) the full service against a snapshot store.
    ///
    /// # Errors
    ///
    /// Fatal failures only: invalid config, membership collapse, or a
    /// corrupt store backend. Watchdog aborts and quorum-lost rounds are
    /// *recorded*, not fatal.
    pub fn run(&self, store: &mut SnapshotStore) -> Result<ServiceReport, FleetError> {
        self.run_recorded(store, &mut Recorder::new())
    }

    /// [`FleetService::run`], appending every round's fleet records plus
    /// the service's own resume, churn, verdict, serving and storage
    /// events to `journal`, in emission order. The journal never enters
    /// a snapshot or the report.
    ///
    /// # Errors
    ///
    /// Same contract as [`FleetService::run`].
    pub fn run_recorded(
        &self,
        store: &mut SnapshotStore,
        journal: &mut Recorder,
    ) -> Result<ServiceReport, FleetError> {
        self.cfg.validate()?;
        let key = hex_digest(&self.config_key());
        let plan = ChurnPlan::derive(
            self.cfg.rounds,
            &self.cfg.initial_members(),
            &self.cfg.churn,
        );

        let mut report = ServiceReport {
            rounds_planned: self.cfg.rounds,
            ..ServiceReport::default()
        };
        let mut generation: u64 = 0;
        let mut start_round = 0usize;
        let mut handle = ServingHandle::empty();

        let latest = store.load_latest()?;
        for rejected in 1..=store.rejected().len() {
            journal.event("storage.reject", 0, &[kv("rejected", rejected as u64)]);
        }
        if let Some(snapshot) = latest {
            let text = String::from_utf8(snapshot.payload)
                .map_err(|_| FleetError::Checkpoint("snapshot payload is not UTF-8".into()))?;
            let value = serde_json::parse_value(&text)
                .map_err(|e| FleetError::Checkpoint(format!("snapshot parse: {e}")))?;
            // The key is checked on the parsed tree before the typed
            // decode, so another service's snapshot, or one in an older
            // build's shape, is ignored rather than fatal.
            if serde::de::field::<String>(&value, "config_key").is_ok_and(|k| k == key) {
                let parsed = ServiceSnapshot::from_json_value(&value)
                    .map_err(|e| FleetError::Checkpoint(format!("snapshot decode: {e}")))?;
                generation = parsed.generation;
                start_round = parsed.next_round;
                report = parsed.partial;
                report.rounds_planned = self.cfg.rounds;
                report.resumed_from_generation = Some(parsed.generation);
                journal.event(
                    "service.resume",
                    0,
                    &[
                        kv("generation", parsed.generation),
                        kv("next_round", start_round as u64),
                    ],
                );
                if let (Some(model), Some(round)) = (parsed.serving, parsed.committed_round) {
                    handle.install(model, parsed.generation, round);
                }
            }
        }
        for (name, why) in store.rejected() {
            report
                .storage
                .rejected_snapshots
                .push((name.clone(), why.clone()));
        }

        for round in start_round..self.cfg.rounds {
            let Some(membership) = plan.rounds.get(round) else {
                return Err(FleetError::Config(format!(
                    "churn plan covers {} round(s) but round {round} was scheduled",
                    plan.rounds.len()
                )));
            };
            for id in &membership.joined {
                report.churn.push(format!("round {round}: +{id} joined"));
            }
            for id in &membership.left {
                report.churn.push(format!("round {round}: -{id} left"));
            }
            if !membership.joined.is_empty() || !membership.left.is_empty() {
                journal.event(
                    "service.churn",
                    0,
                    &[
                        kv("round", round as u64),
                        kv("joined", membership.joined.len() as u64),
                        kv("left", membership.left.len() as u64),
                    ],
                );
            }
            if membership.members.len() < self.cfg.churn.min_members {
                return Err(FleetError::MembershipCollapse {
                    round,
                    members: membership.members.len(),
                    min_members: self.cfg.churn.min_members,
                });
            }

            let round_cfg = self.round_config(round, membership);
            let quorum_required = round_cfg
                .resilience
                .quorum_required(membership.members.len());
            let mut record = RoundRecord {
                round,
                members: membership.members.clone(),
                joined: membership.joined.clone(),
                left: membership.left.clone(),
                quorum_required,
                verdict: RoundVerdict::Failed {
                    error: "round never ran".into(),
                },
                fleet_digest: None,
                attack_recall: None,
                global_accuracy: None,
                serving: RoundServingStats::default(),
            };

            match FleetSim::new(round_cfg).run_recorded(journal) {
                Ok((fleet_report, pool)) => {
                    generation += 1;
                    record.verdict = RoundVerdict::Committed { generation };
                    record.fleet_digest =
                        Some(hex_digest(&fleet_report.deterministic_fingerprint()));
                    record.attack_recall = Some(fleet_report.attack_recall);
                    record.global_accuracy = Some(fleet_report.global_accuracy);
                    report.committed_rounds += 1;
                    journal.event(
                        "service.commit",
                        fleet_report.fault.virtual_ticks,
                        &[kv("round", round as u64), kv("generation", generation)],
                    );
                    if self.cfg.serving.enabled {
                        if let Some(pool) = pool.filter(|p| p.n_rows() > 0) {
                            let model = ServingModel::train(&pool, SERVING_EPOCHS, 0)?;
                            handle.install(model, generation, round);
                        }
                    }
                }
                Err(FleetError::Watchdog {
                    phase,
                    spent_ticks,
                    deadline_ticks,
                }) => {
                    journal.event(
                        "service.watchdog_abort",
                        spent_ticks,
                        &[
                            kv("round", round as u64),
                            kv("spent", spent_ticks),
                            kv("deadline", deadline_ticks),
                        ],
                    );
                    record.verdict = RoundVerdict::Aborted {
                        phase,
                        spent_ticks,
                        deadline_ticks,
                    };
                    report.aborted_rounds += 1;
                }
                Err(e @ FleetError::Config(_)) => return Err(e),
                Err(e) => {
                    journal.event("service.round_failed", 0, &[kv("round", round as u64)]);
                    record.verdict = RoundVerdict::Failed {
                        error: e.to_string(),
                    };
                    report.failed_rounds += 1;
                }
            }

            if self.cfg.serving.enabled {
                record.serving = self.serve_round(round, &handle, journal)?;
            }
            report.rounds.push(record);
            report.final_generation = (generation > 0).then_some(generation);

            // The snapshot takes the live ledger for the encode and hands
            // it back, instead of cloning it every round.
            let snapshot = ServiceSnapshot {
                config_key: key.clone(),
                next_round: round + 1,
                generation,
                committed_round: handle.installed.as_ref().map(|i| i.committed_round),
                partial: std::mem::take(&mut report),
                serving: handle.model().cloned(),
            };
            let payload = serde_json::to_string(&snapshot);
            report = snapshot.partial;
            let payload =
                payload.map_err(|e| FleetError::Checkpoint(format!("snapshot encode: {e}")))?;
            store.commit(generation, payload.as_bytes())?;
            journal.event(
                "storage.commit",
                0,
                &[
                    kv("generation", generation),
                    kv("bytes", payload.len() as u64),
                ],
            );
        }

        report.storage.injected = store.injected_faults().to_vec();
        Ok(report)
    }

    /// Scores this round's flow batches against the last committed
    /// generation.
    fn serve_round(
        &self,
        round: usize,
        handle: &ServingHandle,
        journal: &mut Recorder,
    ) -> Result<RoundServingStats, FleetError> {
        let mut stats = RoundServingStats::default();
        for batch in 0..self.cfg.serving.batches_per_round {
            let flows = LabSimulator::new(LabSimConfig {
                n_records: self.cfg.serving.batch_rows,
                seed: self.cfg.fleet.seed
                    ^ SERVE_SALT
                    ^ (round as u64).wrapping_mul(0x85eb_ca6b)
                    ^ (batch as u64).wrapping_mul(0xc2b2_ae35),
                attack_fraction: self.cfg.fleet.attack_fraction,
            })
            .generate()
            .map_err(|e| FleetError::Data {
                context: format!("serving flow batch {batch} of round {round}"),
                source: e,
            })?;
            match handle.answer(&flows, round)? {
                Some(score) => {
                    journal.event(
                        "serve.answer",
                        0,
                        &[
                            kv("rows", score.rows as u64),
                            kv("generation", score.generation),
                            kv("staleness", score.staleness),
                            kv("rejected", score.rejected_nonfinite as u64),
                            kv("unknown", score.unknown_category as u64),
                        ],
                    );
                    stats.batches += 1;
                    stats.rows += score.rows;
                    stats.attack_flagged += score.attack_flagged;
                    stats.rejected_nonfinite += score.rejected_nonfinite;
                    stats.unknown_category += score.unknown_category;
                    stats.answered_generation = Some(score.generation);
                    stats.staleness = Some(score.staleness);
                }
                None => stats.unanswered_batches += 1,
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SharingPolicy;
    use crate::error::EXIT_MEMBERSHIP_COLLAPSE;
    use crate::fault::{DeviceFaultSpec, FaultKind};
    use crate::storage::{MemStorage, SnapshotStore};

    /// Upper bound on snapshot bytes added per `mini_service` round:
    /// 357 with a fleet digest per round, 1,334 when each round kept its
    /// fleet fingerprint text.
    const GROWTH_BOUND: u64 = 600;

    fn mini_service(rounds: usize) -> ServiceConfig {
        ServiceConfig {
            fleet: FleetConfig::fast(SharingPolicy::Raw),
            rounds,
            serving: ServingConfig::enabled(2, 64),
            ..ServiceConfig::default()
        }
    }

    fn mem_store() -> SnapshotStore {
        SnapshotStore::new(Box::new(MemStorage::new()))
    }

    #[test]
    fn churn_plan_is_deterministic_and_scripted() {
        let cfg = ChurnConfig {
            scripted_joins: vec![(1, 2)],
            scripted_leaves: vec![(2, 0), (3, 9)],
            min_members: 2,
        };
        let a = ChurnPlan::derive(4, &[2, 0, 1], &cfg);
        assert_eq!(a, ChurnPlan::derive(4, &[2, 0, 1], &cfg));
        assert_eq!(a.rounds[0].members, vec![0, 1, 2], "round 0 is bootstrap");
        assert_eq!(a.rounds[1].joined, vec![3, 4], "scripted join fires");
        assert_eq!(a.rounds[2].left, vec![0], "scripted leave fires");
        assert_eq!(a.rounds[2].members, vec![1, 2, 3, 4]);
        assert!(a.rounds[3].left.is_empty(), "an absent member cannot leave");
        let off = ChurnPlan::derive(4, &[0, 1, 2], &ChurnConfig::default());
        assert!(off.rounds.iter().all(|rm| rm.members == vec![0, 1, 2]));
    }

    #[test]
    fn serving_model_trains_scores_and_roundtrips() {
        let pool = LabSimulator::new(LabSimConfig::small(300, 11))
            .generate()
            .unwrap();
        let model = ServingModel::train(&pool, 30, 99).unwrap();
        let flows = LabSimulator::new(LabSimConfig::small(128, 12))
            .generate()
            .unwrap();
        // An empty handle refuses politely; an installed one stamps
        // generation and staleness.
        let mut handle = ServingHandle::empty();
        assert!(handle.answer(&flows, 3).unwrap().is_none());
        handle.install(model.clone(), 2, 1);
        let fresh = handle.answer(&flows, 1).unwrap().unwrap();
        assert_eq!(fresh.rows, 128);
        assert!(fresh.attack_flagged <= fresh.rows);
        assert_eq!(fresh.staleness, 0, "same round as the commit");
        // The committed model survives a JSON round-trip bit-identically.
        let json = serde_json::to_string(&model).unwrap();
        let back: ServingModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back, model);
        let mut reloaded = ServingHandle::empty();
        reloaded.install(back, 2, 1);
        assert_eq!(reloaded.answer(&flows, 1).unwrap().unwrap(), fresh);
        let score = handle.answer(&flows, 3).unwrap().unwrap();
        assert_eq!(score.generation, 2);
        assert_eq!(score.staleness, 2);
        // Scoring is a pure function of (model, batch): the round stamp
        // never changes the verdict counts.
        assert_eq!(score.attack_flagged, fresh.attack_flagged);
    }

    /// Pins the serving classifier across commits: the FNV-1a hash of
    /// every weight's and bias's bits after the service's 40-epoch fit.
    /// The dense reference below is recomputed from the current encoder,
    /// so only this constant notices an encoder or fit change that both
    /// share.
    #[test]
    fn serving_classifier_weights_are_pinned() {
        let pool = LabSimulator::new(LabSimConfig::small(2000, 11))
            .generate()
            .unwrap();
        let model = ServingModel::train(&pool, SERVING_EPOCHS, 0).unwrap();
        let bytes: Vec<u8> = model
            .class_weights
            .iter()
            .chain(&model.class_bias)
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        assert_eq!(crate::storage::fnv1a64(&bytes), 0x0e83_f5e8_150a_3278);
    }

    /// The encoder's dense row-major `n × width` feature matrix, as the
    /// service encoded flows before the fit and the scorer read columns.
    fn encode_table(encoder: &ServingEncoder, table: &Table) -> Vec<f64> {
        let n = table.n_rows();
        let w = encoder.width();
        let mut out = vec![0.0; n * w];
        let mut offset = 0usize;
        for (name, mean, sd) in &encoder.numeric {
            let values = table.num_column(name).unwrap();
            for (r, v) in values.iter().enumerate() {
                out[r * w + offset] = (v - mean) / sd;
            }
            offset += 1;
        }
        for (name, vocab) in &encoder.categorical {
            let values = table.cat_column(name).unwrap();
            for (r, v) in values.iter().enumerate() {
                if let Ok(i) = vocab.binary_search(v) {
                    out[r * w + offset + i] = 1.0;
                }
            }
            offset += vocab.len();
        }
        out
    }

    /// The batch scorer before it read columns, kept as the
    /// reference the column scorer must agree with: dense encoded rows,
    /// one class-major dot product per class, argmax. Returns the flagged
    /// count.
    fn dense_reference_flagged(model: &ServingModel, flows: &Table) -> usize {
        let w = model.encoder.width();
        let features = encode_table(&model.encoder, flows);
        let mut flagged = 0;
        for x in features.chunks_exact(w) {
            let mut best = 0usize;
            let mut best_logit = f64::NEG_INFINITY;
            for (c, (bias, row)) in model
                .class_bias
                .iter()
                .zip(model.class_weights.chunks_exact(w))
                .enumerate()
            {
                let mut acc = *bias;
                for (wv, xv) in row.iter().zip(x) {
                    acc += wv * xv;
                }
                if acc > best_logit {
                    best_logit = acc;
                    best = c;
                }
            }
            if model.is_attack[best] {
                flagged += 1;
            }
        }
        flagged
    }

    /// `ServingModel::train` before the sparse rows, kept as the reference
    /// the sparse fit must match bit for bit: dense rows.
    fn dense_reference_train(pool: &Table, epochs: usize) -> ServingModel {
        fn dot(a: &[f64], b: &[f64]) -> f64 {
            a.iter().zip(b).map(|(x, y)| x * y).sum()
        }
        fn softmax_into(weights: &[f64], bias: &[f64], x: &[f64], width: usize, out: &mut [f64]) {
            if width == 0 {
                for (o, b) in out.iter_mut().zip(bias) {
                    *o = *b;
                }
            } else {
                for ((o, b), row) in out.iter_mut().zip(bias).zip(weights.chunks_exact(width)) {
                    *o = *b + dot(row, x);
                }
            }
            let max = out.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for o in out.iter_mut() {
                *o = (*o - max).exp();
                sum += *o;
            }
            for o in out.iter_mut() {
                *o /= sum;
            }
        }
        let encoder = ServingEncoder::fit(pool, LabSimulator::label_column()).unwrap();
        let w = encoder.width();
        let k = encoder.labels.len();
        let n = pool.n_rows();
        let features = encode_table(&encoder, pool);
        let targets = encoder.label_indices(pool).unwrap();
        let mut class_weights = vec![0.0; k * w];
        let mut class_bias = vec![0.0; k];
        let mut probs = vec![0.0; k];
        let lr = 0.5;
        for _ in 0..epochs {
            let mut grad_w = vec![0.0; k * w];
            let mut grad_b = vec![0.0; k];
            for r in 0..n {
                let x = &features[r * w..(r + 1) * w];
                softmax_into(&class_weights, &class_bias, x, w, &mut probs);
                probs[targets[r]] -= 1.0;
                for (c, p) in probs.iter().enumerate() {
                    grad_b[c] += p;
                    for (j, xv) in x.iter().enumerate() {
                        grad_w[c * w + j] += p * xv;
                    }
                }
            }
            let scale = lr / n as f64;
            for (wv, g) in class_weights.iter_mut().zip(&grad_w) {
                *wv -= scale * g;
            }
            for (bv, g) in class_bias.iter_mut().zip(&grad_b) {
                *bv -= scale * g;
            }
        }
        let attacks = LabSimulator::attack_events();
        let is_attack = encoder
            .labels
            .iter()
            .map(|l| attacks.contains(&l.as_str()))
            .collect();
        ServingModel {
            encoder,
            class_weights,
            class_bias,
            is_attack,
        }
    }

    /// A lab pool whose numeric cells include exact zeros once encoded:
    /// one continuous column cycles 1, 2, 3 (mean exactly 2, so every 2
    /// encodes to `+0.0`), another is constant (every cell encodes to
    /// zero), and a third holds `-0.0` in every fifth row.
    fn pool_with_zero_cells(rows: usize, seed: u64) -> Table {
        let pool = LabSimulator::new(LabSimConfig::small(rows, seed))
            .generate()
            .unwrap();
        let numeric: Vec<usize> = pool
            .schema()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind() == ColumnKind::Continuous)
            .map(|(i, _)| i)
            .collect();
        assert!(
            numeric.len() >= 3,
            "lab schema has {} numeric columns",
            numeric.len()
        );
        let edited = (0..pool.n_rows())
            .map(|r| {
                let mut row = pool.row(r);
                row[numeric[0]] = kinet_data::Value::Num((r % 3 + 1) as f64);
                row[numeric[1]] = kinet_data::Value::Num(5.0);
                if r % 5 == 0 {
                    row[numeric[2]] = kinet_data::Value::Num(-0.0);
                }
                row
            })
            .collect();
        Table::from_rows(pool.schema().clone(), edited).unwrap()
    }

    #[test]
    fn sparse_serving_fit_matches_the_dense_reference_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (rows, pool_seed, epochs) in [(300, 11, 30), (600, 1009, 40), (97, 7, 5)] {
            let pool = pool_with_zero_cells(rows, pool_seed);
            let encoder = ServingEncoder::fit(&pool, LabSimulator::label_column()).unwrap();
            let features = encode_table(&encoder, &pool);
            let w = encoder.width();
            let numeric_zeros = features
                .chunks_exact(w)
                .flat_map(|row| &row[..encoder.numeric.len()])
                .filter(|&&v| v == 0.0)
                .count();
            assert!(
                numeric_zeros >= rows,
                "only {numeric_zeros} zero numeric cells"
            );
            let got = ServingModel::train(&pool, epochs, 0).unwrap();
            let want = dense_reference_train(&pool, epochs);
            assert_eq!(bits(&got.class_weights), bits(&want.class_weights));
            assert_eq!(bits(&got.class_bias), bits(&want.class_bias));
            assert_eq!(got, want);
        }
    }

    /// The epoch kernel is instantiated per class count; each
    /// instantiation must match the dense reference bit for bit. Pools are
    /// cut to their first `c` events (in the encoder's sorted order).
    #[test]
    fn serving_fit_matches_the_dense_reference_at_every_class_count() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let pool = pool_with_zero_cells(600, 1009);
        let events = pool.cat_column(LabSimulator::label_column()).unwrap();
        let labels: Vec<String> = pool
            .category_counts(LabSimulator::label_column())
            .unwrap()
            .into_keys()
            .collect();
        assert_eq!(labels.len(), 10);
        for classes in [1, 2, 5, 10] {
            let rows: Vec<usize> = (0..pool.n_rows())
                .filter(|&r| labels[..classes].contains(&events[r]))
                .collect();
            let cut = pool.select_rows(&rows);
            let got = ServingModel::train(&cut, 20, 0).unwrap();
            let want = dense_reference_train(&cut, 20);
            assert_eq!(got.encoder.labels.len(), classes);
            assert_eq!(bits(&got.class_weights), bits(&want.class_weights));
            assert_eq!(bits(&got.class_bias), bits(&want.class_bias));
            assert_eq!(got, want);
        }
    }

    /// `pool` with its event column relabelled to `classes` synthetic
    /// classes, cycling by row.
    fn with_label_classes(pool: &Table, classes: usize) -> Table {
        let at = pool
            .schema()
            .index_of(LabSimulator::label_column())
            .unwrap();
        let rows = (0..pool.n_rows())
            .map(|r| {
                let mut row = pool.row(r);
                row[at] = kinet_data::Value::cat(format!("event-{:02}", r % classes));
                row
            })
            .collect();
        Table::from_rows(pool.schema().clone(), rows).unwrap()
    }

    #[test]
    fn serving_fit_takes_at_most_max_serving_classes() {
        let pool = pool_with_zero_cells(200, 3);
        let widest = with_label_classes(&pool, MAX_SERVING_CLASSES);
        let model = ServingModel::train(&widest, 3, 0).unwrap();
        assert_eq!(model.encoder.labels.len(), MAX_SERVING_CLASSES);
        assert_eq!(model, dense_reference_train(&widest, 3));
        let too_wide = with_label_classes(&pool, MAX_SERVING_CLASSES + 1);
        match ServingModel::train(&too_wide, 3, 0) {
            Err(FleetError::Config(msg)) => assert!(msg.contains("17 label classes"), "{msg}"),
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    /// `flows` with each `(row, column, value)` cell overwritten.
    fn with_cells(flows: &Table, cells: &[(usize, &str, kinet_data::Value)]) -> Table {
        let rows = (0..flows.n_rows())
            .map(|r| {
                let mut row = flows.row(r);
                for (at, name, value) in cells {
                    if *at == r {
                        row[flows.schema().index_of(name).unwrap()] = value.clone();
                    }
                }
                row
            })
            .collect();
        Table::from_rows(flows.schema().clone(), rows).unwrap()
    }

    #[test]
    fn column_scorer_matches_the_dense_reference() {
        let pool = pool_with_zero_cells(600, 1009);
        let model = ServingModel::train(&pool, SERVING_EPOCHS, 0).unwrap();
        let unseen = kinet_data::Value::cat("never-seen");
        let mut flagged_total = 0;
        let mut zero_cells = 0;
        for seed in 0..8u64 {
            let lab = LabSimulator::new(LabSimConfig::small(96, 40 + seed))
                .generate()
                .unwrap();
            // Rows whose numeric cells z-score to exactly zero.
            let zeros = pool_with_zero_cells(96, 50 + seed);
            zero_cells += encode_table(&model.encoder, &zeros)
                .chunks_exact(model.encoder.width())
                .flat_map(|row| &row[..model.encoder.numeric.len()])
                .filter(|&&v| v == 0.0)
                .count();
            // Rows 0, 7, 14, … see an unknown device, rows 0, 11, 22, …
            // an unknown protocol as well.
            let cells: Vec<_> = (0..96)
                .filter(|r| r % 7 == 0)
                .map(|r| (r, "device", unseen.clone()))
                .chain(
                    (0..96)
                        .filter(|r| r % 11 == 0)
                        .map(|r| (r, "protocol", unseen.clone())),
                )
                .collect();
            let novel = with_cells(&zeros, &cells);
            let n_unknown = (0..96).filter(|r| r % 7 == 0 || r % 11 == 0).count();
            for (flows, unknown) in [(&lab, 0), (&zeros, 0), (&novel, n_unknown)] {
                let score = model.score(flows, &model.feature_major()).unwrap();
                let want = dense_reference_flagged(&model, flows);
                assert_eq!(score.attack_flagged, want, "batch seed {seed}");
                assert_eq!(score.rows, 96);
                assert_eq!(score.rejected_nonfinite, 0);
                assert_eq!(score.unknown_category, unknown);
                flagged_total += want;
            }
        }
        assert!(zero_cells >= 8 * 96, "only {zero_cells} zero z-scores");
        assert!(
            flagged_total > 0 && flagged_total < 24 * 96,
            "{flagged_total} flagged: the comparison needs both verdicts"
        );
        // Per row too: each row of a mixed batch scored alone.
        let flows = pool_with_zero_cells(60, 3);
        let flows = with_cells(&flows, &[(4, "src_ip", unseen.clone())]);
        let mut handle = ServingHandle::empty();
        handle.install(model, 1, 0);
        for r in 0..flows.n_rows() {
            let one = flows.select_rows(&[r]);
            let score = handle.answer(&one, 0).unwrap().unwrap();
            let flagged = dense_reference_flagged(handle.model().unwrap(), &one);
            assert_eq!((score.rows, score.attack_flagged), (1, flagged));
        }
    }

    #[test]
    fn poisoned_batch_counts_rejected_and_unknown_rows_exactly() {
        use kinet_data::Value;
        let pool = LabSimulator::new(LabSimConfig::small(600, 11))
            .generate()
            .unwrap();
        let model = ServingModel::train(&pool, SERVING_EPOCHS, 0).unwrap();
        let flows = LabSimulator::new(LabSimConfig::small(96, 5))
            .generate()
            .unwrap();
        let unseen = Value::cat("10.99.99.99");
        let poisoned = with_cells(
            &flows,
            &[
                (3, "pkt_count", Value::Num(f64::NAN)),
                (10, "duration", Value::Num(f64::INFINITY)),
                (10, "dst_ip", unseen.clone()),
                (17, "src_port", Value::Num(f64::NEG_INFINITY)),
                (5, "src_ip", unseen.clone()),
                (40, "dst_ip", unseen.clone()),
                (40, "src_ip", unseen),
            ],
        );
        let score = model.score(&poisoned, &model.feature_major()).unwrap();
        assert_eq!(score.rejected_nonfinite, 3, "rows 3, 10 and 17");
        assert_eq!(score.unknown_category, 3, "rows 5, 10 and 40");
        assert_eq!(score.rows, 93);
        let clean: Vec<usize> = (0..96).filter(|r| ![3, 10, 17].contains(r)).collect();
        let want = dense_reference_flagged(&model, &poisoned.select_rows(&clean));
        assert_eq!(score.attack_flagged, want);
        let mut handle = ServingHandle::empty();
        handle.install(model, 4, 2);
        let answer = handle.answer(&poisoned, 3).unwrap().unwrap();
        assert_eq!(
            answer,
            BatchScore {
                generation: 4,
                staleness: 1,
                ..score
            }
        );
    }

    #[test]
    fn service_commits_rounds_and_resumes() {
        let service = FleetService::new(mini_service(2));
        let mut store = mem_store();
        let report = service.run(&mut store).unwrap();
        assert_eq!(report.committed_rounds, 2);
        assert_eq!(report.final_generation, Some(2));
        assert_eq!(report.rounds.len(), 2);
        for record in &report.rounds {
            assert_eq!(record.verdict.label(), "committed");
            assert_eq!(record.serving.staleness, Some(0), "fresh every round");
            assert_eq!(record.serving.unanswered_batches, 0);
            assert!(record.serving.rows >= 128);
        }
        // A second run over the same store resumes past the end: the
        // ledger is intact and no new rounds execute.
        let resumed = service.run(&mut store).unwrap();
        assert_eq!(resumed.resumed_from_generation, Some(2));
        assert_eq!(resumed.rounds.len(), 2);
        assert_eq!(
            resumed.committed_rounds + resumed.aborted_rounds + resumed.failed_rounds,
            2
        );
    }

    /// Every answered batch's journal event carries its rejection and
    /// unknown-category counts. With one device per device type (the
    /// fleet cycles through four), the pool holds every category, so the
    /// service's own flows are clean.
    #[test]
    fn serve_answer_events_carry_rejection_counts() {
        let mut cfg = mini_service(2);
        cfg.fleet.n_devices = 4;
        let mut journal = Recorder::new();
        FleetService::new(cfg)
            .run_recorded(&mut mem_store(), &mut journal)
            .unwrap();
        let answers: Vec<_> = journal.events_for("serve.answer").collect();
        assert_eq!(answers.len(), 4, "2 rounds x 2 batches");
        for rec in answers {
            assert_eq!(rec.field_val("rows"), Some(64));
            assert_eq!(rec.field_val("rejected"), Some(0));
            assert_eq!(rec.field_val("unknown"), Some(0));
        }
    }

    #[test]
    fn failed_round_serves_degraded_from_the_last_commit() {
        let mut cfg = mini_service(3);
        // Round 1: both devices crash on acquire and quorum demands all.
        let fault = vec![
            DeviceFaultSpec::permanent(0, FaultKind::CrashAcquire),
            DeviceFaultSpec::permanent(1, FaultKind::CrashAcquire),
        ];
        cfg.round_faults = vec![(1, fault)];
        let report = FleetService::new(cfg).run(&mut mem_store()).unwrap();
        assert_eq!(report.committed_rounds, 2);
        assert_eq!(report.failed_rounds, 1);
        assert_eq!(report.rounds[1].verdict.label(), "failed");
        // Degraded serving: round 1's answers come from generation 1,
        // one round stale; round 2 commits and goes fresh again.
        assert_eq!(report.rounds[1].serving.answered_generation, Some(1));
        assert_eq!(report.rounds[1].serving.staleness, Some(1));
        assert_eq!(report.rounds[2].serving.staleness, Some(0));
        assert_eq!(report.final_generation, Some(2));
    }

    #[test]
    fn watchdog_abort_is_recorded_not_fatal() {
        let mut cfg = mini_service(2);
        cfg.serving.enabled = false;
        cfg.fleet.watchdog_ticks = Some(500);
        let fault = vec![DeviceFaultSpec::permanent(1, FaultKind::Straggle).with_magnitude(900)];
        cfg.round_faults = vec![(0, fault)];
        let report = FleetService::new(cfg).run(&mut mem_store()).unwrap();
        assert_eq!(report.aborted_rounds, 1);
        assert_eq!(report.committed_rounds, 1);
        assert!(matches!(
            report.rounds[0].verdict,
            RoundVerdict::Aborted { ref phase, .. } if phase == "acquire"
        ));
        assert_eq!(report.rounds[1].verdict.label(), "committed");
    }

    #[test]
    fn membership_collapse_is_loud_and_distinctly_coded() {
        let mut cfg = mini_service(3);
        cfg.serving.enabled = false;
        cfg.churn = ChurnConfig {
            scripted_leaves: vec![(1, 0), (1, 1)],
            min_members: 2,
            ..ChurnConfig::default()
        };
        let err = FleetService::new(cfg).run(&mut mem_store()).unwrap_err();
        assert!(matches!(
            err,
            FleetError::MembershipCollapse {
                round: 1,
                members: 0,
                min_members: 2
            }
        ));
        assert_eq!(err.exit_code(), EXIT_MEMBERSHIP_COLLAPSE);
    }

    /// A round fault addresses that round's churned membership: a fault
    /// on slot 3 of a round that a leave shrank to 3 members is refused
    /// before round 0 runs, not after it has committed.
    #[test]
    fn round_fault_outside_its_churned_membership_fails_at_startup() {
        let mut cfg = mini_service(2);
        cfg.fleet.n_devices = 4;
        cfg.churn.scripted_leaves = vec![(1, 0)];
        cfg.round_faults = vec![(
            1,
            vec![DeviceFaultSpec::permanent(3, FaultKind::CrashAcquire)],
        )];
        assert!(cfg.fleet.validate().is_ok(), "slot 3 exists at bootstrap");
        let mut store = mem_store();
        let mut journal = Recorder::new();
        let err = FleetService::new(cfg)
            .run_recorded(&mut store, &mut journal)
            .unwrap_err();
        match &err {
            FleetError::Config(msg) => assert!(
                msg.contains("round 1") && msg.contains("unknown device 3"),
                "{msg}"
            ),
            other => panic!("expected a config error, got {other:?}"),
        }
        assert_eq!(journal.events_for("service.commit").count(), 0);
        assert!(store.load_latest().unwrap().is_none(), "nothing committed");
    }

    #[test]
    fn service_fingerprint_is_reproducible() {
        let a = FleetService::new(mini_service(2))
            .run(&mut mem_store())
            .unwrap();
        let b = FleetService::new(mini_service(2))
            .run(&mut mem_store())
            .unwrap();
        assert_eq!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
    }

    /// Each round's `FleetReport` fingerprint, rerun outside the service
    /// from the same per-round configuration.
    fn round_fingerprints(service: &FleetService) -> Vec<String> {
        let plan = ChurnPlan::derive(
            service.cfg.rounds,
            &service.cfg.initial_members(),
            &service.cfg.churn,
        );
        plan.rounds
            .iter()
            .enumerate()
            .map(|(round, membership)| {
                FleetSim::new(service.round_config(round, membership))
                    .run()
                    .unwrap()
                    .deterministic_fingerprint()
            })
            .collect()
    }

    /// The newest intact snapshot's payload, as text.
    fn latest_payload(store: &mut SnapshotStore) -> String {
        String::from_utf8(store.load_latest().unwrap().unwrap().payload).unwrap()
    }

    #[test]
    fn committed_rounds_store_the_digest_of_their_fleet_fingerprint() {
        let service = FleetService::new(mini_service(3));
        let report = service.run(&mut mem_store()).unwrap();
        let fingerprints = round_fingerprints(&service);
        assert_eq!(report.rounds.len(), 3);
        for (record, fingerprint) in report.rounds.iter().zip(&fingerprints) {
            assert_eq!(record.verdict.label(), "committed");
            let digest = record.fleet_digest.as_deref().unwrap();
            assert_eq!(digest.len(), 16);
            assert!(digest
                .bytes()
                .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()));
            let want = crate::storage::fnv1a64(fingerprint.as_bytes());
            assert_eq!(u64::from_str_radix(digest, 16).unwrap(), want);
        }
    }

    /// A backend shared between two stores whose writes fail once
    /// `writes_left` runs out, like a process killed mid-commit.
    #[derive(Debug)]
    struct PowerCut {
        objects: std::rc::Rc<std::cell::RefCell<MemStorage>>,
        writes_left: usize,
    }

    impl crate::storage::Storage for PowerCut {
        fn read(&self, name: &str) -> Result<Option<Vec<u8>>, String> {
            self.objects.borrow().read(name)
        }

        fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), String> {
            let Some(left) = self.writes_left.checked_sub(1) else {
                return Err("power cut".into());
            };
            self.writes_left = left;
            self.objects.borrow_mut().write_atomic(name, bytes)
        }

        fn list(&self) -> Result<Vec<String>, String> {
            self.objects.borrow().list()
        }

        fn remove(&mut self, name: &str) -> Result<(), String> {
            self.objects.borrow_mut().remove(name)
        }
    }

    #[test]
    fn interrupted_service_resumes_to_the_uninterrupted_ledger() {
        let mut cfg = mini_service(4);
        // Round 1 fails, so the resumed run must also restore the
        // serving handle's staleness anchor, not just the ledger.
        cfg.round_faults = vec![(
            1,
            vec![
                DeviceFaultSpec::permanent(0, FaultKind::CrashAcquire),
                DeviceFaultSpec::permanent(1, FaultKind::CrashAcquire),
            ],
        )];
        let service = FleetService::new(cfg);
        let whole = service.run(&mut mem_store()).unwrap();
        assert_eq!(whole.failed_rounds, 1);

        // Writes before the cut, and the generation the restart resumes
        // from: the failed round 1 recommits generation 1.
        for (k, generation) in [(1, 1), (2, 1), (3, 2)] {
            let objects = std::rc::Rc::default();
            let mut cut = SnapshotStore::new(Box::new(PowerCut {
                objects: std::rc::Rc::clone(&objects),
                writes_left: k,
            }));
            let err = service.run(&mut cut).unwrap_err();
            assert!(matches!(err, FleetError::Checkpoint(_)), "{err}");
            let mut restarted = SnapshotStore::new(Box::new(PowerCut {
                objects,
                writes_left: usize::MAX,
            }));
            let mut resumed = service.run(&mut restarted).unwrap();
            assert_eq!(
                resumed.resumed_from_generation,
                Some(generation),
                "cut after {k} round(s)"
            );
            // The one field that records the restart itself.
            resumed.resumed_from_generation = None;
            assert_eq!(
                resumed.deterministic_fingerprint(),
                whole.deterministic_fingerprint(),
                "cut after {k} round(s)"
            );
        }
    }

    /// `payload` rewritten into the previous snapshot format: the full
    /// `Debug` config key, each round's whole fleet fingerprint text under
    /// `fleet_fingerprint`, and serving stats without the rejection
    /// counts.
    fn previous_format(payload: &str, key: &str, fingerprints: &[String]) -> String {
        use serde_json::Value;
        let Value::Object(mut top) = serde_json::parse_value(payload).unwrap() else {
            panic!("a snapshot is an object");
        };
        for (name, value) in &mut top {
            match (name.as_str(), value) {
                ("config_key", value) => *value = Value::String(key.into()),
                ("partial", Value::Object(partial)) => {
                    for (name, value) in partial {
                        let ("rounds", Value::Array(rounds)) = (name.as_str(), value) else {
                            continue;
                        };
                        for (round, fingerprint) in rounds.iter_mut().zip(fingerprints) {
                            let Value::Object(fields) = round else {
                                panic!("a round record is an object");
                            };
                            for (name, value) in fields {
                                match (name.as_str(), value) {
                                    ("fleet_digest", value) => {
                                        *name = "fleet_fingerprint".into();
                                        *value = Value::String(fingerprint.clone());
                                    }
                                    ("serving", Value::Object(stats)) => stats.retain(|(n, _)| {
                                        n != "rejected_nonfinite" && n != "unknown_category"
                                    }),
                                    _ => {}
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        Value::Object(top).to_json_string()
    }

    #[test]
    fn previous_format_snapshot_is_parsed_but_not_resumed() {
        let service = FleetService::new(mini_service(2));
        let mut store = mem_store();
        let fresh = service.run(&mut store).unwrap();
        let payload = latest_payload(&mut store);
        let old = previous_format(
            &payload,
            &service.config_key(),
            &round_fingerprints(&service),
        );
        assert!(old.contains("\"fleet_fingerprint\":\"policy="), "{old}");
        assert!(old.len() > payload.len());
        // The typed decode alone would refuse it: its serving stats lack
        // the rejection counts.
        assert!(serde_json::from_str::<ServiceSnapshot>(&old).is_err());

        let mut store = mem_store();
        store.commit(2, old.as_bytes()).unwrap();
        let mut journal = Recorder::new();
        let report = service.run_recorded(&mut store, &mut journal).unwrap();
        assert_eq!(report.resumed_from_generation, None);
        assert_eq!(journal.events_for("service.resume").count(), 0);
        assert_eq!(
            report.deterministic_fingerprint(),
            fresh.deterministic_fingerprint()
        );

        // Under this service's own key a shape the typed decode refuses
        // is an error, never a silent mix of formats.
        let old_shape = payload.replace("\"rejected_nonfinite\"", "\"dropped\"");
        let mut store = mem_store();
        store.commit(2, old_shape.as_bytes()).unwrap();
        let err = service.run(&mut store).unwrap_err();
        assert!(matches!(err, FleetError::Checkpoint(_)), "{err}");
    }

    /// The snapshot holds the whole ledger, so it grows with every round;
    /// per-round fleet digests keep that growth to a few hundred bytes.
    #[test]
    fn snapshot_growth_per_round_is_bounded() {
        let rounds = 6;
        let mut journal = Recorder::new();
        FleetService::new(mini_service(rounds))
            .run_recorded(&mut mem_store(), &mut journal)
            .unwrap();
        let bytes: Vec<u64> = journal
            .events_for("storage.commit")
            .filter_map(|e| e.field_val("bytes"))
            .collect();
        assert_eq!(bytes.len(), rounds);
        let growth = (bytes[rounds - 1] - bytes[0]) / (rounds as u64 - 1);
        assert!(growth < GROWTH_BOUND, "{growth} bytes per round: {bytes:?}");
    }

    #[test]
    fn service_config_validation() {
        let bad = |f: fn(&mut ServiceConfig)| {
            let mut c = mini_service(2);
            f(&mut c);
            c.validate()
        };
        assert!(bad(|c| c.rounds = 0).is_err());
        assert!(bad(|c| c.churn.min_members = 0).is_err());
        assert!(bad(|c| c.churn.scripted_joins = vec![(0, 1)]).is_err());
        assert!(bad(|c| c.round_faults = vec![(9, Vec::new())]).is_err());
        assert!(bad(|c| {
            c.round_faults = vec![(1, vec![DeviceFaultSpec::permanent(2, FaultKind::DropVocab)])];
        })
        .is_err());
        assert!(bad(|c| c.member_attack_fraction = vec![(0, 2.0)]).is_err());
        assert!(bad(|c| c.serving.batch_rows = 0).is_err());
        assert!(mini_service(2).validate().is_ok());
    }
}
