//! The resident fleet service: a multi-round orchestrator that survives
//! process restarts, membership churn, hung rounds, and torn snapshot
//! writes — and keeps answering flow-scoring queries the whole time.
//!
//! One [`FleetService::run`] executes `rounds` scheduled fleet rounds on
//! top of [`crate::sim::FleetSim`]:
//!
//! * **Durable snapshots** — after every round the service state
//!   (generation counter, partial [`ServiceReport`], last committed
//!   serving model) is committed to a [`SnapshotStore`] as a
//!   generation-stamped, checksummed record. On startup the service scans
//!   the store newest-first, rejects torn/flipped/mis-stamped records
//!   loudly (they land in [`StorageFaultReport::rejected_snapshots`]),
//!   resumes from the newest intact generation, and re-runs whatever the
//!   lost suffix contained.
//! * **Membership churn** — a seeded [`ChurnPlan`] adds and removes
//!   members between rounds. Each round's [`FleetConfig`] pins
//!   `member_ids` to the surviving membership, so a member keeps its
//!   shard stream no matter which slot churn leaves it in, quorum is
//!   re-derived from the live member count, and (when the union protocol
//!   is on) joiners fold into the class-vocabulary union the round they
//!   appear. Scripted leaves may shrink the fleet below
//!   `ChurnConfig::min_members`, which fails the whole service with the
//!   loud, distinctly-exit-coded [`FleetError::MembershipCollapse`].
//! * **Watchdog deadlines** — rounds run with the per-phase virtual-tick
//!   watchdog from [`crate::config::WatchdogConfig`]; a hung phase yields
//!   [`RoundVerdict::Aborted`] and the service proceeds to the next round
//!   instead of wedging forever.
//! * **Degraded-mode serving** — a [`ServingHandle`] keeps the last
//!   *committed* generation's pooled models (a multinomial-logistic flow
//!   classifier plus a real-vs-pool discriminator) and scores incoming
//!   flow batches during every round, including aborted and failed ones.
//!   Every answer carries the answering generation and a staleness
//!   counter (rounds since that generation committed), so a consumer can
//!   tell fresh verdicts from degraded ones.
//!
//! Everything the service does is deterministic: churn, round seeds, and
//! serving flows derive from the config seed; all waiting is virtual
//! ticks. The final [`ServiceReport::deterministic_fingerprint`] is
//! bit-identical for every `KINET_THREADS` value, and a resumed run
//! converges to the same ledger as an uninterrupted one.

use crate::config::FleetConfig;
use crate::error::FleetError;
use crate::fault::FaultConfig;
use crate::report::{RoundRecord, RoundServingStats, RoundVerdict, ServiceReport};
use crate::sim::FleetSim;
use crate::storage::SnapshotStore;
use kinet_data::{ColumnKind, Table};
use kinet_datasets::lab::{LabSimConfig, LabSimulator};
use kinet_obs::{kv, Recorder};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Domain-separation salt for per-round churn draws.
const CHURN_SALT: u64 = 0x43_48_55_52_4e; // "CHURN"
/// Domain-separation salt for served flow batches.
const SERVE_SALT: u64 = 0x53_45_52_56_45; // "SERVE"
/// Odd multiplier for per-round seed mixing (round 0 keeps the base seed,
/// so a 1-round service is bit-identical to a bare `FleetSim` run).
const ROUND_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Membership churn policy for a resident service.
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnConfig {
    /// Master switch. Off keeps the bootstrap membership for every round.
    pub enabled: bool,
    /// `(round, count)`: exactly `count` fresh members join before the
    /// named round (ids continue from the highest ever seen).
    pub scripted_joins: Vec<(usize, usize)>,
    /// `(round, member_id)`: the named member leaves before the named
    /// round. Scripted leaves ignore `min_members` — they exist to model
    /// real outages, including fatal ones.
    pub scripted_leaves: Vec<(usize, u64)>,
    /// Per-round probability that one fresh member joins.
    pub join_rate: f64,
    /// Per-member per-round probability of leaving. Random leaves never
    /// shrink the fleet below `min_members`.
    pub leave_rate: f64,
    /// Membership floor: a round scheduled with fewer members fails the
    /// service with [`FleetError::MembershipCollapse`].
    pub min_members: usize,
    /// Ceiling for random joins (scripted joins may exceed it).
    pub max_members: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            scripted_joins: Vec::new(),
            scripted_leaves: Vec::new(),
            join_rate: 0.0,
            leave_rate: 0.0,
            min_members: 1,
            max_members: 16,
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
/// function of `(seed, rounds, initial membership, config)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChurnPlan {
    /// Per-round memberships, `rounds` entries.
    pub rounds: Vec<RoundMembership>,
}

impl ChurnPlan {
    /// Derives the schedule. Round 0 always runs the bootstrap
    /// membership; churn (scripted, then random) applies before each
    /// later round, with its own domain-separated per-round RNG so one
    /// round's draws cannot reshuffle another's.
    pub fn derive(seed: u64, rounds: usize, initial: &[u64], cfg: &ChurnConfig) -> Self {
        let mut current: Vec<u64> = initial.to_vec();
        current.sort_unstable();
        let mut next_id = current.iter().max().map(|m| m + 1).unwrap_or(0);
        let mut out = Vec::with_capacity(rounds);
        for r in 0..rounds {
            let mut joined = Vec::new();
            let mut left = Vec::new();
            if cfg.enabled && r > 0 {
                let mut rng =
                    StdRng::seed_from_u64(seed ^ CHURN_SALT ^ (r as u64).wrapping_mul(0x9e37_79b9));
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
                for id in current.clone() {
                    if current.len() > cfg.min_members && rng.random_bool(cfg.leave_rate) {
                        if let Some(pos) = current.iter().position(|m| *m == id) {
                            current.remove(pos);
                            left.push(id);
                        }
                    }
                }
                if current.len() < cfg.max_members && rng.random_bool(cfg.join_rate) {
                    current.push(next_id);
                    joined.push(next_id);
                    next_id += 1;
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

/// Degraded-mode serving knobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServingConfig {
    /// Master switch.
    pub enabled: bool,
    /// Flow batches scored per scheduled round.
    pub batches_per_round: usize,
    /// Rows per flow batch.
    pub batch_rows: usize,
    /// Full-batch gradient-descent epochs for the pooled classifier and
    /// discriminator trained at each commit.
    pub train_epochs: usize,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            batches_per_round: 4,
            batch_rows: 128,
            train_epochs: 40,
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
            ..Self::default()
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
    /// Membership churn policy.
    pub churn: ChurnConfig,
    /// `(round, plan)` fault-injection overrides for specific rounds;
    /// other rounds use the template's plan.
    pub round_faults: Vec<(usize, FaultConfig)>,
    /// `(member_id, fraction)` attack-mix overrides that follow members
    /// across slots as churn reshuffles them.
    pub member_attack_fraction: Vec<(u64, f64)>,
    /// Degraded-mode serving knobs.
    pub serving: ServingConfig,
    /// Fail the whole service on the first [`RoundVerdict::Failed`]
    /// round instead of proceeding degraded.
    pub halt_on_round_failure: bool,
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
            halt_on_round_failure: false,
        }
    }
}

impl ServiceConfig {
    /// Validates internal consistency.
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
        if self.churn.max_members < self.churn.min_members {
            return bad("churn.max_members must be >= churn.min_members");
        }
        if !(0.0..=1.0).contains(&self.churn.join_rate)
            || !(0.0..=1.0).contains(&self.churn.leave_rate)
        {
            return bad("churn rates must be in [0, 1]");
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
        for (round, fault) in &self.round_faults {
            if *round >= self.rounds {
                return Err(FleetError::Config(format!(
                    "fault override for unscheduled round {round}"
                )));
            }
            fault.validate(self.fleet.n_devices)?;
        }
        for (_, f) in &self.member_attack_fraction {
            if !(0.0..=1.0).contains(f) {
                return bad("member attack fractions must be in [0, 1]");
            }
        }
        if self.serving.enabled
            && (self.serving.batches_per_round == 0
                || self.serving.batch_rows == 0
                || self.serving.train_epochs == 0)
        {
            return bad("serving knobs must be positive when serving is enabled");
        }
        Ok(())
    }
}

/// Per-feature encoding recipe for the pooled serving models. Unlike the
/// evaluation-side encoder this one is serializable, so a committed
/// generation can be reloaded and keep scoring after a restart: numeric
/// columns carry `(mean, sd)` for z-scoring, categorical columns carry
/// their sorted vocabulary for one-hot encoding (unseen categories encode
/// as all-zeros), and the label column carries the class list.
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
                    let mut vocab: Vec<String> =
                        pool.category_counts(col.name())?.into_keys().collect();
                    vocab.sort_unstable();
                    categorical.push((col.name().to_string(), vocab));
                }
            }
        }
        let mut labels: Vec<String> = pool.category_counts(label_column)?.into_keys().collect();
        labels.sort_unstable();
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

    /// Encodes a whole table row-major into `width()`-wide feature rows.
    /// The label column (if present) is ignored.
    pub fn encode_table(&self, table: &Table) -> Result<Vec<f64>, FleetError> {
        let n = table.n_rows();
        let w = self.width();
        let mut out = vec![0.0; n * w];
        let mut offset = 0usize;
        for (name, mean, sd) in &self.numeric {
            let values = table.num_column(name)?;
            for (r, v) in values.iter().enumerate() {
                out[r * w + offset] = (v - mean) / sd;
            }
            offset += 1;
        }
        for (name, vocab) in &self.categorical {
            let values = table.cat_column(name)?;
            for (r, v) in values.iter().enumerate() {
                if let Ok(i) = vocab.binary_search(v) {
                    out[r * w + offset + i] = 1.0;
                }
            }
            offset += vocab.len();
        }
        Ok(out)
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

/// Sums the hot scorer accumulates per batch.
#[derive(Clone, Copy, Debug, Default)]
struct ScoreTotals {
    attack_flagged: usize,
    disc_sum: f64,
}

/// One answered flow batch.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchScore {
    /// Rows scored.
    pub rows: usize,
    /// Rows flagged as some attack class.
    pub attack_flagged: usize,
    /// Mean discriminator (real-vs-pool) score.
    pub mean_discriminator: f64,
    /// Generation that answered.
    pub generation: u64,
    /// Rounds since that generation committed (0 = fresh).
    pub staleness: u64,
}

/// The pooled models a committed generation serves with: a multinomial
/// logistic flow classifier over the [`ServingEncoder`] features and a
/// binary logistic discriminator trained real-pool-vs-column-shuffled
/// (a cheap density-ratio drift probe). Both are serializable so a
/// restarted service keeps serving generation `N` while round `N + 1`
/// trains.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServingModel {
    encoder: ServingEncoder,
    /// Row-major `labels × width` classifier weights.
    class_weights: Vec<f64>,
    class_bias: Vec<f64>,
    /// Which label indices count as attacks.
    is_attack: Vec<bool>,
    disc_weights: Vec<f64>,
    disc_bias: f64,
}

impl ServingModel {
    /// Trains both pooled models on a committed round's pool. Full-batch
    /// gradient descent, single-threaded, deterministic in `seed`.
    pub fn train(pool: &Table, epochs: usize, seed: u64) -> Result<Self, FleetError> {
        if pool.n_rows() == 0 {
            return Err(FleetError::Internal(
                "serving model trained on an empty pool".into(),
            ));
        }
        let label_column = LabSimulator::label_column();
        let encoder = ServingEncoder::fit(pool, label_column)?;
        let w = encoder.width();
        let k = encoder.labels.len();
        let n = pool.n_rows();
        let features = encoder.encode_table(pool)?;
        let targets = encoder.label_indices(pool)?;

        // Multinomial logistic classifier.
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

        // Discriminator: real pool (1) vs column-shuffled pool (0).
        let shuffled = column_shuffle(pool, seed ^ 0x0d15_c0de)?;
        let fake = encoder.encode_table(&shuffled)?;
        let mut disc_weights = vec![0.0; w];
        let mut disc_bias = 0.0;
        for _ in 0..epochs {
            let mut grad_w = vec![0.0; w];
            let mut grad_b = 0.0;
            for (rows, target) in [(&features, 1.0), (&fake, 0.0)] {
                for r in 0..n {
                    let x = &rows[r * w..(r + 1) * w];
                    let p = sigmoid(dot(&disc_weights, x) + disc_bias);
                    let err = p - target;
                    grad_b += err;
                    for (j, xv) in x.iter().enumerate() {
                        grad_w[j] += err * xv;
                    }
                }
            }
            let scale = lr / (2.0 * n as f64);
            for (wv, g) in disc_weights.iter_mut().zip(&grad_w) {
                *wv -= scale * g;
            }
            disc_bias -= scale * grad_b;
        }

        let attacks = LabSimulator::attack_events();
        let is_attack = encoder
            .labels
            .iter()
            .map(|l| attacks.contains(&l.as_str()))
            .collect();
        Ok(Self {
            encoder,
            class_weights,
            class_bias,
            is_attack,
            disc_weights,
            disc_bias,
        })
    }

    /// Scores one flow batch: encodes (allocating) then runs the hot
    /// allocation-free row loop.
    pub fn score_batch(&self, flows: &Table) -> Result<(usize, usize, f64), FleetError> {
        let n = flows.n_rows();
        if n == 0 {
            return Ok((0, 0, 0.0));
        }
        let features = self.encoder.encode_table(flows)?;
        let mut logits = vec![0.0; self.encoder.labels.len()];
        let totals = self.score_rows(&features, n, self.encoder.width(), &mut logits)?;
        Ok((n, totals.attack_flagged, totals.disc_sum / n as f64))
    }

    /// Hot per-batch scorer: pure slice arithmetic over pre-encoded
    /// features — argmax class per row, attack flagging, discriminator
    /// accumulation. Allocation lives in [`ServingModel::score_batch`];
    /// this loop must stay allocation-free (enforced by `kinet_lint`'s
    /// hotlist) and panic-free (enforced by the panic-path audit): the
    /// shapes are checked once up front as a typed error, and the row
    /// loop itself walks exact-chunk iterators instead of indexing.
    fn score_rows(
        &self,
        features: &[f64],
        n_rows: usize,
        width: usize,
        logits: &mut [f64],
    ) -> Result<ScoreTotals, FleetError> {
        let n_classes = logits.len();
        if width == 0
            || features.len() < n_rows * width
            || self.class_weights.len() != n_classes * width
            || self.class_bias.len() != n_classes
            || self.is_attack.len() != n_classes
            || self.disc_weights.len() != width
        {
            return Err(FleetError::Config(
                "serving model shape mismatch: encoder width disagrees with the installed weights"
                    .into(),
            ));
        }
        let mut totals = ScoreTotals::default();
        for x in features.chunks_exact(width).take(n_rows) {
            for ((logit, bias), row) in logits
                .iter_mut()
                .zip(self.class_bias.iter())
                .zip(self.class_weights.chunks_exact(width))
            {
                let mut acc = *bias;
                for (wv, xv) in row.iter().zip(x) {
                    acc += wv * xv;
                }
                *logit = acc;
            }
            let mut best = 0usize;
            let mut best_logit = f64::NEG_INFINITY;
            for (c, logit) in logits.iter().enumerate() {
                if *logit > best_logit {
                    best_logit = *logit;
                    best = c;
                }
            }
            if self.is_attack.get(best) == Some(&true) {
                totals.attack_flagged += 1;
            }
            let mut d = self.disc_bias;
            for (wv, xv) in self.disc_weights.iter().zip(x) {
                d += wv * xv;
            }
            totals.disc_sum += sigmoid(d);
        }
        Ok(totals)
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

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

/// Independently permutes each column's rows — marginals survive, joint
/// structure dies; the discriminator learns to tell them apart.
fn column_shuffle(table: &Table, seed: u64) -> Result<Table, FleetError> {
    let n = table.n_rows();
    let mut rows: Vec<Vec<kinet_data::Value>> = (0..n).map(|r| table.row(r)).collect();
    // `c` indexes the *inner* (column) dimension of `rows`; clippy's
    // iterator suggestion would walk the outer (row) dimension instead.
    #[allow(clippy::needless_range_loop)]
    for c in 0..table.n_cols() {
        let mut rng = StdRng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9e37_79b9));
        // Fisher-Yates over this column only.
        for i in (1..n).rev() {
            let j = rng.random_range(0..(i + 1));
            if i != j {
                let vi = rows[i][c].clone();
                let vj = rows[j][c].clone();
                rows[i][c] = vj;
                rows[j][c] = vi;
            }
        }
    }
    Table::from_rows(table.schema().clone(), rows).map_err(|e| FleetError::Data {
        context: "column shuffle for the serving discriminator".into(),
        source: e,
    })
}

/// The serving side of the resident service: holds the last *committed*
/// generation's models and answers flow batches with explicit staleness.
#[derive(Clone, Debug, Default)]
pub struct ServingHandle {
    installed: Option<(ServingModel, u64, usize)>,
}

impl ServingHandle {
    /// A handle with nothing installed (answers `None` until the first
    /// commit).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Installs a freshly committed generation's models.
    pub fn install(&mut self, model: ServingModel, generation: u64, committed_round: usize) {
        self.installed = Some((model, generation, committed_round));
    }

    /// The installed model, if any.
    pub fn model(&self) -> Option<&ServingModel> {
        self.installed.as_ref().map(|(m, _, _)| m)
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
        let Some((model, generation, committed_round)) = self.installed.as_ref() else {
            return Ok(None);
        };
        let (rows, attack_flagged, mean_discriminator) = model.score_batch(flows)?;
        Ok(Some(BatchScore {
            rows,
            attack_flagged,
            mean_discriminator,
            generation: *generation,
            staleness: current_round.saturating_sub(*committed_round) as u64,
        }))
    }
}

/// What one durable snapshot record carries: enough to resume the service
/// (and its serving handle) exactly where the last committed round left
/// it.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct ServiceSnapshot {
    /// Canonical `Debug` rendering of the [`ServiceConfig`]; a mismatch
    /// means the snapshot belongs to a different service and is ignored.
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
    /// The committed serving models.
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

    /// Bootstrap membership: explicit `member_ids` or slot indices.
    fn initial_members(&self) -> Vec<u64> {
        if self.cfg.fleet.member_ids.is_empty() {
            (0..self.cfg.fleet.n_devices as u64).collect()
        } else {
            self.cfg.fleet.member_ids.clone()
        }
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
        if let Some((_, fault)) = self.cfg.round_faults.iter().find(|(r, _)| *r == round) {
            cfg.fault = fault.clone();
        }
        cfg
    }

    /// Runs (or resumes) the full service against a snapshot store.
    ///
    /// # Errors
    ///
    /// Fatal failures only: invalid config, membership collapse, a
    /// corrupt store backend, or (with `halt_on_round_failure`) the
    /// first failed round. Watchdog aborts and quorum-lost rounds are
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
        let key = self.config_key();
        let plan = ChurnPlan::derive(
            self.cfg.fleet.seed,
            self.cfg.rounds,
            &self.initial_members(),
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
            let parsed: ServiceSnapshot = serde_json::from_str(&text)
                .map_err(|e| FleetError::Checkpoint(format!("snapshot parse: {e}")))?;
            if parsed.config_key == key {
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
                fleet_fingerprint: None,
                attack_recall: None,
                global_accuracy: None,
                serving: RoundServingStats::default(),
            };

            let mut fatal = None;
            match FleetSim::new(round_cfg).run_recorded(journal) {
                Ok((fleet_report, pool)) => {
                    generation += 1;
                    record.verdict = RoundVerdict::Committed { generation };
                    record.fleet_fingerprint = Some(fleet_report.deterministic_fingerprint());
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
                            let model = ServingModel::train(
                                &pool,
                                self.cfg.serving.train_epochs,
                                self.cfg.fleet.seed ^ SERVE_SALT ^ generation,
                            )?;
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
                    if self.cfg.halt_on_round_failure {
                        fatal = Some(e);
                    }
                }
            }

            if self.cfg.serving.enabled {
                record.serving = self.serve_round(round, &handle, journal)?;
            }
            report.rounds.push(record);
            report.final_generation = (generation > 0).then_some(generation);
            if let Some(e) = fatal {
                return Err(e);
            }

            let snapshot = ServiceSnapshot {
                config_key: key.clone(),
                next_round: round + 1,
                generation,
                committed_round: handle.installed.as_ref().map(|(_, _, r)| *r),
                partial: report.clone(),
                serving: handle.model().cloned(),
            };
            let payload = serde_json::to_string(&snapshot)
                .map_err(|e| FleetError::Checkpoint(format!("snapshot encode: {e}")))?;
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
        let mut disc_sum = 0.0;
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
                        ],
                    );
                    stats.batches += 1;
                    stats.rows += score.rows;
                    stats.attack_flagged += score.attack_flagged;
                    disc_sum += score.mean_discriminator * score.rows as f64;
                    stats.answered_generation = Some(score.generation);
                    stats.staleness = Some(score.staleness);
                }
                None => stats.unanswered_batches += 1,
            }
        }
        if stats.rows > 0 {
            stats.mean_discriminator = disc_sum / stats.rows as f64;
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SharingPolicy, WatchdogConfig};
    use crate::error::EXIT_MEMBERSHIP_COLLAPSE;
    use crate::fault::{DeviceFaultSpec, FaultKind};
    use crate::storage::{MemStorage, SnapshotStore};

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
            enabled: true,
            scripted_joins: vec![(1, 2)],
            scripted_leaves: vec![(2, 0)],
            leave_rate: 0.3,
            join_rate: 0.3,
            min_members: 2,
            max_members: 8,
        };
        let a = ChurnPlan::derive(7, 4, &[0, 1, 2], &cfg);
        let b = ChurnPlan::derive(7, 4, &[0, 1, 2], &cfg);
        assert_eq!(a, b, "pure function of the seed");
        assert_eq!(a.rounds[0].members, vec![0, 1, 2], "round 0 is bootstrap");
        assert!(a.rounds[1].joined.contains(&3), "scripted join fires");
        assert!(a.rounds[1].joined.contains(&4));
        assert!(a.rounds[2].left.contains(&0), "scripted leave fires");
        for rm in &a.rounds {
            assert!(rm.members.len() >= cfg.min_members, "random clamp holds");
            let mut sorted = rm.members.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, rm.members, "memberships are sorted");
        }
        let off = ChurnPlan::derive(7, 4, &[0, 1, 2], &ChurnConfig::default());
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
        let (rows, flagged, disc) = model.score_batch(&flows).unwrap();
        assert_eq!(rows, 128);
        assert!(flagged <= rows);
        assert!((0.0..=1.0).contains(&disc), "sigmoid mean, got {disc}");
        // The committed models survive a JSON round-trip bit-identically.
        let json = serde_json::to_string(&model).unwrap();
        let back: ServingModel = serde_json::from_str(&json).unwrap();
        let (r2, f2, d2) = back.score_batch(&flows).unwrap();
        assert_eq!((rows, flagged), (r2, f2));
        assert_eq!(disc, d2);
        // An empty handle refuses politely; an installed one stamps
        // generation and staleness.
        let mut handle = ServingHandle::empty();
        assert!(handle.answer(&flows, 3).unwrap().is_none());
        handle.install(model, 2, 1);
        let fresh = handle.answer(&flows, 1).unwrap().unwrap();
        assert_eq!(fresh.staleness, 0, "same round as the commit");
        let score = handle.answer(&flows, 3).unwrap().unwrap();
        assert_eq!(score.generation, 2);
        assert_eq!(score.staleness, 2);
        // Scoring is a pure function of (model, batch): the round stamp
        // never changes the verdict counts.
        assert_eq!(score.attack_flagged, fresh.attack_flagged);
        assert_eq!(score.mean_discriminator, fresh.mean_discriminator);
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

    #[test]
    fn failed_round_serves_degraded_from_the_last_commit() {
        let mut cfg = mini_service(3);
        // Round 1: both devices crash on acquire and quorum demands all.
        let fault = crate::fault::FaultConfig::scripted(vec![
            DeviceFaultSpec::permanent(0, FaultKind::CrashAcquire),
            DeviceFaultSpec::permanent(1, FaultKind::CrashAcquire),
        ]);
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
        cfg.fleet.watchdog = WatchdogConfig::armed(500);
        let fault = crate::fault::FaultConfig::scripted(vec![DeviceFaultSpec::permanent(
            1,
            FaultKind::Straggle,
        )
        .with_magnitude(900)]);
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
            enabled: true,
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

    #[test]
    fn service_config_validation() {
        let bad = |f: fn(&mut ServiceConfig)| {
            let mut c = mini_service(2);
            f(&mut c);
            c.validate()
        };
        assert!(bad(|c| c.rounds = 0).is_err());
        assert!(bad(|c| c.churn.min_members = 0).is_err());
        assert!(bad(|c| {
            c.churn.min_members = 4;
            c.churn.max_members = 2;
        })
        .is_err());
        assert!(bad(|c| c.churn.join_rate = 1.5).is_err());
        assert!(bad(|c| {
            c.churn.enabled = true;
            c.churn.scripted_joins = vec![(0, 1)];
        })
        .is_err());
        assert!(bad(|c| c.round_faults = vec![(9, FaultConfig::default())]).is_err());
        assert!(bad(|c| c.member_attack_fraction = vec![(0, 2.0)]).is_err());
        assert!(bad(|c| c.serving.batch_rows = 0).is_err());
        assert!(mini_service(2).validate().is_ok());
    }
}
