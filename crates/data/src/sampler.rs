//! Training-by-sampling: drawing conditions and matching real rows.
//!
//! CTGAN's *training-by-sampling* picks a conditional column, samples one of
//! its categories by log-frequency (so rare categories still appear), then
//! draws a real row having that category. KiNETGAN extends this with the
//! §III-A-3 *uniform* mode, which samples the boosted category uniformly
//! from the attribute's range so minority values are represented even more
//! aggressively, and conditions on the *full* set of discrete attributes of
//! the drawn row.

use crate::condition::ConditionVectorSpec;
use crate::table::{DataError, Table};
use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};
use std::fmt;

/// How the boosted category of the chosen conditional column is sampled.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum BalanceMode {
    /// Log-frequency weights over categories (CTGAN).
    #[default]
    LogFreq,
    /// Uniform over the category range (KiNETGAN §III-A-3).
    Uniform,
    /// No balancing: draw a random row and condition on its values.
    None,
}

impl fmt::Display for BalanceMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BalanceMode::LogFreq => f.write_str("log-freq"),
            BalanceMode::Uniform => f.write_str("uniform"),
            BalanceMode::None => f.write_str("none"),
        }
    }
}

/// A sampled training condition: the vector `C`, the boosted pick, and a
/// real row consistent with it.
#[derive(Clone, Debug)]
pub struct SampledCondition {
    /// The condition vector (width = [`ConditionVectorSpec::width`]).
    pub vector: Vec<f32>,
    /// Index of the boosted conditional column (into the spec's columns),
    /// `None` for [`BalanceMode::None`].
    pub boosted_column: Option<usize>,
    /// Category code of the boosted value within its column.
    pub boosted_category: Option<usize>,
    /// Index of a real row matching the condition.
    pub row: usize,
}

/// Pre-indexed sampler over a table and a condition-vector layout.
pub struct TrainingSampler {
    /// `rows_by_cat[col][cat]` = indices of rows with that category.
    rows_by_cat: Vec<Vec<Vec<usize>>>,
    /// Per column: cumulative log-frequency distribution over categories.
    logfreq_cdf: Vec<Vec<f64>>,
    n_rows: usize,
}

impl TrainingSampler {
    /// Indexes `table` against `spec`.
    ///
    /// # Errors
    ///
    /// Propagates column-access failures; fails on an empty table.
    pub fn fit(table: &Table, spec: &ConditionVectorSpec) -> Result<Self, DataError> {
        if table.is_empty() {
            return Err(DataError::SchemaMismatch(
                "cannot sample from an empty table".into(),
            ));
        }
        let mut rows_by_cat = Vec::with_capacity(spec.n_columns());
        let mut logfreq_cdf = Vec::with_capacity(spec.n_columns());
        for i in 0..spec.n_columns() {
            let name = &spec.columns()[i];
            let enc = spec.encoder(i);
            let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); enc.n_categories()];
            for (r, v) in table.cat_column(name)?.iter().enumerate() {
                if let Some(code) = enc.encode(v) {
                    buckets[code].push(r);
                }
            }
            // log-frequency mass per category: ln(1 + count)
            let masses: Vec<f64> = buckets
                .iter()
                .map(|b| (1.0 + b.len() as f64).ln())
                .collect();
            let total: f64 = masses.iter().sum();
            let mut acc = 0.0;
            let cdf: Vec<f64> = masses
                .iter()
                .map(|m| {
                    acc += m / total.max(f64::MIN_POSITIVE);
                    acc
                })
                .collect();
            rows_by_cat.push(buckets);
            logfreq_cdf.push(cdf);
        }
        Ok(Self {
            rows_by_cat,
            logfreq_cdf,
            n_rows: table.n_rows(),
        })
    }

    /// Number of indexed rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Rows having category `cat` in conditional column `col`.
    pub fn rows_with(&self, col: usize, cat: usize) -> &[usize] {
        &self.rows_by_cat[col][cat]
    }

    /// Normalized log-frequency weights over the categories of conditional
    /// column `col` — the distribution [`BalanceMode::LogFreq`] draws the
    /// boosted category from (weights sum to 1; empty categories get 0).
    pub fn log_freq_weights(&self, col: usize) -> Vec<f64> {
        let cdf = &self.logfreq_cdf[col];
        let mut prev = 0.0;
        cdf.iter()
            .map(|&c| {
                let w = c - prev;
                prev = c;
                w
            })
            .collect()
    }

    /// Samples one training condition.
    ///
    /// With `full_condition = true` the returned vector one-hots *all*
    /// conditional columns from the matched row (KiNETGAN); with `false`
    /// only the boosted column's block is set (CTGAN).
    ///
    /// # Errors
    ///
    /// Propagates encoding failures from the spec.
    pub fn sample_condition(
        &self,
        table: &Table,
        spec: &ConditionVectorSpec,
        mode: BalanceMode,
        full_condition: bool,
        rng: &mut impl Rng,
    ) -> Result<SampledCondition, DataError> {
        let (pick, row) = self.draw(spec, mode, rng);
        let mut vector = vec![0.0f32; spec.width()];
        Self::write_vector(table, spec, full_condition, pick, row, &mut vector)?;
        Ok(SampledCondition {
            vector,
            boosted_column: pick.map(|(col, _)| col),
            boosted_category: pick.map(|(_, cat)| cat),
            row,
        })
    }

    /// Draws one condition's boosted `(column, category)` pick (`None` for
    /// [`BalanceMode::None`]) and a real row consistent with it.
    fn draw(
        &self,
        spec: &ConditionVectorSpec,
        mode: BalanceMode,
        rng: &mut impl Rng,
    ) -> (Option<(usize, usize)>, usize) {
        if mode == BalanceMode::None {
            return (None, rng.random_range(0..self.n_rows));
        }
        let col = rng.random_range(0..spec.n_columns());
        let n_cats = spec.encoder(col).n_categories();
        let cat = match mode {
            BalanceMode::Uniform => rng.random_range(0..n_cats),
            _ => {
                let u: f64 = rng.random::<f64>();
                self.logfreq_cdf[col]
                    .iter()
                    .position(|&c| u <= c)
                    .unwrap_or(n_cats - 1)
            }
        };
        // If the uniform draw hit an empty bucket (possible only if a
        // category exists in the encoder but not the table, which fit()
        // precludes) fall back to any row.
        let bucket = &self.rows_by_cat[col][cat];
        let row = if bucket.is_empty() {
            rng.random_range(0..self.n_rows)
        } else {
            bucket[rng.random_range(0..bucket.len())]
        };
        (Some((col, cat)), row)
    }

    /// Writes a drawn condition's vector into `out` (`spec.width()` long):
    /// the matched row's full condition, or only the boosted one-hot.
    fn write_vector(
        table: &Table,
        spec: &ConditionVectorSpec,
        full_condition: bool,
        pick: Option<(usize, usize)>,
        row: usize,
        out: &mut [f32],
    ) -> Result<(), DataError> {
        if full_condition {
            return spec.write_row(table, row, out);
        }
        out.fill(0.0);
        if let Some(hot) = pick.and_then(|(col, cat)| out.get_mut(spec.offset(col) + cat)) {
            *hot = 1.0;
        }
        Ok(())
    }

    /// Samples a batch of conditions plus the matching real-row indices.
    ///
    /// # Errors
    ///
    /// Propagates [`TrainingSampler::sample_condition`] failures.
    pub fn sample_batch(
        &self,
        table: &Table,
        spec: &ConditionVectorSpec,
        mode: BalanceMode,
        full_condition: bool,
        batch: usize,
        rng: &mut impl Rng,
    ) -> Result<Vec<SampledCondition>, DataError> {
        (0..batch)
            .map(|_| self.sample_condition(table, spec, mode, full_condition, rng))
            .collect()
    }

    /// [`TrainingSampler::sample_batch`] into caller-owned buffers, with
    /// the same draws: condition `b`'s vector goes to row `b` of the
    /// row-major `batch × spec.width()` `vectors`, and `rows` is refilled
    /// with the matched row indices. A training loop that keeps both
    /// buffers samples without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::SchemaMismatch`] when `vectors` is not
    /// `batch × spec.width()` long, and propagates encoding failures from
    /// the spec.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_batch_into(
        &self,
        table: &Table,
        spec: &ConditionVectorSpec,
        mode: BalanceMode,
        full_condition: bool,
        batch: usize,
        vectors: &mut [f32],
        rows: &mut Vec<usize>,
        rng: &mut impl Rng,
    ) -> Result<(), DataError> {
        let width = spec.width();
        if vectors.len() != batch * width {
            return Err(DataError::SchemaMismatch(format!(
                "condition buffer holds {} values, expected {batch} x {width}",
                vectors.len()
            )));
        }
        rows.clear();
        for b in 0..batch {
            let (pick, row) = self.draw(spec, mode, rng);
            // In range: the length was checked above.
            let out = vectors
                .get_mut(b * width..(b + 1) * width)
                .unwrap_or_default();
            Self::write_vector(table, spec, full_condition, pick, row, out)?;
            rows.push(row);
        }
        Ok(())
    }
}

impl fmt::Debug for TrainingSampler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TrainingSampler({} rows, {} cond cols)",
            self.n_rows,
            self.rows_by_cat.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnMeta, Schema};
    use crate::value::Value;
    use rand::{rngs::StdRng, SeedableRng};

    /// 95 "common" rows and 5 "rare" rows.
    fn imbalanced() -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::categorical("event"),
            ColumnMeta::continuous("x"),
        ]);
        let mut rows = Vec::new();
        for i in 0..100 {
            let ev = if i < 95 { "common" } else { "rare" };
            rows.push(vec![Value::cat(ev), Value::num(i as f64)]);
        }
        Table::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn index_buckets() {
        let t = imbalanced();
        let spec = ConditionVectorSpec::fit(&t, &["event"]).unwrap();
        let s = TrainingSampler::fit(&t, &spec).unwrap();
        assert_eq!(s.rows_with(0, 0).len(), 95); // "common" sorts first
        assert_eq!(s.rows_with(0, 1).len(), 5);
        assert_eq!(s.n_rows(), 100);
    }

    #[test]
    fn uniform_mode_boosts_minority() {
        let t = imbalanced();
        let spec = ConditionVectorSpec::fit(&t, &["event"]).unwrap();
        let s = TrainingSampler::fit(&t, &spec).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let mut rare = 0;
        for _ in 0..1000 {
            let c = s
                .sample_condition(&t, &spec, BalanceMode::Uniform, true, &mut rng)
                .unwrap();
            if c.boosted_category == Some(1) {
                rare += 1;
            }
        }
        assert!(
            (400..600).contains(&rare),
            "uniform should hit ~50% rare, got {rare}"
        );
    }

    #[test]
    fn logfreq_mode_oversamples_relative_to_frequency() {
        let t = imbalanced();
        let spec = ConditionVectorSpec::fit(&t, &["event"]).unwrap();
        let s = TrainingSampler::fit(&t, &spec).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut rare = 0;
        for _ in 0..1000 {
            let c = s
                .sample_condition(&t, &spec, BalanceMode::LogFreq, true, &mut rng)
                .unwrap();
            if c.boosted_category == Some(1) {
                rare += 1;
            }
        }
        // raw frequency would give ~5%; log-frequency gives ln6/(ln96+ln6) ≈ 28%
        assert!(
            rare > 150,
            "log-freq should oversample the rare class, got {rare}"
        );
        assert!(rare < 450, "but not reach uniform, got {rare}");
    }

    #[test]
    fn sampled_row_matches_condition() {
        let t = imbalanced();
        let spec = ConditionVectorSpec::fit(&t, &["event"]).unwrap();
        let s = TrainingSampler::fit(&t, &spec).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let c = s
                .sample_condition(&t, &spec, BalanceMode::Uniform, true, &mut rng)
                .unwrap();
            assert!(spec.row_matches(&t, c.row, &c.vector).unwrap());
        }
    }

    #[test]
    fn partial_condition_only_sets_boosted_block() {
        let t = imbalanced();
        let spec = ConditionVectorSpec::fit(&t, &["event"]).unwrap();
        let s = TrainingSampler::fit(&t, &spec).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let c = s
            .sample_condition(&t, &spec, BalanceMode::LogFreq, false, &mut rng)
            .unwrap();
        let set: usize = c.vector.iter().filter(|&&v| v > 0.0).count();
        assert_eq!(set, 1);
    }

    #[test]
    fn none_mode_returns_row_condition() {
        let t = imbalanced();
        let spec = ConditionVectorSpec::fit(&t, &["event"]).unwrap();
        let s = TrainingSampler::fit(&t, &spec).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let c = s
            .sample_condition(&t, &spec, BalanceMode::None, true, &mut rng)
            .unwrap();
        assert!(c.boosted_column.is_none());
        assert!(spec.row_matches(&t, c.row, &c.vector).unwrap());
    }

    #[test]
    fn batch_has_requested_size() {
        let t = imbalanced();
        let spec = ConditionVectorSpec::fit(&t, &["event"]).unwrap();
        let s = TrainingSampler::fit(&t, &spec).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let batch = s
            .sample_batch(&t, &spec, BalanceMode::Uniform, true, 32, &mut rng)
            .unwrap();
        assert_eq!(batch.len(), 32);
    }

    #[test]
    fn batch_into_draws_what_sample_batch_draws() {
        let t = imbalanced();
        let spec = ConditionVectorSpec::fit(&t, &["event"]).unwrap();
        let s = TrainingSampler::fit(&t, &spec).unwrap();
        // Stale buffer contents must be overwritten.
        let mut vectors = vec![7.0f32; 24 * spec.width()];
        let mut rows = vec![99];
        for mode in [
            BalanceMode::LogFreq,
            BalanceMode::Uniform,
            BalanceMode::None,
        ] {
            for full in [true, false] {
                let mut rng_a = StdRng::seed_from_u64(6);
                let mut rng_b = StdRng::seed_from_u64(6);
                let want = s
                    .sample_batch(&t, &spec, mode, full, 24, &mut rng_a)
                    .unwrap();
                s.sample_batch_into(
                    &t,
                    &spec,
                    mode,
                    full,
                    24,
                    &mut vectors,
                    &mut rows,
                    &mut rng_b,
                )
                .unwrap();
                let want_rows: Vec<usize> = want.iter().map(|c| c.row).collect();
                let want_vectors: Vec<f32> = want.iter().flat_map(|c| c.vector.clone()).collect();
                assert_eq!(rows, want_rows, "{mode} full={full}");
                assert_eq!(vectors, want_vectors, "{mode} full={full}");
                assert_eq!(rng_a.random::<u64>(), rng_b.random::<u64>());
            }
        }
        let mut rng = StdRng::seed_from_u64(6);
        let short = s.sample_batch_into(
            &t,
            &spec,
            BalanceMode::None,
            true,
            25,
            &mut vectors,
            &mut rows,
            &mut rng,
        );
        assert!(short.is_err(), "a buffer for 24 conditions holds no 25");
    }

    #[test]
    fn empty_table_rejected() {
        let t = imbalanced();
        let spec = ConditionVectorSpec::fit(&t, &["event"]).unwrap();
        let empty = Table::empty(t.schema().clone());
        assert!(TrainingSampler::fit(&empty, &spec).is_err());
    }
}
