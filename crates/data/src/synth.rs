//! The model-agnostic synthesizer interface.
//!
//! Every generative model in the workspace — KiNETGAN and all five
//! baselines — implements [`TabularSynthesizer`], so fidelity, utility and
//! privacy evaluations are written once against the trait.

use crate::table::{DataError, Table};
use std::error::Error;
use std::fmt;

/// Errors produced by synthesizer training and sampling.
#[derive(Debug)]
pub enum SynthError {
    /// `sample` was called before a successful `fit`.
    NotFitted,
    /// A data-layer failure (schema mismatch, unseen category, …).
    Data(DataError),
    /// Training diverged or hit an invalid configuration.
    Training(String),
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::NotFitted => f.write_str("synthesizer has not been fitted"),
            SynthError::Data(e) => write!(f, "data error: {e}"),
            SynthError::Training(m) => write!(f, "training error: {m}"),
        }
    }
}

impl Error for SynthError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SynthError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DataError> for SynthError {
    fn from(e: DataError) -> Self {
        SynthError::Data(e)
    }
}

/// A generative model over tabular data.
///
/// Implementations are deterministic given their configured seed and the
/// `seed` passed to [`TabularSynthesizer::sample`].
pub trait TabularSynthesizer {
    /// Short human-readable model name (e.g. `"KiNETGAN"`, `"CTGAN"`).
    fn name(&self) -> &str;

    /// Trains on `table`.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError`] when the table is unusable or training
    /// diverges.
    fn fit(&mut self, table: &Table) -> Result<(), SynthError>;

    /// Draws `n` synthetic rows with the given sampling seed.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::NotFitted`] before [`TabularSynthesizer::fit`].
    fn sample(&self, n: usize, seed: u64) -> Result<Table, SynthError>;

    /// Optional white-box critic scores (higher = "more real" according to
    /// the model's own discriminator). Used by the white-box membership
    /// inference attack; models without an accessible critic return `None`.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::Data`] when `table` cannot be encoded the way
    /// the model was fitted, such as a category it never saw.
    fn critic_scores(&self, _table: &Table) -> Result<Option<Vec<f64>>, SynthError> {
        Ok(None)
    }
}

/// The shared batched sampling loop every generator-backed synthesizer in
/// the workspace runs: draw batches of at most `batch.max(32)` rows from
/// `gen_batch` until `n` rows are collected. The result holds **exactly**
/// `n` rows for every `n`/`batch` combination.
///
/// `gen_batch(want, rng)` should return exactly `want` decoded rows; it
/// owns whatever model-specific work a batch needs (condition sampling,
/// forward pass, inverse transform, KG rejection rounds). A batch that
/// overshoots is truncated to its requested size — keeping each batch's
/// contribution at `want` rows is what preserves the condition-sampler's
/// class marginals independently of how `n` splits into batches. A batch
/// that undershoots is tolerated (the remainder is re-requested), but a
/// batch that returns no rows at all is an error: looping on it would
/// never terminate.
///
/// RNG consumption order is exactly the per-model loops this replaces, so
/// fixed-seed releases are unchanged.
///
/// # Errors
///
/// Propagates `gen_batch` and table-append failures, and reports a
/// [`SynthError::Training`] when `gen_batch` makes no progress.
pub fn sample_in_batches<R: rand::Rng>(
    schema: crate::Schema,
    n: usize,
    batch: usize,
    rng: &mut R,
    mut gen_batch: impl FnMut(usize, &mut R) -> Result<Table, SynthError>,
) -> Result<Table, SynthError> {
    let mut out = Table::empty(schema);
    let batch = batch.max(32);
    while out.n_rows() < n {
        let want = (n - out.n_rows()).min(batch);
        let got = gen_batch(want, rng)?;
        if got.is_empty() {
            return Err(SynthError::Training(format!(
                "batch generator returned no rows (requested {want}); \
                 sampling cannot make progress"
            )));
        }
        if got.n_rows() > want {
            // Truncate the overshoot so this batch contributes exactly the
            // rows that were requested of it.
            let idx: Vec<usize> = (0..want).collect();
            out.append(&got.select_rows(&idx))?;
        } else {
            out.append(&got)?;
        }
    }
    debug_assert_eq!(out.n_rows(), n, "batched sampling must deliver exactly n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnMeta, Schema};
    use crate::value::Value;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    /// A trivial synthesizer that resamples training rows — used to test
    /// the trait contract and downstream evaluation code.
    struct Resampler {
        data: Option<Table>,
    }

    impl TabularSynthesizer for Resampler {
        fn name(&self) -> &str {
            "Resampler"
        }

        fn fit(&mut self, table: &Table) -> Result<(), SynthError> {
            if table.is_empty() {
                return Err(SynthError::Training("empty training table".into()));
            }
            self.data = Some(table.clone());
            Ok(())
        }

        fn sample(&self, n: usize, seed: u64) -> Result<Table, SynthError> {
            let data = self.data.as_ref().ok_or(SynthError::NotFitted)?;
            let mut rng = StdRng::seed_from_u64(seed);
            let idx: Vec<usize> = (0..n).map(|_| rng.random_range(0..data.n_rows())).collect();
            Ok(data.select_rows(&idx))
        }
    }

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::categorical("c"),
            ColumnMeta::continuous("x"),
        ]);
        Table::from_rows(
            schema,
            vec![
                vec![Value::cat("a"), Value::num(1.0)],
                vec![Value::cat("b"), Value::num(2.0)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn contract_not_fitted() {
        let r = Resampler { data: None };
        assert!(matches!(r.sample(3, 0), Err(SynthError::NotFitted)));
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let mut r = Resampler { data: None };
        r.fit(&table()).unwrap();
        assert_eq!(r.sample(5, 7).unwrap(), r.sample(5, 7).unwrap());
    }

    #[test]
    fn default_critic_is_none() {
        let mut r = Resampler { data: None };
        r.fit(&table()).unwrap();
        assert!(r.critic_scores(&table()).unwrap().is_none());
    }

    /// 90% "common" / 10% "rare" rows, for marginal checks.
    fn imbalanced() -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::categorical("c"),
            ColumnMeta::continuous("x"),
        ]);
        let rows = (0..100)
            .map(|i| {
                vec![
                    Value::cat(if i < 90 { "common" } else { "rare" }),
                    Value::num(i as f64),
                ]
            })
            .collect();
        Table::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn batched_sampling_is_exact_for_every_combination() {
        let data = imbalanced();
        for n in [0usize, 1, 31, 32, 33, 63, 64, 65, 100, 257] {
            for batch in [0usize, 1, 32, 50, 64, 333] {
                let mut rng = StdRng::seed_from_u64(9);
                let out =
                    sample_in_batches(data.schema().clone(), n, batch, &mut rng, |want, rng| {
                        let idx: Vec<usize> = (0..want)
                            .map(|_| rng.random_range(0..data.n_rows()))
                            .collect();
                        Ok(data.select_rows(&idx))
                    })
                    .unwrap();
                assert_eq!(out.n_rows(), n, "n={n} batch={batch}");
            }
        }
    }

    #[test]
    fn overshooting_batches_are_truncated_to_request() {
        let data = imbalanced();
        let mut rng = StdRng::seed_from_u64(4);
        // A misbehaving generator that always returns 48 rows.
        let out = sample_in_batches(data.schema().clone(), 70, 32, &mut rng, |_want, rng| {
            let idx: Vec<usize> = (0..48)
                .map(|_| rng.random_range(0..data.n_rows()))
                .collect();
            Ok(data.select_rows(&idx))
        })
        .unwrap();
        assert_eq!(out.n_rows(), 70);
    }

    #[test]
    fn empty_batches_error_instead_of_spinning() {
        let data = imbalanced();
        let mut rng = StdRng::seed_from_u64(5);
        let err = sample_in_batches(data.schema().clone(), 10, 32, &mut rng, |_, _| {
            Ok(Table::empty(imbalanced().schema().clone()))
        })
        .unwrap_err();
        assert!(matches!(err, SynthError::Training(_)), "{err}");
        assert!(err.to_string().contains("no rows"), "{err}");
    }

    #[test]
    fn class_marginals_survive_batch_splitting() {
        // The same resampling generator must produce statistically
        // indistinguishable class marginals no matter how n splits into
        // batches: each batch contributes exactly its requested rows, so
        // no batch-boundary effect can skew the class mix.
        let data = imbalanced();
        let rare_fraction = |batch: usize| {
            let mut rng = StdRng::seed_from_u64(11);
            let out =
                sample_in_batches(data.schema().clone(), 600, batch, &mut rng, |want, rng| {
                    let idx: Vec<usize> = (0..want)
                        .map(|_| rng.random_range(0..data.n_rows()))
                        .collect();
                    Ok(data.select_rows(&idx))
                })
                .unwrap();
            let rare = out
                .cat_column("c")
                .unwrap()
                .iter()
                .filter(|v| v.as_str() == "rare")
                .count();
            rare as f64 / 600.0
        };
        for batch in [32, 64, 123, 600] {
            let frac = rare_fraction(batch);
            assert!(
                (0.05..0.17).contains(&frac),
                "batch={batch}: rare fraction {frac} strayed from the 10% marginal"
            );
        }
    }

    #[test]
    fn error_display() {
        assert!(SynthError::NotFitted
            .to_string()
            .contains("not been fitted"));
        let e = SynthError::Training("nan".into());
        assert!(e.to_string().contains("nan"));
    }
}
