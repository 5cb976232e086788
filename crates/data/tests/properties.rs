//! Property-based tests for the data pipeline: encoding invariants that
//! must hold for arbitrary well-formed tables.

use kinet_data::condition::ConditionVectorSpec;
use kinet_data::gmm::GaussianMixture1d;
use kinet_data::sampler::{BalanceMode, TrainingSampler};
use kinet_data::transform::DataTransformer;
use kinet_data::{ColumnMeta, Schema, Table, Value};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn arb_table() -> impl Strategy<Value = Table> {
    let cat_values = prop::sample::select(vec!["a", "b", "c", "d"]);
    let rows = prop::collection::vec((cat_values, -1000.0f64..1000.0), 5..60);
    rows.prop_map(|rows| {
        let schema = Schema::new(vec![
            ColumnMeta::categorical("label"),
            ColumnMeta::continuous("x"),
        ]);
        Table::from_rows(
            schema,
            rows.into_iter()
                .map(|(c, x)| vec![Value::cat(c), Value::num(x)])
                .collect(),
        )
        .expect("well-formed rows")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gmm_responsibilities_always_sum_to_one(
        data in prop::collection::vec(-1e4f64..1e4, 2..200),
        k in 1usize..6,
        probe in -1e6f64..1e6,
    ) {
        let gmm = GaussianMixture1d::fit(&data, k, 30, 9);
        let r = gmm.responsibilities(probe);
        let total: f64 = r.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "sum {total}");
        let w: f64 = gmm.weights().iter().sum();
        prop_assert!((w - 1.0).abs() < 1e-6);
        prop_assert!(gmm.stds().iter().all(|&s| s > 0.0));
    }

    #[test]
    fn transform_is_invertible_on_categoricals(table in arb_table()) {
        let tx = DataTransformer::fit(&table, 4, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let encoded = tx.transform(&table, &mut rng);
        prop_assert_eq!(encoded.cols(), tx.width());
        let back = tx.inverse_transform(&encoded).unwrap();
        prop_assert_eq!(
            back.cat_column("label").unwrap(),
            table.cat_column("label").unwrap()
        );
    }

    #[test]
    fn encoded_one_hot_blocks_are_simplex(table in arb_table()) {
        let tx = DataTransformer::fit(&table, 4, 0).unwrap();
        let encoded = tx.transform_deterministic(&table).unwrap();
        for (span, col) in tx.spans().iter().zip(table.schema().iter()) {
            if col.kind() == kinet_data::ColumnKind::Categorical {
                for r in 0..encoded.rows() {
                    let s: f32 =
                        (0..span.width).map(|j| encoded[(r, span.start + j)]).sum();
                    prop_assert!((s - 1.0).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn condition_vector_roundtrips(table in arb_table(), row_sel in any::<prop::sample::Index>()) {
        let spec = ConditionVectorSpec::fit(&table, &["label"]).unwrap();
        let row = row_sel.index(table.n_rows());
        let c = spec.vector_from_row(&table, row).unwrap();
        // exactly one bit per conditional column
        let ones = c.iter().filter(|&&v| v == 1.0).count();
        prop_assert_eq!(ones, 1);
        let decoded = spec.decode(&c);
        prop_assert_eq!(
            decoded.get("label").map(String::as_str),
            table.cat_column("label").unwrap().get(row).map(String::as_str)
        );
        prop_assert!(spec.row_matches(&table, row, &c).unwrap());
    }

    #[test]
    fn split_partitions_all_rows(table in arb_table(), frac in 0.1f64..0.9, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (train, test) = table.train_test_split(frac, &mut rng);
        prop_assert_eq!(train.n_rows() + test.n_rows(), table.n_rows());
        prop_assert!(!train.is_empty());
        prop_assert!(!test.is_empty());
    }

    #[test]
    fn log_freq_weights_match_ln_one_plus_count(table in arb_table()) {
        let spec = ConditionVectorSpec::fit(&table, &["label"]).unwrap();
        let sampler = TrainingSampler::fit(&table, &spec).unwrap();
        let weights = sampler.log_freq_weights(0);
        let enc = spec.encoder(0);
        prop_assert_eq!(weights.len(), enc.n_categories());
        // Reference masses straight from the definition: ln(1 + count).
        let labels = table.cat_column("label").unwrap();
        let masses: Vec<f64> = enc
            .categories()
            .iter()
            .map(|cat| {
                let count = labels.iter().filter(|v| *v == cat).count();
                (1.0 + count as f64).ln()
            })
            .collect();
        let total: f64 = masses.iter().sum();
        for (i, (&w, &m)) in weights.iter().zip(&masses).enumerate() {
            prop_assert!(
                (w - m / total).abs() < 1e-9,
                "category {i}: weight {w} vs log-frequency {}", m / total
            );
        }
        prop_assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn log_freq_marginals_follow_weights(table in arb_table(), seed in any::<u64>()) {
        let spec = ConditionVectorSpec::fit(&table, &["label"]).unwrap();
        let sampler = TrainingSampler::fit(&table, &spec).unwrap();
        let weights = sampler.log_freq_weights(0);
        let mut rng = StdRng::seed_from_u64(seed);
        let draws = 1200;
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..draws {
            let c = sampler
                .sample_condition(&table, &spec, BalanceMode::LogFreq, true, &mut rng)
                .unwrap();
            counts[c.boosted_category.unwrap()] += 1;
        }
        // Empirical marginals must track the analytic log-frequency
        // weights (5σ band of the binomial so the test is seed-robust).
        for (i, (&count, &w)) in counts.iter().zip(&weights).enumerate() {
            let expected = w * draws as f64;
            let sigma = (draws as f64 * w * (1.0 - w)).sqrt();
            prop_assert!(
                (count as f64 - expected).abs() <= 5.0 * sigma + 1.0,
                "category {i}: drew {count}, expected {expected:.1} ± {sigma:.1}"
            );
        }
    }

    #[test]
    fn sampled_conditions_are_one_hot_and_row_consistent(
        table in arb_table(),
        seed in any::<u64>(),
        mode_sel in 0usize..3,
    ) {
        let mode = [BalanceMode::LogFreq, BalanceMode::Uniform, BalanceMode::None][mode_sel];
        let spec = ConditionVectorSpec::fit(&table, &["label"]).unwrap();
        let sampler = TrainingSampler::fit(&table, &spec).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for c in sampler
            .sample_batch(&table, &spec, mode, true, 24, &mut rng)
            .unwrap()
        {
            // one-hot per conditional column block
            let ones = c.vector.iter().filter(|&&v| v == 1.0).count();
            let zeros = c.vector.iter().filter(|&&v| v == 0.0).count();
            prop_assert_eq!(ones, spec.n_columns());
            prop_assert_eq!(ones + zeros, spec.width());
            // the drawn real row carries exactly the conditioned values
            prop_assert!(spec.row_matches(&table, c.row, &c.vector).unwrap());
            if let (Some(col), Some(cat)) = (c.boosted_column, c.boosted_category) {
                prop_assert!((c.vector[spec.offset(col) + cat] - 1.0).abs() < 1e-6,
                    "boosted pick must be set in the vector");
            }
        }
    }

    #[test]
    fn csv_roundtrip_preserves_categoricals(table in arb_table()) {
        let mut buf = Vec::new();
        table.write_csv(&mut buf).unwrap();
        let back = Table::read_csv(table.schema().clone(), buf.as_slice()).unwrap();
        prop_assert_eq!(back.n_rows(), table.n_rows());
        prop_assert_eq!(
            back.cat_column("label").unwrap(),
            table.cat_column("label").unwrap()
        );
    }
}
