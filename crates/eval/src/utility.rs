//! Utility evaluation: train-on-synthetic, test-on-real (paper §V-B,
//! Figures 3 and 4).

use crate::classifiers::{accuracy, macro_f1, standard_panel, Classifier};
use crate::encode::MlEncoder;
use kinet_data::{DataError, Table};

/// Result of evaluating one training source against the real test set.
#[derive(Clone, Debug)]
pub struct UtilityReport {
    /// Name of the training source (model name or `"Baseline"`).
    pub source: String,
    /// `(classifier name, accuracy)` pairs.
    pub per_classifier: Vec<(String, f64)>,
    /// Mean accuracy over the panel — the number plotted in Figures 3–4.
    pub mean_accuracy: f64,
    /// Mean macro-F1 over the panel (extra signal for imbalanced labels).
    pub mean_macro_f1: f64,
}

/// Trains the standard classifier panel on `train`, evaluates on `test`.
///
/// The encoder is always fitted on `real_reference` (the real training
/// data) so real and synthetic sources face the identical feature space,
/// and synthetic categories outside the real dictionary are penalized
/// naturally.
///
/// # Errors
///
/// Propagates encoding failures ([`DataError`]); returns
/// [`DataError::EmptyTable`] when `train` or `test` has no rows (no
/// classifier can be fitted or scored).
pub fn evaluate_tstr(
    source_name: &str,
    train: &Table,
    test: &Table,
    real_reference: &Table,
    label_column: &str,
) -> Result<UtilityReport, DataError> {
    for (split, table) in [("train", train), ("test", test)] {
        if table.is_empty() {
            return Err(DataError::EmptyTable(format!(
                "the {split} split of the {source_name} utility evaluation has no rows"
            )));
        }
    }
    let encoder = MlEncoder::fit(real_reference, label_column)?;
    let (xtr, ytr) = encoder.encode(train)?;
    let (xte, yte) = encoder.encode(test)?;
    let n_classes = encoder.n_classes();
    let mut per_classifier = Vec::new();
    let mut acc_sum = 0.0;
    let mut f1_sum = 0.0;
    for mut clf in standard_panel() {
        clf.fit(&xtr, &ytr, n_classes);
        let pred = clf.predict(&xte);
        let acc = accuracy(&pred, &yte);
        let f1 = macro_f1(&pred, &yte, n_classes);
        acc_sum += acc;
        f1_sum += f1;
        per_classifier.push((clf.name().to_string(), acc));
    }
    let n = per_classifier.len() as f64;
    Ok(UtilityReport {
        source: source_name.to_string(),
        per_classifier,
        mean_accuracy: acc_sum / n,
        mean_macro_f1: f1_sum / n,
    })
}

/// Detection quality of an NIDS trained on `train` and deployed against
/// `test`.
#[derive(Clone, Copy, Debug)]
pub struct NidsEval {
    /// Overall accuracy on the test stream.
    pub accuracy: f64,
    /// Attack recall: fraction of attack-class records flagged as *some*
    /// attack class (mislabelling one attack as another still counts as a
    /// detection). `1.0` when the test stream holds no attacks.
    pub attack_recall: f64,
}

/// Trains a random-forest NIDS on `train` and evaluates it on `test`,
/// reporting accuracy and attack recall. The feature space is fitted on
/// `reference` so train and test agree; `attack_events` names the label
/// categories that count as attacks.
///
/// This is the measurement behind the distributed simulation's Table-1
/// numbers: accuracy alone can look healthy on an imbalanced stream while
/// the detector never flags a single attack, which is why the recall is
/// reported (and asserted) alongside it.
///
/// # Errors
///
/// Propagates encoding failures ([`DataError`]).
pub fn evaluate_nids(
    train: &Table,
    test: &Table,
    reference: &Table,
    label_column: &str,
    attack_events: &[&str],
) -> Result<NidsEval, DataError> {
    let encoder = MlEncoder::fit(reference, label_column)?;
    let (xtr, ytr) = encoder.encode(train)?;
    let (xte, yte) = encoder.encode(test)?;
    let mut rf = crate::classifiers::RandomForest::new(12, 10);
    rf.fit(&xtr, &ytr, encoder.n_classes());
    let pred = rf.predict(&xte);
    let acc = accuracy(&pred, &yte);
    let attack_codes: Vec<usize> = attack_events
        .iter()
        .filter_map(|e| encoder.label_code(e))
        .collect();
    Ok(NidsEval {
        accuracy: acc,
        attack_recall: attack_recall(&pred, &yte, &attack_codes),
    })
}

/// Fraction of attack-class records (`truth` in `attack_codes`) predicted
/// as *any* attack class. Returns `1.0` when no attack records are present.
pub fn attack_recall(pred: &[usize], truth: &[usize], attack_codes: &[usize]) -> f64 {
    let mut attacks = 0usize;
    let mut caught = 0usize;
    for (p, t) in pred.iter().zip(truth) {
        if attack_codes.contains(t) {
            attacks += 1;
            if attack_codes.contains(p) {
                caught += 1;
            }
        }
    }
    if attacks == 0 {
        1.0
    } else {
        caught as f64 / attacks as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kinet_datasets::lab::{LabSimConfig, LabSimulator};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn baseline_beats_chance_on_lab_data() {
        let data = LabSimulator::new(LabSimConfig::small(1500, 3))
            .generate()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let (train, test) = data.train_test_split(0.3, &mut rng);
        let report = evaluate_tstr("Baseline", &train, &test, &train, "event").unwrap();
        assert_eq!(report.per_classifier.len(), 5);
        // events are nearly determined by (protocol, ports) in the lab sim
        assert!(
            report.mean_accuracy > 0.6,
            "mean accuracy {}",
            report.mean_accuracy
        );
        assert!(report.mean_macro_f1 > 0.3);
    }

    #[test]
    fn empty_split_is_a_typed_error_not_a_panic() {
        let data = LabSimulator::new(LabSimConfig::small(40, 5))
            .generate()
            .unwrap();
        let empty = data.select_rows(&[]);
        for (train, test) in [(&data, &empty), (&empty, &data)] {
            let err = evaluate_tstr("Baseline", train, test, &data, "event").unwrap_err();
            assert!(matches!(err, DataError::EmptyTable(_)), "{err}");
        }
    }

    #[test]
    fn shuffled_labels_hurt_utility() {
        let data = LabSimulator::new(LabSimConfig::small(800, 4))
            .generate()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let (train, test) = data.train_test_split(0.3, &mut rng);
        // corrupt: rotate the label column by pairing rows with shifted labels
        let n = train.n_rows();
        let mut rows = Vec::with_capacity(n);
        for r in 0..n {
            let mut row = train.row(r);
            row[0] = train.value((r + n / 2) % n, 0);
            rows.push(row);
        }
        let corrupted = Table::from_rows(train.schema().clone(), rows).unwrap();
        let good = evaluate_tstr("good", &train, &test, &train, "event").unwrap();
        let bad = evaluate_tstr("bad", &corrupted, &test, &train, "event").unwrap();
        assert!(
            good.mean_accuracy > bad.mean_accuracy + 0.2,
            "good {} vs corrupted {}",
            good.mean_accuracy,
            bad.mean_accuracy
        );
    }

    #[test]
    fn nids_eval_reports_accuracy_and_recall() {
        let data = LabSimulator::new(LabSimConfig::small(1200, 7))
            .generate()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let (train, test) = data.train_test_split(0.3, &mut rng);
        let attacks = LabSimulator::attack_events();
        let eval = evaluate_nids(&train, &test, &train, "event", &attacks).unwrap();
        assert!(eval.accuracy > 0.6, "{}", eval.accuracy);
        assert!(eval.attack_recall > 0.5, "{}", eval.attack_recall);
    }

    #[test]
    fn attack_recall_counts_cross_attack_confusion_as_caught() {
        // truth: attacks are codes 1 and 2
        let truth = [0, 1, 2, 1, 0];
        let pred = [0, 2, 0, 1, 1]; // one attack→attack confusion, one miss
        let recall = attack_recall(&pred, &truth, &[1, 2]);
        assert!((recall - 2.0 / 3.0).abs() < 1e-12, "{recall}");
        // no attacks in truth → vacuous recall of 1.0
        assert_eq!(attack_recall(&[0, 0], &[0, 0], &[1]), 1.0);
    }
}
