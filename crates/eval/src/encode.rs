//! Feature encoding for the NIDS classifiers: one-hot categoricals,
//! z-scored continuous features, and integer class labels.

use kinet_data::{ColumnKind, DataError, Table};
use kinet_tensor::Matrix;
use std::collections::BTreeMap;

/// Fitted feature/label encoder shared by train and test tables.
///
/// Unseen categories at apply time map to an all-zero one-hot block (the
/// conventional "unknown" handling), and unseen labels map to a reserved
/// `unknown` class so accuracy counts them as errors rather than panicking.
#[derive(Clone, Debug)]
pub struct MlEncoder {
    label_column: String,
    feature_cats: Vec<(String, Vec<String>)>,
    feature_nums: Vec<(String, f64, f64)>,
    labels: Vec<String>,
    label_index: BTreeMap<String, usize>,
}

impl MlEncoder {
    /// Fits the encoder on a (real) training table.
    ///
    /// # Errors
    ///
    /// Returns [`DataError`] when `label_column` is missing or not
    /// categorical, or the table is empty.
    pub fn fit(table: &Table, label_column: &str) -> Result<Self, DataError> {
        if table.is_empty() {
            return Err(DataError::SchemaMismatch(
                "cannot fit encoder on empty table".into(),
            ));
        }
        let labels_col = table.cat_column(label_column)?;
        let labels = sorted_distinct(labels_col);
        let label_index = labels
            .iter()
            .enumerate()
            .map(|(i, l)| (l.clone(), i))
            .collect();

        let mut feature_cats = Vec::new();
        let mut feature_nums = Vec::new();
        for col in table.schema().iter() {
            if col.name() == label_column {
                continue;
            }
            match col.kind() {
                ColumnKind::Categorical => {
                    let cats = sorted_distinct(table.cat_column(col.name())?);
                    feature_cats.push((col.name().to_string(), cats));
                }
                ColumnKind::Continuous => {
                    let vals = table.num_column(col.name())?;
                    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
                    let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
                        / vals.len() as f64;
                    let std = var.sqrt().max(1e-9);
                    feature_nums.push((col.name().to_string(), mean, std));
                }
            }
        }
        Ok(Self {
            label_column: label_column.to_string(),
            feature_cats,
            feature_nums,
            labels,
            label_index,
        })
    }

    /// Number of encoded feature columns.
    pub fn n_features(&self) -> usize {
        self.feature_cats
            .iter()
            .map(|(_, c)| c.len())
            .sum::<usize>()
            + self.feature_nums.len()
    }

    /// Number of label classes.
    pub fn n_classes(&self) -> usize {
        self.labels.len()
    }

    /// Class names in label order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The label column name.
    pub fn label_column(&self) -> &str {
        &self.label_column
    }

    /// Label code for a class name, if known.
    pub fn label_code(&self, label: &str) -> Option<usize> {
        self.label_index.get(label).copied()
    }

    /// Encodes features and labels. Rows with labels unseen at fit time get
    /// the sentinel class `n_classes()` (always wrong for accuracy).
    ///
    /// # Errors
    ///
    /// Returns [`DataError`] when columns are missing.
    pub fn encode(&self, table: &Table) -> Result<(Matrix, Vec<usize>), DataError> {
        let n = table.n_rows();
        let mut x = Matrix::zeros(n, self.n_features());
        let mut offset = 0;
        for (name, cats) in &self.feature_cats {
            let col = table.cat_column(name)?;
            for (r, v) in col.iter().enumerate() {
                if let Ok(idx) = cats.binary_search(v) {
                    x[(r, offset + idx)] = 1.0;
                }
            }
            offset += cats.len();
        }
        for (name, mean, std) in &self.feature_nums {
            let col = table.num_column(name)?;
            for (r, &v) in col.iter().enumerate() {
                x[(r, offset)] = ((v - mean) / std) as f32;
            }
            offset += 1;
        }
        let label_col = table.cat_column(&self.label_column)?;
        let y = label_col
            .iter()
            .map(|l| {
                self.label_index
                    .get(l)
                    .copied()
                    .unwrap_or(self.labels.len())
            })
            .collect();
        Ok((x, y))
    }
}

/// The distinct values of a categorical column, sorted. Sorts borrowed
/// `&str`s (their order is `String`'s) and clones each distinct value once.
fn sorted_distinct(values: &[String]) -> Vec<String> {
    let mut distinct: Vec<&str> = values.iter().map(String::as_str).collect();
    distinct.sort_unstable();
    distinct.dedup();
    distinct.into_iter().map(str::to_string).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kinet_data::{ColumnMeta, Schema, Value};

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::categorical("proto"),
            ColumnMeta::continuous("port"),
            ColumnMeta::categorical("event"),
        ]);
        Table::from_rows(
            schema,
            vec![
                vec![Value::cat("udp"), Value::num(53.0), Value::cat("dns")],
                vec![Value::cat("tcp"), Value::num(443.0), Value::cat("web")],
                vec![Value::cat("udp"), Value::num(123.0), Value::cat("ntp")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn fit_and_shape() {
        let enc = MlEncoder::fit(&table(), "event").unwrap();
        assert_eq!(enc.n_features(), 2 + 1); // proto one-hot + z-scored port
        assert_eq!(enc.n_classes(), 3);
        assert_eq!(enc.label_code("dns"), Some(0));
        let (x, y) = enc.encode(&table()).unwrap();
        assert_eq!(x.shape(), (3, 3));
        assert_eq!(y, vec![0, 2, 1]);
    }

    #[test]
    fn zscore_applied() {
        let enc = MlEncoder::fit(&table(), "event").unwrap();
        let (x, _) = enc.encode(&table()).unwrap();
        let col: Vec<f32> = (0..3).map(|r| x[(r, 2)]).collect();
        let mean: f32 = col.iter().sum::<f32>() / 3.0;
        assert!(mean.abs() < 1e-5);
    }

    #[test]
    fn unseen_category_and_label_handled() {
        let enc = MlEncoder::fit(&table(), "event").unwrap();
        let schema = table().schema().clone();
        let other = Table::from_rows(
            schema,
            vec![vec![
                Value::cat("icmp"),
                Value::num(1.0),
                Value::cat("ping"),
            ]],
        )
        .unwrap();
        let (x, y) = enc.encode(&other).unwrap();
        assert_eq!(x[(0, 0)], 0.0);
        assert_eq!(x[(0, 1)], 0.0);
        assert_eq!(y[0], enc.n_classes()); // sentinel class
    }

    #[test]
    fn label_must_be_categorical() {
        assert!(MlEncoder::fit(&table(), "port").is_err());
        assert!(MlEncoder::fit(&table(), "ghost").is_err());
    }
}
