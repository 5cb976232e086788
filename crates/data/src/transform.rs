//! Encoding tables into the GAN representation and back.
//!
//! Following CTGAN (Xu et al., 2019), which KiNETGAN builds on:
//!
//! * a **categorical** column with `k` categories becomes a one-hot block of
//!   width `k`;
//! * a **continuous** column becomes `1 + m` values: a scalar `alpha` (the
//!   offset within the chosen mixture mode, scaled to roughly `[-1, 1]`)
//!   followed by a one-hot block over the `m` modes of an EM-fitted
//!   [`GaussianMixture1d`] — *mode-specific normalization*.

use crate::gmm::GaussianMixture1d;
use crate::schema::{ColumnKind, Schema};
use crate::table::{DataError, Table};
use crate::value::Value;
use kinet_tensor::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Bidirectional mapping between category strings and dense codes.
///
/// ```
/// use kinet_data::transform::CategoricalEncoder;
/// let enc = CategoricalEncoder::fit(["b", "a", "b"].iter().map(|s| s.to_string()));
/// assert_eq!(enc.n_categories(), 2);
/// assert_eq!(enc.encode("a"), Some(0));
/// assert_eq!(enc.decode(1), Some("b"));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CategoricalEncoder {
    categories: Vec<String>,
    index: BTreeMap<String, usize>,
}

impl CategoricalEncoder {
    /// Learns the dictionary (sorted for determinism).
    pub fn fit(values: impl IntoIterator<Item = String>) -> Self {
        let mut categories: Vec<String> = values.into_iter().collect();
        categories.sort();
        categories.dedup();
        let index = categories
            .iter()
            .enumerate()
            .map(|(i, c)| (c.clone(), i))
            .collect();
        Self { categories, index }
    }

    /// Number of distinct categories.
    pub fn n_categories(&self) -> usize {
        self.categories.len()
    }

    /// The dense code of `value`, if known.
    pub fn encode(&self, value: &str) -> Option<usize> {
        self.index.get(value).copied()
    }

    /// The category string for `code`, if in range.
    pub fn decode(&self, code: usize) -> Option<&str> {
        self.categories.get(code).map(String::as_str)
    }

    /// All categories in code order.
    pub fn categories(&self) -> &[String] {
        &self.categories
    }
}

/// Mode-specific normalizer for one continuous column.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModeSpecificNormalizer {
    gmm: GaussianMixture1d,
    /// Every training value was integral (ports, packet counts); decoded
    /// values are rounded so domain rules over exact integers stay
    /// satisfiable.
    integral: bool,
}

impl ModeSpecificNormalizer {
    /// Fits the column's mixture (up to `max_modes` components).
    pub fn fit(data: &[f64], max_modes: usize, seed: u64) -> Self {
        let integral = data.iter().all(|v| v.fract() == 0.0);
        Self {
            gmm: GaussianMixture1d::fit(data, max_modes, 100, seed),
            integral,
        }
    }

    /// Number of mixture modes (encoded width is `1 + n_modes`).
    pub fn n_modes(&self) -> usize {
        self.gmm.n_components()
    }

    /// The underlying mixture.
    pub fn gmm(&self) -> &GaussianMixture1d {
        &self.gmm
    }

    /// Encodes `x` as `(alpha, mode)`, sampling the mode from the
    /// posterior (CTGAN's stochastic assignment).
    pub fn encode(&self, x: f64, rng: &mut impl Rng) -> (f32, usize) {
        let mode = self.gmm.sample_component(x, rng);
        (self.alpha_for(x, mode), mode)
    }

    /// Encodes `x` deterministically with the most responsible mode.
    pub fn encode_deterministic(&self, x: f64) -> (f32, usize) {
        let mode = self.gmm.most_likely_component(x);
        (self.alpha_for(x, mode), mode)
    }

    fn alpha_for(&self, x: f64, mode: usize) -> f32 {
        let mu = self.gmm.means()[mode];
        let sd = self.gmm.stds()[mode];
        (((x - mu) / (4.0 * sd)) as f32).clamp(-1.0, 1.0)
    }

    /// Decodes `(alpha, mode)` back to a raw value. Non-finite alphas
    /// (from a diverged generator) decode to the mode mean rather than
    /// propagating NaNs into releases.
    pub fn decode(&self, alpha: f32, mode: usize) -> f64 {
        let mode = mode.min(self.n_modes() - 1);
        let mu = self.gmm.means()[mode];
        let sd = self.gmm.stds()[mode];
        let alpha = if alpha.is_finite() {
            alpha.clamp(-1.0, 1.0)
        } else {
            0.0
        };
        let raw = mu + (alpha as f64) * 4.0 * sd;
        if self.integral {
            raw.round()
        } else {
            raw
        }
    }
}

/// How one encoded column block should be produced by a generator head.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum HeadKind {
    /// A single `tanh` scalar (continuous alpha).
    Tanh,
    /// A softmax/Gumbel-softmax block (mode or category one-hot).
    Softmax,
}

/// One output-head block: kind plus width in the encoded row.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeadSpec {
    /// Activation kind for this block.
    pub kind: HeadKind,
    /// Number of encoded columns in this block.
    pub width: usize,
}

/// The location of one source column inside the encoded row.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnSpan {
    /// First encoded column index.
    pub start: usize,
    /// Total encoded width (1 + modes for continuous, k for categorical).
    pub width: usize,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
enum ColumnEncoding {
    Categorical(CategoricalEncoder),
    Continuous(ModeSpecificNormalizer),
}

/// Whole-table encoder: fits per-column encoders, transforms tables to
/// matrices for GAN training and inverts generated matrices back to tables.
///
/// ```
/// use kinet_data::{transform::DataTransformer, ColumnMeta, Schema, Table, Value};
/// use rand::{rngs::StdRng, SeedableRng};
/// let schema = Schema::new(vec![
///     ColumnMeta::categorical("proto"),
///     ColumnMeta::continuous("port"),
/// ]);
/// let t = Table::from_rows(schema, vec![
///     vec![Value::cat("udp"), Value::num(53.0)],
///     vec![Value::cat("tcp"), Value::num(443.0)],
/// ]).unwrap();
/// let tx = DataTransformer::fit(&t, 3, 0).unwrap();
/// let mut rng = StdRng::seed_from_u64(0);
/// let m = tx.transform(&t, &mut rng);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), tx.width());
/// let back = tx.inverse_transform(&m).unwrap();
/// assert_eq!(back.cat_column("proto").unwrap(), t.cat_column("proto").unwrap());
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DataTransformer {
    schema: Schema,
    encodings: Vec<ColumnEncoding>,
    spans: Vec<ColumnSpan>,
    width: usize,
}

impl DataTransformer {
    /// Fits per-column encoders on `table`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::SchemaMismatch`] when `table` is empty (there is
    /// nothing to fit).
    pub fn fit(table: &Table, max_modes: usize, seed: u64) -> Result<Self, DataError> {
        if table.is_empty() {
            return Err(DataError::SchemaMismatch(
                "cannot fit a transformer on an empty table".into(),
            ));
        }
        let schema = table.schema().clone();
        let mut encodings = Vec::with_capacity(schema.len());
        let mut spans = Vec::with_capacity(schema.len());
        let mut offset = 0;
        for (ci, col) in schema.iter().enumerate() {
            match col.kind() {
                ColumnKind::Categorical => {
                    let enc =
                        CategoricalEncoder::fit(table.cat_column(col.name())?.iter().cloned());
                    let w = enc.n_categories();
                    spans.push(ColumnSpan {
                        start: offset,
                        width: w,
                    });
                    offset += w;
                    encodings.push(ColumnEncoding::Categorical(enc));
                }
                ColumnKind::Continuous => {
                    let norm = ModeSpecificNormalizer::fit(
                        table.num_column(col.name())?,
                        max_modes,
                        seed.wrapping_add(ci as u64),
                    );
                    let w = 1 + norm.n_modes();
                    spans.push(ColumnSpan {
                        start: offset,
                        width: w,
                    });
                    offset += w;
                    encodings.push(ColumnEncoding::Continuous(norm));
                }
            }
        }
        Ok(Self {
            schema,
            encodings,
            spans,
            width: offset,
        })
    }

    /// Total encoded width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The fitted schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Per-column encoded spans, in schema order.
    pub fn spans(&self) -> &[ColumnSpan] {
        &self.spans
    }

    /// The generator head layout matching [`DataTransformer::width`]:
    /// `Tanh(1) + Softmax(modes)` per continuous column, `Softmax(k)` per
    /// categorical column, in schema order.
    pub fn head_layout(&self) -> Vec<HeadSpec> {
        let mut heads = Vec::new();
        for enc in &self.encodings {
            match enc {
                ColumnEncoding::Categorical(e) => {
                    heads.push(HeadSpec {
                        kind: HeadKind::Softmax,
                        width: e.n_categories(),
                    });
                }
                ColumnEncoding::Continuous(n) => {
                    heads.push(HeadSpec {
                        kind: HeadKind::Tanh,
                        width: 1,
                    });
                    heads.push(HeadSpec {
                        kind: HeadKind::Softmax,
                        width: n.n_modes(),
                    });
                }
            }
        }
        heads
    }

    /// The categorical encoder for column `name`, if that column is
    /// categorical.
    pub fn categorical_encoder(&self, name: &str) -> Option<&CategoricalEncoder> {
        let idx = self.schema.index_of(name)?;
        match &self.encodings[idx] {
            ColumnEncoding::Categorical(e) => Some(e),
            ColumnEncoding::Continuous(_) => None,
        }
    }

    /// The normalizer for column `name`, if that column is continuous.
    pub fn normalizer(&self, name: &str) -> Option<&ModeSpecificNormalizer> {
        let idx = self.schema.index_of(name)?;
        match &self.encodings[idx] {
            ColumnEncoding::Continuous(n) => Some(n),
            ColumnEncoding::Categorical(_) => None,
        }
    }

    /// Encodes a table (stochastic mode assignment, as in CTGAN training).
    ///
    /// # Errors
    ///
    /// [`DataError::SchemaMismatch`] when `table`'s schema differs from the
    /// fitted schema or a categorical value was never seen during
    /// [`DataTransformer::fit`]; the message names the column and value.
    pub fn try_transform(&self, table: &Table, rng: &mut impl Rng) -> Result<Matrix, DataError> {
        self.transform_impl(table, Some(rng))
    }

    /// [`DataTransformer::try_transform`] for a table the transformer is
    /// known to cover, such as the one it was fitted on.
    ///
    /// # Panics
    ///
    /// On any error [`DataTransformer::try_transform`] returns.
    pub fn transform(&self, table: &Table, rng: &mut impl Rng) -> Matrix {
        self.try_transform(table, rng)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Encodes a table deterministically (most-likely mode assignment).
    ///
    /// # Errors
    ///
    /// Same conditions as [`DataTransformer::try_transform`].
    pub fn transform_deterministic(&self, table: &Table) -> Result<Matrix, DataError> {
        self.transform_impl::<rand::rngs::StdRng>(table, None)
    }

    fn transform_impl<R: Rng>(
        &self,
        table: &Table,
        mut rng: Option<&mut R>,
    ) -> Result<Matrix, DataError> {
        if table.schema() != &self.schema {
            return Err(DataError::SchemaMismatch(
                "table schema differs from fitted schema".to_string(),
            ));
        }
        let n = table.n_rows();
        let mut out = Matrix::zeros(n, self.width);
        for (ci, enc) in self.encodings.iter().enumerate() {
            let span = self.spans[ci];
            let name = self.schema.column(ci).name();
            match enc {
                ColumnEncoding::Categorical(e) => {
                    for (r, v) in table.cat_column(name)?.iter().enumerate() {
                        let code = e.encode(v).ok_or_else(|| {
                            DataError::SchemaMismatch(format!(
                                "unseen category {v:?} in column {name:?}"
                            ))
                        })?;
                        out[(r, span.start + code)] = 1.0;
                    }
                }
                ColumnEncoding::Continuous(norm) => {
                    for (r, &x) in table.num_column(name)?.iter().enumerate() {
                        let (alpha, mode) = match rng.as_deref_mut() {
                            Some(rng) => norm.encode(x, rng),
                            None => norm.encode_deterministic(x),
                        };
                        out[(r, span.start)] = alpha;
                        out[(r, span.start + 1 + mode)] = 1.0;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Decodes an encoded (or generated) matrix back into a table, taking
    /// `argmax` over one-hot blocks and clamping alphas.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::SchemaMismatch`] when the matrix width differs
    /// from [`DataTransformer::width`].
    pub fn inverse_transform(&self, m: &Matrix) -> Result<Table, DataError> {
        if m.cols() != self.width {
            return Err(DataError::SchemaMismatch(format!(
                "matrix width {} does not match encoded width {}",
                m.cols(),
                self.width
            )));
        }
        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(m.rows());
        for r in 0..m.rows() {
            let mut row = Vec::with_capacity(self.schema.len());
            for (ci, enc) in self.encodings.iter().enumerate() {
                let span = self.spans[ci];
                match enc {
                    ColumnEncoding::Categorical(e) => {
                        let code = argmax_block(m, r, span.start, span.width);
                        let cat = e.decode(code).expect("argmax in range");
                        row.push(Value::cat(cat));
                    }
                    ColumnEncoding::Continuous(norm) => {
                        let alpha = m[(r, span.start)];
                        let mode = argmax_block(m, r, span.start + 1, span.width - 1);
                        row.push(Value::num(norm.decode(alpha, mode)));
                    }
                }
            }
            rows.push(row);
        }
        Table::from_rows(self.schema.clone(), rows)
    }
}

fn argmax_block(m: &Matrix, row: usize, start: usize, width: usize) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for j in 0..width {
        let v = m[(row, start + j)];
        if v > best_v {
            best_v = v;
            best = j;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnMeta;
    use rand::{rngs::StdRng, SeedableRng};

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::categorical("proto"),
            ColumnMeta::continuous("port"),
            ColumnMeta::categorical("event"),
        ]);
        let mut rows = Vec::new();
        for i in 0..60 {
            let proto = if i % 3 == 0 { "udp" } else { "tcp" };
            let port = if i % 3 == 0 {
                53.0 + (i % 5) as f64
            } else {
                443.0 + (i % 7) as f64
            };
            let event = if i % 2 == 0 { "dns" } else { "web" };
            rows.push(vec![Value::cat(proto), Value::num(port), Value::cat(event)]);
        }
        Table::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn encoder_sorted_and_total() {
        let enc = CategoricalEncoder::fit(["z", "a", "m", "a"].iter().map(|s| s.to_string()));
        assert_eq!(enc.categories(), &["a", "m", "z"]);
        assert_eq!(enc.encode("m"), Some(1));
        assert_eq!(enc.encode("q"), None);
        assert_eq!(enc.decode(2), Some("z"));
        assert_eq!(enc.decode(9), None);
    }

    #[test]
    fn normalizer_roundtrip_within_mode() {
        let data: Vec<f64> = (0..200).map(|i| 100.0 + (i % 10) as f64).collect();
        let n = ModeSpecificNormalizer::fit(&data, 4, 0);
        let (alpha, mode) = n.encode_deterministic(105.0);
        let back = n.decode(alpha, mode);
        assert!((back - 105.0).abs() < 1.0, "decoded {back}");
    }

    #[test]
    fn normalizer_alpha_bounded() {
        let n = ModeSpecificNormalizer::fit(&[0.0, 1.0, 2.0, 3.0], 2, 0);
        let (alpha, _) = n.encode_deterministic(1e9);
        assert!((-1.0..=1.0).contains(&alpha));
    }

    #[test]
    fn transformer_width_consistency() {
        let t = table();
        let tx = DataTransformer::fit(&t, 4, 0).unwrap();
        let span_total: usize = tx.spans().iter().map(|s| s.width).sum();
        assert_eq!(span_total, tx.width());
        let head_total: usize = tx.head_layout().iter().map(|h| h.width).sum();
        assert_eq!(head_total, tx.width());
    }

    #[test]
    fn one_hot_blocks_are_one_hot() {
        let t = table();
        let tx = DataTransformer::fit(&t, 4, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let m = tx.transform(&t, &mut rng);
        // proto block is the first span
        let span = tx.spans()[0];
        for r in 0..m.rows() {
            let s: f32 = (0..span.width).map(|j| m[(r, span.start + j)]).sum();
            assert_eq!(s, 1.0);
        }
    }

    #[test]
    fn roundtrip_categoricals_exact_continuous_close() {
        let t = table();
        let tx = DataTransformer::fit(&t, 4, 7).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let m = tx.transform(&t, &mut rng);
        let back = tx.inverse_transform(&m).unwrap();
        assert_eq!(
            back.cat_column("proto").unwrap(),
            t.cat_column("proto").unwrap()
        );
        assert_eq!(
            back.cat_column("event").unwrap(),
            t.cat_column("event").unwrap()
        );
        let orig = t.num_column("port").unwrap();
        let dec = back.num_column("port").unwrap();
        for (a, b) in orig.iter().zip(dec) {
            assert!((a - b).abs() < 5.0, "{a} vs {b}");
        }
    }

    #[test]
    fn deterministic_transform_is_stable() {
        let t = table();
        let tx = DataTransformer::fit(&t, 4, 3).unwrap();
        assert_eq!(
            tx.transform_deterministic(&t).unwrap(),
            tx.transform_deterministic(&t).unwrap()
        );
    }

    #[test]
    fn accessors_by_kind() {
        let t = table();
        let tx = DataTransformer::fit(&t, 4, 0).unwrap();
        assert!(tx.categorical_encoder("proto").is_some());
        assert!(tx.categorical_encoder("port").is_none());
        assert!(tx.normalizer("port").is_some());
        assert!(tx.normalizer("event").is_none());
    }

    #[test]
    fn empty_table_rejected() {
        let t = Table::empty(table().schema().clone());
        assert!(DataTransformer::fit(&t, 4, 0).is_err());
    }

    #[test]
    fn inverse_rejects_wrong_width() {
        let t = table();
        let tx = DataTransformer::fit(&t, 4, 0).unwrap();
        let bad = Matrix::zeros(1, tx.width() + 1);
        assert!(tx.inverse_transform(&bad).is_err());
    }

    #[test]
    #[should_panic(expected = "unseen category")]
    fn unseen_category_panics() {
        let t = table();
        let tx = DataTransformer::fit(&t, 4, 0).unwrap();
        let mut other = Table::empty(t.schema().clone());
        other
            .push_row(vec![
                Value::cat("gopher"),
                Value::num(1.0),
                Value::cat("dns"),
            ])
            .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = tx.transform(&other, &mut rng);
    }

    #[test]
    fn unseen_category_is_an_error_naming_column_and_value() {
        let t = table();
        let tx = DataTransformer::fit(&t, 4, 0).unwrap();
        let mut other = Table::empty(t.schema().clone());
        other
            .push_row(vec![Value::cat("tcp"), Value::num(1.0), Value::cat("ntp")])
            .unwrap();
        let err = tx.transform_deterministic(&other).unwrap_err().to_string();
        assert!(
            err.contains("\"ntp\"") && err.contains("\"event\""),
            "{err}"
        );
        let mut rng = StdRng::seed_from_u64(0);
        assert!(tx.try_transform(&other, &mut rng).is_err());
        // A table of another schema is an error too, not a panic.
        let narrow = Table::empty(Schema::new(vec![ColumnMeta::continuous("port")]));
        assert!(tx.transform_deterministic(&narrow).is_err());
    }
}
