//! The condition vector `C` of the paper (§III-A-1, Eq. 1–2).
//!
//! `C` is the concatenation of one-hot encodings of the *conditional
//! attributes* — the discrete columns the generator must respect. KiNETGAN
//! conditions on the full set simultaneously; the CTGAN baseline conditions
//! on a single column at a time (the rest of `C` left zero).

use crate::table::{DataError, Table};
use crate::transform::CategoricalEncoder;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Layout of the condition vector over the chosen conditional columns.
///
/// ```
/// use kinet_data::{condition::ConditionVectorSpec, ColumnMeta, Schema, Table, Value};
/// let schema = Schema::new(vec![
///     ColumnMeta::categorical("proto"),
///     ColumnMeta::categorical("event"),
/// ]);
/// let t = Table::from_rows(schema, vec![
///     vec![Value::cat("udp"), Value::cat("dns")],
///     vec![Value::cat("tcp"), Value::cat("web")],
/// ]).unwrap();
/// let spec = ConditionVectorSpec::fit(&t, &["proto", "event"]).unwrap();
/// assert_eq!(spec.width(), 4);
/// let c = spec.vector_from_row(&t, 0).unwrap();
/// assert_eq!(c, vec![0.0, 1.0, 1.0, 0.0]); // udp is index 1 of {tcp, udp}
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ConditionVectorSpec {
    columns: Vec<String>,
    encoders: Vec<CategoricalEncoder>,
    offsets: Vec<usize>,
    width: usize,
}

impl ConditionVectorSpec {
    /// Learns per-column dictionaries for the named categorical columns.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::UnknownColumn`] / [`DataError::SchemaMismatch`]
    /// if a name is missing or not categorical.
    pub fn fit(table: &Table, columns: &[&str]) -> Result<Self, DataError> {
        let mut encoders = Vec::with_capacity(columns.len());
        let mut offsets = Vec::with_capacity(columns.len());
        let mut width = 0;
        for &name in columns {
            let enc = CategoricalEncoder::fit(table.cat_column(name)?.iter().cloned());
            offsets.push(width);
            width += enc.n_categories();
            encoders.push(enc);
        }
        Ok(Self {
            columns: columns.iter().map(|s| s.to_string()).collect(),
            encoders,
            offsets,
            width,
        })
    }

    /// Total width of `C` (sum of per-column category counts).
    pub fn width(&self) -> usize {
        self.width
    }

    /// The conditional column names, in vector order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of conditional columns.
    pub fn n_columns(&self) -> usize {
        self.columns.len()
    }

    /// The encoder for conditional column `i`.
    pub fn encoder(&self, i: usize) -> &CategoricalEncoder {
        &self.encoders[i]
    }

    /// The offset of conditional column `i`'s block inside `C`.
    pub fn offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Index of the named conditional column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Builds `C` from a table row (all conditional columns set).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::SchemaMismatch`] on unseen categories.
    pub fn vector_from_row(&self, table: &Table, row: usize) -> Result<Vec<f32>, DataError> {
        let mut out = vec![0.0f32; self.width];
        self.write_row(table, row, &mut out)?;
        Ok(out)
    }

    /// Writes `C` for a table row into `out`, which must be
    /// [`ConditionVectorSpec::width`] long: the one-hots of
    /// [`ConditionVectorSpec::vector_from_row`], zeros elsewhere.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::SchemaMismatch`] on unseen categories.
    pub fn write_row(&self, table: &Table, row: usize, out: &mut [f32]) -> Result<(), DataError> {
        out.fill(0.0);
        for (i, name) in self.columns.iter().enumerate() {
            let col = table.cat_column(name)?;
            let code = self.encoders[i].encode(&col[row]).ok_or_else(|| {
                DataError::SchemaMismatch(format!("unseen category {:?} in {name:?}", col[row]))
            })?;
            out[self.offsets[i] + code] = 1.0;
        }
        Ok(())
    }

    /// Builds `C` from explicit `(column, category)` picks; columns not in
    /// `picks` are left all-zero (the CTGAN single-column convention).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::UnknownColumn`] / [`DataError::SchemaMismatch`]
    /// for unknown columns or categories.
    pub fn vector_from_picks(
        &self,
        picks: &BTreeMap<String, String>,
    ) -> Result<Vec<f32>, DataError> {
        let mut out = vec![0.0f32; self.width];
        for (name, value) in picks {
            let i = self
                .column_index(name)
                .ok_or_else(|| DataError::UnknownColumn(name.clone()))?;
            let code = self.encoders[i].encode(value).ok_or_else(|| {
                DataError::SchemaMismatch(format!("unseen category {value:?} in {name:?}"))
            })?;
            out[self.offsets[i] + code] = 1.0;
        }
        Ok(out)
    }

    /// Decodes `C` back into per-column picks (argmax per block; blocks
    /// that are all zero are omitted).
    pub fn decode(&self, c: &[f32]) -> BTreeMap<String, String> {
        let mut out = BTreeMap::new();
        for (i, name) in self.columns.iter().enumerate() {
            let off = self.offsets[i];
            let w = self.encoders[i].n_categories();
            let block = &c[off..off + w];
            let max = block.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            if max <= 0.0 {
                continue;
            }
            let code = block.iter().position(|&v| v == max).unwrap_or(0);
            if let Some(cat) = self.encoders[i].decode(code) {
                out.insert(name.clone(), cat.to_string());
            }
        }
        out
    }

    /// `true` when table row `row` matches every set block of `c`.
    ///
    /// # Errors
    ///
    /// Propagates column-access errors.
    pub fn row_matches(&self, table: &Table, row: usize, c: &[f32]) -> Result<bool, DataError> {
        for (i, name) in self.columns.iter().enumerate() {
            let off = self.offsets[i];
            let w = self.encoders[i].n_categories();
            let block = &c[off..off + w];
            if block.iter().all(|&v| v == 0.0) {
                continue;
            }
            let want = block.iter().position(|&v| v > 0.5);
            let col = table.cat_column(name)?;
            let got = self.encoders[i].encode(&col[row]);
            if want != got {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnMeta, Schema};
    use crate::value::Value;

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::categorical("proto"),
            ColumnMeta::categorical("event"),
            ColumnMeta::continuous("port"),
        ]);
        Table::from_rows(
            schema,
            vec![
                vec![Value::cat("udp"), Value::cat("dns"), Value::num(53.0)],
                vec![Value::cat("tcp"), Value::cat("web"), Value::num(443.0)],
                vec![Value::cat("udp"), Value::cat("ntp"), Value::num(123.0)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn fit_widths_and_offsets() {
        let t = table();
        let spec = ConditionVectorSpec::fit(&t, &["proto", "event"]).unwrap();
        assert_eq!(spec.width(), 2 + 3);
        assert_eq!(spec.offset(0), 0);
        assert_eq!(spec.offset(1), 2);
        assert_eq!(spec.n_columns(), 2);
        assert!(ConditionVectorSpec::fit(&t, &["port"]).is_err());
        assert!(ConditionVectorSpec::fit(&t, &["ghost"]).is_err());
    }

    #[test]
    fn row_vector_one_hot_per_block() {
        let t = table();
        let spec = ConditionVectorSpec::fit(&t, &["proto", "event"]).unwrap();
        let c = spec.vector_from_row(&t, 2).unwrap();
        // proto block: {tcp, udp} -> udp = [0, 1]; event block {dns, ntp, web} -> ntp = [0,1,0]
        assert_eq!(c, vec![0.0, 1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn picks_partial_vector() {
        let t = table();
        let spec = ConditionVectorSpec::fit(&t, &["proto", "event"]).unwrap();
        let mut picks = BTreeMap::new();
        picks.insert("event".to_string(), "web".to_string());
        let c = spec.vector_from_picks(&picks).unwrap();
        assert_eq!(c, vec![0.0, 0.0, 0.0, 0.0, 1.0]);
        let decoded = spec.decode(&c);
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded["event"], "web");
    }

    #[test]
    fn decode_inverts_full_vector() {
        let t = table();
        let spec = ConditionVectorSpec::fit(&t, &["proto", "event"]).unwrap();
        let c = spec.vector_from_row(&t, 0).unwrap();
        let decoded = spec.decode(&c);
        assert_eq!(decoded["proto"], "udp");
        assert_eq!(decoded["event"], "dns");
    }

    #[test]
    fn row_matching_respects_set_blocks() {
        let t = table();
        let spec = ConditionVectorSpec::fit(&t, &["proto", "event"]).unwrap();
        let mut picks = BTreeMap::new();
        picks.insert("proto".to_string(), "udp".to_string());
        let c = spec.vector_from_picks(&picks).unwrap();
        assert!(spec.row_matches(&t, 0, &c).unwrap());
        assert!(!spec.row_matches(&t, 1, &c).unwrap());
        assert!(spec.row_matches(&t, 2, &c).unwrap());
    }

    #[test]
    fn unseen_category_rejected() {
        let t = table();
        let spec = ConditionVectorSpec::fit(&t, &["proto"]).unwrap();
        let mut picks = BTreeMap::new();
        picks.insert("proto".to_string(), "icmp".to_string());
        assert!(spec.vector_from_picks(&picks).is_err());
    }
}
