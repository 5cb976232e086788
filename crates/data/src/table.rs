//! Columnar table storage with CSV I/O and deterministic splits.

use crate::schema::{ColumnKind, ColumnMeta, Schema};
use crate::value::Value;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

/// Errors produced by table construction and I/O.
#[derive(Debug)]
pub enum DataError {
    /// A row's arity or a value's kind does not match the schema.
    SchemaMismatch(String),
    /// A named column does not exist.
    UnknownColumn(String),
    /// CSV parsing failed.
    Parse(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A table that must hold rows holds none.
    EmptyTable(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            DataError::UnknownColumn(c) => write!(f, "unknown column {c:?}"),
            DataError::Parse(m) => write!(f, "parse error: {m}"),
            DataError::Io(e) => write!(f, "io error: {e}"),
            DataError::EmptyTable(m) => write!(f, "empty table: {m}"),
        }
    }
}

impl Error for DataError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DataError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e)
    }
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
enum ColumnData {
    Cat(Vec<String>),
    Num(Vec<f64>),
}

/// A column-oriented table of mixed categorical/continuous data.
///
/// ```
/// use kinet_data::{ColumnMeta, Schema, Table, Value};
/// let schema = Schema::new(vec![
///     ColumnMeta::categorical("proto"),
///     ColumnMeta::continuous("port"),
/// ]);
/// let mut t = Table::empty(schema);
/// t.push_row(vec![Value::cat("udp"), Value::num(53.0)]).unwrap();
/// assert_eq!(t.n_rows(), 1);
/// assert_eq!(t.value(0, 0), Value::cat("udp"));
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Table {
    schema: Schema,
    columns: Vec<ColumnData>,
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .iter()
            .map(|c| match c.kind() {
                ColumnKind::Categorical => ColumnData::Cat(Vec::new()),
                ColumnKind::Continuous => ColumnData::Num(Vec::new()),
            })
            .collect();
        Self { schema, columns }
    }

    /// Builds a table from rows.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::SchemaMismatch`] when any row disagrees with the
    /// schema.
    pub fn from_rows(schema: Schema, rows: Vec<Vec<Value>>) -> Result<Self, DataError> {
        let mut t = Table::empty(schema);
        for row in rows {
            t.push_row(row)?;
        }
        Ok(t)
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        match self.columns.first() {
            Some(ColumnData::Cat(v)) => v.len(),
            Some(ColumnData::Num(v)) => v.len(),
            None => 0,
        }
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.schema.len()
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows() == 0
    }

    /// Appends one row.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::SchemaMismatch`] on arity or kind mismatch.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), DataError> {
        if row.len() != self.schema.len() {
            return Err(DataError::SchemaMismatch(format!(
                "row has {} values but schema has {} columns",
                row.len(),
                self.schema.len()
            )));
        }
        // validate kinds first so a failed push leaves the table unchanged
        for (i, v) in row.iter().enumerate() {
            let kind = self.schema.column(i).kind();
            let ok = matches!(
                (kind, v),
                (ColumnKind::Categorical, Value::Cat(_)) | (ColumnKind::Continuous, Value::Num(_))
            );
            if !ok {
                return Err(DataError::SchemaMismatch(format!(
                    "column {:?} expects {kind} but got {v:?}",
                    self.schema.column(i).name()
                )));
            }
        }
        for (i, v) in row.into_iter().enumerate() {
            match (&mut self.columns[i], v) {
                (ColumnData::Cat(col), Value::Cat(s)) => col.push(s),
                (ColumnData::Num(col), Value::Num(x)) => col.push(x),
                _ => unreachable!("validated above"),
            }
        }
        Ok(())
    }

    /// Overwrites row `row` with `values` (same validation as
    /// [`Table::push_row`]).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::SchemaMismatch`] on arity, kind, or row-index
    /// mismatch; a failed call leaves the table unchanged.
    pub fn set_row(&mut self, row: usize, values: Vec<Value>) -> Result<(), DataError> {
        if row >= self.n_rows() {
            return Err(DataError::SchemaMismatch(format!(
                "row {row} out of bounds for table of {} rows",
                self.n_rows()
            )));
        }
        if values.len() != self.schema.len() {
            return Err(DataError::SchemaMismatch(format!(
                "row has {} values but schema has {} columns",
                values.len(),
                self.schema.len()
            )));
        }
        for (i, v) in values.iter().enumerate() {
            let kind = self.schema.column(i).kind();
            let ok = matches!(
                (kind, v),
                (ColumnKind::Categorical, Value::Cat(_)) | (ColumnKind::Continuous, Value::Num(_))
            );
            if !ok {
                return Err(DataError::SchemaMismatch(format!(
                    "column {:?} expects {kind} but got {v:?}",
                    self.schema.column(i).name()
                )));
            }
        }
        for (i, v) in values.into_iter().enumerate() {
            match (&mut self.columns[i], v) {
                (ColumnData::Cat(col), Value::Cat(s)) => col[row] = s,
                (ColumnData::Num(col), Value::Num(x)) => col[row] = x,
                _ => unreachable!("validated above"),
            }
        }
        Ok(())
    }

    /// The value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn value(&self, row: usize, col: usize) -> Value {
        match &self.columns[col] {
            // kinet-lint: allow(transitive-allocation) — on the tape hot cone only via the `.row()`/`.value()` name-collision edges (the tape walks Matrix rows in place)
            ColumnData::Cat(v) => Value::Cat(v[row].clone()),
            ColumnData::Num(v) => Value::Num(v[row]),
        }
    }

    /// One full row as values.
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of bounds.
    pub fn row(&self, row: usize) -> Vec<Value> {
        // kinet-lint: allow(transitive-allocation) — on the tape hot cone only via the `.row()`/`.value()` name-collision edges (the tape walks Matrix rows in place)
        (0..self.n_cols()).map(|c| self.value(row, c)).collect()
    }

    /// Borrow of a categorical column's strings.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::UnknownColumn`] or
    /// [`DataError::SchemaMismatch`] when the column is continuous.
    pub fn cat_column(&self, name: &str) -> Result<&[String], DataError> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| DataError::UnknownColumn(name.to_string()))?;
        match &self.columns[idx] {
            ColumnData::Cat(v) => Ok(v),
            ColumnData::Num(_) => Err(DataError::SchemaMismatch(format!(
                "column {name:?} is continuous"
            ))),
        }
    }

    /// Borrow of a continuous column's values.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::UnknownColumn`] or
    /// [`DataError::SchemaMismatch`] when the column is categorical.
    pub fn num_column(&self, name: &str) -> Result<&[f64], DataError> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| DataError::UnknownColumn(name.to_string()))?;
        match &self.columns[idx] {
            ColumnData::Num(v) => Ok(v),
            ColumnData::Cat(_) => Err(DataError::SchemaMismatch(format!(
                "column {name:?} is categorical"
            ))),
        }
    }

    /// Distinct values and counts of a categorical column, in first-seen
    /// order of the distinct values sorted lexicographically.
    ///
    /// # Errors
    ///
    /// Propagates [`Table::cat_column`] errors.
    pub fn category_counts(&self, name: &str) -> Result<BTreeMap<String, usize>, DataError> {
        let col = self.cat_column(name)?;
        let mut counts = BTreeMap::new();
        for v in col {
            *counts.entry(v.clone()).or_insert(0) += 1;
        }
        Ok(counts)
    }

    /// A new table with only the given rows (duplicates allowed).
    ///
    /// # Panics
    ///
    /// Panics when an index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Table {
        let mut out = Table::empty(self.schema.clone());
        for (col_out, col_in) in out.columns.iter_mut().zip(&self.columns) {
            match (col_out, col_in) {
                (ColumnData::Cat(o), ColumnData::Cat(i)) => {
                    o.extend(indices.iter().map(|&r| i[r].clone()))
                }
                (ColumnData::Num(o), ColumnData::Num(i)) => o.extend(indices.iter().map(|&r| i[r])),
                _ => unreachable!("same schema"),
            }
        }
        out
    }

    /// A new table with only the named columns.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::UnknownColumn`] for unknown names.
    pub fn project(&self, names: &[&str]) -> Result<Table, DataError> {
        let mut metas = Vec::new();
        let mut cols = Vec::new();
        for n in names {
            let idx = self
                .schema
                .index_of(n)
                .ok_or_else(|| DataError::UnknownColumn(n.to_string()))?;
            metas.push(self.schema.column(idx).clone());
            cols.push(self.columns[idx].clone());
        }
        Ok(Table {
            schema: Schema::new(metas),
            columns: cols,
        })
    }

    /// Appends all rows of `other` (schemas must match).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::SchemaMismatch`] when schemas differ.
    pub fn append(&mut self, other: &Table) -> Result<(), DataError> {
        if self.schema != other.schema {
            return Err(DataError::SchemaMismatch(
                "append with different schema".into(),
            ));
        }
        for (a, b) in self.columns.iter_mut().zip(&other.columns) {
            match (a, b) {
                (ColumnData::Cat(a), ColumnData::Cat(b)) => a.extend(b.iter().cloned()),
                (ColumnData::Num(a), ColumnData::Num(b)) => a.extend(b.iter().copied()),
                _ => unreachable!("same schema"),
            }
        }
        Ok(())
    }

    /// Deterministic shuffled split into `(train, test)` with `test_frac`
    /// of rows in the test set. Each side gets at least one row; a table
    /// of fewer than two rows cannot be split that way and comes back as
    /// `(the table, an empty table)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < test_frac < 1`.
    pub fn train_test_split(&self, test_frac: f64, rng: &mut impl Rng) -> (Table, Table) {
        assert!(
            test_frac > 0.0 && test_frac < 1.0,
            "test_frac must be in (0, 1), got {test_frac}"
        );
        if self.n_rows() < 2 {
            return (self.clone(), Table::empty(self.schema.clone()));
        }
        let mut idx: Vec<usize> = (0..self.n_rows()).collect();
        idx.shuffle(rng);
        let n_test = ((self.n_rows() as f64) * test_frac).round() as usize;
        let n_test = n_test.clamp(1, self.n_rows() - 1);
        let (test_idx, train_idx) = idx.split_at(n_test);
        (self.select_rows(train_idx), self.select_rows(test_idx))
    }

    /// A uniformly subsampled table of at most `n` rows.
    pub fn subsample(&self, n: usize, rng: &mut impl Rng) -> Table {
        if n >= self.n_rows() {
            return self.clone();
        }
        let mut idx: Vec<usize> = (0..self.n_rows()).collect();
        idx.shuffle(rng);
        idx.truncate(n);
        self.select_rows(&idx)
    }

    /// Writes the table as headered CSV.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv<W: Write>(&self, mut w: W) -> Result<(), DataError> {
        let header: Vec<&str> = self.schema.iter().map(ColumnMeta::name).collect();
        writeln!(w, "{}", header.join(","))?;
        for r in 0..self.n_rows() {
            let row: Vec<String> = (0..self.n_cols())
                .map(|c| self.value(r, c).to_string())
                .collect();
            writeln!(w, "{}", row.join(","))?;
        }
        Ok(())
    }

    /// Reads a headered CSV produced by [`Table::write_csv`] against a
    /// known schema.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Parse`] on malformed input.
    pub fn read_csv<R: BufRead>(schema: Schema, r: R) -> Result<Table, DataError> {
        let mut lines = r.lines();
        let header = lines
            .next()
            .ok_or_else(|| DataError::Parse("empty csv".into()))??;
        let names: Vec<&str> = header.split(',').collect();
        if names.len() != schema.len() {
            return Err(DataError::Parse(format!(
                "csv has {} columns but schema has {}",
                names.len(),
                schema.len()
            )));
        }
        for (n, c) in names.iter().zip(schema.iter()) {
            if *n != c.name() {
                return Err(DataError::Parse(format!(
                    "csv column {n:?} does not match schema column {:?}",
                    c.name()
                )));
            }
        }
        let mut t = Table::empty(schema);
        for (lineno, line) in lines.enumerate() {
            let line = line?;
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != t.schema.len() {
                return Err(DataError::Parse(format!(
                    "line {}: wrong arity",
                    lineno + 2
                )));
            }
            let row: Result<Vec<Value>, DataError> = fields
                .iter()
                .zip(t.schema.clone().iter())
                .map(|(f, c)| match c.kind() {
                    ColumnKind::Categorical => Ok(Value::cat(*f)),
                    ColumnKind::Continuous => f
                        .parse::<f64>()
                        .map(Value::Num)
                        .map_err(|e| DataError::Parse(format!("line {}: {e}", lineno + 2))),
                })
                .collect();
            t.push_row(row?)?;
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn small_table() -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::categorical("proto"),
            ColumnMeta::continuous("port"),
            ColumnMeta::categorical("event"),
        ]);
        Table::from_rows(
            schema,
            vec![
                vec!["udp".into(), 53.0.into(), "dns".into()],
                vec!["tcp".into(), 443.0.into(), "web".into()],
                vec!["udp".into(), 123.0.into(), "ntp".into()],
                vec!["tcp".into(), 443.0.into(), "web".into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let t = small_table();
        assert_eq!(t.n_rows(), 4);
        assert_eq!(t.n_cols(), 3);
        assert_eq!(t.value(1, 0), Value::cat("tcp"));
        assert_eq!(t.value(2, 1), Value::num(123.0));
        assert_eq!(t.row(0).len(), 3);
    }

    #[test]
    fn push_row_validates_arity_and_kind() {
        let mut t = small_table();
        assert!(matches!(
            t.push_row(vec!["udp".into()]),
            Err(DataError::SchemaMismatch(_))
        ));
        assert!(matches!(
            t.push_row(vec!["udp".into(), "oops".into(), "dns".into()]),
            Err(DataError::SchemaMismatch(_))
        ));
        assert_eq!(t.n_rows(), 4, "failed pushes must not mutate");
    }

    #[test]
    fn column_accessors() {
        let t = small_table();
        assert_eq!(t.cat_column("proto").unwrap()[0], "udp");
        assert_eq!(t.num_column("port").unwrap()[1], 443.0);
        assert!(t.cat_column("port").is_err());
        assert!(t.num_column("ghost").is_err());
    }

    #[test]
    fn category_counts_aggregate() {
        let t = small_table();
        let counts = t.category_counts("proto").unwrap();
        assert_eq!(counts["udp"], 2);
        assert_eq!(counts["tcp"], 2);
    }

    #[test]
    fn select_and_project() {
        let t = small_table();
        let sel = t.select_rows(&[3, 0]);
        assert_eq!(sel.n_rows(), 2);
        assert_eq!(sel.value(0, 2), Value::cat("web"));
        let proj = t.project(&["event", "port"]).unwrap();
        assert_eq!(proj.n_cols(), 2);
        assert_eq!(proj.schema().column(0).name(), "event");
        assert!(t.project(&["ghost"]).is_err());
    }

    #[test]
    fn append_same_schema() {
        let mut a = small_table();
        let b = small_table();
        a.append(&b).unwrap();
        assert_eq!(a.n_rows(), 8);
        let other = Table::empty(Schema::new(vec![ColumnMeta::categorical("x")]));
        assert!(a.append(&other).is_err());
    }

    #[test]
    fn split_deterministic_and_partitioning() {
        let t = small_table();
        let (tr1, te1) = t.train_test_split(0.25, &mut StdRng::seed_from_u64(9));
        let (tr2, te2) = t.train_test_split(0.25, &mut StdRng::seed_from_u64(9));
        assert_eq!(tr1, tr2);
        assert_eq!(te1, te2);
        assert_eq!(tr1.n_rows() + te1.n_rows(), 4);
        assert_eq!(te1.n_rows(), 1);
    }

    #[test]
    fn split_of_fewer_than_two_rows_keeps_them_all_for_training() {
        let t = small_table();
        for n in [0, 1] {
            let idx: Vec<usize> = (0..n).collect();
            let small = t.select_rows(&idx);
            let (train, test) = small.train_test_split(0.25, &mut StdRng::seed_from_u64(9));
            assert_eq!(train, small);
            assert_eq!(test, Table::empty(t.schema().clone()));
        }
    }

    #[test]
    fn subsample_caps_rows() {
        let t = small_table();
        let s = t.subsample(2, &mut StdRng::seed_from_u64(1));
        assert_eq!(s.n_rows(), 2);
        let all = t.subsample(100, &mut StdRng::seed_from_u64(1));
        assert_eq!(all.n_rows(), 4);
    }

    #[test]
    fn csv_roundtrip() {
        let t = small_table();
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let back = Table::read_csv(t.schema().clone(), buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn csv_rejects_bad_header() {
        let t = small_table();
        let csv = "a,b,c\nudp,53,dns\n";
        assert!(matches!(
            Table::read_csv(t.schema().clone(), csv.as_bytes()),
            Err(DataError::Parse(_))
        ));
    }

    #[test]
    fn csv_rejects_bad_number() {
        let t = small_table();
        let csv = "proto,port,event\nudp,notanum,dns\n";
        assert!(matches!(
            Table::read_csv(t.schema().clone(), csv.as_bytes()),
            Err(DataError::Parse(_))
        ));
    }

    #[test]
    fn json_roundtrip_preserves_table() {
        // Exercises the shim's full derive surface: named structs, tuple
        // enum variants (ColumnData), Vec<String>/Vec<f64> payloads.
        let t = small_table();
        let json = serde_json::to_string_pretty(&t).unwrap();
        let back: Table = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn error_display_messages() {
        let e = DataError::UnknownColumn("x".into());
        assert!(e.to_string().contains("unknown column"));
        let e = DataError::Parse("bad".into());
        assert!(e.to_string().contains("parse"));
    }
}
