//! Interned table encodings and the compiled-validity bridge.
//!
//! [`Table`] stores categorical cells as owned `String`s — right for I/O,
//! wrong for the train/sample hot loop, where every knowledge-graph query
//! used to re-clone rows into string-keyed assignments. [`EncodedTable`]
//! is the pre-encoded counterpart: every categorical column becomes a
//! `Vec<Sym>` of interned codes (interned once, at encode time), numeric
//! columns stay `f64`, and the per-column code tables line up with
//! [`crate::transform::CategoricalEncoder`]'s lexicographic dictionary so
//! one-hot offsets and interned symbols translate in O(1).
//!
//! [`KgTableChecker`] scores string tables against a [`CompiledReasoner`]
//! with one integer loop per row.

use crate::schema::{ColumnKind, Schema};
use crate::table::{DataError, Table};
use crate::value::Value;
use kinet_kg::{Assignment, AttrValue, Cell, CompiledReasoner, Interner, Sym};

/// One table row as a string-keyed [`Assignment`] — the reference
/// reasoner's input format. The fast paths avoid this conversion entirely;
/// it exists for the string reference pipeline and its benchmarks.
pub fn row_to_assignment(table: &Table, row: usize) -> Assignment {
    let mut a = Assignment::new();
    for (ci, col) in table.schema().iter().enumerate() {
        match table.value(row, ci) {
            Value::Cat(s) => a.set(col.name(), AttrValue::Cat(s)),
            Value::Num(v) => a.set(col.name(), AttrValue::Num(v)),
        };
    }
    a
}

/// Sentinel for "symbol not in this column's dictionary".
const NO_CODE: u32 = u32::MAX;

#[derive(Clone, Debug)]
enum EncodedColumn {
    Cat {
        /// Per-row interned symbols.
        syms: Vec<Sym>,
        /// Dictionary code → symbol, in lexicographic (code) order —
        /// identical layout to [`crate::transform::CategoricalEncoder`]
        /// fitted on the same column.
        code_syms: Vec<Sym>,
    },
    Num(Vec<f64>),
}

/// A table pre-encoded onto an [`Interner`]: the zero-allocation substrate
/// of the training batch pipeline.
#[derive(Clone, Debug)]
pub struct EncodedTable {
    schema: Schema,
    interner: Interner,
    columns: Vec<EncodedColumn>,
    /// Dense `sym → dictionary code` per column (`NO_CODE` when the symbol
    /// is not in that column's dictionary), sized to the final interner.
    sym_codes: Vec<Vec<u32>>,
    n_rows: usize,
}

impl EncodedTable {
    /// Encodes `table` on top of `interner` (typically a clone of the
    /// knowledge graph's base interner, so rule symbols and data symbols
    /// share one space). Interns each distinct categorical value once.
    pub fn encode(table: &Table, mut interner: Interner) -> Self {
        let schema = table.schema().clone();
        let mut columns = Vec::with_capacity(schema.len());
        for col in schema.iter() {
            match col.kind() {
                ColumnKind::Categorical => {
                    let raw = table.cat_column(col.name()).expect("schema-checked");
                    let mut dict: Vec<&str> = raw.iter().map(String::as_str).collect();
                    dict.sort_unstable();
                    dict.dedup();
                    let code_syms: Vec<Sym> = dict.iter().map(|v| interner.intern(v)).collect();
                    let syms: Vec<Sym> = raw.iter().map(|v| interner.intern(v)).collect();
                    columns.push(EncodedColumn::Cat { syms, code_syms });
                }
                ColumnKind::Continuous => {
                    let raw = table.num_column(col.name()).expect("schema-checked");
                    columns.push(EncodedColumn::Num(raw.to_vec()));
                }
            }
        }
        let sym_codes = columns
            .iter()
            .map(|c| match c {
                EncodedColumn::Cat { code_syms, .. } => {
                    let mut map = vec![NO_CODE; interner.len()];
                    for (code, &sym) in code_syms.iter().enumerate() {
                        map[sym as usize] = code as u32;
                    }
                    map
                }
                EncodedColumn::Num(_) => Vec::new(),
            })
            .collect();
        Self {
            schema,
            interner,
            columns,
            sym_codes,
            n_rows: table.n_rows(),
        }
    }

    /// The encoded schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of encoded rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The symbol table (base interner plus this table's vocabulary).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// A categorical column's per-row symbols.
    pub fn cat_syms(&self, col: usize) -> Option<&[Sym]> {
        match &self.columns[col] {
            EncodedColumn::Cat { syms, .. } => Some(syms),
            EncodedColumn::Num(_) => None,
        }
    }

    /// A continuous column's values.
    pub fn num_values(&self, col: usize) -> Option<&[f64]> {
        match &self.columns[col] {
            EncodedColumn::Num(v) => Some(v),
            EncodedColumn::Cat { .. } => None,
        }
    }

    /// A categorical column's dictionary as symbols, in code
    /// (lexicographic) order.
    pub fn code_syms(&self, col: usize) -> Option<&[Sym]> {
        match &self.columns[col] {
            EncodedColumn::Cat { code_syms, .. } => Some(code_syms),
            EncodedColumn::Num(_) => None,
        }
    }

    /// The dictionary code of `sym` in column `col`, if the symbol occurs
    /// in that column's training vocabulary.
    pub fn code_of_sym(&self, col: usize, sym: Sym) -> Option<usize> {
        let map = &self.sym_codes[col];
        match map.get(sym as usize) {
            Some(&code) if code != NO_CODE => Some(code as usize),
            _ => None,
        }
    }
}

/// Compiled validity scoring straight off string [`Table`]s: symbols are
/// looked up (not interned) per cell, so arbitrary tables — including
/// generated ones with categories outside the base vocabulary — can be
/// scored without mutating any state and without building assignments.
#[derive(Clone, Debug)]
pub struct KgTableChecker<'a> {
    compiled: &'a CompiledReasoner,
    interner: &'a Interner,
    /// The scope column's name, when the bound schema has a categorical
    /// one. Columns are resolved by name (not position) against each
    /// scored table, so column order never silently misbinds.
    scope_name: Option<String>,
    /// `(bound column name, bound kind, compiled field id)` for every
    /// constrained column of the bound schema.
    cols: Vec<(String, ColumnKind, usize)>,
}

enum ColRef<'t> {
    Cat(&'t [String]),
    Num(&'t [f64]),
}

impl<'a> KgTableChecker<'a> {
    /// Builds a checker for tables of `schema` shape. `interner` is only
    /// read; strings it does not know fall back to the compiled reasoner's
    /// unknown-symbol semantics (outside every allowed set, prefix rules
    /// checked on the raw text).
    pub fn new(compiled: &'a CompiledReasoner, interner: &'a Interner, schema: &Schema) -> Self {
        let rules = compiled.rules();
        let scope_name = schema
            .index_of(rules.scope_field())
            .filter(|&c| schema.column(c).kind() == ColumnKind::Categorical)
            .map(|c| schema.column(c).name().to_string());
        let cols = schema
            .iter()
            .filter_map(|col| {
                rules
                    .field_id(col.name())
                    .map(|fid| (col.name().to_string(), col.kind(), fid))
            })
            .collect();
        Self {
            compiled,
            interner,
            scope_name,
            cols,
        }
    }

    fn column_refs<'t>(&self, table: &'t Table) -> Result<Vec<(ColRef<'t>, usize)>, DataError> {
        self.cols
            .iter()
            .map(|(name, kind, fid)| {
                let r = match kind {
                    ColumnKind::Categorical => ColRef::Cat(table.cat_column(name)?),
                    ColumnKind::Continuous => ColRef::Num(table.num_column(name)?),
                };
                Ok((r, *fid))
            })
            .collect()
    }

    fn scope_refs<'t>(&self, table: &'t Table) -> Result<&'t [String], DataError> {
        match &self.scope_name {
            Some(name) => table.cat_column(name),
            None => Ok(&[]),
        }
    }

    /// The single per-row verdict both the counting and the
    /// invalid-row-collection paths share.
    fn check_row(&self, cols: &[(ColRef<'_>, usize)], scope: &[String], row: usize) -> bool {
        let rules = self.compiled.rules();
        let event_row = if scope.is_empty() {
            rules.wildcard_row()
        } else {
            match self.interner.get(&scope[row]) {
                Some(sym) => rules.event_row(Cell::Cat(sym)),
                None => rules.wildcard_row(),
            }
        };
        cols.iter().all(|(col, fid)| match col {
            ColRef::Cat(vals) => {
                let s = vals[row].as_str();
                match self.interner.get(s) {
                    Some(sym) => self.compiled.cat_ok(event_row, *fid, sym, self.interner),
                    None => self.compiled.cat_ok_unknown(event_row, *fid, s),
                }
            }
            ColRef::Num(vals) => self.compiled.num_ok(event_row, *fid, vals[row]),
        })
    }

    /// Counts KG-valid rows.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::UnknownColumn`] or
    /// [`DataError::SchemaMismatch`] when `table` lacks a bound column or
    /// disagrees on its kind.
    pub fn count_valid(&self, table: &Table) -> Result<usize, DataError> {
        let cols = self.column_refs(table)?;
        let scope: &[String] = self.scope_refs(table)?;
        Ok((0..table.n_rows())
            .filter(|&row| self.check_row(&cols, scope, row))
            .count())
    }

    /// Fraction of KG-valid rows (1.0 for an empty table).
    ///
    /// # Errors
    ///
    /// Propagates [`KgTableChecker::count_valid`] errors.
    pub fn validity_rate(&self, table: &Table) -> Result<f64, DataError> {
        if table.is_empty() {
            return Ok(1.0);
        }
        Ok(self.count_valid(table)? as f64 / table.n_rows() as f64)
    }

    /// `true` when row `row` of `table` satisfies every applicable rule.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::SchemaMismatch`] on schema mismatch.
    pub fn row_ok(&self, table: &Table, row: usize) -> Result<bool, DataError> {
        let mut invalid = Vec::new();
        self.collect_invalid_rows_in(table, row..row + 1, &mut invalid)?;
        Ok(invalid.is_empty())
    }

    /// Appends the indices of KG-invalid rows to `out` (cleared first) —
    /// the rejection-sampling primitive.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::SchemaMismatch`] on schema mismatch.
    pub fn invalid_rows(&self, table: &Table, out: &mut Vec<usize>) -> Result<(), DataError> {
        out.clear();
        self.collect_invalid_rows_in(table, 0..table.n_rows(), out)
    }

    fn collect_invalid_rows_in(
        &self,
        table: &Table,
        rows: std::ops::Range<usize>,
        out: &mut Vec<usize>,
    ) -> Result<(), DataError> {
        let cols = self.column_refs(table)?;
        let scope: &[String] = self.scope_refs(table)?;
        for row in rows {
            if !self.check_row(&cols, scope, row) {
                out.push(row);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnMeta;
    use crate::value::Value;
    use kinet_kg::NetworkKg;

    fn lab_like_table() -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::categorical("event"),
            ColumnMeta::categorical("protocol"),
            ColumnMeta::continuous("dst_port"),
            ColumnMeta::categorical("src_ip"),
        ]);
        Table::from_rows(
            schema,
            vec![
                vec![
                    Value::cat("cve_1999_0003"),
                    Value::cat("udp"),
                    Value::num(33000.0),
                    Value::cat("192.168.1.12"),
                ],
                vec![
                    Value::cat("cve_1999_0003"),
                    Value::cat("tcp"), // invalid protocol for this event
                    Value::num(33000.0),
                    Value::cat("192.168.1.12"),
                ],
                vec![
                    Value::cat("cve_1999_0003"),
                    Value::cat("udp"),
                    Value::num(80.0), // out of the CVE port window
                    Value::cat("192.168.1.12"),
                ],
                vec![
                    Value::cat("heartbeat"),
                    Value::cat("udp"),
                    Value::num(123.0),
                    Value::cat("10.0.0.1"), // violates the subnet prefix
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn encode_interns_each_distinct_value_once() {
        let kg = NetworkKg::lab_default();
        let t = lab_like_table();
        let enc = EncodedTable::encode(&t, kg.base_interner().clone());
        assert_eq!(enc.n_rows(), 4);
        let ev = enc.cat_syms(0).unwrap();
        assert_eq!(ev[0], ev[1], "same string, same symbol");
        let dict = enc.code_syms(1).unwrap();
        let names: Vec<&str> = dict.iter().map(|&s| enc.interner().resolve(s)).collect();
        assert_eq!(names, ["tcp", "udp"], "dictionary in lexicographic order");
        assert_eq!(enc.code_of_sym(1, dict[1]), Some(1));
        assert_eq!(enc.code_of_sym(1, ev[0]), None, "event sym not in protocol");
        assert_eq!(enc.num_values(2).unwrap()[3], 123.0);
        assert!(enc.cat_syms(2).is_none());
    }

    #[test]
    fn checker_agrees_with_string_reasoner_per_row() {
        let kg = NetworkKg::lab_default();
        let t = lab_like_table();
        let checker = KgTableChecker::new(kg.compiled(), kg.base_interner(), t.schema());
        for row in 0..t.n_rows() {
            let a = row_to_assignment(&t, row);
            assert_eq!(
                checker.row_ok(&t, row).unwrap(),
                kg.reasoner().is_valid(&a).is_valid(),
                "row {row}"
            );
        }
    }

    #[test]
    fn validity_paths_agree() {
        let kg = NetworkKg::lab_default();
        let t = lab_like_table();
        let checker = KgTableChecker::new(kg.compiled(), kg.base_interner(), t.schema());
        let rate = checker.validity_rate(&t).unwrap();
        assert!((rate - 0.25).abs() < 1e-9, "1 of 4 rows valid: {rate}");
        let mut invalid = Vec::new();
        checker.invalid_rows(&t, &mut invalid).unwrap();
        assert_eq!(invalid, vec![1, 2, 3]);
        let empty = Table::empty(t.schema().clone());
        assert_eq!(checker.validity_rate(&empty).unwrap(), 1.0);
    }

    #[test]
    fn checker_resolves_columns_by_name_not_position() {
        let kg = NetworkKg::lab_default();
        let bound = Schema::new(vec![
            ColumnMeta::categorical("event"),
            ColumnMeta::categorical("protocol"),
        ]);
        let checker = KgTableChecker::new(kg.compiled(), kg.base_interner(), &bound);
        // Same columns, opposite order: verdicts must be unchanged.
        let reordered = Table::from_rows(
            Schema::new(vec![
                ColumnMeta::categorical("protocol"),
                ColumnMeta::categorical("event"),
            ]),
            vec![
                vec![Value::cat("udp"), Value::cat("heartbeat")],
                vec![Value::cat("tcp"), Value::cat("heartbeat")], // heartbeat is udp-only
            ],
        )
        .unwrap();
        assert_eq!(checker.validity_rate(&reordered).unwrap(), 0.5);
        // A table missing a bound column errors instead of misbinding.
        let missing = Table::from_rows(
            Schema::new(vec![ColumnMeta::categorical("event")]),
            vec![vec![Value::cat("heartbeat")]],
        )
        .unwrap();
        assert!(checker.count_valid(&missing).is_err());
    }

    #[test]
    fn unknown_categories_fall_back_to_string_semantics() {
        let kg = NetworkKg::lab_default();
        let schema = Schema::new(vec![
            ColumnMeta::categorical("event"),
            ColumnMeta::categorical("protocol"),
        ]);
        let t = Table::from_rows(
            schema,
            vec![
                vec![Value::cat("never_seen_event"), Value::cat("udp")],
                vec![Value::cat("heartbeat"), Value::cat("gopher")],
            ],
        )
        .unwrap();
        let checker = KgTableChecker::new(kg.compiled(), kg.base_interner(), t.schema());
        // Unknown event: wildcard rules only, udp allowed.
        assert!(checker.row_ok(&t, 0).unwrap());
        // Unknown protocol: outside the wildcard allowed set.
        assert!(!checker.row_ok(&t, 1).unwrap());
    }
}
