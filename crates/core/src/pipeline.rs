//! The knowledge-infusion batch pipeline: the D_KG positives of every
//! training step.
//!
//! The paper trains D_KG on "all valid sets of attributes for the
//! conditional vector C queried from the knowledge graph" (§III-B). For
//! each real row of a batch, [`KgTrainPipeline::fill_positives`] re-draws
//! the fields the KG constrains for the row's event class until the
//! candidate is KG-valid, and writes the result into the batch's encoded
//! positives:
//!
//! * the training table is **pre-encoded once** — interned category codes
//!   ([`EncodedTable`]) plus the deterministic CTGAN transform — and every
//!   batch is an index **gather into reused buffers**;
//! * each event class gets a precompiled **sampling plan** (valid-code
//!   tables, numeric ranges, dictionary fallbacks, all over interned
//!   symbols), so drawing a KG-valid positive is a few integer picks and
//!   one O(fields) [`CompiledReasoner::check_cells`] — no allocation per
//!   row.
//!
//! The string [`kinet_kg::Reasoner::sample_valid`] is the readable
//! reference for the same query. The RNG draw sequence (which fields draw,
//! in which order, from which-size sets, in which value order) mirrors it
//! exactly, and `crates/core/tests/pipeline_oracle.rs` checks that both
//! give bit-identical positives and leave the RNG in the same state.

use kinet_data::encoded::EncodedTable;
use kinet_data::transform::{ColumnSpan, DataTransformer, ModeSpecificNormalizer};
use kinet_data::{ColumnKind, DataError, Table};
use kinet_kg::{Cell, CompiledReasoner, NetworkKg, Sym};
use kinet_tensor::Matrix;
use rand::{Rng, RngExt};

/// How one constrained field is filled when sampling a KG-valid positive.
/// Mirrors the branch order of the string reasoner's `sample_valid`:
/// allowed-value sets first, then numeric ranges, then the observed
/// dictionary, else leave the field unset.
#[derive(Clone, Debug)]
enum PlanAction {
    /// Contradictory categorical constraints: sampling gives up and the
    /// positive row stays the real row.
    Contradiction,
    /// Draw uniformly from the precompiled valid-code table (lexicographic
    /// order — the string path's `BTreeSet` iteration order).
    Codes(Vec<Sym>),
    /// Draw uniformly from the inclusive-exclusive numeric range, rounded.
    Range(f64, f64),
    /// Draw uniformly from the column's dictionary (for fields only
    /// constrained by prefix rules, which have no enumerable value set).
    Domain(usize),
    /// No constraint and no dictionary: the field stays unset.
    Skip,
}

/// Where an accepted draw lands in the encoded output row.
#[derive(Clone, Copy, Debug)]
enum WriteTarget {
    /// One-hot block of a categorical column.
    Cat { col: usize, span: ColumnSpan },
    /// Alpha + mode block of a continuous column (`col` indexes
    /// [`KgTrainPipeline::normalizers`]).
    Num { col: usize, span: ColumnSpan },
    /// The rule's value type clashes with the schema column's kind (e.g.
    /// `AllowedValues` on a continuous column). The string reference
    /// fails `Table::from_rows` kind validation the moment such a sampled
    /// value lands on the column; the pipeline raises the same error at
    /// the same point instead of silently skipping the write.
    Conflict { col: usize },
}

#[derive(Clone, Debug)]
struct PlanField {
    fid: usize,
    action: PlanAction,
    write: Option<WriteTarget>,
}

/// Per-fit state of the knowledge-infusion loop.
pub struct KgTrainPipeline {
    compiled: CompiledReasoner,
    enc: EncodedTable,
    /// Deterministic CTGAN encoding of the training table — the base the
    /// per-batch positive rows are gathered from.
    det_encoded: Matrix,
    /// Per training row: the compiled event row of its scope value.
    event_rows: Vec<u16>,
    /// Per training row: the interned scope symbol, if the scope column
    /// exists and is categorical.
    scope_syms: Option<Vec<Sym>>,
    /// Per event row: the sampling plan over its constrained fields, in
    /// sorted field-name order (the string reference's iteration order).
    plans: Vec<Vec<PlanField>>,
    /// Cloned normalizers of continuous columns (schema order).
    normalizers: Vec<Option<ModeSpecificNormalizer>>,
    scope_fid: usize,
    /// Scratch: the candidate assignment, indexed by compiled field id.
    cells: Vec<Cell>,
}

impl KgTrainPipeline {
    /// Pre-encodes `table` and compiles the per-event sampling plans.
    ///
    /// # Panics
    ///
    /// When `transformer` cannot encode `table`; callers pass the table it
    /// was fitted on.
    pub fn new(kg: &NetworkKg, table: &Table, transformer: &DataTransformer) -> Self {
        let compiled = kg.compiled().clone();
        let enc = EncodedTable::encode(table, kg.base_interner().clone());
        let det_encoded = transformer
            .transform_deterministic(table)
            .expect("the transformer was fitted on this table");
        let rules = compiled.rules();
        let schema = table.schema();

        let scope_col = schema
            .index_of(rules.scope_field())
            .filter(|&c| schema.column(c).kind() == ColumnKind::Categorical);
        let scope_syms = scope_col.map(|c| enc.cat_syms(c).expect("categorical").to_vec());
        let event_rows: Vec<u16> = match &scope_syms {
            Some(syms) => syms
                .iter()
                .map(|&s| rules.event_row(Cell::Cat(s)) as u16)
                .collect(),
            None => vec![rules.wildcard_row() as u16; table.n_rows()],
        };

        let normalizers = schema
            .iter()
            .map(|col| transformer.normalizer(col.name()).cloned())
            .collect();

        let mut plans = Vec::with_capacity(rules.n_event_rows());
        for row in 0..rules.n_event_rows() {
            let mut plan = Vec::new();
            // Field ids ascend in sorted-name order, matching the sorted,
            // deduplicated constrained-field list of the string reference.
            for fid in 0..rules.n_fields() {
                if fid == rules.scope_fid() || !compiled.is_constrained(row, fid) {
                    continue;
                }
                let name = rules.field_name(fid);
                let schema_col = schema.index_of(name);
                let action = if let Some(codes) = compiled.valid_codes(row, fid) {
                    if codes.is_empty() {
                        PlanAction::Contradiction
                    } else {
                        PlanAction::Codes(codes.to_vec())
                    }
                } else if let Some((lo, hi)) = compiled.valid_range(row, fid) {
                    PlanAction::Range(lo, hi)
                } else {
                    // Prefix-only constraint: the string reference falls back
                    // to the observed dictionary of the (categorical)
                    // column, or leaves the field unset.
                    match schema_col {
                        Some(c) if schema.column(c).kind() == ColumnKind::Categorical => {
                            PlanAction::Domain(c)
                        }
                        _ => PlanAction::Skip,
                    }
                };
                let write = schema_col.and_then(|c| {
                    let span = transformer.spans()[c];
                    match (schema.column(c).kind(), &action) {
                        (ColumnKind::Categorical, PlanAction::Codes(_) | PlanAction::Domain(_)) => {
                            Some(WriteTarget::Cat { col: c, span })
                        }
                        (ColumnKind::Continuous, PlanAction::Range(..)) => {
                            Some(WriteTarget::Num { col: c, span })
                        }
                        (ColumnKind::Continuous, PlanAction::Codes(_))
                        | (ColumnKind::Categorical, PlanAction::Range(..)) => {
                            Some(WriteTarget::Conflict { col: c })
                        }
                        _ => None,
                    }
                });
                plan.push(PlanField { fid, action, write });
            }
            plans.push(plan);
        }

        let scope_fid = rules.scope_fid();
        let n_fields = rules.n_fields();
        Self {
            compiled,
            enc,
            det_encoded,
            event_rows,
            scope_syms,
            plans,
            normalizers,
            scope_fid,
            cells: vec![Cell::Missing; n_fields],
        }
    }

    /// Fills `out` with one KG-valid positive per index of `real_idx`:
    /// the real row's deterministic encoding with its constrained fields
    /// re-drawn from the compiled valid sets (up to `max_tries` rejection
    /// rounds per row; rows whose constraints cannot be satisfied keep
    /// their original encoding). The draws consume `rng` in exactly the
    /// string reference's order.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::SchemaMismatch`] when an accepted sample puts
    /// a value of the wrong kind on a schema column (a rule/schema type
    /// conflict) — the point where the string reference's
    /// `Table::from_rows` fails.
    pub fn fill_positives(
        &mut self,
        real_idx: &[usize],
        out: &mut Matrix,
        rng: &mut impl Rng,
        max_tries: usize,
    ) -> Result<(), DataError> {
        self.det_encoded.gather_rows_into(real_idx, out);
        for (i, &row) in real_idx.iter().enumerate() {
            let event_row = self.event_rows[row] as usize;
            if self.plans[event_row].is_empty() {
                continue;
            }
            let scope_sym = self.scope_syms.as_ref().map(|s| s[row]);
            if self.sample_candidate(event_row, scope_sym, rng, max_tries) {
                self.write_accepted(event_row, out.row_mut(i))?;
            }
        }
        Ok(())
    }

    /// Runs the rejection loop for one row, leaving the accepted candidate
    /// in `self.cells`. Returns `false` when no valid combination was found
    /// (including the contradictory-constraint early exit).
    fn sample_candidate(
        &mut self,
        event_row: usize,
        scope_sym: Option<Sym>,
        rng: &mut impl Rng,
        max_tries: usize,
    ) -> bool {
        let cells = &mut self.cells;
        let plan = &self.plans[event_row];
        for _ in 0..max_tries.max(1) {
            cells.fill(Cell::Missing);
            if let Some(sym) = scope_sym {
                cells[self.scope_fid] = Cell::Cat(sym);
            }
            for pf in plan {
                match &pf.action {
                    PlanAction::Contradiction => return false,
                    PlanAction::Codes(codes) => {
                        let pick = codes[rng.random_range(0..codes.len())];
                        cells[pf.fid] = Cell::Cat(pick);
                    }
                    PlanAction::Range(lo, hi) => {
                        let v = if hi > lo {
                            rng.random_range(*lo..*hi)
                        } else {
                            *lo
                        };
                        cells[pf.fid] = Cell::Num(v.round());
                    }
                    PlanAction::Domain(col) => {
                        let dict = self.enc.code_syms(*col).expect("categorical");
                        if dict.is_empty() {
                            continue;
                        }
                        cells[pf.fid] = Cell::Cat(dict[rng.random_range(0..dict.len())]);
                    }
                    PlanAction::Skip => {}
                }
            }
            if self.compiled.check_cells(cells, self.enc.interner()) {
                return true;
            }
        }
        false
    }

    /// Writes the accepted candidate's fields over the gathered encoding of
    /// one output row. Categories outside the column's training dictionary
    /// cannot be one-hot encoded and keep the original value — the same
    /// rule the string reference applies.
    fn write_accepted(&self, event_row: usize, orow: &mut [f32]) -> Result<(), DataError> {
        for pf in &self.plans[event_row] {
            let Some(write) = pf.write else { continue };
            match (write, self.cells[pf.fid]) {
                (WriteTarget::Cat { col, span }, Cell::Cat(sym)) => {
                    if let Some(code) = self.enc.code_of_sym(col, sym) {
                        orow[span.start..span.start + span.width].fill(0.0);
                        orow[span.start + code] = 1.0;
                    }
                }
                (WriteTarget::Num { col, span }, Cell::Num(v)) => {
                    let norm = self.normalizers[col].as_ref().expect("continuous");
                    let (alpha, mode) = norm.encode_deterministic(v);
                    orow[span.start..span.start + span.width].fill(0.0);
                    orow[span.start] = alpha;
                    orow[span.start + 1 + mode] = 1.0;
                }
                (WriteTarget::Conflict { col }, cell) if cell != Cell::Missing => {
                    // kinet-lint: allow(hot-path-allocation) — terminal error path, aborts the batch loop
                    return Err(DataError::SchemaMismatch(format!(
                        "KG rule on field {:?} samples values of the wrong kind for {} column {:?}",
                        self.compiled.rules().field_name(pf.fid),
                        self.enc.schema().column(col).kind(),
                        self.enc.schema().column(col).name(),
                    )));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for KgTrainPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "KgTrainPipeline({} rows, {} event rows, {} fields)",
            self.enc.n_rows(),
            self.plans.len(),
            self.cells.len()
        )
    }
}
